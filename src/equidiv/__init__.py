"""Choice-free equivariant division of bijections f : A x C -> B x C.

Importing the package loads no submodule: each exported name is imported
from its submodule on first access (PEP 562), so ``from equidiv import X``
loads only the modules that ``X`` needs.
"""

import importlib

#: Exported names, by the submodule that defines them.
_EXPORTS = {
    "bijection": "BijFile ProdBij parse_bijection serialize_bijection",
    "bruteforce": "all_equivariant_quotients quotient_exists_bruteforce",
    "division": "fp_divide parallelize",
    "equivariance": "Budget Certificate Orbit apply_pair equivariant_quotient "
    "is_symmetry nonexistence_from_symmetries pair_orbits parse_symmetries "
    "render_certificate render_symmetries stabilizer",
    "errors": "BudgetExceeded EquidivError FormatError",
    "gallery": "CayleyTable CheckeredProduct checkered_product regular_rep "
    "render_parallel_table shift_table",
    "lazy": "LazyBij SymbolPerm build_counterexample lazy_apply_symbols "
    "lazy_check_symmetry lazy_equal ordering_gadget render_lazy",
    "perm": "Perm PermGroup SymTriple format_cycles parse_cycles",
    "search": "ProbeReport extract_basepoint gcd_filter probe_cancelling",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
