"""Choice-free equivariant division of bijections f : A x C -> B x C."""

from .bijection import (
    BijFile,
    PartialMap,
    ProdBij,
    SubtractResult,
    parse_bijection,
    serialize_bijection,
)
from .bruteforce import all_equivariant_quotients, quotient_exists_bruteforce
from .division import fp_divide, parallelize
from .equivariance import (
    Budget,
    Certificate,
    Orbit,
    SymTriple,
    apply_pair,
    equivariant_quotient,
    is_symmetry,
    nonexistence_from_symmetries,
    pair_orbits,
    parse_symmetries,
    render_certificate,
    render_symmetries,
    stabilizer,
)
from .errors import BudgetExceeded, EquidivError, FormatError
from .gallery import (
    CayleyTable,
    CheckeredProduct,
    checkered_product,
    regular_rep,
    render_parallel_table,
    shift_table,
)
from .lazy import (
    LazyBij,
    SymbolPerm,
    build_counterexample,
    lazy_apply_symbols,
    lazy_check_symmetry,
    lazy_equal,
    ordering_gadget,
    render_lazy,
)
from .perm import Perm, PermGroup, format_cycles, parse_cycles
from .search import (
    ProbeReport,
    extract_basepoint,
    fp_basepoint_divider,
    gcd_filter,
    probe_cancelling,
)

__version__ = "0.1.0"
