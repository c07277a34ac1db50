"""What each entry point imports, and the package's lazy export table.

The import checks run in fresh interpreters, because the suite itself has
imported the whole package by the time any test runs.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equidiv

SRC = Path(equidiv.__file__).resolve().parent.parent

#: The package's exported names, by the submodule that defines them.
EXPORTS = {
    "bijection": ["BijFile", "ProdBij", "parse_bijection", "serialize_bijection"],
    "bruteforce": ["all_equivariant_quotients", "quotient_exists_bruteforce"],
    "division": ["fp_divide", "parallelize"],
    "equivariance": [
        "Budget", "Certificate", "Orbit", "apply_pair",
        "equivariant_quotient", "is_symmetry", "nonexistence_from_symmetries",
        "pair_orbits", "parse_symmetries", "render_certificate", "render_symmetries",
        "stabilizer",
    ],
    "errors": ["BudgetExceeded", "EquidivError", "FormatError"],
    "gallery": [
        "CayleyTable", "CheckeredProduct", "checkered_product", "regular_rep",
        "render_parallel_table", "shift_table",
    ],
    "lazy": [
        "LazyBij", "SymbolPerm", "build_counterexample", "lazy_apply_symbols",
        "lazy_check_symmetry", "lazy_equal", "ordering_gadget", "render_lazy",
    ],
    "perm": ["Perm", "PermGroup", "SymTriple", "format_cycles", "parse_cycles"],
    "search": ["ProbeReport", "extract_basepoint", "gcd_filter", "probe_cancelling"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]

#: What ``import equidiv.cli`` loads of the package: all that ``divide`` and
#: ``parallelize`` run.
SHARED = {"equidiv.bijection", "equidiv.cli", "equidiv.division", "equidiv.errors", "equidiv.perm"}
#: The worker-pool stack, which only a probe that starts workers loads.
HEAVY = {"multiprocessing", "concurrent.futures"}

Z3 = "EQUIDIV 1\nbij nA 3 nB 3 nC 3\n" + "".join(
    f"row {c}: " + " ".join(f"{(a + c) % 3}:{(a + 2 * c) % 3}" for a in range(3)) + "\n"
    for c in range(3)
)


def modules_after(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``,
    less those it had loaded before."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def package_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.startswith("equidiv.")}


class TestImportsOnDemand:
    def test_package_loads_no_submodule(self, tmp_path):
        assert package_modules(modules_after("import equidiv", tmp_path)) == set()

    def test_cli_loads_only_the_shared_modules(self, tmp_path):
        loaded = modules_after("import equidiv.cli", tmp_path)
        assert package_modules(loaded) == SHARED
        assert not loaded & HEAVY

    @pytest.mark.parametrize(
        "argv",
        [["divide", "--in", "z3.eqd", "--base", "0"], ["parallelize", "--in", "z3.eqd"]],
    )
    def test_division_commands_skip_the_solver(self, tmp_path, argv):
        (tmp_path / "z3.eqd").write_text(Z3)
        code = f"from equidiv.cli import main\nassert main({argv!r}) == 0"
        assert package_modules(modules_after(code, tmp_path)) == SHARED

    def test_serial_probe_loads_no_pool_and_no_gallery(self, tmp_path):
        code = "from equidiv.cli import main\nassert main(['probe', '--nA', '2', '--nC', '2']) == 0"
        loaded = modules_after(code, tmp_path)
        assert package_modules(loaded) == SHARED | {"equidiv.equivariance", "equidiv.search"}
        assert not loaded & HEAVY

    def test_oracle_loads_no_solver(self, tmp_path):
        loaded = package_modules(modules_after("import equidiv.bruteforce", tmp_path))
        assert "equidiv.equivariance" not in loaded

    @pytest.mark.parametrize(
        "args,extra",
        [
            (["cyclic", "6"], set()),
            (["klein"], set()),
            (["checkered", "(a,b,c)(d,e)"], set()),
            (["gadget-xyz", "y,z,x"], set()),
            (["thm4", "(a,b)", "--window", "3"], {"equidiv.lazy"}),
        ],
        ids=["cyclic", "klein", "checkered", "gadget-xyz", "thm4"],
    )
    def test_gallery_loads_no_solver(self, tmp_path, args, extra):
        code = f"from equidiv.cli import main\nassert main({['gallery', *args]!r}) == 0"
        loaded = package_modules(modules_after(code, tmp_path))
        assert loaded == SHARED | {"equidiv.gallery"} | extra


class TestExportTable:
    def test_dir_lists_exactly_the_pinned_names(self):
        public = {
            name for name in dir(equidiv)
            if not name.startswith("_") and not inspect.ismodule(getattr(equidiv, name))
        }
        assert len(EXPORTED) == 46
        assert public == {name for _, name in EXPORTED}

    @pytest.mark.parametrize("module,name", EXPORTED)
    def test_name_is_the_submodules_object(self, module, name):
        scope = {}
        exec(f"from equidiv import {name}", scope)
        assert scope[name] is getattr(importlib.import_module(f"equidiv.{module}"), name)

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from equidiv import *", scope)
        assert set(scope) >= {name for _, name in EXPORTED}

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            equidiv.nope
        with pytest.raises(ImportError):
            exec("from equidiv import nope", {})
