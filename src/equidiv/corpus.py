"""Built-in verification corpus for the gallery tables and identities.

Each item is a named check that raises AssertionError on failure; the
runner prints one pass/fail line per item.  The acceptance test suite runs
the same items, so `equidiv verify-paper` and `pytest` agree by
construction.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, TextIO

from .bijection import ProdBij
from .bruteforce import all_equivariant_quotients
from .division import fp_divide, parallelize
from .equivariance import (
    SymTriple,
    equivariant_quotient,
    is_symmetry,
    nonexistence_from_symmetries,
    parse_symmetries,
)
from .gallery import (
    CayleyTable,
    checkered_product,
    regular_rep,
    render_parallel_table,
    shift_table,
)
from .lazy import (
    SymbolPerm,
    build_counterexample,
    lazy_apply_symbols,
    lazy_check_symmetry,
    lazy_equal,
    ordering_gadget,
    render_lazy,
)
from .perm import Perm, PermGroup, format_cycles, parse_cycles
from .search import extract_basepoint, gcd_filter, probe_cancelling


def two_by_two_counterexample() -> ProdBij:
    """The minimal non-cancelling instance: f(a, c) = (a xor c, c)."""
    return regular_rep(CayleyTable.cyclic(2))


def two_row_nonparallel() -> ProdBij:
    """Rows Ka,Kb / Qb,Qa: the smallest non-parallel gallery instance."""
    return ProdBij.from_flat((0, 2, 3, 1), 2, 2)  # the rows above as c'*nA + b per cell


# -- items --------------------------------------------------------------------


def check_2x2_full_group() -> None:
    f = two_by_two_counterexample()
    cert = equivariant_quotient(f, PermGroup.symmetric(2))
    assert cert.verdict == "not-exists"
    assert cert.reason == "half-fixed-witness"
    w = cert.witness
    assert w is not None
    assert w.alpha.is_identity()
    assert w.beta.images == (1, 0) and w.gamma.images == (1, 0)


def check_2x2_trivial_group() -> None:
    f = two_by_two_counterexample()
    cert = equivariant_quotient(f, PermGroup.trivial(2))
    assert cert.verdict == "exists"
    assert cert.quotient == Perm.identity(2)
    syms = {(t.alpha.images, t.beta.images) for t in cert.verified_against}
    assert syms == {((0, 1), (0, 1)), ((1, 0), (1, 0))}


def check_3x3_cyclic() -> None:
    f = regular_rep(CayleyTable.cyclic(3))
    rows = [f.row(c) for c in range(3)]
    assert rows == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    (t,) = parse_symmetries("alpha ()\nbeta (0,1,2)\ngamma (0,1,2)", "012", "012", "012")
    assert is_symmetry(f, t)
    cert = equivariant_quotient(f, PermGroup.symmetric(3))
    assert cert.verdict == "not-exists" and cert.reason == "half-fixed-witness"


def check_klein_table() -> None:
    f = regular_rep(CayleyTable.klein())
    rows = [f.row(c) for c in range(4)]
    assert rows == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    for b_c in ("(0,1)(2,3)", "(0,2)(1,3)"):
        (t,) = parse_symmetries(f"alpha ()\nbeta {b_c}\ngamma {b_c}", "0123", "0123", "0123")
        assert is_symmetry(f, t)
    klein_gamma = PermGroup(
        4, (Perm.from_cycles([(0, 1), (2, 3)], 4), Perm.from_cycles([(0, 2), (1, 3)], 4))
    )
    assert equivariant_quotient(f, klein_gamma).verdict == "not-exists"


def check_duplicated_2x2() -> None:
    # the 2-column, 4-row instance killed by the subgroup <(a,b)(c,d)>
    f = ProdBij.parallel_from_rows([(0, 1), (1, 0), (0, 1), (1, 0)])
    gamma = Perm.from_cycles([(0, 1), (2, 3)], 4)
    t = SymTriple(Perm.identity(2), Perm((1, 0)), gamma)
    assert is_symmetry(f, t)
    cert = equivariant_quotient(f, PermGroup(4, (gamma,)))
    assert cert.verdict == "not-exists" and cert.reason == "half-fixed-witness"


def check_fp_divide_examples() -> None:
    e1 = two_by_two_counterexample()
    assert fp_divide(e1, 0) == Perm.identity(2)
    assert fp_divide(e1, 1) == Perm((1, 0))
    f1 = two_row_nonparallel()
    assert fp_divide(f1, 0) == Perm.identity(2)
    bar = parallelize(f1)
    assert bar.is_parallel()
    assert [bar.row(c) for c in range(2)] == [(0, 1), (1, 0)]


def check_lazy_tables() -> None:
    expected = {
        "(0,1)|ab": [
            "row a: Ka Kb",
            "row b: Qb Qa",
        ],
        "(0,1,2)|abc": [
            "row a: Ka Kb Kc",
            "row b: Qb Qc Qa",
            "row c: Jc Ja Jb",
        ],
        "(0,1)(2,3)|abcd": [
            "row a: Ka Kb Kc Kd",
            "row b: Qb Qa Qd Qc",
            "row c: Ja Jb Jc Jd",
            "row d: Xb Xa Xd Xc",
        ],
        "(0,1)|abc": [
            "row a: Ka Kb Kc 1a 2a 3a",
            "row b: Qb Qa Qc 1b 2b 3b",
            "row c: 1c 2c 3c 4c 5c 6c",
        ],
        "(0,1,2)|abcd": [
            "row a: Ka Kb Kc Kd 1a 2a 3a 4a",
            "row b: Qb Qc Qa Qd 1b 2b 3b 4b",
            "row c: Jc Ja Jb Jd 1c 2c 3c 4c",
            "row d: 1d 2d 3d 4d 5d 6d 7d 8d",
        ],
        "(0,1,2)|abcde": [
            "row a: Ka Kb Kc Kd Ke 1a 2a 3a 4a",
            "row b: Qb Qc Qa Qd Qe 1b 2b 3b 4b",
            "row c: Jc Ja Jb Jd Je 1c 2c 3c 4c",
            "row d: 1d 2d 3d 4d 5d 6d 7d 8d 9d",
            "row e: 1e 2e 3e 4e 5e 6e 7e 8e 9e",
        ],
        "(0,1)(2,3)|abcde": [
            "row a: Ka Kb Kc Kd Ke 1a 2a 3a 4a",
            "row b: Qb Qa Qd Qc Qe 1b 2b 3b 4b",
            "row c: Ja Jb Jc Jd Je 1c 2c 3c 4c",
            "row d: Xb Xa Xd Xc Xe 1d 2d 3d 4d",
            "row e: 1e 2e 3e 4e 5e 6e 7e 8e 9e",
        ],
    }
    for key, lines in expected.items():
        cyc, labs = key.split("|")
        labels = tuple(labs)
        gamma = parse_cycles(cyc, [str(i) for i in range(len(labels))])
        lazy = build_counterexample(gamma, labels)
        window = len(lines[0].split()) - 2
        assert render_lazy(lazy, window).splitlines() == lines, key
        assert lazy_check_symmetry(lazy, lazy.beta_on_symbols, lazy.gamma), key
        assert not lazy.beta_on_symbols.is_identity()
        # a wrong guess must be rejected, exactly
        assert not lazy_check_symmetry(lazy, SymbolPerm(tuple((s, s) for s in lazy.symbols)), gamma)


#: The groups whose regular representations the forcing and translation checks use.
SMALL_GROUPS = {
    "Z2": CayleyTable.cyclic(2),
    "Z3": CayleyTable.cyclic(3),
    "Z4": CayleyTable.cyclic(4),
    "Klein": CayleyTable.klein(),
    "Z5": CayleyTable.cyclic(5),
}


def check_regular_rep_forcing() -> None:
    for name, table in SMALL_GROUPS.items():
        f = regular_rep(table)
        quotients = all_equivariant_quotients(f, PermGroup.trivial(table.n))
        rows = {f.row(c) for c in range(table.n)}
        assert {h.images for h in quotients} == rows, name


def check_right_translation() -> None:
    for table in SMALL_GROUPS.values():
        f = regular_rep(table)
        for g in range(table.n):
            shift = table.right_translation(g)
            if not shift.is_identity():
                cert = equivariant_quotient(f, PermGroup(table.n, (shift,)))
                assert cert.verdict == "not-exists", (table.n, g)


_CHECKERED_EXPECTED = [
    "row a: 0̄0 0̄1 0̄2 1̄0 1̄1 1̄2 00̄ 01̄ 02̄ 10̄ 11̄ 12̄",
    "row b: 0̄1 0̄2 0̄0 1̄1 1̄2 1̄0 02̄ 00̄ 01̄ 12̄ 10̄ 11̄",
    "row c: 0̄2 0̄0 0̄1 1̄2 1̄0 1̄1 01̄ 02̄ 00̄ 11̄ 12̄ 10̄",
    "row d: 00̄ 01̄ 02̄ 10̄ 11̄ 12̄ 0̄0 0̄1 0̄2 1̄0 1̄1 1̄2",
    "row e: 10̄ 11̄ 12̄ 00̄ 01̄ 02̄ 1̄0 1̄1 1̄2 0̄0 0̄1 0̄2",
]


def _checkered_5() -> "tuple":
    sigma = parse_cycles("(a,b,c)(d,e)", "abcde")
    return checkered_product(sigma, tuple("abcde"))


def check_checkered_table() -> None:
    prod = _checkered_5()
    assert prod.a_labels == (
        "0̄0̄", "0̄1̄", "0̄2̄", "1̄0̄", "1̄1̄", "1̄2̄",
        "00", "01", "02", "10", "11", "12",
    )
    got = render_parallel_table(prod.bij, prod.b_labels, prod.c_labels)
    assert got.splitlines() == _CHECKERED_EXPECTED
    # single-cycle instances reduce to the bare shift blocks
    q = checkered_product(parse_cycles("(d,e)", "de"), ("d", "e"))
    assert [q.bij.row(c) for c in range(2)] == [(0, 1), (1, 0)]
    p = checkered_product(parse_cycles("(a,b,c)", "abc"), ("a", "b", "c"))
    assert [p.bij.row(c) for c in range(3)] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def check_checkered_symmetries() -> None:
    prod = _checkered_5()
    for t in prod.triples:
        assert is_symmetry(prod.bij, t)
    printed = {
        ("(a,b,c)", "(00,01,02)(10,11,12)", "(0̄0,0̄1,0̄2)(1̄0,1̄1,1̄2)"),
        ("(d,e)", "(00,10)(01,11)(02,12)", "(00̄,10̄)(01̄,11̄)(02̄,12̄)"),
        (
            "(a,b,c)(d,e)",
            "(00,11,02,10,01,12)",
            "(0̄0,0̄1,0̄2)(1̄0,1̄1,1̄2)(00̄,10̄)(01̄,11̄)(02̄,12̄)",
        ),
    }
    rendered = {
        (
            format_cycles(t.gamma, prod.c_labels),
            format_cycles(t.alpha, prod.a_labels),
            format_cycles(t.beta, prod.b_labels),
        )
        for t in prod.triples
    }
    assert printed <= rendered, rendered


def check_checkered_nonexistence() -> None:
    prod = _checkered_5()
    sigma = parse_cycles("(a,b,c)(d,e)", prod.c_labels)
    sigma_powers = PermGroup(sigma.degree, (sigma,)).elements()
    subset = [t for t in prod.triples if t.gamma in sigma_powers]
    assert len(subset) == 5
    cert = nonexistence_from_symmetries(prod.bij, subset)
    assert cert is not None and cert.verdict == "not-exists"
    assert cert.reason == "orbit-exhaustion"


def check_guise_identities() -> None:
    labels = ("a", "b", "c")
    f = shift_table(("a", "b", "c"), labels)
    rot_b = Perm.from_cycles([(0, 1, 2)], 3)
    ident = Perm.identity(3)
    assert f.transform(ident, rot_b, ident) == shift_table(("c", "a", "b"), labels)
    swap12 = Perm.from_cycles([(1, 2)], 3)
    assert f.transform(swap12, swap12, ident) == shift_table(("a", "c", "b"), labels)
    # the defining symmetry: simultaneous rotation of A and B fixes every guise
    rot_a = Perm.from_cycles([(0, 1, 2)], 3)
    for order in itertools.permutations(labels):
        g = shift_table(order, labels)
        assert g.transform(rot_a, rot_b, ident) == g
    # lazy ordering gadget: swapping the symbols swaps the guises
    swapped = lazy_apply_symbols(
        ordering_gadget("a", "b", "c"), SymbolPerm((("K", "Q"), ("Q", "K")))
    )
    assert lazy_equal(swapped, ordering_gadget("b", "a", "c"))


def check_basepoint_extraction() -> None:
    labels = ("a", "b", "c")
    for star in range(3):
        got = extract_basepoint(functools.partial(fp_divide, star=star), labels)
        assert got == labels[star], (star, got)


def check_probe_2_2() -> None:
    report = probe_cancelling(
        2, 2, PermGroup.symmetric(2), "all", group_name="full"
    )
    assert report.total == 24
    assert len(report.counterexamples) >= 1
    # candidate 1 of itertools.permutations(range(4)) is (0, 1, 3, 2): f(a, c) = (a xor c, c)
    assert any(c.index == 1 for c in report.counterexamples)
    assert ProdBij.from_flat((0, 1, 3, 2), 2, 2) == two_by_two_counterexample()


def check_probe_2_3() -> None:
    report = probe_cancelling(
        2, 3, PermGroup.symmetric(3), "all", group_name="full"
    )
    assert report.total == 720
    assert len(report.counterexamples) == 0


def check_gcd_condition() -> None:
    assert gcd_filter(2, 3) is True
    assert gcd_filter(2, 2) is False
    assert gcd_filter(8, 11) is True


ITEMS: list[tuple[str, Callable[[], None]]] = [
    ("two-by-two-not-exists-full", check_2x2_full_group),
    ("two-by-two-exists-trivial", check_2x2_trivial_group),
    ("cyclic-3-table", check_3x3_cyclic),
    ("klein-table", check_klein_table),
    ("duplicated-two-by-two", check_duplicated_2x2),
    ("fp-divide-examples", check_fp_divide_examples),
    ("lazy-tables", check_lazy_tables),
    ("regular-rep-forcing", check_regular_rep_forcing),
    ("right-translation", check_right_translation),
    ("checkered-table", check_checkered_table),
    ("checkered-symmetries", check_checkered_symmetries),
    ("checkered-nonexistence", check_checkered_nonexistence),
    ("guise-identities", check_guise_identities),
    ("basepoint-extraction", check_basepoint_extraction),
    ("probe-2x2-full", check_probe_2_2),
    ("probe-2x3-full", check_probe_2_3),
    ("gcd-condition", check_gcd_condition),
]


def run_corpus(out: TextIO) -> bool:
    ok = True
    for name, fn in ITEMS:
        try:
            fn()
        except AssertionError as exc:
            detail = f": {exc}" if str(exc) else ""
            out.write(f"FAIL {name}{detail}\n")
            ok = False
        else:
            out.write(f"ok {name}\n")
    out.write(("all checks passed\n") if ok else ("some checks FAILED\n"))
    return ok
