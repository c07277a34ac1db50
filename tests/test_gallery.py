import hashlib
import itertools
import random
from math import prod

import pytest

from equidiv import (
    CayleyTable,
    Perm,
    PermGroup,
    checkered_product,
    equivariant_quotient,
    is_symmetry,
    parse_cycles,
    regular_rep,
    render_parallel_table,
    shift_table,
)
from equidiv.corpus import (
    check_checkered_nonexistence,
    check_checkered_symmetries,
    check_checkered_table,
    check_guise_identities,
    check_klein_table,
    check_regular_rep_forcing,
    check_right_translation,
)
from equidiv.cli import main

#: sha256 of ``gallery checkered SIGMA`` stdout (first 16 hex digits), for
#: every fixed-point-free cycle type on at most six letters, and one sigma
#: whose cycles interleave.
CHECKERED_DIGESTS = {
    "(a,b)": "29cd5aa55f51e70e",
    "(a,b,c)": "09a1e24c07626393",
    "(a,b,c,d)": "d85ffc43b31044ac",
    "(a,b)(c,d)": "a48a5027cdf34682",
    "(a,b,c,d,e)": "9f7d253a9b3e0ea8",
    "(a,b,c)(d,e)": "58dfd6203ff7dd3f",
    "(a,b,c,d,e,f)": "bd946b234b6177e2",
    "(a,b,c,d)(e,f)": "540189fae551de94",
    "(a,b,c)(d,e,f)": "ddb01fb1802c2566",
    "(a,b)(c,d)(e,f)": "db6ea58975c53dcf",
    "(a,c)(b,d,e)": "00c38345e2a880d0",
}


class TestCayleyTable:
    def test_cyclic_and_klein_are_groups(self):
        for t in (CayleyTable.cyclic(1), CayleyTable.cyclic(5), CayleyTable.klein()):
            assert t.right_translation(0).is_identity()

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 1), (0, 1)),  # no two-sided identity
            ((0, 1), (1, 1)),  # no inverse for 1
            ((0, 1, 2), (1, 2, 0)),  # not square
            (),  # no element
            ((0, 1), (1, 2)),  # entry 2 out of range
        ],
    )
    def test_rejects_non_groups(self, rows):
        with pytest.raises(ValueError):
            CayleyTable(rows)

    def test_rejects_nonassociative(self):
        # a quasigroup with identity that is not a group
        rows = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(ValueError):
            CayleyTable(rows)

    def test_laws_agree_with_their_definition(self):
        # every reduced Latin square of order <= 5 (63 of them), then random
        # tables with identity 0, against the laws checked by definition, in
        # the same order and with the same message
        def by_definition(rows):
            rng = range(len(rows))
            if any(0 not in r for r in rows):
                return "missing inverse"
            for x, y, z in itertools.product(rng, repeat=3):
                if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                    return "product is not associative"
            return None

        def checked(rows):
            try:
                CayleyTable(rows)
            except ValueError as exc:
                return str(exc)
            return None

        def reduced_latin(n, rows):
            if len(rows) == n:
                yield rows
                return
            for row in itertools.permutations(range(n)):
                if row[0] == len(rows) and all(a != b for r in rows for a, b in zip(r, row)):
                    yield from reduced_latin(n, rows + (row,))

        squares = [rows for n in range(1, 6) for rows in reduced_latin(n, (tuple(range(n)),))]
        assert len(squares) == 63
        rng = random.Random(0)
        tables = [
            tuple(tuple(range(n)) if x == 0 else (x, *rng.choices(range(n), k=n - 1)) for x in range(n))
            for n in (rng.randint(1, 5) for _ in range(20_000))
        ]
        seen = set()
        for rows in squares + tables:
            assert checked(rows) == by_definition(rows), rows
            seen.add(by_definition(rows))
        assert seen == {None, "missing inverse", "product is not associative"}

    def test_translations(self):
        t = CayleyTable.cyclic(3)
        assert t.right_translation(2) == Perm((2, 0, 1))


class TestRegularRep:
    def test_is_parallel_with_translation_rows(self):
        t = CayleyTable.klein()
        f = regular_rep(t)
        assert f.is_parallel()
        for c in range(4):
            assert f.row(c) == t.right_translation(c).images

    def test_klein_corpus(self):
        check_klein_table()

    def test_forcing_corpus(self):
        check_regular_rep_forcing()

    def test_right_translation_corpus(self):
        check_right_translation()

    def test_left_translations_are_symmetries(self):
        # (alpha, beta) = (left mult by g, left mult by g), gamma = id
        from equidiv import SymTriple

        t = CayleyTable.cyclic(4)
        f = regular_rep(t)
        for g in range(4):
            lt = Perm(t.product[g])
            assert is_symmetry(f, SymTriple(lt, lt, Perm.identity(4)))


class TestCheckered:
    def test_printed_table_corpus(self):
        check_checkered_table()

    def test_symmetries_corpus(self):
        check_checkered_symmetries()

    def test_nonexistence_corpus(self):
        check_checkered_nonexistence()

    def test_rejects_fixed_points(self):
        with pytest.raises(ValueError):
            checkered_product(parse_cycles("(a,b)", "abc"), ("a", "b", "c"))
        with pytest.raises(ValueError):
            checkered_product(Perm.identity(0), ())

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError, match="label count must match degree"):
            checkered_product(parse_cycles("(a,b)", "ab"), ("a", "b", "c"))

    @pytest.mark.parametrize("sigma", CHECKERED_DIGESTS)
    def test_output_digest(self, capsys, sigma):
        assert main(["gallery", "checkered", sigma]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == CHECKERED_DIGESTS[sigma]

    @pytest.mark.parametrize("sigma", CHECKERED_DIGESTS)
    def test_every_triple_nontrivial_gamma(self, sigma):
        letters = sorted({t for t in sigma if t.isalpha()})
        parsed = parse_cycles(sigma, letters)
        checkered = checkered_product(parsed, tuple(letters))
        # one triple per choice of rotation for each cycle, less the identity
        triples = checkered.triples
        assert len(set(triples)) == len(triples) == prod(map(len, parsed.cycles())) - 1
        assert all(not t.gamma.is_identity() for t in triples)
        for t in triples:
            assert is_symmetry(checkered.bij, t)

    def test_nonexistence_under_generated_group(self):
        sigma = parse_cycles("(a,b,c)(d,e)", "abcde")
        checkered = checkered_product(sigma, tuple("abcde"))
        cert = equivariant_quotient(checkered.bij, PermGroup(5, (sigma,)))
        assert cert.verdict == "not-exists"


class TestShiftTable:
    def test_rows(self):
        f = shift_table(("x", "y", "z"), ("x", "y", "z"))
        assert [f.row(c) for c in range(3)] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_guise_identities_corpus(self):
        check_guise_identities()

    def test_all_guises_distinct(self):
        labels = ("a", "b", "c")
        tables = {shift_table(o, labels) for o in itertools.permutations(labels)}
        assert len(tables) == 6

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            shift_table(("a", "b"), ("a", "b", "c"))
        with pytest.raises(ValueError):
            shift_table(("a", "b", "b"), ("a", "b", "c"))

    def test_render_requires_parallel(self):
        from equidiv.corpus import two_row_nonparallel

        with pytest.raises(ValueError):
            render_parallel_table(two_row_nonparallel(), ("0", "1"), ("a", "b"))
