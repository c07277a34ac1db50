import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidiv import (
    BudgetExceeded,
    FormatError,
    Perm,
    PermGroup,
    apply_pair,
    format_cycles,
    parse_cycles,
)

from conftest import cycles_text, inverse

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n)).map(lambda xs: Perm(tuple(xs)))
)


def same_degree_pair():
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)).map(lambda xs: Perm(tuple(xs))),
            st.permutations(range(n)).map(lambda xs: Perm(tuple(xs))),
        )
    )


def same_degree_triple():
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            *(st.permutations(range(n)).map(lambda xs: Perm(tuple(xs))),) * 3
        )
    )


class TestPerm:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Perm((0, 0))
        with pytest.raises(ValueError):
            Perm((1, 2))

    def test_identity_and_call(self):
        p = Perm.identity(3)
        assert p.is_identity()
        assert [p(i) for i in range(3)] == [0, 1, 2]

    def test_then_reading_order(self):
        p = Perm((1, 0, 2))
        q = Perm((0, 2, 1))
        assert p.then(q).images == tuple(q(p(x)) for x in range(3))

    def test_then_degree_mismatch(self):
        with pytest.raises(ValueError):
            Perm((0, 1)).then(Perm((0, 1, 2)))

    @given(same_degree_triple())
    def test_then_associative(self, pqr):
        p, q, r = pqr
        assert p.then(q).then(r) == p.then(q.then(r))

    @given(perms)
    def test_cycles_reassemble(self, p):
        assert Perm.from_cycles(p.cycles(), p.degree) == p
        assert sorted(x for c in p.cycles() for x in c) == list(range(p.degree))

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            Perm.from_cycles([(0, 1), (1, 2)], 3)


class TestUnchecked:
    """Products and identities skip the permutation check; each must equal
    its definition built with the checked constructor."""

    @given(
        st.integers(min_value=0, max_value=8).flatmap(
            lambda n: st.tuples(*(st.permutations(range(n)),) * 3)
        )
    )
    def test_match_checked_definitions(self, images):
        p, q, r = (Perm(tuple(xs)) for xs in images)
        n = p.degree
        # apply_pair(h, alpha, beta) with h = q, alpha = p, beta = r
        pair = Perm(inverse(p).then(q).images)
        pair = Perm(pair.then(r).images)
        cases = [
            (p.then(q), Perm(tuple(q(p(x)) for x in range(n)))),
            (Perm.identity(n), Perm(tuple(range(n)))),
            (apply_pair(q, p, r), pair),
        ]
        for got, want in cases:
            assert type(got.images) is tuple
            assert got == want and hash(got) == hash(want)
            assert Perm(got.images) == got

    def test_apply_pair_degree_mismatch(self):
        two, three = Perm((1, 0)), Perm.identity(3)
        for h, alpha, beta in ((two, three, three), (three, two, three), (three, three, two)):
            with pytest.raises(ValueError):
                apply_pair(h, alpha, beta)


class TestCycleNotation:
    def test_parse_basic(self):
        p = parse_cycles("(a,b,c)(d,e)", "abcde")
        assert p.images == (1, 2, 0, 4, 3)
        assert parse_cycles("()", "ab") == Perm.identity(2)

    @given(perms)
    def test_roundtrip(self, p):
        labels = [f"x{i}" for i in range(p.degree)]
        assert parse_cycles(format_cycles(p, labels), labels) == p

    def test_parse_errors(self):
        for bad in ("", "(a,b", "a,b", "(a,z)", "(a,a)", "(a)(a)"):
            with pytest.raises(FormatError):
                parse_cycles(bad, "abc")

    def test_format_identity(self):
        assert format_cycles(Perm.identity(4)) == "()"

    @settings(deadline=None)
    @given(
        st.integers(0, 300).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        ),
        st.booleans(),
    )
    def test_format_matches_definition(self, case, labelled):
        """format_cycles writes what Perm.cycles() defines, past the 256
        points that bytes can hold, by index or by labels in any order."""
        images, names = case
        p = Perm(tuple(images))
        labels = [f"x{i}" for i in names] if labelled else None
        assert format_cycles(p, labels) == cycles_text(p, labels)


class TestPermGroup:
    def test_symmetric_order(self):
        for n, want in ((1, 1), (2, 2), (3, 6), (4, 24)):
            assert len(PermGroup.symmetric(n).elements()) == want

    def test_trivial(self):
        g = PermGroup.trivial(3)
        assert g.elements() == [Perm.identity(3)]

    def test_generated_closure_is_group(self):
        g = PermGroup(4, [Perm.from_cycles([(0, 1, 2)], 4)])
        els = set(g.elements())
        assert len(els) == 3
        for x in els:
            assert inverse(x) in els
            for y in els:
                assert x.then(y) in els

    def test_elements_cap(self):
        with pytest.raises(BudgetExceeded):
            PermGroup.symmetric(8).elements()  # 40,320 > DEFAULT_GROUP_CAP

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            PermGroup(3, (Perm((0, 1)),))

    def test_element_cache_is_not_a_parameter(self):
        # elements() fills its own cache: a caller cannot hand it a list
        with pytest.raises(TypeError):
            PermGroup(2, (), [Perm((1, 0))])

    def test_symmetric_generators_by_definition(self):
        assert PermGroup.symmetric(0).generators == PermGroup.symmetric(1).generators == ()
        assert PermGroup.symmetric(2).generators == (Perm.from_cycles([(0, 1)], 2),)
        for n in range(3, 7):
            want = (Perm.from_cycles([(0, 1)], n), Perm.from_cycles([tuple(range(n))], n))
            assert PermGroup.symmetric(n).generators == want

    def test_is_symmetric_truth_table(self):
        for n in range(6):
            assert PermGroup.symmetric(n).is_symmetric()
        for n in range(2, 6):
            assert not PermGroup.trivial(n).is_symmetric()
        swap, cycle = Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)
        # S3 from other generators, or the same generators in another order
        assert not PermGroup(3, [swap, Perm.from_cycles([(1, 2)], 3)]).is_symmetric()
        assert not PermGroup(3, [cycle, swap]).is_symmetric()
        assert PermGroup(3, [swap, cycle]).is_symmetric()
