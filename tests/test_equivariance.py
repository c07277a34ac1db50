import itertools
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import equidiv.equivariance as equivariance
from equidiv import (
    Budget,
    BudgetExceeded,
    CayleyTable,
    Certificate,
    FormatError,
    Perm,
    PermGroup,
    ProdBij,
    SymTriple,
    all_equivariant_quotients,
    apply_pair,
    checkered_product,
    equivariant_quotient,
    is_symmetry,
    nonexistence_from_symmetries,
    pair_orbits,
    parse_cycles,
    parse_symmetries,
    quotient_exists_bruteforce,
    regular_rep,
    render_certificate,
    render_symmetries,
    serialize_bijection,
    stabilizer,
)
from equidiv.cli import main
from equidiv.corpus import two_by_two_counterexample
from equidiv.equivariance import Orbit, Symmetries, _orbit_union_matching

from conftest import cycles_text, identity_table, inverse, random_bij
from test_stabilizer import oracle


def halffixed_witness(symmetries):
    """First triple with exactly one of alpha, beta equal to the identity, by
    definition: the reference for the solver's witness scan."""
    for t in symmetries:
        if t.alpha.is_identity() != t.beta.is_identity():
            return t
    return None


def compose(s: SymTriple, t: SymTriple) -> SymTriple:
    return SymTriple(s.alpha.then(t.alpha), s.beta.then(t.beta), s.gamma.then(t.gamma))


class TestStabilizer:
    def test_contains_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            f = random_bij(rng, 3, 2)
            syms = stabilizer(f, PermGroup.symmetric(2))
            ident = SymTriple(Perm.identity(3), Perm.identity(3), Perm.identity(2))
            assert ident in syms

    def test_is_a_group(self):
        rng = random.Random(2)
        for _ in range(20):
            f = random_bij(rng, 3, 2)
            syms = set(stabilizer(f, PermGroup.symmetric(2)))
            for s in syms:
                assert SymTriple(inverse(s.alpha), inverse(s.beta), inverse(s.gamma)) in syms
                for t in syms:
                    assert compose(s, t) in syms

    def test_every_triple_is_a_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_bij(rng, 3, 3)
            for t in stabilizer(f, PermGroup.symmetric(3)):
                assert is_symmetry(f, t)

    def test_exhaustive_cross_check(self):
        # the propagation search finds exactly what plain enumeration finds
        import itertools

        rng = random.Random(4)
        for _ in range(10):
            f = random_bij(rng, 3, 2)
            got = set(stabilizer(f, PermGroup.symmetric(2)))
            want = {
                SymTriple(Perm(a), Perm(b), Perm(g))
                for a in itertools.permutations(range(3))
                for b in itertools.permutations(range(3))
                for g in itertools.permutations(range(2))
                if is_symmetry(f, SymTriple(Perm(a), Perm(b), Perm(g)))
            }
            assert got == want

    def test_sorted_deterministically(self):
        f = two_by_two_counterexample()
        syms = stabilizer(f, PermGroup.symmetric(2))
        images = [(t.alpha.images, t.beta.images, t.gamma.images) for t in syms]
        assert images == sorted(images)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            stabilizer(identity_table(2, 2), PermGroup.symmetric(3))

    def test_empty_c_rejected(self):
        # with C empty no cell ties beta to alpha, so nothing forces beta
        with pytest.raises(ValueError, match="C must be non-empty"):
            stabilizer(identity_table(2, 0), PermGroup.symmetric(0))

    def test_budget(self):
        f = identity_table(4, 2)  # huge stabilizer: every (alpha, alpha)
        with pytest.raises(BudgetExceeded):
            stabilizer(f, PermGroup.symmetric(2), Budget(3))

    @pytest.mark.parametrize("limit", [-1, -5])
    def test_negative_budget_rejected(self, limit):
        with pytest.raises(ValueError, match=rf"^budget must be >= 0, got {limit}$"):
            Budget(limit)


def orbits_both_ways(pairs, n_a, n_b):
    """Orbits on A x B cells following each pair and its inverse, sorted by least cell."""
    moves = [(a.images, b.images) for a, b in pairs]
    moves += [(inverse(a).images, inverse(b).images) for a, b in pairs]
    placed = set()
    orbits = []
    for cell in itertools.product(range(n_a), range(n_b)):
        if cell in placed:
            continue
        orbit, frontier = {cell}, [cell]
        while frontier:
            a, b = frontier.pop()
            for am, bm in moves:
                if (am[a], bm[b]) not in orbit:
                    orbit.add((am[a], bm[b]))
                    frontier.append((am[a], bm[b]))
        placed |= orbit
        rows = {a for a, _ in orbit}
        cols = {b for _, b in orbit}
        orbits.append(Orbit(tuple(sorted(orbit)), len(rows) == len(cols) == len(orbit)))
    return sorted(orbits, key=lambda o: o.cells[0])


def perms_of(n):
    return st.permutations(range(n)).map(lambda xs: Perm(tuple(xs)))


@st.composite
def pair_lists(draw):
    """1-3 (alpha, beta) pairs on A and B of sizes 0-5."""
    n_a, n_b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pairs = st.tuples(perms_of(n_a), perms_of(n_b))
    return draw(st.lists(pairs, min_size=1, max_size=3)), n_a, n_b


class TestOrbits:
    @given(pair_lists())
    def test_forward_moves_match_both_ways(self, case):
        pairs, n_a, n_b = case
        orbits = pair_orbits(pairs, n_a, n_b)
        assert orbits == orbits_both_ways(pairs, n_a, n_b)
        # generator order and repeats do not matter
        assert pair_orbits(pairs[::-1] + pairs, n_a, n_b) == orbits

    def test_identity_pair_gives_singletons(self):
        orbits = pair_orbits([(Perm.identity(2), Perm.identity(2))], 2, 2)
        assert len(orbits) == 4
        assert all(o.matchable and len(o.cells) == 1 for o in orbits)

    def test_unmatchable_orbit(self):
        # beta alone moves cells within a row: the orbit repeats row 0
        orbits = pair_orbits([(Perm.identity(2), Perm((1, 0)))], 2, 2)
        assert all(not o.matchable for o in orbits)

    def test_partition(self):
        orbits = pair_orbits([(Perm((1, 0)), Perm((1, 0)))], 2, 2)
        cells = [c for o in orbits for c in o.cells]
        assert sorted(cells) == [(a, b) for a in range(2) for b in range(2)]

    def test_requires_a_pair(self):
        with pytest.raises(ValueError):
            pair_orbits([], 2, 2)


def table_matching(orbits, n_a, n_b, budget):
    """The orbit matching over the whole orbit table, by definition: matchable
    orbits in least-cell order, branching on the first uncovered row, one
    budget tick per orbit taken.  The reference for the solver's matching,
    which computes orbits on demand."""
    by_row = [[o for o in orbits if o.matchable and any(r == a for r, _ in o.cells)]
              for a in range(n_a)]
    row_free, col_free, chosen = [True] * n_a, [True] * n_b, []

    def backtrack():
        if True not in row_free:
            return True
        for o in by_row[row_free.index(True)]:
            if all(row_free[r] and col_free[c] for r, c in o.cells):
                budget.tick()
                for r, c in o.cells:
                    row_free[r] = col_free[c] = False
                chosen.append(o)
                if backtrack():
                    return True
                chosen.pop()
                for r, c in o.cells:
                    row_free[r] = col_free[c] = True
        return False

    return chosen[:] if backtrack() else None


def greedy_table_matching(orbits, n_a, n_b, budget):
    """The same orbit table, covered in one pass that never undoes a choice:
    the first uncovered row takes the first of its matchable orbits whose
    cells are all free, one budget tick per orbit taken, or None if it has
    none.  The tick count the solver must charge when no matching exists."""
    by_row = [[o for o in orbits if o.matchable and any(r == a for r, _ in o.cells)]
              for a in range(n_a)]
    row_free, col_free, chosen = [True] * n_a, [True] * n_b, []
    while True in row_free:
        for o in by_row[row_free.index(True)]:
            if all(row_free[r] and col_free[c] for r, c in o.cells):
                break
        else:
            return None
        budget.tick()
        for r, c in o.cells:
            row_free[r] = col_free[c] = False
        chosen.append(o)
    return chosen


def matching_to_perm(chosen, n_a):
    """The quotient whose graph is the union of the chosen orbits, by definition."""
    images = [-1] * n_a
    for o in chosen:
        for a, b in o.cells:
            images[a] = b
    return Perm(tuple(images))


@st.composite
def matching_cases(draw):
    """(f, group) at nA <= 4, nC <= 3, A possibly empty: random, parallel and
    identity tables under full, trivial and random gens: subgroups."""
    n_a, n_c = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "parallel", "identity"]))
    if kind == "random":
        f = ProdBij.from_flat(draw(st.permutations(range(n_a * n_c))), n_a, n_c)
    elif kind == "parallel":
        rows = draw(st.lists(st.permutations(range(n_a)), min_size=n_c, max_size=n_c))
        f = ProdBij.parallel_from_rows(rows)
    else:
        f = identity_table(n_a, n_c)
    group_kind = draw(st.sampled_from(["full", "trivial", "gens"]))
    if group_kind == "full":
        return f, PermGroup.symmetric(n_c)
    if group_kind == "trivial":
        return f, PermGroup.trivial(n_c)
    return f, PermGroup(n_c, draw(st.lists(perms_of(n_c), min_size=1, max_size=2)))


#: alpha fixes rows 0 and 1 and swaps 2 and 3; beta fixes every column.  The
#: rows 2 and 3 have no column with their stabilizer, so no h exists, but the
#: reference takes 16 orbits, placing rows 0 and 1 every way, before it gives up.
UNDOING_CASE = ([(Perm((0, 1, 3, 2)), Perm.identity(4))], 4, 4)


def tau_table(n_a):
    """f(a, 0) = (a, 0) and f(a, 1) = (rho(a), 1), where rho fixes 0 and 1 and
    cycles the other points in runs of distinct lengths 5, 6, ..., the last
    run taking the rest; the first, second and fourth point m of each run
    trade their images (m, 0) and (m, 1).  Its only symmetry besides the
    identity is (tau, tau, id), tau = (0 1), under any Gamma.  nA >= 7."""
    rho, marks, start, length = list(range(n_a)), set(), 2, 5
    while start < n_a:
        if n_a - start < 2 * length + 1:
            length = n_a - start
        for x in range(start, start + length):
            rho[x] = x + 1 if x + 1 < start + length else start
        marks |= {start, start + 1, start + 3}
        start, length = start + length, length + 1
    row_0 = [a + n_a * (a in marks) for a in range(n_a)]
    row_1 = [b + n_a * (b not in marks) for b in rho]
    return ProdBij.from_flat(row_0 + row_1, n_a, 2)


class TestMatching:
    @settings(max_examples=200, deadline=None)
    @given(matching_cases())
    def test_on_demand_orbits_match_the_table(self, case):
        f, group = case
        gens = stabilizer(f, group).generators
        pairs = [(t.alpha, t.beta) for t in gens] or [(Perm.identity(f.n_a), Perm.identity(f.n_b))]
        want_budget, got_budget = Budget(), Budget()
        want = table_matching(pair_orbits(pairs, f.n_a, f.n_b), f.n_a, f.n_b, want_budget)
        moves = [(t.alpha.images, t.beta.images) for t in gens]
        got = _orbit_union_matching(moves, f.n_a, f.n_b, got_budget)
        assert (got is None) == (want is None)
        if want is not None:
            assert Perm(tuple(got)) == matching_to_perm(want, f.n_a)
            assert got_budget.used == want_budget.used
        else:
            # the reference may undo choices before it gives up; the solver never does
            greedy_budget = Budget()
            assert greedy_table_matching(
                pair_orbits(pairs, f.n_a, f.n_b), f.n_a, f.n_b, greedy_budget
            ) is None
            assert got_budget.used == greedy_budget.used <= want_budget.used

    @given(pair_lists())
    @example(UNDOING_CASE)
    @example(([(Perm.identity(2), Perm.identity(1))], 2, 1))  # every column taken, a row left
    def test_matches_the_reference_for_any_group(self, case):
        """Any pairs, not only a stabilizer's generators, and A and B may differ
        in size: the same verdict and h as the exhaustive reference."""
        pairs, n_a, n_b = case
        want = table_matching(pair_orbits(pairs, n_a, n_b), n_a, n_b, Budget())
        moves = [(alpha.images, beta.images) for alpha, beta in pairs]
        got = _orbit_union_matching(moves, n_a, n_b, Budget())
        assert (got is None) == (want is None)
        if want is not None:
            assert got == [b for _, b in sorted(cell for o in want for cell in o.cells)]

    def test_reference_undoes_choices_on_the_example(self):
        pairs, n_a, n_b = UNDOING_CASE
        orbits = pair_orbits(pairs, n_a, n_b)
        want_budget, greedy_budget = Budget(), Budget()
        assert table_matching(orbits, n_a, n_b, want_budget) is None
        assert greedy_table_matching(orbits, n_a, n_b, greedy_budget) is None
        assert (greedy_budget.used, want_budget.used) == (2, 16)

    def test_unbalanced_klein_class_gives_up_at_once(self):
        """G = <x, y> = Z2^2.  A is k fixed points, the regular orbit and 2
        fixed points; B is k fixed points, G/<x>, G/<y> and G/<xy>.  The
        fixed points have k + 2 rows for k columns, so no h exists; the pass
        pairs the first k fixed rows, then finds no column for the regular
        orbit.  Undoing choices would retry every pairing of those rows."""
        k = 9
        n = k + 6
        # A's regular orbit e, x, y, xy and B's cosets, two points each, start at k
        alpha_x = Perm.from_cycles([(k, k + 1), (k + 2, k + 3)], n)
        alpha_y = Perm.from_cycles([(k, k + 2), (k + 1, k + 3)], n)
        beta_x = Perm.from_cycles([(k + 2, k + 3), (k + 4, k + 5)], n)
        beta_y = Perm.from_cycles([(k, k + 1), (k + 4, k + 5)], n)
        moves = [(alpha_x.images, beta_x.images), (alpha_y.images, beta_y.images)]
        budget = Budget(100)
        assert _orbit_union_matching(moves, n, n, budget) is None
        assert budget.used == k

    def test_long_chain_of_fixed_rows_decides(self):
        """One symmetry (tau, tau, id) besides the identity at nA 1,100: the
        pass covers 1,099 orbits without a Python frame for each."""
        f = tau_table(1100)
        syms = stabilizer(f, PermGroup.symmetric(2))
        tau = Perm.from_cycles([(0, 1)], 1100)
        assert list(syms.generators) == [SymTriple(tau, tau, Perm.identity(2))]
        cert = equivariant_quotient(f, PermGroup.symmetric(2))
        assert cert.verdict == "exists" and cert.quotient == Perm.identity(1100)

    @settings(max_examples=100, deadline=None)
    @given(matching_cases())
    def test_decision_without_generators(self, case):
        """With a trivial stabilizer, the decision skips the matching search
        but returns its certificate at its cost."""
        f, group = case
        syms = stabilizer(f, group)
        assume(len(syms) == 1)
        want_budget, got_budget = Budget(), Budget()
        images = _orbit_union_matching([], f.n_a, f.n_b, want_budget)
        want = Certificate("exists", Perm(tuple(images)), syms, "matching-found")
        assert equivariance._decide(f, syms, got_budget) == want
        assert got_budget.used == want_budget.used


class TestHalfFixed:
    def test_detects(self):
        t = SymTriple(Perm.identity(2), Perm((1, 0)), Perm((1, 0)))
        assert halffixed_witness([t]) is t

    def test_ignores_balanced(self):
        both = SymTriple(Perm((1, 0)), Perm((1, 0)), Perm.identity(2))
        neither = SymTriple(Perm.identity(2), Perm.identity(2), Perm((1, 0)))
        assert halffixed_witness([both, neither]) is None


@st.composite
def subgroup_cases(draw):
    """A table with nA 0-4 and nC 1-4, random, parallel or the identity, and
    the group Gamma <= S_C that one or two random permutations generate."""
    n_a, n_c = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "parallel", "identity"]))
    if kind == "random":
        f = ProdBij.from_flat(draw(st.permutations(range(n_a * n_c))), n_a, n_c)
    elif kind == "parallel":
        f = ProdBij.parallel_from_rows([draw(st.permutations(range(n_a))) for _ in range(n_c)])
    else:
        f = identity_table(n_a, n_c)
    gens = draw(st.lists(st.permutations(range(n_c)), min_size=1, max_size=2))
    return f, PermGroup(n_c, [Perm(tuple(g)) for g in gens])


class TestQuotientDecision:
    def test_trivial_group_always_exists(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_bij(rng, 4, 2)
            cert = equivariant_quotient(f, PermGroup.trivial(2))
            assert cert.verdict == "exists"
            h = cert.quotient
            for t in stabilizer(f, PermGroup.trivial(2)):
                assert apply_pair(h, t.alpha, t.beta) == h

    def test_found_quotient_is_equivariant(self):
        rng = random.Random(6)
        for _ in range(60):
            f = random_bij(rng, 3, 3)
            cert = equivariant_quotient(f, PermGroup.symmetric(3))
            if cert.verdict == "exists":
                h = cert.quotient
                for t in stabilizer(f, PermGroup.symmetric(3)):
                    assert apply_pair(h, t.alpha, t.beta) == h

    def test_agrees_with_bruteforce_exhaustive_2x2(self):
        import itertools

        for group in (PermGroup.trivial(2), PermGroup.symmetric(2)):
            for flat in itertools.permutations(range(4)):
                f = ProdBij.from_flat(flat, 2, 2)
                assert (
                    equivariant_quotient(f, group).verdict == "exists"
                ) == quotient_exists_bruteforce(f, group)

    def test_agrees_with_bruteforce_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n_c = rng.randint(1, 3)
            f = random_bij(rng, 3, n_c)
            group = PermGroup.symmetric(n_c)
            assert (
                equivariant_quotient(f, group).verdict == "exists"
            ) == quotient_exists_bruteforce(f, group)

    def test_exists_quotient_among_bruteforce_list(self):
        rng = random.Random(8)
        for _ in range(50):
            f = random_bij(rng, 3, 2)
            group = PermGroup.symmetric(2)
            cert = equivariant_quotient(f, group)
            allq = all_equivariant_quotients(f, group)
            if cert.verdict == "exists":
                assert cert.quotient in allq
            else:
                assert not allq

    @settings(max_examples=500, deadline=None)
    @given(subgroup_cases())
    def test_agrees_with_bruteforce_on_generated_subgroups(self, case):
        # the oracle calls the same stabilizer, so this checks the decision
        # made from it, under groups other than full and trivial
        f, group = case
        cert = equivariant_quotient(f, group)
        allq = all_equivariant_quotients(f, group)
        if cert.verdict == "exists":
            assert cert.quotient == allq[0]  # the canonical matching is the least quotient
        else:
            assert not allq
        if cert.reason == "half-fixed-witness":
            w = cert.witness
            assert w.gamma in group.elements() and is_symmetry(f, w)
            assert w.alpha.is_identity() != w.beta.is_identity()

    def test_deterministic(self):
        rng = random.Random(9)
        for _ in range(20):
            f = random_bij(rng, 3, 2)
            c1 = equivariant_quotient(f, PermGroup.symmetric(2))
            c2 = equivariant_quotient(f, PermGroup.symmetric(2))
            assert render_certificate(c1) == render_certificate(c2)

    def test_soundness_recheck_fires(self, monkeypatch):
        # under trivial, the triples of regular_rep(Z3) include (L1, L1, id),
        # and conjugating a transposition by a 3-cycle moves it
        f = regular_rep(CayleyTable.cyclic(3))
        moved = Perm((1, 0, 2))
        triples = stabilizer(f, PermGroup.trivial(3))
        assert any(apply_pair(moved, t.alpha, t.beta) != moved for t in triples)
        monkeypatch.setattr(
            equivariance, "_orbit_union_matching", lambda moves, n_a, n_b, budget: list(moved.images)
        )
        with pytest.raises(AssertionError, match="non-equivariant quotient"):
            equivariant_quotient(f, PermGroup.trivial(3))

    def test_budget_propagates(self):
        f = identity_table(5, 2)
        with pytest.raises(BudgetExceeded):
            equivariant_quotient(f, PermGroup.symmetric(2), Budget(5))


class TestSubsetMode:
    def test_rejects_non_symmetry(self):
        f = identity_table(2, 2)
        bogus = SymTriple(Perm((1, 0)), Perm.identity(2), Perm.identity(2))
        with pytest.raises(ValueError):
            nonexistence_from_symmetries(f, [bogus])

    def test_sound_on_halffixed(self):
        f = two_by_two_counterexample()
        t = SymTriple(Perm.identity(2), Perm((1, 0)), Perm((1, 0)))
        cert = nonexistence_from_symmetries(f, [t])
        assert cert is not None and cert.reason == "half-fixed-witness"

    def test_undecided_on_weak_subset(self):
        f = two_by_two_counterexample()
        ident = SymTriple(Perm.identity(2), Perm.identity(2), Perm.identity(2))
        assert nonexistence_from_symmetries(f, [ident]) is None

    def test_never_contradicts_full_solver(self):
        rng = random.Random(10)
        for _ in range(50):
            f = random_bij(rng, 3, 2)
            group = PermGroup.symmetric(2)
            syms = stabilizer(f, group)
            k = rng.randint(0, len(syms))
            subset = rng.sample(list(syms), k)
            cert = nonexistence_from_symmetries(f, subset)
            if cert is not None:
                assert equivariant_quotient(f, group).verdict == "not-exists"


class TestTextFormats:
    def test_symmetries_roundtrip(self):
        f = two_by_two_counterexample()
        syms = stabilizer(f, PermGroup.symmetric(2))
        a = b = ("0", "1")
        c = ("a", "b")
        text = render_symmetries(syms, a, b, c)
        assert parse_symmetries(text, a, b, c) == list(syms)

    def test_parse_rejects_unbalanced(self):
        with pytest.raises(FormatError):
            parse_symmetries("alpha ()\nbeta ()\n", ("0",), ("0",), ("a",))

    def test_parse_rejects_unknown_line(self):
        with pytest.raises(FormatError):
            parse_symmetries("delta ()\n", ("0",), ("0",), ("a",))

    @pytest.mark.parametrize(
        "text,message",
        [
            (  # two alphas, then two betas and two gammas
                "alpha (0,1)\nalpha ()\nbeta (0,1)\nbeta ()\ngamma ()\ngamma ()\n",
                "expected the beta line, got: 'alpha ()'",
            ),
            (  # one triple, backwards
                "gamma ()\nbeta (0,1)\nalpha (0,1)\n",
                "expected the alpha line, got: 'gamma ()'",
            ),
        ],
        ids=["alphas-first", "backwards"],
    )
    def test_parse_reads_each_triple_in_order(self, text, message):
        """Lines out of turn are not paired up again: each triple is an
        alpha, a beta and a gamma line, in that order."""
        with pytest.raises(FormatError) as exc:
            parse_symmetries(text, ("0", "1"), ("0", "1"), ("a",))
        assert str(exc.value) == message

    def test_certificate_exists_render(self):
        f = identity_table(2, 1)
        cert = equivariant_quotient(f, PermGroup.trivial(1))
        text = render_certificate(cert, ("x", "y"), ("u", "v"), ("c",))
        assert text.splitlines()[0] == "verdict exists"
        assert "quotient: u v" in text

    def test_certificate_not_exists_render(self):
        f = two_by_two_counterexample()
        cert = equivariant_quotient(f, PermGroup.symmetric(2))
        lines = render_certificate(cert, None, None, ("a", "b")).splitlines()
        assert lines[0] == "verdict not-exists"
        assert lines[1] == "reason: half-fixed-witness"
        assert lines[2] == "witness: alpha () beta (0,1) gamma (a,b)"


def reference_listing(triples, a, b, c) -> str:
    return "".join(
        f"alpha {cycles_text(t.alpha, a)}\nbeta {cycles_text(t.beta, b)}\n"
        f"gamma {cycles_text(t.gamma, c)}\n"
        for t in triples
    )


@st.composite
def decision_cases(draw):
    """(f, group, labels) at nA, nC <= 4: random and parallel tables under
    full, trivial and random gens: subgroups, with distinct labels per part,
    one label tuple shared by A and B (and by C when nC == nA), A and C
    sharing one that B does not, or none."""
    n_a = draw(st.integers(0, 4))
    n_c = draw(st.integers(1, 4))
    if draw(st.booleans()):
        f = ProdBij.from_flat(draw(st.permutations(range(n_a * n_c))), n_a, n_c)
    else:
        rows = draw(st.lists(st.permutations(range(n_a)), min_size=n_c, max_size=n_c))
        f = ProdBij.parallel_from_rows(rows)
    kind = draw(st.sampled_from(["full", "trivial", "gens"]))
    if kind == "full":
        group = PermGroup.symmetric(n_c)
    elif kind == "trivial":
        group = PermGroup.trivial(n_c)
    else:
        perm_c = st.permutations(range(n_c)).map(lambda xs: Perm(tuple(xs)))
        group = PermGroup(n_c, draw(st.lists(perm_c, min_size=1, max_size=2)))
    kind = draw(st.sampled_from(["distinct", "shared", "mixed", "none"]))
    if kind == "distinct":
        labels = (tuple("pqrs"[:n_a]), tuple("wxyz"[:n_a]), tuple("abcd"[:n_c]))
    elif kind == "shared":
        shared = tuple("pqrs"[:n_a])
        labels = (shared, shared, shared if n_c == n_a else tuple("abcd"[:n_c]))
    elif kind == "mixed":
        a_labels = tuple(f"p{i}" for i in range(n_a))
        c_labels = a_labels if n_c == n_a else tuple(f"c{i}" for i in range(n_c))
        labels = (a_labels, tuple(f"q̄{i}" for i in range(n_a)), c_labels)
    else:
        labels = (None, None, None)
    return f, group, labels


class TestCertificateDifferential:
    @settings(max_examples=150, deadline=None)
    @given(decision_cases())
    def test_render_matches_reference(self, case):
        f, group, (a, b, c) = case
        triples = list(stabilizer(f, group))
        listing = reference_listing(triples, a, b, c)
        assert render_symmetries(stabilizer(f, group), a, b, c) == listing

        cert = equivariant_quotient(f, group)
        witness = halffixed_witness(triples)
        if witness is not None:
            head = [
                "verdict not-exists",
                "reason: half-fixed-witness",
                f"witness: alpha {cycles_text(witness.alpha, a)} "
                f"beta {cycles_text(witness.beta, b)} gamma {cycles_text(witness.gamma, c)}",
            ]
        elif cert.verdict == "exists":
            h = cert.quotient
            # fixed by every listed triple, not only by the generators the solver re-checks
            assert all(apply_pair(h, t.alpha, t.beta) == h for t in triples)
            b_names = b or [str(x) for x in range(f.n_b)]
            head = ["verdict exists", "quotient: " + " ".join(b_names[x] for x in h.images)]
        else:
            assert cert.reason == "orbit-exhaustion"
            head = ["verdict not-exists", "reason: orbit-exhaustion"]
        assert (cert.verdict == "exists") == quotient_exists_bruteforce(f, group)
        assert render_certificate(cert, a, b, c) == "".join(x + "\n" for x in head) + listing


class TestPastByteRange:
    """Above 256 points an element's images no longer fit in bytes."""

    def test_identity_table_at_257_points(self, capsys, tmp_path):
        # N = 2 * 3 + 251; under trivial the symmetries are the six (alpha, alpha, id)
        f = identity_table(3, 251)
        table, stab = tmp_path / "wide.eqd", tmp_path / "stab.txt"
        table.write_text(serialize_bijection(f))
        ident_c = Perm.identity(251)
        want = [
            SymTriple(Perm(a), Perm(b), ident_c)
            for a in itertools.permutations(range(3))
            for b in itertools.permutations(range(3))
            if is_symmetry(f, SymTriple(Perm(a), Perm(b), ident_c))
        ]
        listing = reference_listing(want, None, None, None)
        assert len(want) == 6 and halffixed_witness(want) is None

        assert main(["stab", "--in", str(table), "--group", "trivial"]) == 0
        out = capsys.readouterr().out
        assert out == listing
        stab.write_text(out)
        # h commutes with all of S_3, so the identity is the only quotient
        assert main(["quotient", "--in", str(table), "--group", "trivial"]) == 0
        assert capsys.readouterr().out == "verdict exists\nquotient: 0 1 2\n" + listing
        assert main(["quotient", "--in", str(table), "--symmetries", str(stab)]) == 0
        assert capsys.readouterr().out == "undecided: symmetry subset admits a matching\n"

    def test_part_of_257_points(self):
        # row 0 is the identity and row 1 the shift a -> a + 1 on 257 points, so
        # under trivial the symmetries are the 257 triples (s^k, s^k, id)
        n = 257
        f = ProdBij.from_flat([*range(n), *(n + (a + 1) % n for a in range(n))], n, 2)
        syms = stabilizer(f, PermGroup.trivial(2))
        assert len(syms) == n
        assert render_symmetries(syms) == reference_listing(syms, None, None, None)

    def test_half_fixed_witness_at_258_points(self):
        # Z86 acting on itself, N = 2 * 86 + 86, under the group that right
        # translation by 1 generates: 86^2 triples, and a half-fixed witness
        f = regular_rep(CayleyTable.cyclic(86))
        group = PermGroup(86, (CayleyTable.cyclic(86).right_translation(1),))
        syms = stabilizer(f, group)
        triples = list(syms)
        assert len(triples) == 86 * 86
        cert = equivariant_quotient(f, group)
        assert (cert.verdict, cert.reason) == ("not-exists", "half-fixed-witness")
        assert cert.witness is not None and cert.witness == halffixed_witness(triples)
        # subset mode, in file order: the reversed listing's first witness is its
        # 86th triple; 172 triples keep the check of each one with is_symmetry short
        backwards = triples[::-1][:172]
        back = nonexistence_from_symmetries(f, backwards)
        assert back.reason == "half-fixed-witness"
        assert back.witness == halffixed_witness(backwards) == backwards[85]


class TestSymmetries:
    CASES = [
        (two_by_two_counterexample(), PermGroup.symmetric(2)),
        (regular_rep(CayleyTable.cyclic(4)), PermGroup.symmetric(4)),
        (regular_rep(CayleyTable.cyclic(3)), PermGroup.trivial(3)),
        (identity_table(3, 2), PermGroup.symmetric(2)),
        (identity_table(0, 2), PermGroup.symmetric(2)),
        (
            checkered_product(parse_cycles("(a,b)(c,d)", "abcd"), tuple("abcd")).bij,
            PermGroup.symmetric(4),
        ),
    ]

    @pytest.mark.parametrize("f, group", CASES)
    def test_sequence_agrees_with_sorted_list(self, f, group):
        syms = stabilizer(f, group)
        alphas, betas, gammas = syms.columns
        assert len(alphas) == len(betas) == len(gammas)
        want = [
            SymTriple(Perm(tuple(a)), Perm(tuple(b)), Perm(tuple(g)))
            for a, b, g in zip(alphas, betas, gammas)
        ]
        if f.n_a <= 4:
            assert want == oracle(f, group)
        else:  # the checkered product, nA 8: 192 triples, counted by trying every alpha and gamma
            keys = [(t.alpha.images, t.beta.images, t.gamma.images) for t in want]
            assert all(is_symmetry(f, t) for t in want)
            assert all(x < y for x, y in zip(keys, keys[1:]))  # sorted, each once
            assert len(want) == 192
        assert len(syms) == len(want)
        assert list(syms) == want
        assert list(syms) == want  # a second pass starts afresh
        assert all(t in syms for t in want)
        with pytest.raises(TypeError):  # a record to iterate, not a list to index
            syms[0]
        # equal by value: the same fields, not the same object
        assert stabilizer(f, group) == syms
        columns = tuple(map(list, syms.columns))
        assert Symmetries(f.n_a, f.n_c, columns, syms.generators) == syms
        if len(want) > 1:
            backwards = tuple(column[::-1] for column in columns)
            assert Symmetries(f.n_a, f.n_c, backwards, syms.generators) != syms

    @pytest.mark.parametrize("f, group", CASES)
    def test_pickle_round_trip(self, f, group):
        syms = stabilizer(f, group)
        back = pickle.loads(pickle.dumps(syms))
        assert back == syms and list(back) == list(syms)
        assert back.generators == syms.generators
        cert = equivariant_quotient(f, group)
        back = pickle.loads(pickle.dumps(cert))
        assert back == cert
        assert back.verified_against.generators == cert.verified_against.generators
        assert render_certificate(back) == render_certificate(cert)

    def test_subset_keeps_file_order(self):
        f = two_by_two_counterexample()
        triples = list(stabilizer(f, PermGroup.symmetric(2)))[::-1]
        cert = nonexistence_from_symmetries(f, triples)
        assert list(cert.verified_against) == triples
        assert cert.verified_against.generators == tuple(triples)
        assert cert.witness == halffixed_witness(triples)

    def test_decide_and_render_build_perms_per_generator(self, monkeypatch):
        # the benchmark's 7x1 quotient: |Stab| = 7! triples, a handful of generators
        f = ProdBij.from_flat(random.Random(1).sample(range(7), 7), 7, 1)
        made = []
        unchecked = Perm._unchecked.__func__

        def counting(cls, images):
            made.append(images)
            return unchecked(cls, images)

        monkeypatch.setattr(Perm, "_unchecked", classmethod(counting))
        cert = equivariant_quotient(f, PermGroup.symmetric(1))
        text = render_certificate(cert)
        syms = cert.verified_against
        assert cert.verdict == "exists" and len(syms) == 5040
        assert text.count("\nalpha ") == 5040
        assert len(made) <= 6 * len(syms.generators) + 6
