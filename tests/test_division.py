import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidiv import (
    Perm,
    PermGroup,
    ProdBij,
    apply_pair,
    fp_divide,
    parallelize,
    stabilizer,
)
from equidiv.corpus import two_by_two_counterexample, two_row_nonparallel

from conftest import from_nested, identity_table, random_bij, random_perm


def _cycle_core(fun: list[int]) -> list[int]:
    """Points lying on a cycle of the functional graph x -> fun[x], found by
    scanning every point."""
    n = len(fun)
    color = [0] * n  # 0 unvisited, 1 on current path, 2 finished
    on_cycle = [False] * n
    for start in range(n):
        if color[start]:
            continue
        path = []
        x = start
        while color[x] == 0:
            color[x] = 1
            path.append(x)
            x = fun[x]
        if color[x] == 1:
            # found a new cycle: the tail of `path` from x onward
            for y in path[path.index(x):]:
                on_cycle[y] = True
        for y in path:
            color[y] = 2
    return [x for x in range(n) if on_cycle[x]]


def _fp_divide_reference(
    f: ProdBij, star: int, core_sizes: list[int] | None = None
) -> Perm:
    """Basepoint division by the definition: every round re-inverts the
    current table, commits p on the cycle core of p-then-q (a full scan of
    the survivors), and subtracts it with ProdBij.subtract, relabeling the
    survivors.  Appends each round's |core| to ``core_sizes`` if given."""
    if not 0 <= star < f.n_c:
        raise IndexError(f"basepoint {star} out of range")
    images: list[int] = [-1] * f.n_a
    cur = f
    cur_a = list(range(f.n_a))
    cur_b = list(range(f.n_b))
    while cur.n_a > 0:
        p = cur.row(star)
        q = cur.inverse().row(star)
        core = _cycle_core([q[p[a]] for a in range(cur.n_a)])
        assert len({p[x] for x in core}) == len(core)
        if core_sizes is not None:
            core_sizes.append(len(core))
        for x in core:
            images[cur_a[x]] = cur_b[p[x]]
        cur, a_kept, b_kept = cur.subtract(tuple((x, p[x]) for x in core))
        cur_a = [cur_a[i] for i in a_kept]
        cur_b = [cur_b[i] for i in b_kept]
    return Perm(tuple(images))


@st.composite
def tables(draw):
    """Random, parallel and identity tables with nA <= 6, 1 <= nC <= 5."""
    n_a = draw(st.integers(0, 6))
    n_c = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "parallel", "identity"]))
    if kind == "random":
        return ProdBij.from_flat(draw(st.permutations(range(n_a * n_c))), n_a, n_c)
    if kind == "parallel":
        rows = draw(st.lists(st.permutations(range(n_a)), min_size=n_c, max_size=n_c))
        return ProdBij.parallel_from_rows(rows)
    return identity_table(n_a, n_c)


@st.composite
def large_tables(draw):
    """Random tables with nA <= 48, 1 <= nC <= 6: many rounds per division."""
    n_a = draw(st.integers(0, 48))
    n_c = draw(st.integers(1, 6))
    return ProdBij.from_flat(draw(st.permutations(range(n_a * n_c))), n_a, n_c)


def _one_point_per_round(rng: random.Random, n_a: int, n_c: int) -> tuple[ProdBij, int]:
    """A table whose division commits exactly one point per round, and the
    basepoint that does it.

    Rows 0 and 1 hold f(0, 0) = (0, 0), f(a, 0) = (a-1, 1) for a >= 1,
    f(a, 1) = (a+1, 0) for a < nA-1 and f(nA-1, 1) = (nA-1, 1).  At
    basepoint 0 the graph p-then-q is 0 -> 0, 1 -> 0 and a -> a-2: two
    chains into a 1-cycle.  Each round commits the one fixed point and
    splices one cell per row, which turns the next point into a fixed point,
    so division takes nA rounds.  Rows 2.. are a random bijection among
    themselves, and a random relabeling of A, B and C hides the pattern.
    """
    rows = [
        [(0, 0)] + [(a - 1, 1) for a in range(1, n_a)],
        [(a + 1, 0) for a in range(n_a - 1)] + [(n_a - 1, 1)],
    ]
    rest = [(b, c) for c in range(2, n_c) for b in range(n_a)]
    rng.shuffle(rest)
    rows += [rest[i:i + n_a] for i in range(0, len(rest), n_a)]
    f = from_nested(n_a, n_c, rows)
    gamma = random_perm(rng, n_c)
    return f.transform(random_perm(rng, n_a), random_perm(rng, n_a), gamma), gamma(0)


#: The table sizes of the benchmark's divide-large workload.
DIVIDE_LARGE_SIZES = (
    (64, 8), (96, 6), (128, 5), (128, 8), (160, 6), (160, 8),
    (192, 5), (192, 7), (224, 4), (224, 6), (256, 5), (256, 7),
)


def _assert_matches_reference(f: ProdBij) -> None:
    want = [_fp_divide_reference(f, c) for c in range(f.n_c)]
    assert [fp_divide(f, c) for c in range(f.n_c)] == want
    bar = parallelize(f)
    assert bar.n_a == f.n_a and bar.n_c == f.n_c
    for c in range(f.n_c):
        assert bar.row(c) == want[c].images


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_small_tables_every_basepoint(self, f):
        _assert_matches_reference(f)

    @settings(max_examples=150, deadline=None)
    @given(large_tables())
    def test_large_tables_every_basepoint(self, f):
        _assert_matches_reference(f)

    @pytest.mark.parametrize("n_a,n_c", [(1, 2), (2, 2), (7, 3), (30, 2), (48, 6)])
    def test_one_point_per_round(self, n_a, n_c):
        f, star = _one_point_per_round(random.Random(n_a * 10 + n_c), n_a, n_c)
        core_sizes: list[int] = []
        want = _fp_divide_reference(f, star, core_sizes)
        assert core_sizes == [1] * n_a
        assert fp_divide(f, star) == want
        _assert_matches_reference(f)

    def test_seeded_128_by_5(self):
        _assert_matches_reference(random_bij(random.Random(128), 128, 5))

    def test_divide_large_sizes(self):
        rng = random.Random(1)
        for n_a, n_c in DIVIDE_LARGE_SIZES:
            _assert_matches_reference(random_bij(rng, n_a, n_c))


class TestFpDivide:
    def test_basepoint_out_of_range(self):
        with pytest.raises(IndexError):
            fp_divide(identity_table(2, 2), 2)

    def test_xor_instance(self):
        f = two_by_two_counterexample()
        assert fp_divide(f, 0) == Perm.identity(2)
        assert fp_divide(f, 1) == Perm((1, 0))

    def test_nonparallel_instance(self):
        f = two_row_nonparallel()
        assert fp_divide(f, 0) == Perm.identity(2)
        assert fp_divide(f, 1) == Perm((1, 0))

    def test_parallel_input_reads_off_rows(self):
        rng = random.Random(3)
        for _ in range(20):
            rows = [rng.sample(range(4), 4) for _ in range(3)]
            f = ProdBij.parallel_from_rows(rows)
            for c in range(3):
                assert fp_divide(f, c).images == tuple(rows[c])

    def test_always_a_bijection(self):
        rng = random.Random(5)
        for _ in range(200):
            n_a, n_c = rng.randint(1, 6), rng.randint(1, 4)
            f = random_bij(rng, n_a, n_c)
            h = fp_divide(f, rng.randrange(n_c))
            assert h.degree == n_a  # Perm construction validates bijectivity

    def test_naturality_under_relabeling(self):
        # dividing the (alpha, beta)-relabeled table relabels the quotient
        rng = random.Random(9)
        for _ in range(100):
            n_a, n_c = rng.randint(1, 5), rng.randint(1, 3)
            f = random_bij(rng, n_a, n_c)
            alpha, beta = random_perm(rng, n_a), random_perm(rng, n_a)
            star = rng.randrange(n_c)
            g = f.transform(alpha, beta, Perm.identity(n_c))
            assert fp_divide(g, star) == apply_pair(fp_divide(f, star), alpha, beta)

    def test_naturality_under_c_relabeling(self):
        # moving the basepoint along gamma tracks the same quotient
        rng = random.Random(13)
        for _ in range(100):
            n_a, n_c = rng.randint(1, 5), rng.randint(2, 4)
            f = random_bij(rng, n_a, n_c)
            gamma = random_perm(rng, n_c)
            star = rng.randrange(n_c)
            g = f.transform(Perm.identity(n_a), Perm.identity(n_a), gamma)
            assert fp_divide(g, gamma(star)) == fp_divide(f, star)

    def test_basepoint_equivariance(self):
        # every stabilizer triple fixing the basepoint also fixes the quotient
        rng = random.Random(17)
        for _ in range(50):
            n_a, n_c = rng.randint(1, 4), rng.randint(1, 3)
            f = random_bij(rng, n_a, n_c)
            star = rng.randrange(n_c)
            h = fp_divide(f, star)
            for t in stabilizer(f, PermGroup.symmetric(n_c)):
                if t.gamma(star) == star:
                    assert apply_pair(h, t.alpha, t.beta) == h


class TestParallelize:
    def test_rejects_empty_c(self):
        with pytest.raises(ValueError):
            parallelize(identity_table(3, 0))

    def test_result_is_parallel(self):
        rng = random.Random(21)
        for _ in range(50):
            f = random_bij(rng, rng.randint(1, 5), rng.randint(1, 3))
            assert parallelize(f).is_parallel()

    def test_fixes_parallel_inputs(self):
        rng = random.Random(23)
        for _ in range(50):
            rows = [rng.sample(range(4), 4) for _ in range(3)]
            f = ProdBij.parallel_from_rows(rows)
            assert parallelize(f) == f

    def test_idempotent(self):
        rng = random.Random(27)
        for _ in range(50):
            f = random_bij(rng, rng.randint(1, 5), rng.randint(1, 3))
            bar = parallelize(f)
            assert parallelize(bar) == bar

    def test_commutes_with_transform(self):
        rng = random.Random(31)
        for _ in range(100):
            n_a, n_c = rng.randint(1, 4), rng.randint(1, 3)
            f = random_bij(rng, n_a, n_c)
            alpha, beta = random_perm(rng, n_a), random_perm(rng, n_a)
            gamma = random_perm(rng, n_c)
            assert parallelize(f.transform(alpha, beta, gamma)) == parallelize(
                f
            ).transform(alpha, beta, gamma)
