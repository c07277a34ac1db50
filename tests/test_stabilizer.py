"""The stabilizer search against plain enumeration, and its pinned node counts.

The oracle here walks every (alpha, beta, gamma) in S_A x S_B x Gamma through
is_symmetry and shares no code with the search.  quotient_exists_bruteforce
shares none either, but it checks only the decision; this oracle checks the
symmetries themselves.
"""

import collections
import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc
from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from equidiv import (
    Budget,
    CayleyTable,
    Perm,
    PermGroup,
    ProdBij,
    SymTriple,
    checkered_product,
    equivariant_quotient,
    is_symmetry,
    pair_orbits,
    parse_cycles,
    regular_rep,
    stabilizer,
)
from equidiv.equivariance import _refine, _symmetry_chain

from conftest import identity_table, random_bij, random_parallel, random_perm


def oracle(f: ProdBij, group: PermGroup) -> list[SymTriple]:
    """Every symmetry of f with gamma in the group, by enumeration, sorted."""
    perms_a = [Perm(p) for p in itertools.permutations(range(f.n_a))]
    found = [
        SymTriple(alpha, beta, gamma)
        for alpha in perms_a
        for beta in perms_a
        for gamma in group.elements()
        if is_symmetry(f, SymTriple(alpha, beta, gamma))
    ]
    return sorted(found, key=lambda t: (t.alpha.images, t.beta.images, t.gamma.images))


@st.composite
def instances(draw):
    """(f, group) at nA, nC <= 3, A possibly empty: random, parallel and
    identity tables under full, trivial and random gens: subgroups."""
    n_a = draw(st.integers(0, 3))
    n_c = draw(st.integers(1, 3))
    perm_c = st.permutations(range(n_c)).map(lambda xs: Perm(tuple(xs)))
    kind = draw(st.sampled_from(["random", "parallel", "identity"]))
    if kind == "random":
        flat = draw(st.permutations(range(n_a * n_c)))
        f = ProdBij.from_flat(flat, n_a, n_c)
    elif kind == "parallel":
        rows = draw(st.lists(st.permutations(range(n_a)), min_size=n_c, max_size=n_c))
        f = ProdBij.parallel_from_rows(rows)
    else:
        f = identity_table(n_a, n_c)
    group_kind = draw(st.sampled_from(["full", "trivial", "gens"]))
    if group_kind == "full":
        group = PermGroup.symmetric(n_c)
    elif group_kind == "trivial":
        group = PermGroup.trivial(n_c)
    else:
        group = PermGroup(n_c, draw(st.lists(perm_c, min_size=1, max_size=2)))
    return f, group


@settings(max_examples=200, deadline=None)
@given(instances())
def test_stabilizer_matches_oracle(case):
    f, group = case
    want = oracle(f, group)
    got = stabilizer(f, group)
    assert list(got) == want
    levels, _ = _symmetry_chain(f, group, Budget())
    assert prod(len(reps) for reps in levels) == len(want)
    # a level that holds only the identity is left out of the chain
    assert all(len(reps) > 1 for reps in levels)
    # the search branches on A and C points only: they force every B point
    identity = tuple(range(2 * f.n_a + f.n_c))
    for reps in levels:
        (base,) = [p for p, u in reps.items() if u == identity]
        assert not f.n_a <= base < 2 * f.n_a
    assert set(got.generators) <= set(want)
    ident = [(Perm.identity(f.n_a), Perm.identity(f.n_b))]
    from_gens = [(t.alpha, t.beta) for t in got.generators] or ident
    from_all = [(t.alpha, t.beta) for t in want]
    assert pair_orbits(from_gens, f.n_a, f.n_b) == pair_orbits(from_all, f.n_a, f.n_b)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_refined_colours_are_kept_by_every_symmetry(case):
    f, group = case
    colour = _refine(f)
    n_a = f.n_a
    want = oracle(f, group)
    for t in want:
        beta, gamma = (n_a + b for b in t.beta.images), (2 * n_a + c for c in t.gamma.images)
        images = (*t.alpha.images, *beta, *gamma)
        assert [colour[y] for y in images] == colour
    if len(set(colour)) == len(colour):  # discrete: only the identity is left
        assert want == [SymTriple(Perm.identity(n_a), Perm.identity(n_a), Perm.identity(f.n_c))]


def refine_by_definition(f: ProdBij) -> list[int]:
    """_refine's colouring as its docstring states it, colours numbered by
    first appearance among the points.

    The cells (a, c, b, c') are points of A, C, B and C; the pairs (a, c'),
    (b, c) and (c, c') are counted as point tuples, with no index arithmetic.
    """
    n_a, n_c = f.n_a, f.n_c
    g0 = 2 * n_a
    cells = []
    for c, a in itertools.product(range(n_c), range(n_a)):
        c2, b = divmod(f.fwd[c * n_a + a], n_a)  # f(a, c) = (b, c2)
        cells.append((a, g0 + c, n_a + b, g0 + c2))
    shared = collections.Counter()
    for a, c, b, c2 in cells:
        shared.update([(a, c2), (b, c), (c, c2)])
    colour = [0] * n_a + [1] * n_a + [2] * n_c
    count = len(set(colour))
    while True:
        held = [[] for _ in colour]
        for a, c, b, c2 in cells:
            facts = (c == c2, shared[a, c2], shared[b, c], shared[c, c2])
            sig = (colour[a], colour[c], colour[b], colour[c2], facts)
            for place, point in enumerate((a, c, b, c2)):
                held[point].append((place, sig))
        multisets = [collections.Counter(h) for h in held]
        firsts: list[collections.Counter] = []
        colour = []
        for m in multisets:
            if m not in firsts:
                firsts.append(m)
            colour.append(firsts.index(m))
        if len(firsts) == count:
            return colour
        count = len(firsts)


@st.composite
def refine_tables(draw):
    """Random and parallel tables at nA <= 6, nC <= 5, A possibly empty."""
    n_a = draw(st.integers(0, 6))
    n_c = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return ProdBij.from_flat(draw(st.permutations(range(n_a * n_c))), n_a, n_c)
    rows = draw(st.lists(st.permutations(range(n_a)), min_size=n_c, max_size=n_c))
    return ProdBij.parallel_from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(refine_tables())
@example(ProdBij.from_flat((4, 0, 7, 2, 8, 1, 6, 3, 5), 1, 9))  # |C| > |A|
def test_refine_matches_its_definition(f):
    assert _refine(f) == refine_by_definition(f)


def test_refine_memory_is_linear_in_points_times_c():
    """The pair counts take N * (|C| + 1) slots, not N^2: at N = 3002 the
    latter alone is 72 MB."""
    f = random_bij(random.Random(1), 1500, 2)
    tracemalloc.start()
    try:
        _refine(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _nodes(f: ProdBij, group: PermGroup) -> tuple[int, int]:
    """Budget used by the stabilizer, and the number of triples it returns."""
    budget = Budget()
    triples = stabilizer(f, group, budget)
    return budget.used, len(triples)


def test_generators_are_the_chain_cut_by_definition():
    """stabilizer()'s generators are _symmetry_chain's, each N-point image
    cut into alpha, beta - nA and gamma - 2nA, and |Stab| is the product of
    the level sizes: on a table of 42 points, whose elements are bytes, and
    on CI's wide table (nA 3, nC 251) of 257 points, whose elements are tuples."""
    checkered = checkered_product(parse_cycles("(a,b,c)(d,e,f)", "abcdef"), tuple("abcdef"))
    cases = [(checkered.bij, PermGroup.symmetric(6)), (identity_table(3, 251), PermGroup.trivial(251))]
    for f, group in cases:
        n_a, g0 = f.n_a, 2 * f.n_a
        levels, gens = _symmetry_chain(f, group, Budget())
        syms = stabilizer(f, group)
        assert syms.generators == tuple(
            SymTriple(
                Perm(g[:n_a]),
                Perm(tuple(x - n_a for x in g[n_a:g0])),
                Perm(tuple(x - g0 for x in g[g0:])),
            )
            for g in gens
        )
        assert gens and len(syms) == prod(map(len, levels))
    assert [2 * f.n_a + f.n_c for f, _ in cases] == [42, 257]


def test_pinned_node_counts():
    """Budget use of the stabilizer: search nodes plus one tick per triple.

    These counts do not depend on the machine; a change to them is a change
    to the search.
    """
    checkered = checkered_product(parse_cycles("(a,b,c)(d,e,f)", "abcdef"), tuple("abcdef"))
    assert _nodes(regular_rep(CayleyTable.cyclic(7)), PermGroup.symmetric(7)) == (361, 294)
    assert _nodes(checkered.bij, PermGroup.symmetric(6)) == (1353, 1296)
    assert _nodes(random_bij(random.Random(71), 7, 1), PermGroup.symmetric(1)) == (5075, 5040)
    # a trivial stabilizer: refinement gives all nine points their own colour
    # and skips the search, or leaves colours shared and the search runs
    assert _nodes(random_bij(random.Random(25), 2, 5), PermGroup.symmetric(5)) == (1, 1)
    assert _nodes(random_bij(random.Random(5), 2, 5), PermGroup.symmetric(5)) == (7, 1)


#: sha256 of the search on the tables of test_search_is_pinned_on_random_tables.
SEARCH_DIGEST = "d4c06d38db04e573b86698679250051fa76894078c74786ce2935152a00fc0cf"


def test_search_is_pinned_on_random_tables():
    """Budget use, levels and generators of _symmetry_chain on 3,000 seeded
    tables: random, parallel and identity, at nA 0-6 and nC 1-5, under full,
    trivial or one random generator.  They do not depend on the machine, so
    a change to the digest is a change to the search."""
    # at base point 0's level, candidate 1 fails, then candidate 2 gives the
    # generator (0 2 4)(1 5 3) on A.  When candidate 3 fails, all of its orbit
    # {1, 3, 5} is dead, 5 too, though the walk from 3 reaches 5 only through
    # 1, which was dead before that generator was found
    f = ProdBij.parallel_from_rows([[3, 4, 1, 2, 5, 0], [0, 1, 2, 3, 4, 5], [1, 2, 5, 0, 3, 4]])
    budget = Budget()
    _symmetry_chain(f, PermGroup(3, (Perm.identity(3),)), budget)
    assert budget.used == 13
    rng = random.Random(32)
    digest = hashlib.sha256()
    for _ in range(3000):
        n_a, n_c = rng.randint(0, 6), rng.randint(1, 5)
        kind = rng.choice(("random", "parallel", "identity"))
        if kind == "random":
            f = random_bij(rng, n_a, n_c)
        elif kind == "parallel":
            f = random_parallel(rng, n_a, n_c)
        else:
            f = identity_table(n_a, n_c)
        group_kind = rng.choice(("full", "trivial", "gens"))
        if group_kind == "full":
            group = PermGroup.symmetric(n_c)
        elif group_kind == "trivial":
            group = PermGroup.trivial(n_c)
        else:
            group = PermGroup(n_c, (random_perm(rng, n_c),))
        budget = Budget()
        levels, gens = _symmetry_chain(f, group, budget)
        digest.update(repr((budget.used, [sorted(reps.items()) for reps in levels], gens)).encode())
    assert digest.hexdigest() == SEARCH_DIGEST


def _decision(f: ProdBij, group: PermGroup) -> tuple[int, str, str]:
    """Budget used by a whole decision, and its verdict and reason."""
    budget = Budget()
    cert = equivariant_quotient(f, group, budget)
    return budget.used, cert.verdict, cert.reason


def test_pinned_decision_counts():
    """Budget use of equivariant_quotient, one instance per reason and one
    with a trivial stabilizer: the stabilizer's count above plus one tick
    per orbit the matching takes."""
    checkered = checkered_product(parse_cycles("(a,b,c)(d,e,f)", "abcdef"), tuple("abcdef"))
    z7, q71 = regular_rep(CayleyTable.cyclic(7)), random_bij(random.Random(71), 7, 1)
    assert _decision(z7, PermGroup.symmetric(7)) == (361, "not-exists", "half-fixed-witness")
    assert _decision(checkered.bij, PermGroup.symmetric(6)) == (
        1353, "not-exists", "orbit-exhaustion"
    )
    assert _decision(q71, PermGroup.symmetric(1)) == (5076, "exists", "matching-found")
    discrete = random_bij(random.Random(25), 2, 5)
    assert _decision(discrete, PermGroup.symmetric(5)) == (3, "exists", "matching-found")


#: Budget use, verdict and reason of each decision the benchmark makes under a
#: ``gens:`` group: the right translation by 1 of each regular table, and each
#: checkered product under its own sigma.  Pinned before Gamma is held as a
#: chain (a change there should leave them as they are).
GENS_DECISIONS = {
    "Z4": (30, "not-exists", "half-fixed-witness"),
    "Z5": (42, "not-exists", "half-fixed-witness"),
    "Z6": (56, "not-exists", "half-fixed-witness"),
    "Z7": (72, "not-exists", "half-fixed-witness"),
    "klein": (26, "not-exists", "half-fixed-witness"),
    "(a,b,c)(d,e)": (101, "not-exists", "orbit-exhaustion"),
    "(a,b)(c,d)": (38, "not-exists", "orbit-exhaustion"),
    "(a,b,c)(d,e,f)": (86, "not-exists", "orbit-exhaustion"),
}


def test_pinned_gens_decision_counts():
    got = {}
    for name in ("Z4", "Z5", "Z6", "Z7"):
        table = CayleyTable.cyclic(int(name[1:]))
        translation = PermGroup(table.n, (table.right_translation(1),))
        got[name] = _decision(regular_rep(table), translation)
    klein = CayleyTable.klein()
    got["klein"] = _decision(regular_rep(klein), PermGroup(4, (klein.right_translation(1),)))
    for sigma in ("(a,b,c)(d,e)", "(a,b)(c,d)", "(a,b,c)(d,e,f)"):
        labels = tuple(sorted({t for t in sigma if t.isalpha()}))
        gen = parse_cycles(sigma, labels)
        got[sigma] = _decision(checkered_product(gen, labels).bij, PermGroup(len(labels), (gen,)))
    assert got == GENS_DECISIONS


def necklace_table(k: int, s: int) -> ProdBij:
    """f(a, 0) = (a, m(a)) and f(a, 1) = (rho(a), 1 - m(rho(a))), nA = 2 + k * s.

    rho fixes 0 and 1 and turns the other points in k blocks of s.  m is 0 on
    0 and 1, and on block j it is the j-th aperiodic binary word of length s
    in counting order, skipping rotations of earlier words.  The one
    non-identity symmetry is (tau, tau, id), tau = (0 1), and the search
    descends through one base point per block to find it.
    """
    words: list[int] = []
    for w in range(2**s):
        turns = {(w << r | w >> (s - r)) & (2**s - 1) for r in range(1, s)}
        if w not in turns and not turns.intersection(words):
            words.append(w)
    n = 2 + k * s
    rho, m = list(range(n)), [0] * n
    for j, x in itertools.product(range(k), range(s)):
        a = 2 + j * s + x
        rho[a], m[a] = a + 1 if x < s - 1 else a + 1 - s, words[j] >> (s - 1 - x) & 1
    rows = [[m[a] * n + a for a in range(n)], [(1 - m[b]) * n + b for b in rho]]
    return ProdBij.from_flat(rows[0] + rows[1], n, 2)


def test_deep_search_needs_no_stack():
    """The descent keeps its own stack, so a search that descends past 64
    base points decides with the recursion limit 40 frames above the caller."""
    f = necklace_table(60, 10)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        cert = equivariant_quotient(f, PermGroup.symmetric(2))
    finally:
        sys.setrecursionlimit(limit)
    assert cert.verdict == "exists"
    assert len(cert.verified_against) == 2


def test_search_memory_drops_spent_levels():
    """The necklace table at nA 1802 has one level with more than one
    representative among 154.  The chain keeps no identity-only level
    and drops each identity-path node once its level is searched; keeping
    every level and node to the end would peak at about 38 MB."""
    f = necklace_table(150, 12)
    tracemalloc.start()
    try:
        cert = equivariant_quotient(f, PermGroup.symmetric(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "exists"
    assert peak < 20 * 2**20
