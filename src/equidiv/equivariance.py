"""Symmetries of a product bijection, and equivariant-quotient certificates.

A symmetry of f is a triple (alpha, beta, gamma) whose relabeling fixes f.
A quotient h : A -> B is Gamma-equivariant when every symmetry with gamma in
Gamma also fixes h, i.e. h = alpha^-1 then h then beta.  Equivalently the
graph of h is invariant under (a, b) -> (alpha(a), beta(b)), which turns the
existence question into a perfect matching over orbits of A x B.  A row
orbit can pair with a column orbit iff their point stabilizers are
conjugate, an equivalence, so one pass that never undoes a choice decides it.

The symmetries with gamma in Gamma form a group.  :func:`stabilizer` first
refines a colouring of the N = 2nA + nC points that every symmetry keeps: if
all N colours differ, the group is the identity alone and nothing is
searched.  Else one propagation search over alpha, beta and gamma, which
keeps the colours, gives a base and strong generating set, with one coset
representative per point of each basic orbit.  The result is a
:class:`Symmetries` record: the group's triples, sorted, as alpha, beta and
gamma columns, and its generators.  Callers iterate it, which builds one
:class:`SymTriple` per triple.  With no generators the group is {id}, and
the canonical matching, the identity, is returned before any scan.  Else the
half-fixed witness is the first triple that moves one of A and B only, and
the matching and the soundness re-check use the generators alone.  The
matching computes each orbit on A x B when its pass first reaches one of
its cells.  A certificate is written from the columns.
:func:`pair_orbits` is the whole table, for tests and tracing, and the only
code that makes :class:`Orbit` records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .bijection import ProdBij, content_lines
from .errors import DEFAULT_NODE_LIMIT, BudgetExceeded, FormatError
from .perm import Perm, PermGroup, SymTriple, cycle_texts, format_cycles, parse_cycles, point_labels


class Budget:
    """Backtrack-node counter shared across one solver run."""

    def __init__(self, limit: int = DEFAULT_NODE_LIMIT) -> None:
        if limit < 0:
            raise ValueError(f"budget must be >= 0, got {limit}")
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"search exceeded {self.limit} nodes")


@dataclass(frozen=True)
class Orbit:
    """An orbit of A x B cells; matchable iff no two cells share a row or column."""

    cells: tuple[tuple[int, int], ...]
    matchable: bool


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable outcome of an equivariant-quotient search."""

    verdict: str  # "exists" | "not-exists"
    quotient: Perm | None
    verified_against: Symmetries
    reason: str  # "matching-found" | "half-fixed-witness" | "orbit-exhaustion"
    witness: SymTriple | None = None


def is_symmetry(f: ProdBij, t: SymTriple) -> bool:
    return f.transform(t.alpha, t.beta, t.gamma) == f


def apply_pair(h: Perm, alpha: Perm, beta: Perm) -> Perm:
    """h_{alpha,beta} = alpha^-1 then h then beta, built in one pass as
    alpha(a) -> beta(h(a)).  Raises ValueError unless the degrees agree."""
    if not alpha.degree == h.degree == beta.degree:
        raise ValueError(f"degree mismatch: {alpha.degree}, {h.degree}, {beta.degree}")
    out = [0] * alpha.degree
    for alpha_a, h_a in zip(alpha.images, h.images):
        out[alpha_a] = beta.images[h_a]
    return Perm._unchecked(tuple(out))


# -- stabilizer search --------------------------------------------------------
#
# A triple acts on the N = 2nA + nC points A ⊔ B ⊔ C: alpha on 0..nA-1, beta
# on nA..2nA-1 and gamma on 2nA..N-1.  A symmetry is therefore one
# permutation of N points, an element; :func:`stabilizer` builds the
# elements, then cuts them into triples.


@dataclass(frozen=True)
class Symmetries:
    """Symmetry triples in order, with generators of a group that holds them all.

    ``columns`` is ``(alphas, betas, gammas)``, each triple's local images in
    three aligned lists; ``len`` is the number of triples.  Iterating builds
    a :class:`SymTriple` per triple, in order.
    """

    n_a: int
    n_c: int
    columns: tuple[list[Sequence[int]], list[Sequence[int]], list[Sequence[int]]]
    generators: tuple[SymTriple, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[SymTriple]:
        return map(_triple, *self.columns)


def _triple(alpha: Sequence[int], beta: Sequence[int], gamma: Sequence[int]) -> SymTriple:
    """The triple of three local image sequences; a Perm holds a tuple, even of bytes."""
    perm = Perm._unchecked
    return SymTriple(perm(tuple(alpha)), perm(tuple(beta)), perm(tuple(gamma)))


def _symmetry_chain(
    f: ProdBij, group: PermGroup, budget: Budget
) -> tuple[list[dict[int, tuple[int, ...]]], list[tuple[int, ...]]]:
    """Transversals along a base, and strong generators, of the symmetry group.

    One propagation search assigns alpha, beta and gamma values together.
    Once alpha(a) and gamma(c) are known, f(a, c) = (b, c') forces beta(b)
    and gamma(c'); once beta(b) and gamma(c') are known, f^-1 forces alpha
    and gamma the same way.  A point may only go to a point of its own
    refined colour.  Gamma values must extend to an element of Gamma: any
    unused point for the symmetric group, else only the images that some
    listed element allows.

    The base is the sequence of points the search branches on along the
    identity path.  Levels are searched from the deepest up; at each, one
    coset representative is sought per candidate image that the generators
    found so far do not already reach.  A level's transversal maps each
    point of its basic orbit to an element taking the base point there; a
    level whose orbit is its base point alone is left out.
    Every descent, the identity path's too, is one loop over an explicit stack.
    """
    n_a, n_c = f.n_a, f.n_c
    g0 = 2 * n_a
    n = g0 + n_c
    label = _refine(f)
    if len(set(label)) == n:  # discrete: the identity is the only symmetry
        return [], []
    # f(a, c) = (b, c') and f^-1(b, c') = (a, c) as points, each at its cell's
    # flat index: fwd_b and fwd_c at c * nA + a, bwd_a and bwd_c at c' * nA + b
    fwd_b, fwd_c = [n_a + t % n_a for t in f.fwd], [g0 + t // n_a for t in f.fwd]
    bwd_a, bwd_c = [s % n_a for s in f.inv], [g0 + s // n_a for s in f.inv]
    allowed = None if group.is_symmetric() else [g.images for g in group.elements()]
    members: list[list[int]] = [[] for _ in range(max(label) + 1)]  # each ascending, in one part
    for x, k in enumerate(label):
        members[k].append(x)

    def extend(node, p: int, q: int):
        """A copy of node with p -> q and all it forces, or None on a contradiction.
        The queue holds points flat, x then y for x -> y.  img is only ever set
        here, so a fired pair that img already holds is not queued: its pop would skip it."""
        img, pre, els = node[0][:], node[1][:], node[2]
        queue = [p, q]
        while queue:
            y = queue.pop()
            x = queue.pop()
            if img[x] == y:
                continue
            if img[x] >= 0 or pre[y] >= 0 or label[x] != label[y]:
                return None
            img[x] = y
            pre[y] = x
            if x < g0:  # alpha or beta: fire the cells (x, c) of f or f^-1 with gamma(c) known
                to, to_c = (fwd_b, fwd_c) if x < n_a else (bwd_a, bwd_c)
                x, y = x % n_a, y % n_a
                for c in range(n_c):
                    gc = img[g0 + c]
                    if gc >= 0:
                        i, j = c * n_a + x, (gc - g0) * n_a + y
                        if img[u := to[i]] != (v := to[j]):
                            queue += (u, v)
                        if img[u := to_c[i]] != (v := to_c[j]):
                            queue += (u, v)
            else:  # gamma(c) = c2: fire both kinds of cell in row c
                c, c2 = x - g0, y - g0
                if els is not None:
                    els = [g for g in els if g[c] == c2]
                    if not els:
                        return None
                for to, to_c, off in ((fwd_b, fwd_c, 0), (bwd_a, bwd_c, n_a)):
                    shift = c2 * n_a - off
                    for i, yx in enumerate(img[off:off + n_a], c * n_a):
                        if yx >= 0:
                            j = yx + shift
                            if img[u := to[i]] != (v := to[j]):
                                queue += (u, v)
                            if img[u := to_c[i]] != (v := to_c[j]):
                                queue += (u, v)
        return img, pre, els

    def pick(img: list[int]) -> int | None:
        """The next point to branch on: gamma and alpha in turn."""
        alphas, gammas = img[:n_a], img[g0:]
        free_a, free_c = alphas.count(-1), gammas.count(-1)
        if free_c and (not free_a or n_c - free_c <= n_a - free_a):
            return g0 + gammas.index(-1)
        # once alpha and gamma are set, the fired cells set beta: f is onto B x C
        return alphas.index(-1) if free_a else None

    def candidates(node, p: int) -> list[int]:
        pre, els = node[1], node[2]
        if p < g0 or els is None:
            return [y for y in members[label[p]] if pre[y] < 0]
        ok = {g0 + g[p - g0] for g in els}
        return [y for y in members[label[p]] if pre[y] < 0 and y in ok]

    def descend(node, untried: Callable):
        """The first complete symmetry below node, in search order, with the
        stack of ``(node, point, untried images)`` that reached it, or None.
        ``untried(node, p)`` lists the images to try, at one tick each, for
        the point p picked at node; a point with none left is popped."""
        stack = []
        while (p := pick(node[0])) is not None:
            stack.append((node, p, iter(untried(node, p))))
            node = None
            while node is None and stack:
                top, p, images = stack[-1]
                if (q := next(images, None)) is None:
                    stack.pop()
                else:
                    budget.tick()
                    node = extend(top, p, q)
            if node is None:
                return None
        return tuple(node[0]), stack

    # the identity is always a symmetry: its path gives the base and each level's node
    path = descend(([-1] * n, [-1] * n, allowed), lambda node, p: (p,))[1]
    ident = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    levels = []
    while path:  # from the deepest level up, dropping each node once its level is done
        node, p, _ = path.pop()
        reps = _transversal(p, gens, ident)
        dead: set[int] = set()
        for q in candidates(node, p):
            if q in reps or q in dead:
                continue
            budget.tick()
            child = extend(node, p, q)
            found = None if child is None else descend(child, candidates)
            if found is None:
                # the generators lie in this level's group, so none of q's orbit under them
                # is reachable; walk past points already dead: a newer generator may lead on
                orbit, stack = {q}, [q]
                while stack:
                    x = stack.pop()
                    new = {g[x] for g in gens} - orbit
                    orbit |= new
                    stack += new
                dead |= orbit
            else:
                gens.append(found[0])
                reps = _transversal(p, gens, ident)
        if len(reps) > 1:  # a level that holds only the identity changes nothing
            levels.append(reps)
    return levels, gens


def _refine(f: ProdBij) -> list[int]:
    """A colour per point of A ⊔ B ⊔ C that every symmetry keeps.

    Equitable refinement from the three parts: each round, a point's colour
    becomes the multiset, over the cells (a, c, b, c') with f(a, c) = (b, c')
    that hold it, of its place, the colours of the cell's points, whether
    c == c' and how many cells share the cell's pairs (a, c'), (b, c) and
    (c, c').  That includes its own colour, so rounds refine until the count
    stops growing.  A symmetry maps cells to cells, place by place, so it
    keeps every colour, whatever Gamma is.
    """
    n_a, n_c, g0, n = f.n_a, f.n_c, 2 * f.n_a, 2 * f.n_a + f.n_c
    cells = [(s % n_a, g0 + s // n_a, n_a + t % n_a, g0 + t // n_a) for s, t in enumerate(f.fwd)]
    # a pair's second point is in C, one of n_c consecutive points, so x * n_c + y is one-to-one
    shared = [0] * (n * (n_c + 1))
    for a, c, b, c2 in cells:
        shared[a * n_c + c2] += 1
        shared[b * n_c + c] += 1
        shared[c * n_c + c2] += 1
    facts = [(c == c2, shared[a * n_c + c2], shared[b * n_c + c], shared[c * n_c + c2])
             for a, c, b, c2 in cells]
    colour = [0] * n_a + [1] * n_a + [2] * n_c
    count = len(set(colour))
    while True:
        seen: list[list[int]] = [[] for _ in colour]
        sigs: dict[tuple, int] = {}
        for (a, c, b, c2), k in zip(cells, facts):
            i = 4 * sigs.setdefault((colour[a], colour[c], colour[b], colour[c2], k), len(sigs))
            seen[a].append(i)
            seen[c].append(i + 1)
            seen[b].append(i + 2)
            seen[c2].append(i + 3)
        ids: dict[tuple, int] = {}
        colour = [ids.setdefault(tuple(sorted(s)), len(ids)) for s in seen]
        if len(ids) in (count, n):  # stable, or discrete
            return colour
        count = len(ids)


def _transversal(
    p: int, gens: Sequence[tuple[int, ...]], ident: tuple[int, ...]
) -> dict[int, tuple[int, ...]]:
    """For each point q in the orbit of p, a product of gens taking p to q, ident for p."""
    reps = {p: ident}
    stack = [p]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in reps:
                reps[g[x]] = tuple(map(g.__getitem__, reps[x]))
                stack.append(g[x])
    return reps


def _then_bytes(u: Sequence[int], hs: Iterable[bytes]) -> Iterator[bytes]:
    # each h holds points below len(u), so the table's padding is never read
    return map(bytes.translate, hs, itertools.repeat(bytes(u).ljust(256)))


def _then_tuples(u: Sequence[int], hs: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    return (tuple(map(u.__getitem__, h)) for h in hs)


def stabilizer(
    f: ProdBij, group: PermGroup, budget: Budget | None = None
) -> Symmetries:
    """All symmetry triples of f with gamma in the given group, sorted.

    Each triple is the product of one transversal element per level of the
    base, so |Stab| is the product of the basic-orbit lengths.  The budget
    is charged one tick per triple before any triple is built.  Each triple
    is made once, as an element on the N points, and the sorted elements are
    cut into columns; each generator is cut from its own images.
    """
    if group.degree != f.n_c:
        raise ValueError("group degree must equal nC")
    budget = budget or Budget()
    levels, gens = _symmetry_chain(f, group, budget)
    budget.tick(prod(map(len, levels)))
    n_a, n_c = f.n_a, f.n_c
    g0, n = 2 * n_a, 2 * n_a + n_c
    # bytes compose (translate), slice, compare and sort in C, and sort as tuples
    # do, but hold points below 256 only
    pack, then = (bytes, _then_bytes) if n <= 256 else (tuple, _then_tuples)
    if not levels:  # {id}, with no generators
        ident = pack(range(n_a))
        return Symmetries(n_a, n_c, ([ident], [ident], [pack(range(n_c))]), ())
    elements = [pack(range(n))]
    for reps in levels:
        # the first representative, the base point's, is the identity: its
        # products are the elements already held, so only the others' are new
        _, *others = reps.values()
        elements += list(itertools.chain.from_iterable(then(u, elements) for u in others))
    elements.sort()
    columns = (  # beta's and gamma's points shifted to local ones, A's are already
        list(map(itemgetter(slice(0, n_a)), elements)),
        list(then((0,) * n_a + tuple(range(n_a)), map(itemgetter(slice(n_a, g0)), elements))),
        list(then((0,) * g0 + tuple(range(n_c)), map(itemgetter(slice(g0, None)), elements))),
    )
    generators = tuple(
        _triple(g[:n_a], [x - n_a for x in g[n_a:g0]], [x - g0 for x in g[g0:]]) for g in gens
    )
    return Symmetries(n_a, n_c, columns, generators)


# -- orbits and matching ------------------------------------------------------


def _orbit(
    cell: tuple[int, int], moves: Sequence[tuple[Sequence[int], ...]], orbit_of: dict
) -> tuple[list[tuple[int, int]], bool]:
    """The orbit of an A x B cell under the group the (alpha, beta) image
    pairs generate, as ``(cells, matchable)`` with the cells in the order
    found, computed once and then kept in orbit_of for each of its cells.
    The group is finite, so forward moves reach the whole orbit."""
    o = orbit_of.get(cell)
    if o is None:
        cells, seen = [cell], {cell}
        for a, b in cells:  # visits the cells appended below too
            for am, bm in moves:
                nxt = am[a], bm[b]
                if nxt not in seen:
                    seen.add(nxt)
                    cells.append(nxt)
        rows, cols = {a for a, _ in cells}, {b for _, b in cells}
        o = cells, len(rows) == len(cols) == len(cells)
        orbit_of.update(dict.fromkeys(cells, o))
    return o


def pair_orbits(
    pairs: Iterable[tuple[Perm, Perm]], n_a: int, n_b: int
) -> list[Orbit]:
    """Every orbit of the group generated by the pairs acting on A x B cells,
    sorted by least cell: the whole table, for tests and tracing.  Decisions
    compute orbits on demand instead."""
    moves = [(alpha.images, beta.images) for alpha, beta in pairs]
    if not moves:
        raise ValueError("need at least one pair (identity pair allowed)")
    orbit_of: dict[tuple[int, int], tuple] = {}
    grid = itertools.product(range(n_a), range(n_b))
    found = (_orbit(cell, moves, orbit_of) for cell in grid if cell not in orbit_of)
    return [Orbit(tuple(sorted(cells)), matchable) for cells, matchable in found]


def _orbit_union_matching(
    moves: Sequence[tuple[Sequence[int], ...]], n_a: int, n_b: int, budget: Budget
) -> list[int] | None:
    """The images of h, whose graph is a union of matchable orbits of A x B
    cells, or None if there is no such h.

    ``moves`` are the generators' (alpha, beta) image pairs.  For each row a
    with no image yet (-1), in order, one pass takes the first free column b
    whose orbit of (a, b) is matchable, computing each orbit when it first
    reaches it, and gives that orbit's rows their images.  Rows and columns
    are only ever taken as whole orbits, so that orbit is free.  No choice
    needs undoing: a cell's orbit is matchable iff a and b have the same
    stabilizer, so a row orbit can pair with a column orbit iff their point
    stabilizers are conjugate.  That is an equivalence, and the pass fails
    only when some class has more row orbits than column orbits, when no h
    exists.  Earlier rows are covered, so (a, b) is the least cell of the
    orbit taken, and the images are the canonical matching: the first in
    lexicographic order of orbits.
    """
    orbit_of: dict[tuple[int, int], tuple] = {}
    images = [-1] * n_a
    col_free = [True] * n_b
    lo = 0  # every column before lo is taken
    for a in range(n_a):
        if images[a] >= 0:
            continue
        while lo < n_b and not col_free[lo]:
            lo += 1
        for b in range(lo, n_b):
            if col_free[b]:
                cells, matchable = _orbit((a, b), moves, orbit_of)
                if matchable:
                    break
        else:
            return None
        budget.tick()
        for r, c in cells:
            images[r], col_free[c] = c, False
    return images


def _decide(f: ProdBij, syms: Symmetries, budget: Budget) -> Certificate:
    """Half-fixed witness, else an orbit matching, for the triples ``syms``.

    The witness is the first triple that fixes exactly one of A and B: no
    bijection h satisfies h = h then beta with beta nontrivial, or
    h = alpha^-1 then h with alpha nontrivial.  The orbits and the soundness
    re-check use the generators alone, since an h fixed by each of them is
    fixed by the group they generate, which holds every listed triple.
    """
    n_a, gens = f.n_a, syms.generators
    if not gens:  # {id}: no witness, and every orbit is one cell, so h is the identity
        budget.tick(n_a)
        return Certificate("exists", Perm.identity(n_a), syms, "matching-found")
    ident = type(syms.columns[0][0])(range(n_a))  # alpha's and beta's identity, in their form
    for alpha, beta, gamma in zip(*syms.columns):
        if (alpha == ident) != (beta == ident):
            witness = _triple(alpha, beta, gamma)
            return Certificate("not-exists", None, syms, "half-fixed-witness", witness=witness)
    moves = [(t.alpha.images, t.beta.images) for t in gens]
    images = _orbit_union_matching(moves, f.n_a, f.n_b, budget)
    if images is None:
        return Certificate("not-exists", None, syms, "orbit-exhaustion")
    h = Perm(tuple(images))
    if any(apply_pair(h, t.alpha, t.beta) != h for t in gens):  # soundness re-check
        raise AssertionError("solver produced a non-equivariant quotient (bug)")
    return Certificate("exists", h, syms, "matching-found")


def equivariant_quotient(
    f: ProdBij, group: PermGroup, budget: Budget | None = None
) -> Certificate:
    """Decide whether f has a Gamma-equivariant quotient, with certificate."""
    budget = budget or Budget()
    return _decide(f, stabilizer(f, group, budget), budget)


def nonexistence_from_symmetries(
    f: ProdBij, symmetries: Sequence[SymTriple], budget: Budget | None = None
) -> Certificate | None:
    """Nonexistence proof from a user-supplied symmetry subset, or None.

    Invariance under a subset of the stabilizer is necessary, so a failed
    orbit matching against the subset soundly proves not-exists.  A found
    matching proves nothing (the full stabilizer may reject it): returns None.
    """
    for t in symmetries:
        if not is_symmetry(f, t):
            raise ValueError("supplied triple is not a symmetry of f")
    # the triples in the given order, as their own generators
    columns = ([t.alpha.images for t in symmetries], [t.beta.images for t in symmetries],
               [t.gamma.images for t in symmetries])
    syms = Symmetries(f.n_a, f.n_c, columns, tuple(symmetries))
    cert = _decide(f, syms, budget or Budget())
    return None if cert.verdict == "exists" else cert


# -- text formats -------------------------------------------------------------


def render_symmetries(
    syms: Symmetries,
    a_labels: Sequence[str] | None = None,
    b_labels: Sequence[str] | None = None,
    c_labels: Sequence[str] | None = None,
) -> str:
    """Three lines per triple, ``alpha``, ``beta`` and ``gamma``, in list order.

    Points missing a label are written as their index within A, B or C.
    Each distinct local permutation of A and B is written once, by both
    label sets, and each of C's once, by C's.
    """
    alphas, betas, gammas = syms.columns
    labels, sizes = (a_labels, b_labels, c_labels), (syms.n_a, syms.n_a, syms.n_c)
    a_labs, b_labs, c_labs = map(point_labels, labels, sizes)
    text_a, text_b = cycle_texts(set(alphas).union(betas), a_labs, b_labs)
    text_c = cycle_texts(set(gammas), c_labs)[0]
    out = ["alpha ", "", "\nbeta ", "", "\ngamma ", "", "\n"] * len(alphas)
    out[1::7] = map(text_a.__getitem__, alphas)
    out[3::7] = map(text_b.__getitem__, betas)
    out[5::7] = map(text_c.__getitem__, gammas)
    return "".join(out)


def parse_symmetries(
    text: str,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
) -> list[SymTriple]:
    """The triples of :func:`render_symmetries`' text: three lines each,
    ``alpha``, ``beta`` and ``gamma`` in that order."""
    kinds, labels = ("alpha", "beta", "gamma"), (a_labels, b_labels, c_labels)
    perms: list[Perm] = []
    for line in content_lines(text):
        kind, _, rest = line.partition(" ")
        i = len(perms) % 3
        if kind != kinds[i]:
            raise FormatError(f"expected the {kinds[i]} line, got: {line!r}")
        perms.append(parse_cycles(rest.strip(), labels[i]))
    if len(perms) % 3:
        raise FormatError("unbalanced alpha/beta/gamma lines")
    return list(map(SymTriple, perms[0::3], perms[1::3], perms[2::3]))


def render_certificate(
    cert: Certificate,
    a_labels: Sequence[str] | None = None,
    b_labels: Sequence[str] | None = None,
    c_labels: Sequence[str] | None = None,
) -> str:
    """The certificate as text; points missing a label are written as their index."""
    syms = cert.verified_against
    labels = (a_labels, b_labels, c_labels)
    a_labels, b_labels, c_labels = map(point_labels, labels, (syms.n_a, syms.n_a, syms.n_c))
    lines = [f"verdict {cert.verdict}"]
    if cert.verdict == "exists":
        lines.append("quotient: " + " ".join(map(b_labels.__getitem__, cert.quotient.images)))
    else:
        lines.append(f"reason: {cert.reason}")
        w = cert.witness
        if w is not None:  # its three symmetry lines, on one line
            lines.append(
                f"witness: alpha {format_cycles(w.alpha, a_labels)} "
                f"beta {format_cycles(w.beta, b_labels)} "
                f"gamma {format_cycles(w.gamma, c_labels)}"
            )
    body = render_symmetries(syms, a_labels, b_labels, c_labels)
    return "\n".join(lines) + "\n" + body
