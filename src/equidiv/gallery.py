"""Constructors for the example families: regular representations, the
checkered Cartesian product, and the three-row division gadgets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .bijection import ProdBij
from .perm import Perm, SymTriple

BAR = "̄"  # combining macron: 0-bar renders as "0̄"


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite group; laws checked on construction."""

    product: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "product", tuple(tuple(r) for r in self.product))
        n = len(self.product)
        if n == 0:
            raise ValueError("empty table: a group needs at least one element")
        if any(len(r) != n for r in self.product):
            raise ValueError("table must be square")
        rng = range(n)
        if any(not 0 <= v < n for r in self.product for v in r):
            raise ValueError("table entry out of range")
        ident = [e for e in rng if all(self.product[e][x] == x == self.product[x][e] for x in rng)]
        if len(ident) != 1:
            raise ValueError("no two-sided identity")
        for x in rng:
            if ident[0] not in self.product[x]:
                raise ValueError("missing inverse")
        # Light's test: the a with (xa)y = x(ay) for all x, y are closed under the
        # product, so only generators are checked, each outside what those before reach
        p, reached, gens = self.product, set(ident), []
        for g in rng:
            if g in reached:
                continue
            if any(p[p[x][g]] != tuple(map(p[x].__getitem__, p[g])) for x in rng):
                raise ValueError("product is not associative")
            gens.append(g)
            new = list(reached)
            while new:
                row = p[new.pop()]
                fresh = {row[s] for s in gens} - reached
                reached |= fresh
                new += fresh

    @property
    def n(self) -> int:
        return len(self.product)

    @classmethod
    def cyclic(cls, n: int) -> "CayleyTable":
        return cls(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))

    @classmethod
    def klein(cls) -> "CayleyTable":
        return cls(tuple(tuple(i ^ j for j in range(4)) for i in range(4)))

    def right_translation(self, g: int) -> Perm:
        return Perm(tuple(self.product[x][g] for x in range(self.n)))


def regular_rep(table: CayleyTable) -> ProdBij:
    """A = B = C = G and f(x, y) = (xy, y); always parallel."""
    return ProdBij.parallel_from_rows([table.right_translation(c).images for c in range(table.n)])


# -- checkered Cartesian product ---------------------------------------------


@dataclass(frozen=True)
class CheckeredProduct:
    bij: ProdBij
    triples: tuple[SymTriple, ...]
    a_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    c_labels: tuple[str, ...]


def checkered_product(sigma: Perm, c_labels: Sequence[str]) -> CheckeredProduct:
    """Parity-split product of per-cycle shift blocks, for fixed-point-free sigma.

    Each cycle contributes a block of barred and unbarred coordinates and the
    shift map between them; tuples with an even number of unbarred
    coordinates form A, odd ones form B.  Component order reverses the cycle
    order so that rendered tuples match the familiar table layout (the last
    cycle's coordinate comes first); within a coordinate, barred elements
    precede unbarred ones.  Returns the bijection together with one symmetry
    per cycle rotation and all their products.
    """
    cycles = sigma.cycles()
    if any(len(cyc) == 1 for cyc in cycles):
        raise ValueError("sigma must have no fixed points")
    if not cycles:
        raise ValueError("sigma must move at least one point")
    c_labels = tuple(c_labels)
    if len(c_labels) != sigma.degree:
        raise ValueError("label count must match degree")
    rev = cycles[::-1]  # component t holds cycle rev[t]
    lengths = [len(cyc) for cyc in rev]
    comp_of_c = {c: (t, m) for t, cyc in enumerate(rev) for m, c in enumerate(cyc)}

    # coordinate values: 0..l-1 barred, l..2l-1 unbarred; A has an even
    # number of unbarred coordinates, B an odd one
    sides: tuple[list, list] = ([], [])
    for tup in itertools.product(*(range(2 * l) for l in lengths)):
        sides[sum(x >= l for x, l in zip(tup, lengths)) % 2].append(tup)
    a_elems, b_elems = sides
    index = {tup: i for side in sides for i, tup in enumerate(side)}

    def act(tup: tuple[int, ...], c: int) -> tuple[int, ...]:
        # row c at position m of its cycle flips that cycle's component:
        # barred x goes to unbarred x + m, unbarred x to barred x - m
        t, m = comp_of_c[c]
        l, x = lengths[t], tup[t]
        x = l + (x + m) % l if x < l else (x - m) % l
        return tup[:t] + (x,) + tup[t + 1:]

    n_a = len(a_elems)
    bij = ProdBij.from_flat(
        [c * n_a + index[act(tup, c)] for c in range(sigma.degree) for tup in a_elems],
        n_a,
        sigma.degree,
    )

    def display(tup: tuple[int, ...]) -> str:
        return "".join(f"{x}{BAR}" if x < l else str(x - l) for x, l in zip(tup, lengths))

    triples: list[SymTriple] = []
    for exps in itertools.product(*(range(len(cyc)) for cyc in cycles)):
        if not any(exps):
            continue
        gamma_img = list(range(sigma.degree))
        for cyc, e in zip(cycles, exps):
            for m, c in enumerate(cyc):
                gamma_img[c] = cyc[(m + e) % len(cyc)]
        shifts = list(zip(lengths, reversed(exps)))  # per component: length, exponent

        def rotated(tup: tuple[int, ...]) -> int:
            # each component's unbarred part turns by its cycle's exponent
            return index[tuple(x if x < l else l + (x + e) % l for x, (l, e) in zip(tup, shifts))]

        alpha, beta = (Perm(tuple(map(rotated, elems))) for elems in sides)
        triples.append(SymTriple(alpha, beta, Perm(tuple(gamma_img))))

    return CheckeredProduct(
        bij,
        tuple(triples),
        tuple(display(t) for t in a_elems),
        tuple(display(t) for t in b_elems),
        c_labels,
    )


def render_parallel_table(
    bij: ProdBij, b_labels: Sequence[str], c_labels: Sequence[str]
) -> str:
    """Simplified display of a parallel bijection: B labels only, one row per c."""
    if not bij.is_parallel():
        raise ValueError("table display is for parallel bijections")
    lines = []
    for c in range(bij.n_c):
        lines.append(
            f"row {c_labels[c]}: " + " ".join(b_labels[b] for b in bij.row(c))
        )
    return "\n".join(lines) + "\n"


# -- three-row gadgets --------------------------------------------------------


def shift_table(order: Sequence[str], c_labels: Sequence[str]) -> ProdBij:
    """The 3x3 parallel gadget: rows shift by their position in ``order``.

    Row order[0] is (0,1,2), order[1] is (1,2,0), order[2] is (2,0,1);
    ``c_labels`` fixes which C index carries which label.
    """
    if len(order) != 3 or len(set(order)) != 3 or sorted(order) != sorted(c_labels):
        raise ValueError("order must arrange three distinct C labels")
    shift = {lab: s for s, lab in enumerate(order)}
    rows = [[(a + shift[lab]) % 3 for a in range(3)] for lab in c_labels]
    return ProdBij.parallel_from_rows(rows)
