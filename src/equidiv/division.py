"""Basepoint division of a bijection A x C -> B x C, and its parallelization.

The division algorithm (Feldman and Propp): read off the basepoint row p of f
and the basepoint row q of f^-1, follow the functional graph of p-then-q to
its cycle core X, commit p restricted to X to the quotient, subtract
(p restricted to X) x id_C from f, repeat.  X is nonempty at every step (a
finite functional graph always has a cycle), so this terminates.

The table is never rebuilt.  f is held as two flat int arrays over the index
of ``ProdBij.from_flat`` (cell (a, c) of A x C is c*nA + a, likewise for
B x C): ``fwd`` and its inverse ``inv``.  Subtracting a committed pair x -> y
removes, for every c, the A-cell (x, c) and the B-cell (y, c), which the
subtraction identifies, and splices the chain through them: the cell
u = inv[(y, c)] that ran into (y, c) now runs to t = fwd[(x, c)], where the
chain continued.  This is ``ProdBij.subtract``'s chain-following done one
cell at a time.  It needs no relabeling because subtracting j1 and then j2
(in the labels left by j1) is subtracting j1 | j2 from f: the arrays keep the
original labels of A and B throughout.  A round costs O(|alive| + |X|*nC)
instead of O(nA*nC) plus two table rebuilds.
"""

from __future__ import annotations

from .bijection import ProdBij
from .perm import Perm


def _cycle_core(fun: list[int]) -> list[int]:
    """Points lying on a cycle of the functional graph x -> fun[x]."""
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


def fp_divide(f: ProdBij, star: int) -> Perm:
    """Quotient bijection A -> B extracted at basepoint ``star``."""
    if not 0 <= star < f.n_c:
        raise IndexError(f"basepoint {star} out of range")
    n = f.n_a
    fwd, inv = (list(arr) for arr in f.flat)
    rows = [c * n for c in range(f.n_c)]
    base = star * n
    images = [-1] * n
    alive = list(range(n))  # A points not yet committed
    pos = [0] * n  # index of each alive point in `alive`
    while alive:
        for i, a in enumerate(alive):
            pos[a] = i
        p = [fwd[base + a] % n for a in alive]
        core = _cycle_core([pos[inv[base + b] % n] for b in p])
        taken = [p[i] for i in core]
        if len(set(taken)) != len(taken):
            raise AssertionError("basepoint row not injective on cycle core (bug)")
        for i, y in zip(core, taken):
            x = alive[i]
            images[x] = y
            for r in rows:
                u, t = inv[r + y], fwd[r + x]
                fwd[u] = t
                inv[t] = u
        alive = [a for a in alive if images[a] < 0]
    return Perm(tuple(images))


def parallelize(f: ProdBij) -> ProdBij:
    """Collect the basepoint quotients for every c into one parallel bijection.

    The nC divisions share ``f.flat``, which is built once.
    """
    if f.n_c == 0:
        raise ValueError("parallelize needs a nonempty C (nC >= 1)")
    return ProdBij.parallel_from_rows(
        [fp_divide(f, c).images for c in range(f.n_c)]
    )
