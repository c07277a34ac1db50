"""Basepoint division of a bijection A x C -> B x C, and its parallelization.

The division algorithm (Feldman and Propp): read off the basepoint row p of f
and the basepoint row q of f^-1, follow the functional graph of p-then-q to
its cycle core X, commit p restricted to X to the quotient, subtract
(p restricted to X) x id_C from f, repeat.  X is nonempty at every step (a
finite functional graph always has a cycle), so this terminates.

The table is never rebuilt.  Division copies the flat tables ``fwd`` and
``inv`` of ``ProdBij`` (cell (a, c) is c*nA + a).  Subtracting a committed
pair x -> y removes, for every c, the A-cell (x, c) and the B-cell (y, c),
which the subtraction identifies, and splices the chain through them: the
cell u = inv[(y, c)] that ran into (y, c) now runs to t = fwd[(x, c)], where
the chain continued.  This is ``ProdBij.subtract``'s chain-following done one
cell at a time.  It needs no relabeling because subtracting j1 and then j2
(in the labels left by j1) is subtracting j1 | j2 from f: the arrays keep the
original labels of A and B throughout.

The cycle search is incremental.  The graph is x -> q[p[x]], where the
arrays p[x] = fwd[(x, c*)] mod nA and q[b] = inv[(b, c*)] mod nA are kept in
step with every splice that rewrites a cell of row c*.  Round 1 walks from
every point.  A round commits every cycle of its graph, and a cycle whose
edges no splice changed would have been one of them, so a cycle of the next
round's graph must use an edge that the splices changed: either
fwd[(x, c*)] was rewritten (x = u - c*nA for a spliced u in the basepoint
row), or inv[(b, c*)] was, and then the cycle passes through the A point
inv[(b, c*)] mod nA now names.  Later rounds walk only from those points.
Each walk stamps the points it visits with its own id; it stops at a point
stamped earlier in the round, and a walk that meets its own stamp has found
a cycle.  A round costs O(|starts| + |walked| + |X|*nC), not a rescan of
every surviving point.
"""

from __future__ import annotations

from .bijection import ProdBij
from .perm import Perm


def fp_divide(f: ProdBij, star: int) -> Perm:
    """Quotient bijection A -> B extracted at basepoint ``star``."""
    if not 0 <= star < f.n_c:
        raise IndexError(f"basepoint {star} out of range")
    n = f.n_a
    fwd, inv = list(f.fwd), list(f.inv)
    rows = [c * n for c in range(f.n_c)]
    base, top = star * n, star * n + n
    p = [t % n for t in fwd[base:top]]  # the basepoint row of f
    q = [s % n for s in inv[base:top]]  # the basepoint row of f^-1
    images = [-1] * n
    stamp = [0] * n  # id of the last walk that visited each A point
    walk = 0
    starts = range(n)
    committed = 0
    while committed < n:
        first = walk + 1  # walks of this round have ids >= first
        core = []
        for s in starts:
            if images[s] >= 0 or stamp[s] >= first:
                continue
            walk += 1
            path = []
            x = s
            while stamp[x] < first:
                stamp[x] = walk
                path.append(x)
                x = q[p[x]]
            if stamp[x] == walk:
                core += path[path.index(x):]
        if not core:
            raise AssertionError("no cycle among surviving points (bug)")
        committed += len(core)
        taken = [p[x] for x in core]
        if len(set(taken)) != len(taken):
            raise AssertionError("basepoint row not injective on cycle core (bug)")
        starts = []
        for x, y in zip(core, taken):
            images[x] = y
            for r in rows:
                u, t = inv[r + y], fwd[r + x]
                fwd[u] = t
                inv[t] = u
                if base <= u < top:  # p changed at A point u - base
                    p[u - base] = t % n
                    starts.append(u - base)
                if base <= t < top:  # q changed at B point t - base
                    q[t - base] = u % n
                    starts.append(u % n)
    return Perm(tuple(images))


def parallelize(f: ProdBij) -> ProdBij:
    """Collect the basepoint quotients for every c into one parallel bijection.

    The nC divisions share ``f.inv``, which is built once.  Each quotient is
    checked as it becomes a ``Perm``, and the table once, by ``from_flat``.
    """
    n, n_c = f.n_a, f.n_c
    flat = [c * n + b for c in range(n_c) for b in fp_divide(f, c).images]
    return ProdBij.from_flat(flat, n, n_c)
