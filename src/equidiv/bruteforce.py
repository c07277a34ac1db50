"""Independent oracle: decide quotient existence from the definitions alone.

Used to cross-check the solver, with which it shares no code: it imports
nothing from :mod:`equidiv.equivariance`.  It lists every symmetry with
gamma in the group, pairing each alpha of A with each gamma, and then every
bijection h : A -> B that all of them fix.
"""

from __future__ import annotations

import itertools

from .bijection import ProdBij
from .perm import Perm, PermGroup


def all_equivariant_quotients(f: ProdBij, group: PermGroup) -> list[Perm]:
    """Every h : A -> B fixed by every symmetry with gamma in the group, in lex order.

    (alpha, beta, gamma) fixes f iff f(alpha(a), gamma(c)) = (beta(b), gamma(c'))
    whenever f(a, c) = (b, c'), so alpha and gamma force beta: the pair gives
    a symmetry iff every cell lands in C at gamma(c') and all agree on one
    beta.  That beta is a bijection, since each b meets every c'.  h is fixed iff
    h(alpha(a)) = beta(h(a)) for every a.
    """
    n_a = f.n_a
    cells = [(s % n_a, s // n_a, t % n_a, t // n_a) for s, t in enumerate(f.fwd)]
    perms_a = list(itertools.permutations(range(n_a)))
    pairs = set()
    for alpha, gamma in itertools.product(perms_a, [g.images for g in group.elements()]):
        beta = [-1] * n_a
        for a, c, b, c2 in cells:
            c3, b2 = divmod(f.fwd[gamma[c] * n_a + alpha[a]], n_a)
            if c3 != gamma[c2] or beta[b] not in (-1, b2):
                break
            beta[b] = b2
        else:
            pairs.add((alpha, tuple(beta)))
    return [
        Perm(h) for h in perms_a
        if all(h[alpha[a]] == beta[h[a]] for alpha, beta in pairs for a in range(n_a))
    ]


def quotient_exists_bruteforce(f: ProdBij, group: PermGroup) -> bool:
    return bool(all_equivariant_quotients(f, group))
