"""Independent oracle: decide quotient existence by enumerating every h.

Used to cross-check the orbit-matching solver; shares only the stabilizer
computation with it, never the matching search.
"""

from __future__ import annotations

import itertools

from .bijection import ProdBij
from .equivariance import apply_pair, stabilizer
from .perm import Perm, PermGroup


def all_equivariant_quotients(f: ProdBij, group: PermGroup) -> list[Perm]:
    """Every bijection h : A -> B fixed by the full stabilizer, in lex order."""
    syms = stabilizer(f, group)
    pairs = {(t.alpha, t.beta) for t in syms}
    out = []
    for images in itertools.permutations(range(f.n_a)):
        h = Perm(images)
        if all(apply_pair(h, a, b) == h for a, b in pairs):
            out.append(h)
    return out


def quotient_exists_bruteforce(f: ProdBij, group: PermGroup) -> bool:
    return bool(all_equivariant_quotients(f, group))
