import random

from equidiv import Perm, ProdBij


def random_perm(rng: random.Random, n: int) -> Perm:
    return Perm(tuple(rng.sample(range(n), n)))


def inverse(p: Perm) -> Perm:
    """p^-1, by definition: each point goes to the point that p maps to it."""
    preimage = {y: x for x, y in enumerate(p.images)}
    return Perm(tuple(preimage[y] for y in range(p.degree)))


def cycles_text(p: Perm, labels) -> str:
    """Cycle notation by definition, from Perm.cycles()."""
    labels = labels or [str(i) for i in range(p.degree)]
    text = "".join("(" + ",".join(labels[x] for x in c) + ")" for c in p.cycles() if len(c) > 1)
    return text or "()"


def identity_table(n_a: int, n_c: int) -> ProdBij:
    """The table with f(a, c) = (a, c): flat index s goes to s."""
    return ProdBij.from_flat(range(n_a * n_c), n_a, n_c)


def random_bij(rng: random.Random, n_a: int, n_c: int) -> ProdBij:
    flat = rng.sample(range(n_a * n_c), n_a * n_c)
    return ProdBij.from_flat(flat, n_a, n_c)


def from_nested(n_a: int, n_c: int, rows) -> ProdBij:
    """The table with f(a, c) = rows[c][a] = (b, c'), by definition.

    Each (b, c') is range-checked first, because b >= nA can encode another
    cell's flat index; ``from_flat`` checks the rest.
    """
    flat = []
    for row in rows:
        for b, c2 in row:
            if not (0 <= b < n_a and 0 <= c2 < n_c):
                raise ValueError(f"entry out of range: {(b, c2)}")
            flat.append(c2 * n_a + b)
    return ProdBij.from_flat(flat, n_a, n_c)


def cell(f: ProdBij, a: int, c: int) -> tuple[int, int]:
    """f(a, c) = (b, c'), decoded from the flat index."""
    t = f.fwd[c * f.n_a + a]
    return t % f.n_a, t // f.n_a


def random_parallel(rng: random.Random, n_a: int, n_c: int) -> ProdBij:
    return ProdBij.parallel_from_rows(
        [rng.sample(range(n_a), n_a) for _ in range(n_c)]
    )
