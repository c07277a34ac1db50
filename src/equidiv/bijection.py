"""The central data type: a finite bijection f : A x C -> B x C.

A, B, C are index sets 0..n-1.  |A| = |B| is forced (the two sides of the
bijection have equal cardinality and the C factor cancels), so a quotient
A -> B is just a :class:`~equidiv.perm.Perm`.

A table is stored only as a flat permutation: cell (a, c) has index c*nA + a
(likewise for B x C) and ``fwd[c*nA + a] = c'*nA + b`` when f(a, c) = (b, c').
Its inverse ``inv`` is built on first use and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import FormatError
from .perm import Perm


@dataclass(frozen=True, init=False)
class ProdBij:
    """f : A x C -> B x C as the flat permutation ``fwd``; see the module docstring.

    Built only by :meth:`from_flat`, which checks ``fwd``.
    """

    n_a: int
    n_c: int
    fwd: tuple[int, ...]

    @property
    def n_b(self) -> int:
        return self.n_a

    @classmethod
    def parallel_from_rows(cls, rows: Sequence[Sequence[int]]) -> "ProdBij":
        """Build a parallel bijection from one permutation of A per c."""
        n_c = len(rows)
        n_a = len(rows[0]) if rows else 0
        if any(sorted(row) != list(range(n_a)) for row in rows):
            raise ValueError("rows must be permutations of 0..nA-1")
        flat: list[int] = []
        for c, row in enumerate(rows):
            flat += map((c * n_a).__add__, row)
        return cls.from_flat(flat, n_a, n_c)

    @classmethod
    def from_flat(cls, flat: Iterable[int], n_a: int, n_c: int) -> "ProdBij":
        """The table whose ``fwd`` is ``flat``, a permutation of 0..nA*nC-1; C is non-empty."""
        fwd = tuple(flat)
        if n_a < 0 or n_c < 0:
            raise ValueError("negative size")
        if n_c == 0:
            raise ValueError("nC must be >= 1: C must be non-empty")
        if len(fwd) != n_a * n_c:
            raise ValueError("table shape does not match sizes")
        if fwd and not 0 <= min(fwd) <= max(fwd) < len(fwd):
            raise ValueError("flat index out of range")
        if len(set(fwd)) != len(fwd):
            raise ValueError("not a bijection")
        f = cls.__new__(cls)
        object.__setattr__(f, "n_a", n_a)
        object.__setattr__(f, "n_c", n_c)
        object.__setattr__(f, "fwd", fwd)
        return f

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """The inverse permutation of ``fwd``: the flat table of f^-1."""
        inv = [0] * len(self.fwd)
        for s, t in enumerate(self.fwd):
            inv[t] = s
        return tuple(inv)

    def row(self, c: int) -> tuple[int, ...]:
        """First components of f(., c); not a permutation in general."""
        if not 0 <= c < self.n_c:
            raise IndexError(f"row index {c} out of range")
        n_a = self.n_a
        return tuple(t % n_a for t in self.fwd[c * n_a:(c + 1) * n_a])

    def is_parallel(self) -> bool:
        n_a = self.n_a
        return all(s // n_a == t // n_a for s, t in enumerate(self.fwd))

    def inverse(self) -> "ProdBij":
        return self.from_flat(self.inv, self.n_a, self.n_c)

    def transform(self, alpha: Perm, beta: Perm, gamma: Perm) -> "ProdBij":
        """Relabel by (alpha, beta, gamma): result(a,c) = (beta x gamma)(f(alpha^-1 a, gamma^-1 c)).

        On flat indices this is conjugation: cell c*nA + a moves to
        gamma(c)*nA + alpha(a) and its image c'*nA + b to gamma(c')*nA + beta(b).
        """
        if alpha.degree != self.n_a or beta.degree != self.n_b or gamma.degree != self.n_c:
            raise ValueError("degree mismatch in transform")
        n_a = self.n_a
        a_cells = [g * n_a + a for g in gamma.images for a in alpha.images]
        b_cells = [g * n_a + b for g in gamma.images for b in beta.images]
        out = [0] * len(self.fwd)
        for s, t in enumerate(self.fwd):
            out[a_cells[s]] = b_cells[t]
        return self.from_flat(out, n_a, self.n_c)

    def subtract(
        self, pairs: Sequence[tuple[int, int]]
    ) -> tuple["ProdBij", tuple[int, ...], tuple[int, ...]]:
        """Remove j x id_C, j the partial bijection with these (a, b) pairs,
        chaining through removed cells: ``(bij, a_kept, b_kept)``, the table on
        the survivors and the old index of each new index of A and of B.

        For each surviving start s, iterate t = f(s); while t lands in
        removed-B territory, jump back through j^-1 and apply f again.  The
        chain always escapes: each pass consumes a fresh removed cell.
        """
        x_set = {a for a, _ in pairs}
        j_inv = {b: a for a, b in pairs}
        if not len(x_set) == len(j_inv) == len(pairs):
            raise ValueError("partial map is not injective")
        if not x_set <= set(range(self.n_a)) or not j_inv.keys() <= set(range(self.n_a)):
            raise ValueError("partial map outside index range")
        a_kept = tuple(a for a in range(self.n_a) if a not in x_set)
        b_kept = tuple(b for b in range(self.n_b) if b not in j_inv)
        b_new = {b: i for i, b in enumerate(b_kept)}
        n_a, n_new, fwd = self.n_a, len(a_kept), self.fwd
        flat = []
        for c in range(self.n_c):
            for a in a_kept:
                c2, b = divmod(fwd[c * n_a + a], n_a)
                while b in j_inv:
                    c2, b = divmod(fwd[c2 * n_a + j_inv[b]], n_a)
                flat.append(c2 * n_new + b_new[b])
        return self.from_flat(flat, n_new, self.n_c), a_kept, b_kept


# -- EQUIDIV file format ------------------------------------------------------
#
#   EQUIDIV 1
#   bij nA 2 nB 2 nC 2
#   labels A: x y            (optional, likewise for B and C)
#   row 0: 0:0 1:0
#   row 1: 1:1 0:1
#
# '#' starts a comment.  Canonical serialization: no comments, single spaces,
# rows in increasing c.


@dataclass(frozen=True)
class BijFile:
    bij: ProdBij
    a_labels: tuple[str, ...] | None = None
    b_labels: tuple[str, ...] | None = None
    c_labels: tuple[str, ...] | None = None


def cell_names(n_a: int, n_c: int) -> list[str]:
    """How each cell (b, c') of B x C is written, ``b:c'``, by flat index c'*nA + b."""
    heads = [f"{b}:" for b in range(n_a)]
    return [head + c2 for c2 in map(str, range(n_c)) for head in heads]


def content_lines(text: str) -> list[str]:
    """The non-blank lines of a line-based text, each cut at its first '#'
    and stripped."""
    return [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]


def parse_bijection(text: str) -> BijFile:
    lines = content_lines(text)
    if not lines or lines[0] != "EQUIDIV 1":
        raise FormatError("missing EQUIDIV 1 header")
    if len(lines) < 2:
        raise FormatError("missing bij line")
    m = lines[1].split()
    if len(m) != 7 or m[0] != "bij" or m[1] != "nA" or m[3] != "nB" or m[5] != "nC":
        raise FormatError(f"malformed bij line: {lines[1]!r}")
    try:
        n_a, n_b, n_c = int(m[2]), int(m[4]), int(m[6])
    except ValueError as exc:
        raise FormatError(f"malformed bij line: {lines[1]!r}") from exc
    if n_a != n_b:
        raise FormatError("nA and nB must agree")
    if min(n_a, n_c) < 0:
        raise FormatError(f"negative size in: {lines[1]!r}")
    if n_c == 0:
        raise FormatError("nC must be >= 1: C must be non-empty")
    # Each row line is split once, here.  A row of cell names is read by one
    # lookup per token; the name table is built only when the rows hold the
    # nA*nC tokens of a valid file, so it is never larger than the input.
    split_rows = [line.partition(":")[2].split() for line in lines if line.startswith("row ")]
    n_cells = n_a * n_c
    index = {}
    if sum(map(len, split_rows)) == n_cells:
        index = dict(zip(cell_names(n_a, n_c), range(n_cells)))
    row_tokens = iter(split_rows)
    labels: dict[str, tuple[str, ...]] = {}
    rows: dict[int, list[int]] = {}  # flat cells c'*nA + b
    out_of_range: dict[int, tuple[int, int]] = {}  # first (b, c') out of range, per row
    for line in lines[2:]:
        if line.startswith("labels "):
            rest = line[len("labels "):]
            side, _, toks = rest.partition(":")
            side = side.strip()
            if side not in ("A", "B", "C"):
                raise FormatError(f"bad labels line: {line!r}")
            if side in labels:
                raise FormatError(f"duplicate labels line for {side}: {line!r}")
            names = tuple(toks.split())
            if len(set(names)) != len(names):
                raise FormatError(f"repeated label in: {line!r}")
            if any(ch in "()," for name in names for ch in name):
                raise FormatError(f"label with '(', ')' or ',' in: {line!r}")
            labels[side] = names
        elif line.startswith("row "):
            head = line.partition(":")[0]
            try:
                c = int(head[len("row "):])
            except ValueError as exc:
                raise FormatError(f"bad row line: {line!r}") from exc
            if c in rows or not 0 <= c < n_c:
                raise FormatError(f"bad or duplicate row index in: {line!r}")
            tokens = next(row_tokens)
            cells = list(map(index.get, tokens))
            if len(cells) != n_a or None in cells:
                # any other token is read as two ints (01:0, +1:0 and ١:1 are
                # cells, 2:0 at nA 2 is out of range), and the row's length checked
                cells = []
                for tok in tokens:
                    b_s, _, c_s = tok.partition(":")
                    try:
                        b, c2 = int(b_s), int(c_s)
                    except ValueError as exc:
                        raise FormatError(f"bad entry {tok!r}") from exc
                    if not (0 <= b < n_a and 0 <= c2 < n_c):
                        out_of_range.setdefault(c, (b, c2))
                    cells.append(c2 * n_a + b)
                if len(cells) != n_a:
                    raise FormatError(f"row {c} has {len(cells)} entries, expected {n_a}")
            rows[c] = cells
        else:
            raise FormatError(f"unrecognized line: {line!r}")
    if set(rows) != set(range(n_c)):
        raise FormatError("missing rows")
    expect = {"A": n_a, "B": n_b, "C": n_c}
    for side, toks in labels.items():
        if len(toks) != expect[side]:
            raise FormatError(f"labels {side} has {len(toks)} entries, expected {expect[side]}")
    # checked per entry because b >= nA can encode another cell's flat index
    # (2:0 is cell (0, 1) at nA 2); reported after the format checks, row 0 first
    if out_of_range:
        raise FormatError(f"entry out of range: {out_of_range[min(out_of_range)]}")
    try:
        bij = ProdBij.from_flat([t for c in range(n_c) for t in rows[c]], n_a, n_c)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return BijFile(bij, labels.get("A"), labels.get("B"), labels.get("C"))


def serialize_bijection(
    f: ProdBij,
    a_labels: Sequence[str] | None = None,
    b_labels: Sequence[str] | None = None,
    c_labels: Sequence[str] | None = None,
) -> str:
    out = ["EQUIDIV 1", f"bij nA {f.n_a} nB {f.n_b} nC {f.n_c}"]
    for side, labs in (("A", a_labels), ("B", b_labels), ("C", c_labels)):
        if labs is not None:
            out.append(f"labels {side}: " + " ".join(labs))
    n_a = f.n_a
    cell = cell_names(n_a, f.n_c)
    for c in range(f.n_c):
        body = " ".join(map(cell.__getitem__, f.fwd[c * n_a:(c + 1) * n_a]))
        out.append(f"row {c}: {body}".rstrip())
    return "\n".join(out) + "\n"
