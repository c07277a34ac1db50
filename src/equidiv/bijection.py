"""The central data type: a finite bijection f : A x C -> B x C.

A, B, C are index sets 0..n-1.  |A| = |B| is forced (the two sides of the
bijection have equal cardinality and the C factor cancels), so a quotient
A -> B is just a :class:`~equidiv.perm.Perm`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import FormatError
from .perm import Perm

Entry = tuple[int, int]  # (b, c')


@dataclass(frozen=True)
class ProdBij:
    """Dense table for f : A x C -> B x C; ``entries[c][a]`` = (b, c')."""

    n_a: int
    n_c: int
    entries: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(map(tuple, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n_a, n_c = self.n_a, self.n_c
        if n_a < 0 or n_c < 0:
            raise ValueError("negative size")
        if len(entries) != n_c or any(len(r) != n_a for r in entries):
            raise ValueError("table shape does not match sizes")
        # One pass builds the flat index of :meth:`flat` and checks range;
        # in range, f is a bijection iff that index repeats no cell.
        fwd = []
        for row in entries:
            for b, c2 in row:
                if not (0 <= b < n_a and 0 <= c2 < n_c):
                    raise ValueError(f"entry out of range: {(b, c2)}")
                fwd.append(c2 * n_a + b)
        if len(set(fwd)) != len(fwd):
            raise ValueError("not a bijection")
        # machine ints: 8 bytes a cell, not an int object per cell
        object.__setattr__(self, "_fwd", array("l", fwd))

    @property
    def n_b(self) -> int:
        return self.n_a

    @classmethod
    def identity(cls, n_a: int, n_c: int) -> "ProdBij":
        return cls(n_a, n_c, tuple(tuple((a, c) for a in range(n_a)) for c in range(n_c)))

    @classmethod
    def parallel_from_rows(cls, rows: Sequence[Sequence[int]]) -> "ProdBij":
        """Build a parallel bijection from one permutation of A per c."""
        n_c = len(rows)
        n_a = len(rows[0]) if rows else 0
        return cls(n_a, n_c, tuple(tuple((b, c) for b in row) for c, row in enumerate(rows)))

    @classmethod
    def from_flat(cls, flat: Sequence[int], n_a: int, n_c: int) -> "ProdBij":
        """Decode a permutation of 0..nA*nC-1, flat index = c*nA + a."""
        entries = [
            [(0, 0)] * n_a for _ in range(n_c)
        ]
        for s, t in enumerate(flat):
            entries[s // n_a][s % n_a] = (t % n_a, t // n_a)
        return cls(n_a, n_c, tuple(tuple(r) for r in entries))

    @cached_property
    def flat(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(fwd, inv)`` over the flat index of :meth:`from_flat`.

        ``fwd[c*nA + a] = c'*nA + b`` when f(a, c) = (b, c'), and ``inv`` is
        the inverse permutation.  Built on first use and cached on the table,
        so the nC divisions of ``parallelize`` build it once.
        """
        fwd = tuple(self._fwd)  # built by __post_init__'s validation pass
        inv = [0] * len(fwd)
        for s, t in enumerate(fwd):
            inv[t] = s
        return fwd, tuple(inv)

    def apply(self, a: int, c: int) -> Entry:
        return self.entries[c][a]

    def row(self, c: int) -> tuple[int, ...]:
        """First components of f(., c); not a permutation in general."""
        if not 0 <= c < self.n_c:
            raise IndexError(f"row index {c} out of range")
        return tuple(b for b, _ in self.entries[c])

    def is_parallel(self) -> bool:
        return all(c2 == c for c, row in enumerate(self.entries) for _, c2 in row)

    def inverse(self) -> "ProdBij":
        inv = [[(0, 0)] * self.n_a for _ in range(self.n_c)]
        for c in range(self.n_c):
            for a in range(self.n_a):
                b, c2 = self.entries[c][a]
                inv[c2][b] = (a, c)
        return ProdBij(self.n_a, self.n_c, tuple(tuple(r) for r in inv))

    def transform(self, alpha: Perm, beta: Perm, gamma: Perm) -> "ProdBij":
        """Relabel by (alpha, beta, gamma): result(a,c) = (beta x gamma)(f(alpha^-1 a, gamma^-1 c))."""
        if alpha.degree != self.n_a or beta.degree != self.n_b or gamma.degree != self.n_c:
            raise ValueError("degree mismatch in transform")
        out = [[(0, 0)] * self.n_a for _ in range(self.n_c)]
        for c in range(self.n_c):
            for a in range(self.n_a):
                b, c2 = self.entries[c][a]
                out[gamma(c)][alpha(a)] = (beta(b), gamma(c2))
        return ProdBij(self.n_a, self.n_c, tuple(tuple(r) for r in out))

    def subtract(self, j: "PartialMap") -> "SubtractResult":
        """Remove the partial bijection j x id_C, chaining through removed cells.

        For each surviving start s, iterate t = f(s); while t lands in
        removed-B territory, jump back through j^-1 and apply f again.  The
        chain always escapes: each pass consumes a fresh removed cell.
        """
        x_set = {a for a, _ in j.pairs}
        y_set = {b for _, b in j.pairs}
        if not x_set <= set(range(self.n_a)) or not y_set <= set(range(self.n_a)):
            raise ValueError("partial map outside index range")
        j_inv = {b: a for a, b in j.pairs}
        a_kept = tuple(a for a in range(self.n_a) if a not in x_set)
        b_kept = tuple(b for b in range(self.n_b) if b not in y_set)
        a_new = {a: i for i, a in enumerate(a_kept)}
        b_new = {b: i for i, b in enumerate(b_kept)}
        entries = []
        for c in range(self.n_c):
            row = []
            for a in a_kept:
                b, c2 = self.entries[c][a]
                while b in y_set:
                    b, c2 = self.entries[c2][j_inv[b]]
                row.append((b_new[b], c2))
            entries.append(tuple(row))
        sub = ProdBij(len(a_kept), self.n_c, tuple(entries))
        return SubtractResult(sub, a_kept, b_kept)


@dataclass(frozen=True)
class PartialMap:
    """A partial bijection A -> B as (a, b) pairs, injective both ways."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        a_side = [a for a, _ in self.pairs]
        b_side = [b for _, b in self.pairs]
        if len(set(a_side)) != len(a_side) or len(set(b_side)) != len(b_side):
            raise ValueError("partial map is not injective")

    @classmethod
    def empty(cls) -> "PartialMap":
        return cls(())


@dataclass(frozen=True)
class SubtractResult:
    """Subtraction output plus the old indices kept (new index -> old index)."""

    bij: ProdBij
    a_old: tuple[int, ...]
    b_old: tuple[int, ...]


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


def parse_bijection(text: str) -> BijFile:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
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
    labels: dict[str, tuple[str, ...]] = {}
    rows: dict[int, tuple[Entry, ...]] = {}
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
            labels[side] = names
        elif line.startswith("row "):
            head, _, body = line.partition(":")
            try:
                c = int(head[len("row "):])
            except ValueError as exc:
                raise FormatError(f"bad row line: {line!r}") from exc
            if c in rows or not 0 <= c < n_c:
                raise FormatError(f"bad or duplicate row index in: {line!r}")
            entries = []
            for tok in body.split():
                b_s, _, c_s = tok.partition(":")
                try:
                    entries.append((int(b_s), int(c_s)))
                except ValueError as exc:
                    raise FormatError(f"bad entry {tok!r}") from exc
            if len(entries) != n_a:
                raise FormatError(f"row {c} has {len(entries)} entries, expected {n_a}")
            rows[c] = tuple(entries)
        else:
            raise FormatError(f"unrecognized line: {line!r}")
    if set(rows) != set(range(n_c)):
        raise FormatError("missing rows")
    expect = {"A": n_a, "B": n_b, "C": n_c}
    for side, toks in labels.items():
        if len(toks) != expect[side]:
            raise FormatError(f"labels {side} has {len(toks)} entries, expected {expect[side]}")
    try:
        bij = ProdBij(n_a, n_c, tuple(rows[c] for c in range(n_c)))
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
    for c in range(f.n_c):
        body = " ".join(f"{b}:{c2}" for b, c2 in f.entries[c])
        out.append(f"row {c}: {body}".rstrip())
    return "\n".join(out) + "\n"
