"""Permutations of {0..n-1}, small permutation groups, and symmetry triples.

Composition uses the "then" order throughout: ``p.then(q)`` maps x to
q(p(x)).  Points are always 0-based indices; human-readable labels only
appear at the I/O boundary (see :func:`parse_cycles` / :func:`format_cycles`).

Images are checked where they enter: ``Perm(...)``, :meth:`Perm.from_cycles`
and :func:`parse_cycles`.  Products and identities skip the check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BudgetExceeded, FormatError

#: Cap on group orders for closure enumeration.  All cases from the
#: source material are tiny; beyond the cap we refuse rather than truncate.
DEFAULT_GROUP_CAP = 20160


@dataclass(frozen=True)
class Perm:
    """A permutation given by its image sequence: ``images[i]`` = image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images!r}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Perm":
        """A Perm from an image tuple that is a permutation by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._unchecked(tuple(range(n)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Perm":
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise ValueError(f"point {x} appears in two cycles")
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def then(self, other: "Perm") -> "Perm":
        """Composition in reading order: (self then other)(x) = other(self(x))."""
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Perm._unchecked(tuple(map(other.images.__getitem__, self.images)))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points included as length-1 cycles.

        Cycles start at their smallest element and are listed in order of
        that element; together they partition 0..n-1.
        """
        seen = [False] * self.degree
        out: list[tuple[int, ...]] = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out


@dataclass(frozen=True)
class SymTriple:
    """Permutations alpha of A, beta of B and gamma of C: a symmetry of
    f : A x C -> B x C when relabeling f by them gives f back."""

    alpha: Perm
    beta: Perm
    gamma: Perm


@dataclass
class PermGroup:
    """A permutation group given by generators; elements enumerated lazily."""

    degree: int
    generators: tuple[Perm, ...]
    _elements: list[Perm] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, ())

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        return cls(degree, tuple(map(Perm._unchecked, _symmetric_images(degree))))

    def is_symmetric(self) -> bool:
        """True when the generators are those of :meth:`symmetric`.

        Then every permutation of the degree is an element, and a search
        may take any image without enumerating the group.  Other generating
        sets of the symmetric group answer False.
        """
        return tuple(g.images for g in self.generators) == _symmetric_images(self.degree)

    def elements(self) -> list[Perm]:
        """All group elements, sorted by image sequence.

        Breadth-first closure of the generators.  Raises
        :class:`BudgetExceeded` if the order exceeds ``DEFAULT_GROUP_CAP``.
        """
        if self._elements is not None:
            return self._elements
        ident = Perm.identity(self.degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            new: list[Perm] = []
            for x in frontier:
                for g in self.generators:
                    y = x.then(g)
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > DEFAULT_GROUP_CAP:
                            raise BudgetExceeded(f"group order exceeds cap {DEFAULT_GROUP_CAP}")
                        new.append(y)
            frontier = new
        self._elements = sorted(seen, key=lambda p: p.images)
        return self._elements


def _symmetric_images(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of S_n as image tuples: (0 1), then (0 1 ... n-1) if n > 2."""
    if n < 2:
        return ()
    swap = (1, 0, *range(2, n))
    return (swap,) if n == 2 else (swap, (*range(1, n), 0))


# -- cycle notation -----------------------------------------------------------
#
# A permutation is written as a whitespace-free product of cycles over labels,
# e.g. "(a,b,c)(d,e)"; the identity is "()".

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, labels: Sequence[str]) -> Perm:
    """Parse cycle notation over a declared label universe."""
    text = text.strip()
    if not text or _CYCLE_RE.sub("", text):
        raise FormatError(f"bad cycle notation: {text!r}")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise FormatError("duplicate labels in universe")
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        if not body:
            continue  # "()" contributes nothing
        points = []
        for tok in body.split(","):
            if tok not in index:
                raise FormatError(f"unknown label {tok!r} in cycle notation")
            x = index[tok]
            if x in seen:
                raise FormatError(f"label {tok!r} appears twice in cycle notation")
            seen.add(x)
            points.append(x)
        cycles.append(tuple(points))
    return Perm.from_cycles(cycles, len(labels))


def point_labels(labels: Sequence[str] | None, n: int) -> tuple[str, ...]:
    """How points 0..n-1 are written: by ``labels``, else each by its index."""
    return tuple(map(str, range(n))) if labels is None else tuple(labels)


def format_cycles(p: Perm, labels: Sequence[str] | None = None) -> str:
    """Render a permutation in cycle notation; identity renders as "()"."""
    return cycle_texts((p.images,), point_labels(labels, p.degree))[0][p.images]


def cycle_texts(
    perms: Iterable[Sequence[int]], labels: Sequence[str], other: Sequence[str] | None = None
) -> tuple[dict, dict]:
    """Cycle notation of each permutation, keyed by it: by ``labels``, and by
    the ``other`` labels, which default to ``labels``.  A permutation is a
    tuple or bytes of the images of 0..n-1; a point x is written as its label.

    Cycles start at their smallest point and come in order of it, as in
    :meth:`Perm.cycles`; fixed points are left out, and "()" stands for none.
    Each permutation is walked once, whatever the labels.  A visited point is
    fixed in a list copy of the images, which holds any point; bytes stop at 255.
    """
    opens, seps, texts = ["(" + lab for lab in labels], ["," + lab for lab in labels], {}
    if other is None or other == labels:
        for images in perms:
            work, s, p = list(images), "", 0
            for x in work:
                if x != p:
                    s += opens[p]
                    while x != p:
                        s += seps[x]
                        work[x], x = x, work[x]
                    s += ")"
                p += 1
            texts[images] = s or "()"
        return texts, texts
    opens2, seps2, texts2 = ["(" + lab for lab in other], ["," + lab for lab in other], {}
    for images in perms:
        work, s, t, p = list(images), "", "", 0
        for x in work:
            if x != p:
                s += opens[p]
                t += opens2[p]
                while x != p:
                    s += seps[x]
                    t += seps2[x]
                    work[x], x = x, work[x]
                s += ")"
                t += ")"
            p += 1
        texts[images], texts2[images] = s or "()", t or "()"
    return texts, texts2
