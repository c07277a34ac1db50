"""Finitely described infinite bijections: a symbol header plus shifted tails.

Rows range over a finite C, columns over the positive integers.  Rows moved
by a distinguished permutation of C own one symbol each and map their first
|C| columns into symbols; past the header they shift integers down by |C|.
Rows fixed by the permutation map column j to j unchanged.  A table stores
only C's labels, the permutation and the moved rows' symbols; the header is
derived from them, and so is bijective by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .perm import Perm

LazyValue = tuple[object, int]  # (symbol str or positive int, c index)

#: Symbol names for moved rows, in row order; card ranks, then numbered spares.
SYMBOL_POOL = ["K", "Q", "J", "X"]


def _symbol(i: int) -> str:
    return SYMBOL_POOL[i] if i < len(SYMBOL_POOL) else f"S{i + 1}"


@dataclass(frozen=True)
class SymbolPerm:
    """A permutation of the symbol alphabet, implicitly fixing all integers."""

    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(tuple(p) for p in self.mapping))
        src = [s for s, _ in self.mapping]
        dst = [d for _, d in self.mapping]
        if sorted(src) != sorted(dst) or len(set(src)) != len(src):
            raise ValueError("not a permutation of the symbols")

    def __call__(self, v):
        if isinstance(v, str):
            return dict(self.mapping)[v]
        return v

    def is_identity(self) -> bool:
        return all(s == d for s, d in self.mapping)


@dataclass(frozen=True)
class LazyBij:
    """A bijection (positive integers) x C -> (symbols + positive integers) x C.

    Gamma and the moved rows' symbols determine the table.  Row x, at
    position i of its gamma-cycle (cycles start at their least point), maps
    column j <= |C| to (x's symbol, gamma^i of the j-th C index); the shifted
    tail and the fixed rows then cover the integer cells once each.
    """

    c_labels: tuple[str, ...]
    gamma: Perm
    symbol_by_row: tuple[object, ...]  # str for moved rows, None for fixed

    def __post_init__(self) -> None:
        n_c = len(self.c_labels)
        if self.gamma.degree != n_c or len(self.symbol_by_row) != n_c:
            raise ValueError("row metadata shape mismatch")
        if len(set(self.c_labels)) != n_c:  # a row is named by its label alone
            raise ValueError(f"repeated C label in: {self.c_labels}")
        for i, s in enumerate(self.symbol_by_row):
            if (self.gamma(i) != i) != (s is not None):
                raise ValueError("moved/fixed classification disagrees with gamma")
        symbols = self.symbols
        if len(set(symbols)) != len(symbols) or not all(isinstance(s, str) for s in symbols):
            raise ValueError("moved rows need distinct string symbols")

    @property
    def width(self) -> int:
        return len(self.c_labels)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s in self.symbol_by_row if s is not None)

    @property
    def beta_on_symbols(self) -> SymbolPerm:
        """The symbol shift along gamma: x's symbol goes to gamma(x)'s."""
        by_row = self.symbol_by_row
        return SymbolPerm(
            tuple((s, by_row[self.gamma(i)]) for i, s in enumerate(by_row) if s is not None)
        )

    @cached_property
    def _powers(self) -> list[tuple[int, ...]]:
        """Per row x at position i of its gamma-cycle, the images of gamma^i."""
        out = [()] * self.width
        for cyc in self.gamma.cycles():
            power = Perm.identity(self.width)
            for x in cyc:
                out[x] = power.images
                power = power.then(self.gamma)
        return out

    def eval(self, n: int, row: int) -> LazyValue:
        """Table entry at column n >= 1 of the given C row."""
        if n < 1:
            raise ValueError("columns are 1-based")
        symbol = self.symbol_by_row[row]
        if symbol is None:
            return (n, row)
        if n <= self.width:
            return (symbol, self._powers[row][n - 1])
        return (n - self.width, row)


def lazy_check_symmetry(lazy: LazyBij, beta: SymbolPerm, gamma: Perm) -> bool:
    """Exact verification that (id, beta, gamma) is a symmetry.

    Header columns are compared entry by entry; beyond the header both sides
    reduce to the shift/full rules, which agree exactly when gamma maps moved
    rows to moved rows, as the first column shows (symbols against integers).
    Nothing is sampled.
    """
    if gamma.degree != len(lazy.c_labels):
        raise ValueError("gamma degree mismatch")
    for i in range(len(lazy.c_labels)):
        for n in range(1, lazy.width + 1):
            v, c = lazy.eval(n, i)
            if lazy.eval(n, gamma(i)) != (beta(v), gamma(c)):
                return False
    return True


def lazy_apply_symbols(lazy: LazyBij, beta: SymbolPerm) -> LazyBij:
    """Post-compose with a symbol permutation (identity on integers)."""
    symbol_by_row = tuple(None if s is None else beta(s) for s in lazy.symbol_by_row)
    return LazyBij(lazy.c_labels, lazy.gamma, symbol_by_row)


def lazy_equal(x: LazyBij, y: LazyBij) -> bool:
    """Equality as functions, matching rows by label rather than position;
    past the header a row's rule follows from its first entry."""
    if set(x.c_labels) != set(y.c_labels):  # labels are distinct, so the widths agree
        return False
    for label in x.c_labels:
        xi = x.c_labels.index(label)
        yi = y.c_labels.index(label)
        for n in range(1, x.width + 1):
            xv, xc = x.eval(n, xi)
            yv, yc = y.eval(n, yi)
            if xv != yv or x.c_labels[xc] != y.c_labels[yc]:
                return False
    return True


def render_lazy(lazy: LazyBij, window: int) -> str:
    """Window of the table: one line per row, entries like "Ka" or "12c"."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    lines = []
    for i, label in enumerate(lazy.c_labels):
        entries = []
        for n in range(1, window + 1):
            v, c = lazy.eval(n, i)
            entries.append(f"{v}{lazy.c_labels[c]}")
        lines.append(f"row {label}: " + " ".join(entries))
    return "\n".join(lines) + "\n"


def build_counterexample(gamma: Perm, c_labels: Sequence[str]) -> LazyBij:
    """The header-plus-shift-tail bijection witnessing that gamma obstructs.

    Requires every nontrivial cycle of gamma to have the same length (take a
    suitable power first if not).  The moved rows take symbols in row order;
    the printed symmetry is (id, symbol shift along the cycles, gamma).
    """
    c_labels = tuple(c_labels)
    if gamma.degree != len(c_labels):
        raise ValueError("gamma degree must match |C|")
    if gamma.is_identity():
        raise ValueError("gamma must be nontrivial")
    lengths = {len(c) for c in gamma.cycles() if len(c) > 1}
    if len(lengths) != 1:
        raise ValueError(
            "nontrivial cycles of gamma differ in length; use a power of gamma"
            " whose nontrivial cycles all have one length"
        )
    moved = [x for x in range(gamma.degree) if gamma(x) != x]
    symbol = {x: _symbol(k) for k, x in enumerate(moved)}
    return LazyBij(c_labels, gamma, tuple(symbol.get(x) for x in range(gamma.degree)))


def ordering_gadget(first: str, second: str, fixed: str) -> LazyBij:
    """The two-guise ordering gadget on C = {first, second, fixed}.

    Associates the first symbol with ``first`` and the second with
    ``second``; swapping the symbols turns one guise into the other.
    """
    labels = (first, second, fixed)
    return build_counterexample(Perm.from_cycles([(0, 1)], 3), labels)
