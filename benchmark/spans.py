"""Traced run: spans and counters around each layer's public functions.

The program is not changed.  ``Tracer.install`` replaces every binding of the
wrapped functions -- the defining module's and each ``from .x import y``
copy in other ``equidiv`` modules -- and the class attributes of the wrapped
methods; ``uninstall`` puts the originals back.  Spans stay in memory until
the run ends.  A span's self time is its duration minus that of its child
spans, so the self times of all spans add up to the time of the root
``cli.main`` spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import equidiv.bijection as bijection
import equidiv.cli as cli
import equidiv.division as division
import equidiv.equivariance as equivariance
import equidiv.perm as perm
import equidiv.search as search

#: Counters kept per op; each should repeat exactly whenever the op repeats.
COUNTERS = (
    "equivariance.stab_nodes",
    "equivariance.symmetries",
    "equivariance.gammas",
    "equivariance.orbits",
    "equivariance.matchable_orbits",
    "equivariance.match_nodes",
    "equivariance.cert_bytes",
    "perm.elements_calls",
    "division.fp_divide_calls",
    "bijection.subtract_calls",
    "bijection.inverse_calls",
    "search.instances",
    "search.decisions",
)

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.counts: Counter[str] = Counter()  # of the op running now
        self.per_op: list[dict[str, int]] = []  # counters of each finished op
        self.op = -1
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start attributing spans and counts to op number ``op``."""
        self.op = op
        self.counts.clear()

    def end_op(self) -> None:
        self.per_op.append(dict(self.counts))

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, self.op])
            open_.append(i)
            spans[i][1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = perf_counter()
                open_.pop()

        return wrapper

    def _counted(self, name: str, counter: str, fn):
        traced = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return traced(*args, **kwargs)

        return wrapper

    def _in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        Budget = equivariance.Budget
        elements = perm.PermGroup.elements
        c = self.counts

        traced_stabilizer = self._span("equivariance.stabilizer", equivariance.stabilizer)

        def stabilizer(f, group, budget=None):
            budget = budget or Budget()
            used = budget.used
            result = traced_stabilizer(f, group, budget)
            c["equivariance.stab_nodes"] += budget.used - used
            c["equivariance.symmetries"] += len(result)
            c["equivariance.gammas"] += len(elements(group))
            return result

        traced_decide = self._span("equivariance.decide", equivariance.equivariant_quotient)

        def equivariant_quotient(f, group, budget=None):
            budget = budget or Budget()
            used, stab = budget.used, c["equivariance.stab_nodes"]
            result = traced_decide(f, group, budget)
            c["equivariance.match_nodes"] += (
                budget.used - used - (c["equivariance.stab_nodes"] - stab)
            )
            if self._in_span("search.probe"):
                c["search.decisions"] += 1
            return result

        traced_orbits = self._span("equivariance.pair_orbits", equivariance.pair_orbits)

        def pair_orbits(pairs, n_a, n_b):
            result = traced_orbits(pairs, n_a, n_b)
            c["equivariance.orbits"] += len(result)
            c["equivariance.matchable_orbits"] += sum(o.matchable for o in result)
            return result

        traced_render = self._span("equivariance.render", equivariance.render_certificate)

        def render_certificate(*args, **kwargs):
            result = traced_render(*args, **kwargs)
            c["equivariance.cert_bytes"] += len(result.encode())
            return result

        traced_probe = self._span("search.probe", search.probe_cancelling)

        def probe_cancelling(*args, **kwargs):
            report = traced_probe(*args, **kwargs)
            c["search.instances"] += report.total
            return report

        for orig, new in (
            (cli.main, self._span(ROOT_SPAN, cli.main)),
            (bijection.parse_bijection, self._span("bijection.parse", bijection.parse_bijection)),
            (
                bijection.serialize_bijection,
                self._span("bijection.serialize", bijection.serialize_bijection),
            ),
            (
                division.fp_divide,
                self._counted("division.fp_divide", "division.fp_divide_calls", division.fp_divide),
            ),
            (division.parallelize, self._span("division.parallelize", division.parallelize)),
            (equivariance.stabilizer, functools.wraps(equivariance.stabilizer)(stabilizer)),
            (
                equivariance.equivariant_quotient,
                functools.wraps(equivariance.equivariant_quotient)(equivariant_quotient),
            ),
            (equivariance.pair_orbits, functools.wraps(equivariance.pair_orbits)(pair_orbits)),
            (
                equivariance.render_certificate,
                functools.wraps(equivariance.render_certificate)(render_certificate),
            ),
            (search.probe_cancelling, functools.wraps(search.probe_cancelling)(probe_cancelling)),
        ):
            self._rebind(orig, new)

        ProdBij = bijection.ProdBij
        self._set(ProdBij, "subtract", self._counted(
            "bijection.subtract", "bijection.subtract_calls", ProdBij.subtract))
        self._set(ProdBij, "inverse", self._counted(
            "bijection.inverse", "bijection.inverse_calls", ProdBij.inverse))
        from_flat = ProdBij.__dict__["from_flat"].__func__
        self._set(ProdBij, "from_flat", classmethod(self._span("bijection.from_flat", from_flat)))
        self._set(perm.PermGroup, "elements", self._counted(
            "perm.elements", "perm.elements_calls", elements))

    def _set(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, orig: object, new: object) -> None:
        """Replace ``orig`` wherever an equidiv module binds it."""
        for name, module in list(sys.modules.items()):
            if name != "equidiv" and not name.startswith("equidiv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def self_times(self, ops: int) -> tuple[Counter[str], float, list[str]]:
        """Self seconds per span name, total root-span seconds, and problems.

        The problems are spans outside a ``cli.main`` span, a number of root
        spans other than ``ops``, negative self times, and self times that do
        not add up to the root spans' time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        roots = 0.0
        n_roots = 0
        problems = []
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_time = end - start - child[i]
            own[name] += self_time
            if self_time < -1e-9:
                problems.append(f"span {name} has negative self time {self_time:.3g} s")
            if parent < 0:
                roots += end - start
                n_roots += 1
                if name != ROOT_SPAN:
                    problems.append(f"span {name} runs outside {ROOT_SPAN}")
        if n_roots != ops:
            problems.append(f"{n_roots} root spans for {ops} ops")
        if abs(sum(own.values()) - roots) > 1e-9 * max(roots, 1.0):
            problems.append("span self times do not add up to the cli.main time")
        return own, roots, problems

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines, times in ms from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("op\tspan\tparent\tname\tstart_ms\tend_ms\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    f"{op}\t{i}\t{parent}\t{name}\t"
                    f"{(start - t0) * 1e3:.4f}\t{(end - t0) * 1e3:.4f}\n"
                )
