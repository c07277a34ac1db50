"""Exhaustive and sampled probes of cancellation behavior at small sizes.

Reports never extrapolate: a clean scan at one size says only that no
counterexample exists at that size.  All scans are deterministic for a given
parameter set and seed, independent of the worker count.  A report holds its
first line, its candidate count and each counterexample's index and reason;
the scan that decides one writes its table and certificate at once, when a
certificate directory is given.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from math import factorial, gcd
from pathlib import Path
from typing import Callable, Sequence

from .bijection import ProdBij, serialize_bijection
from .equivariance import Budget, equivariant_quotient, render_certificate
from .errors import DEFAULT_NODE_LIMIT, BudgetExceeded, EquidivError
from .perm import Perm, PermGroup

ALL_MODE_CAP = factorial(10)
PARALLEL_MODE_CAP = 10**6


def gcd_filter(n: int, k: int) -> bool:
    """True iff gcd(k, n!) = 1, i.e. k has no prime factor <= n."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return gcd(k, factorial(n)) == 1


# -- candidate enumeration ----------------------------------------------------
#
# "all" mode walks every bijection of A x C onto B x C as a flat permutation
# (flat index = c*nA + a).  "parallel" mode walks tuples of nC row
# permutations, which suffices for cancellation verdicts because any finite
# bijection and its parallelization stand or fall together.  A sampled scan
# walks seeded draws of either kind.  Nothing holds the candidates: a worker
# rebuilds the stream and skips to its index range, which costs far less than
# the decisions in it, so memory does not grow with the candidate count.


def _stream(n_a: int, n_c: int, mode: str, sample: int | None, seed: int):
    """The scan's candidates in index order, undecoded."""
    if sample is not None:
        rng = random.Random(seed)
        if mode == "all":
            return (rng.sample(range(n_a * n_c), n_a * n_c) for _ in range(sample))
        return (
            [rng.sample(range(n_a), n_a) for _ in range(n_c)] for _ in range(sample)
        )
    if mode == "all":
        return itertools.permutations(range(n_a * n_c))
    return itertools.product(itertools.permutations(range(n_a)), repeat=n_c)


@dataclass(frozen=True)
class ProbeCounterexample:
    index: int
    reason: str


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor``, imported on first use so that
    a scan in one process never loads the multiprocessing stack."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _scan_chunk(args) -> list[ProbeCounterexample]:
    """The counterexamples among candidates start..stop-1 of the scan ``params``,
    each written to ``cert_dir`` as soon as it is decided when that is set."""
    (n_a, n_c, group, mode, sample, seed, node_limit, cert_dir), start, stop = args
    candidates = itertools.islice(_stream(n_a, n_c, mode, sample, seed), start, stop)
    decode = ProdBij.parallel_from_rows if mode != "all" else lambda t: ProdBij.from_flat(t, n_a, n_c)
    hits = []
    for index, flat in enumerate(candidates, start):
        f = decode(flat)
        cert = equivariant_quotient(f, group, Budget(node_limit))
        if cert.verdict == "not-exists":
            hits.append(ProbeCounterexample(index, cert.reason))
            if cert_dir:
                Path(cert_dir, f"cex-{index:06d}.eqd").write_text(serialize_bijection(f))
                Path(cert_dir, f"cex-{index:06d}.cert").write_text(render_certificate(cert))
    return hits


@dataclass(frozen=True)
class ProbeReport:
    head: str
    total: int
    counterexamples: tuple[ProbeCounterexample, ...]

    def render(self) -> str:
        lines = [self.head]
        for cex in self.counterexamples:
            lines.append(
                f"counterexample {cex.index} cert cex-{cex.index:06d}.cert "
                f"reason {cex.reason}"
            )
        lines.append(
            f"summary counterexamples {len(self.counterexamples)} of {self.total}"
        )
        return "\n".join(lines) + "\n"


def probe_cancelling(
    n_a: int,
    n_c: int,
    group: PermGroup,
    mode: str = "all",
    *,
    sample: int | None = None,
    seed: int = 0,
    jobs: int = 1,
    group_name: str = "?",
    node_limit: int = DEFAULT_NODE_LIMIT,
    cert_dir: str | os.PathLike | None = None,
) -> ProbeReport:
    """Scan bijections at a fixed size and collect the not-exists verdicts.

    ``jobs`` must be >= 1; at most ``os.cpu_count()`` worker processes run,
    whatever it asks.  A ``cert_dir`` is made before the scan starts, and gets
    ``cex-NNNNNN.eqd`` and ``cex-NNNNNN.cert`` for each counterexample.
    """
    if n_a < 0 or n_c < 0:
        raise ValueError(f"nA and nC must be >= 0, got nA {n_a} nC {n_c}")
    if n_c == 0:
        raise ValueError("nC must be >= 1: C must be non-empty")
    if mode not in ("all", "parallel"):
        raise ValueError(f"unknown mode {mode!r}")
    if group.degree != n_c:
        raise ValueError("group degree must equal nC")
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be >= 0, got {sample}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if node_limit < 0:
        raise ValueError(f"budget must be >= 0, got {node_limit}")
    head = f"probe nA {n_a} nC {n_c} group {group_name} mode {mode} coverage "
    if sample is None:
        total = factorial(n_a * n_c) if mode == "all" else factorial(n_a) ** n_c
        cap = ALL_MODE_CAP if mode == "all" else PARALLEL_MODE_CAP
        if total > cap:
            raise BudgetExceeded(
                f"{total} candidates exceeds {mode}-mode cap {cap}; use sampling"
            )
        head += "exhaustive"
    else:
        total, head = sample, head + f"sampled seed {seed}"

    if cert_dir:
        Path(cert_dir).mkdir(parents=True, exist_ok=True)
    params = (n_a, n_c, group, mode, sample, seed, node_limit, cert_dir)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < 2 * jobs:
        cexs = _scan_chunk((params, 0, total))
    else:
        size = (total + jobs - 1) // jobs
        chunks = [(params, i, min(i + size, total)) for i in range(0, total, size)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cexs = [cex for part in pool.map(_scan_chunk, chunks) for cex in part]
    return ProbeReport(head, total, tuple(cexs))


# -- basepoint extraction -----------------------------------------------------


def extract_basepoint(divider: Callable[[ProdBij], Perm], c_labels: Sequence[str]) -> str:
    """The element of C a division method singles out on the shift gadget.

    Runs the divider on all six guises of the three-row shift table; each
    quotient must coincide with exactly one row, and all six guises must
    point at the same row label (anything else means the divider is not a
    division method).
    """
    from .gallery import shift_table

    if len(c_labels) != 3:
        raise ValueError("extraction gadget needs |C| = 3")
    picks = []
    for order in itertools.permutations(c_labels):
        f = shift_table(order, c_labels)
        h = divider(f)
        rows = [r for r in range(3) if f.row(r) == h.images]
        if len(rows) != 1:
            raise EquidivError("quotient does not match a unique row of the gadget")
        picks.append(c_labels[rows[0]])
    if len(set(picks)) != 1:
        raise EquidivError(f"guises disagree on the basepoint: {picks}")
    return picks[0]
