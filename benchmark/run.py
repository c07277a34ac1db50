#!/usr/bin/env python3
"""equidiv benchmark: CLI latency and probe throughput on two workloads.

Run from the repository root:

    python3 benchmark/run.py --workload quotient-probe --seed 1 --seconds 50 --trace 0
    python3 benchmark/run.py --seed 1            # every workload, one after another
    python3 benchmark/run.py --smoke             # short self-test of every workload

One client runs CLI commands through ``equidiv.cli.main(argv)`` in this
process, in a closed loop: each command starts when the previous one has
returned, with no threads or worker processes.  The loop repeats the
workload's cycle of commands (see ``workloads.py``) in whole cycles until
``--seconds`` have passed.  Each op run counts at the fastest time its
command reached in the loop.  Outputs are checked after the timed loop.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs half the time untraced and the same cycles again traced (``spans.py``)
and reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"
WORKLOADS = ("quotient-probe", "divide-large")

#: Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 9
#: op_tail_ms is the highest of these percentiles with at least
#: TAIL_BEYOND samples above it.  It stops at p95, so that the percentile of a
#: full-length run does not depend on whether it reached 1000 ops.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: A child run of --smoke or of every workload must end within this time.
CHILD_TIMEOUT_S = 600


def load_program():
    """Import equidiv from this checkout's src/, or stop with exit 2."""
    if not (SRC / "equidiv" / "cli.py").is_file():
        sys.exit(f"error: no equidiv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import equidiv.cli

    if not Path(equidiv.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: equidiv was imported from outside {SRC}")
    return equidiv.cli


# -- one workload ---------------------------------------------------------------


@dataclass
class Loop:
    """What one closed loop over whole cycles recorded."""

    seconds: list[float] = field(default_factory=list)  # per op
    keys: list[str] = field(default_factory=list)  # per op
    instances: int = 0
    wall: float = 0.0
    cycles: int = 0


class Runner:
    """Runs one workload's cycle of ops in this process."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.cli = load_program()
        import workloads  # imports equidiv, so only after load_program

        self.workloads = workloads
        self.workdir = workdir
        self.cycle = workloads.build(workload, seed, workdir)
        self.first: dict[str, str] = {}  # stdout of each op's first run
        self.errors: dict[str, list[str]] = {}  # op key -> problems found

    def run(self, argv) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # a crash fails this op; the loop goes on
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        """Run the first op of each kind once, untimed and unrecorded."""
        for kind in dict.fromkeys(op.kind for op in self.cycle):
            self.run(next(op for op in self.cycle if op.kind == kind).argv)

    def loop(self, *, seconds: float | None = None, cycles: int | None = None,
             tracer=None) -> Loop:
        """Repeat whole cycles until ``seconds`` have passed or ``cycles`` ran."""
        rec = Loop()
        start = perf_counter()
        while True:
            for op in self.cycle:
                if tracer is not None:
                    tracer.begin_op(len(rec.seconds))
                t0 = perf_counter()
                rc, out, err = self.run(op.argv)
                rec.seconds.append(perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
                rec.keys.append(op.key)
                rec.instances += op.instances
                first = self.first.setdefault(op.key, out)
                if rc != op.expect_rc or out != first:
                    self.problem(op.key, f"exit {rc} (expected {op.expect_rc}), "
                                 f"output {'same as' if out == first else 'differs from'} "
                                 f"first run; {err.strip()[-300:]}")
            rec.cycles += 1
            elapsed = perf_counter() - start
            if (cycles is not None and rec.cycles >= cycles) or (
                cycles is None and elapsed >= seconds
            ):
                break
        rec.wall = perf_counter() - start
        return rec

    def problem(self, key: str, message: str) -> None:
        problems = self.errors.setdefault(key, [])
        if message not in problems:
            problems.append(message)

    def check_outputs(self) -> None:
        """Check the first output of every op (repeats must equal it)."""
        ctx = self.workloads.CheckContext(self.first, self.run, self.workdir)
        for op in self.cycle:
            if op.key not in self.first:
                continue
            try:
                problems = op.check(self.first[op.key], ctx)
            except Exception:  # a check that crashes fails the op
                problems = ["check crashed: " + traceback.format_exc(limit=3)]
            for message in problems:
                self.problem(op.key, message)

    def failures(self, rec: Loop) -> int:
        """Ops of ``rec`` whose command had any problem: exit code, a repeat
        that differed, or a failed check."""
        return sum(key in self.errors for key in rec.keys)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it (nearest-rank)."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed op."""
    times = []
    for _ in range(SETUP_RUNS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only"]
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = perf_counter()
            try:
                _, err = child.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                _, err = child.communicate()
        if line != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"set-up run failed (exit {child.returncode}): {err.strip()}")
        times.append(t1 - t0)
    return times


def make_workdir(workload: str) -> Path:
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def setup_only(args) -> int:
    """The body of one set-up measurement: import, inputs, warm-up."""
    workdir = make_workdir(args.workload)
    try:
        Runner(args.workload, args.seed, workdir).warm_up()
        print("ready", flush=True)
    finally:
        remove_workdir(workdir)
    return 0


def metric(units: dict[str, str], name: str, value: float) -> dict:
    return {"value": value, "unit": units[name]}


def run_workload(args) -> int:
    spec = json.loads(SPEC.read_text())
    load_program()  # fail before any output when the sources are missing
    setup_times = measure_setup(args.workload, args.seed) if not args.trace else []
    workdir = make_workdir(args.workload)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.warm_up()
        print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
              f"{len(runner.cycle)} ops per cycle")
        if args.trace:
            return report_traced(args, spec, runner)
        rec = runner.loop(seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.check_outputs()
    finally:
        remove_workdir(workdir)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed = runner.failures(rec)
    # The host's speed drifts by 10-20 % for seconds at a time, and that only
    # ever adds time; so each op run counts at its command's fastest run.
    fastest: dict[str, float] = {}
    for key, seconds in zip(rec.keys, rec.seconds):
        fastest[key] = min(seconds, fastest.get(key, seconds))
    ms = [fastest[key] * 1e3 for key in rec.keys]
    pct, tail_ms, beyond = tail(ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "instances_per_s": rec.instances / sum(ms) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "op_p50_ms": f"n={len(ms)} ops in {rec.cycles} cycles, each at its command's fastest",
        "op_tail_ms": f"p{pct:g}, n={len(ms)}, {beyond} beyond",
        "instances_per_s": f"{rec.instances} bijections; loop wall {rec.wall:.2f} s, "
                           f"{rec.instances / rec.wall:.1f}/s",
        "peak_rss_mb": "max resident set of this process",
    }
    for name, value in values.items():
        print(f"  {name:<18} {value:12.4f} {units[name]:<6} ({notes[name]})")
    print(f"  {'error_rate':<18} {failed / len(ms):12.4f} {'ratio':<6} "
          f"({failed} of {len(ms)} ops failed)")
    print_problems(runner)
    result = {
        "correct": failed == 0 and not runner.errors,
        "attempted": len(ms),
        "failed": failed,
        "metrics": {name: metric(units, name, values[name]) for name in units},
    }
    print(json.dumps(result))
    return 0


def report_traced(args, spec: dict, runner: Runner) -> int:
    from spans import COUNTERS, ROOT_SPAN, Tracer

    plain = runner.loop(seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:  # at least two cycles, so that every op's counters repeat
        traced = runner.loop(cycles=max(2, plain.cycles), tracer=tracer)
    finally:
        tracer.uninstall()
    runner.check_outputs()
    tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")

    first_counts: dict[str, dict[str, int]] = {}
    per_op = tracer.per_op
    for key, counts in zip(traced.keys, per_op):
        first = first_counts.setdefault(key, counts)
        changed = {k: (first.get(k), counts.get(k))
                   for k in first.keys() | counts.keys() if first.get(k) != counts.get(k)}
        if changed:
            runner.problem(key, f"counters differ between repeats: {changed}")
    ops = len(traced.seconds)
    own, roots, problems = tracer.self_times(ops)
    totals = {name: sum(c.get(name, 0) for c in per_op) for name in COUNTERS}
    values = {f"{name}_self_ms": own[name] * 1e3 / ops for name in own}
    values.update({name: total / ops for name, total in totals.items()})
    values["search.decisions_per_instance"] = (
        totals["search.decisions"] / totals["search.instances"]
        if totals["search.instances"] else 0.0
    )
    values["trace.overhead_pct"] = (
        sum(traced.seconds) / traced.cycles / (sum(plain.seconds) / plain.cycles) - 1
    ) * 100

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"  traced {ops} ops ({traced.cycles} cycles); self times and counters per op")
    for name in units:
        print(f"  {name:<40} {values.get(name, 0.0):14.4f} {units[name]}")
    print(f"  {ROOT_SPAN} spans {roots:.3f} s = sum of self times; traced op wall "
          f"{sum(traced.seconds):.3f} s")
    for problem in problems:
        print(f"  problem: {problem}")
    print_problems(runner)
    failed = runner.failures(plain) + runner.failures(traced)
    result = {
        "correct": failed == 0 and not runner.errors and not problems,
        "attempted": len(plain.seconds) + ops,
        "failed": failed,
        "metrics": {name: metric(units, name, values.get(name, 0.0)) for name in units},
    }
    print(json.dumps(result))
    return 0


def print_problems(runner: Runner) -> None:
    for key, problems in runner.errors.items():
        op = next(op for op in runner.cycle if op.key == key)
        for problem in problems:
            print(f"  FAILED {key} ({' '.join(op.argv)}): {problem}")


# -- several workloads ------------------------------------------------------------


def run_child(args, workload: str, trace: int, seconds: float) -> tuple[int, dict | None]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def run_all(args) -> int:
    """Every workload in its own process; the last line sums their results."""
    load_program()
    spec = json.loads(SPEC.read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        rc, result = run_child(args, workload, args.trace, args.seconds)
        if rc != 0 or result is None:
            return rc or 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name in names:
            total["metrics"][f"{workload}.{name}"] = result["metrics"][name]
    print(json.dumps(total))
    return 0


def smoke(args) -> int:
    """One-second runs of every workload in both modes: every metric of
    BENCHMARK.json is printed with its unit, and error_rate is 0."""
    load_program()
    spec = json.loads(SPEC.read_text())
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for workload in WORKLOADS:
            rc, result = run_child(args, workload, trace, 1)
            where = f"{workload} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{where}: exit {rc}, no result line")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: error_rate {result['failed']}/{result['attempted']}")
            for m in spec[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} missing or without unit")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short self-test of every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
