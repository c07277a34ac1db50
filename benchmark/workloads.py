"""The benchmark's two workloads: seeded inputs, one cycle of CLI ops, and
the check each op's output must pass.

The timed loop repeats a workload's cycle, so every op runs several times.
Inputs are files written into a work directory; the program sees only them
and the argv below.  Checks run outside the timed region and use the library
(and, for probes, the brute-force oracle), never the op being checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from equidiv.bijection import BijFile, ProdBij, parse_bijection, serialize_bijection
from equidiv.bruteforce import quotient_exists_bruteforce
from equidiv.division import fp_divide
from equidiv.equivariance import SymTriple, apply_pair, is_symmetry, parse_symmetries
from equidiv.errors import FormatError
from equidiv.gallery import CayleyTable, checkered_product, regular_rep
from equidiv.perm import Perm, PermGroup, format_cycles, parse_cycles

@dataclass(frozen=True)
class CheckContext:
    """What a check may use: the first stdout of every op in the cycle, a
    way to run the CLI again (untimed), and a scratch directory."""

    outputs: dict[str, str]
    run: Callable[[list[str]], tuple[int | None, str, str]]
    workdir: Path


Check = Callable[[str, CheckContext], list[str]]


@dataclass(frozen=True)
class Op:
    """One CLI command of a cycle."""

    key: str
    kind: str
    argv: tuple[str, ...]
    instances: int  # bijections the command processes
    expect_rc: int
    check: Check


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """One cycle of ops; the same seed writes the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "divide-large":
        return _divide_large(rng, workdir)
    return _quotient_gallery(rng, workdir) + _probe_sampled(rng, workdir)


def _letters(n: int) -> tuple[str, ...]:
    return tuple(chr(ord("a") + i) for i in range(n))


def _write(workdir: Path, name: str, bf: BijFile) -> str:
    path = workdir / f"{name}.eqd"
    path.write_text(serialize_bijection(bf.bij, bf.a_labels, bf.b_labels, bf.c_labels))
    return str(path)


# -- quotient-probe: gallery quotients --------------------------------------

EXISTS = ("exists", "matching-found")
HALF_FIXED = ("not-exists", "half-fixed-witness")
EXHAUSTED = ("not-exists", "orbit-exhaustion")

#: Verdict and reason per (instance, group).  Regular representations admit
#: an equivariant quotient only for the trivial group; any right translation
#: in Gamma yields a half-fixed witness.  Checkered products of a
#: fixed-point-free sigma have no quotient, and no single symmetry shows it.
#: A bijection with |C| = 1 is its own quotient.
EXPECTED = {
    **{
        (name, group): verdict
        for name in ("Z4", "Z5", "Z6", "Z7", "klein")
        for group, verdict in (
            ("trivial", EXISTS),
            ("translation", HALF_FIXED),
            ("full", HALF_FIXED),
        )
    },
    **{
        (sigma, group): EXHAUSTED
        for sigma in ("(a,b,c)(d,e)", "(a,b)(c,d)", "(a,b,c)(d,e,f)")
        for group in ("sigma", "full")
    },
    ("random", "full"): EXISTS,
}

REGULAR = (
    ("Z4", CayleyTable.cyclic(4)),
    ("Z5", CayleyTable.cyclic(5)),
    ("Z6", CayleyTable.cyclic(6)),
    ("Z7", CayleyTable.cyclic(7)),
    ("klein", CayleyTable.klein()),
)
CHECKERED = ("(a,b,c)(d,e)", "(a,b)(c,d)", "(a,b,c)(d,e,f)")
#: Random bijections with |C| = 1: the stabilizer is all of S_A.
SINGLE_ROW_SIZES = (6, 6, 7)


def _quotient_gallery(rng: random.Random, workdir: Path) -> list[Op]:
    cases: list[tuple[BijFile, str, str, tuple[str, str]]] = []
    for name, table in REGULAR:
        f = regular_rep(table)
        labels = _letters(f.n_c)
        bf = BijFile(f, None, None, labels)
        path = _write(workdir, name, bf)
        translation = "gens:" + format_cycles(table.right_translation(1), labels)
        for group, spec in (("trivial", "trivial"), ("translation", translation), ("full", "full")):
            cases.append((bf, path, spec, EXPECTED[name, group]))
    for k, sigma in enumerate(CHECKERED):
        labels = tuple(sorted({t for t in sigma if t.isalpha()}))
        prod = checkered_product(parse_cycles(sigma, labels), labels)
        bf = BijFile(prod.bij, prod.a_labels, prod.b_labels, prod.c_labels)
        path = _write(workdir, f"checkered{k}", bf)
        for group, spec in (("sigma", f"gens:{sigma}"), ("full", "full")):
            cases.append((bf, path, spec, EXPECTED[sigma, group]))
    for k, n in enumerate(SINGLE_ROW_SIZES):
        bf = BijFile(ProdBij.from_flat(rng.sample(range(n), n), n, 1))
        cases.append((bf, _write(workdir, f"single{k}", bf), "full", EXPECTED["random", "full"]))
    return [
        Op(
            key=f"q{i:02d}",
            kind="quotient",
            argv=("quotient", "--in", path, "--group", spec),
            instances=1,
            expect_rc=0 if expected[0] == "exists" else 1,
            check=_quotient_check(bf, expected),
        )
        for i, (bf, path, spec, expected) in enumerate(cases)
    ]


def _quotient_check(bf: BijFile, expected: tuple[str, str]) -> Check:
    f = bf.bij
    digits = tuple(str(i) for i in range(f.n_a))
    a_labels = bf.a_labels or digits
    b_labels = bf.b_labels or digits
    c_labels = bf.c_labels or tuple(str(i) for i in range(f.n_c))

    def check(out: str, ctx: CheckContext) -> list[str]:
        lines = out.splitlines()
        if len(lines) < 2 or not lines[0].startswith("verdict "):
            return ["certificate has no verdict line"]
        verdict = lines[0][len("verdict "):]
        if verdict == "exists":
            reason = "matching-found"
            head = 2
        else:
            reason = lines[1].removeprefix("reason: ")
            head = 3 if len(lines) > 2 and lines[2].startswith("witness: ") else 2
        if (verdict, reason) != expected:
            return [f"got {verdict}/{reason}, expected {expected[0]}/{expected[1]}"]
        try:
            triples = parse_symmetries("\n".join(lines[head:]), a_labels, b_labels, c_labels)
        except FormatError as exc:
            return [f"unparsable symmetry list: {exc}"]
        if not triples:
            return ["certificate lists no symmetries"]
        bad = [t for t in triples if not is_symmetry(f, t)]
        if bad:
            return [f"{len(bad)} listed triples are not symmetries"]
        if verdict == "exists":
            index = {lab: i for i, lab in enumerate(b_labels)}
            h = Perm(tuple(index[tok] for tok in lines[1].removeprefix("quotient: ").split()))
            moved = sum(apply_pair(h, t.alpha, t.beta) != h for t in triples)
            if moved:
                return [f"quotient is moved by {moved} listed symmetries"]
        elif reason == "half-fixed-witness":
            if head != 3:
                return ["half-fixed verdict without a witness line"]
            toks = lines[2].split()
            if toks[1::2] != ["alpha", "beta", "gamma"]:
                return ["malformed witness line"]
            w = SymTriple(
                parse_cycles(toks[2], a_labels),
                parse_cycles(toks[4], b_labels),
                parse_cycles(toks[6], c_labels),
            )
            if not is_symmetry(f, w) or w.alpha.is_identity() == w.beta.is_identity():
                return ["witness is not a half-fixed symmetry"]
        return []

    return check


# -- quotient-probe: sampled probes -----------------------------------------

#: (nA, nC, samples): sample counts put every probe near 35 ms.  Random
#: tables have nearly trivial stabilizers, but all |C|! gammas are tried:
#: the opposite use of the stabilizer from the gallery quotients.
PROBE_SIZES = ((3, 3, 160), (4, 3, 130), (3, 4, 100), (2, 5, 32))


def _probe_sampled(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (n_a, n_c, sample) in enumerate(PROBE_SIZES):
        probe_seed = rng.randrange(10**6)
        key = f"p{i:02d}"
        argv = (
            "probe", "--nA", str(n_a), "--nC", str(n_c), "--mode", "all",
            "--group", "full", "--sample", str(sample), "--seed", str(probe_seed),
            "--jobs", "1",
        )
        head = (
            f"probe nA {n_a} nC {n_c} group full mode all coverage sampled "
            f"seed {probe_seed}"
        )
        ops.append(Op(key, "probe", argv, sample, 0, _probe_check(key, argv, head, n_c, sample)))
    return ops


def _probe_check(key: str, argv: tuple[str, ...], head: str, n_c: int, sample: int) -> Check:
    def check(out: str, ctx: CheckContext) -> list[str]:
        lines = out.splitlines()
        if len(lines) < 2 or lines[0] != head:
            return ["unexpected probe header"]
        cexs = lines[1:-1]
        if lines[-1] != f"summary counterexamples {len(cexs)} of {sample}":
            return [f"unexpected summary line {lines[-1]!r}"]
        cert_dir = ctx.workdir / f"cex-{key}"
        rc, again, _ = ctx.run([*argv, "--cert-dir", str(cert_dir)])
        if rc != 0 or again != out:
            return ["output changes when certificates are written"]
        errors = []
        group = PermGroup.symmetric(n_c)
        for line in cexs:
            index = int(line.split()[1])
            f = parse_bijection((cert_dir / f"cex-{index:06d}.eqd").read_text()).bij
            if quotient_exists_bruteforce(f, group):
                errors.append(f"counterexample {index} has a quotient by brute force")
        return errors

    return check


# -- divide-large -------------------------------------------------------------

#: (nA, nC) of the random non-parallel tables, fixed so that every seed
#: draws the same mix of sizes; only the table contents depend on the seed.
DIVIDE_SIZES = (
    (64, 8), (96, 6), (128, 5), (128, 8), (160, 6), (160, 8),
    (192, 5), (192, 7), (224, 4), (224, 6), (256, 5), (256, 7),
)


def _divide_large(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (n_a, n_c) in enumerate(DIVIDE_SIZES):
        f = ProdBij.from_flat(rng.sample(range(n_a * n_c), n_a * n_c), n_a, n_c)
        while f.is_parallel():
            f = ProdBij.from_flat(rng.sample(range(n_a * n_c), n_a * n_c), n_a, n_c)
        path = _write(workdir, f"d{i:02d}", BijFile(f))
        base = rng.randrange(n_c)
        alpha = Perm(tuple(rng.sample(range(n_a), n_a)))
        beta = Perm(tuple(rng.sample(range(n_a), n_a)))
        par_key = f"par{i:02d}"
        ops.append(
            Op(par_key, "parallelize", ("parallelize", "--in", path), 1, 0, _parallelize_check(f))
        )
        ops.append(
            Op(
                f"div{i:02d}",
                "divide",
                ("divide", "--in", path, "--base", str(base)),
                1,
                0,
                _divide_check(f, base, alpha, beta, par_key),
            )
        )
    return ops


def _parallelize_check(f: ProdBij) -> Check:
    def check(out: str, ctx: CheckContext) -> list[str]:
        try:
            bar = parse_bijection(out).bij
        except FormatError as exc:
            return [f"unparsable parallelization: {exc}"]
        if (bar.n_a, bar.n_c) != (f.n_a, f.n_c) or not bar.is_parallel():
            return ["parallelization is not a parallel bijection of the input's size"]
        return []

    return check


def _divide_check(f: ProdBij, base: int, alpha: Perm, beta: Perm, par_key: str) -> Check:
    relabeled = f.transform(alpha, beta, Perm.identity(f.n_c))

    def check(out: str, ctx: CheckContext) -> list[str]:
        try:
            h = Perm(tuple(int(tok) for tok in out.split()))
        except ValueError as exc:
            return [f"quotient is not a permutation: {exc}"]
        errors = []
        if fp_divide(relabeled, base) != apply_pair(h, alpha, beta):
            errors.append("division is not natural under an (alpha, beta) relabeling")
        try:
            row = parse_bijection(ctx.outputs[par_key]).bij.row(base)
        except (FormatError, IndexError) as exc:
            return errors + [f"no parallelization row to compare: {exc}"]
        if row != h.images:
            errors.append(f"divide --base {base} differs from row {base} of parallelize")
        return errors

    return check
