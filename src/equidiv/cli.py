"""Command-line front end.

Exit codes: 0 success (quotient exists where applicable), 1 quotient does
not exist, 2 usage error, 3 invalid input, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bijection import BijFile, content_lines, parse_bijection, serialize_bijection
from .division import fp_divide, parallelize
from .errors import DEFAULT_NODE_LIMIT, BudgetExceeded, EquidivError, FormatError
from .perm import PermGroup, parse_cycles, point_labels

# Each command imports the rest of the package when it runs, so that a
# process loads only the modules its command needs.

EXIT_NOT_EXISTS = 1
EXIT_INVALID = 3
EXIT_BUDGET = 4


def _default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(chr(ord("a") + i) for i in range(n))
    return tuple(str(i) for i in range(n))


def _labels(bf: BijFile) -> tuple[tuple[str, ...], ...]:
    """How the file's A, B and C points are written."""
    n_a, n_c = bf.bij.n_a, bf.bij.n_c
    return tuple(map(point_labels, (bf.a_labels, bf.b_labels, bf.c_labels), (n_a, n_a, n_c)))


def _resolve_group(spec: str, c_labels: tuple[str, ...]) -> PermGroup:
    n = len(c_labels)
    if spec == "full":
        return PermGroup.symmetric(n)
    if spec == "trivial":
        return PermGroup.trivial(n)
    if spec.startswith("gens:"):
        gens = [parse_cycles(tok, c_labels) for tok in spec[len("gens:"):].split()]
        if not gens:
            raise FormatError("gens: needs at least one cycle product")
        return PermGroup(n, gens)
    raise FormatError(f"unknown group spec {spec!r} (use full, trivial, or gens:...)")


def _load(path: str) -> BijFile:
    return parse_bijection(Path(path).read_text())


def _resolve_base(token: str, c_labels: tuple[str, ...]) -> int:
    if token in c_labels:
        return c_labels.index(token)
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"unknown basepoint {token!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_divide(args) -> int:
    bf = _load(args.infile)
    h = fp_divide(bf.bij, _resolve_base(args.base, point_labels(bf.c_labels, bf.bij.n_c)))
    _emit(" ".join(map(str, h.images)) + "\n", args.out)
    return 0


def _cmd_parallelize(args) -> int:
    bf = _load(args.infile)
    bar = parallelize(bf.bij)
    _emit(serialize_bijection(bar, bf.a_labels, bf.b_labels, bf.c_labels), args.out)
    return 0


def _cmd_stab(args) -> int:
    from .equivariance import Budget, render_symmetries, stabilizer

    bf = _load(args.infile)
    labels = _labels(bf)
    group = _resolve_group(args.group, labels[2])
    sys.stdout.write(render_symmetries(stabilizer(bf.bij, group, Budget(args.budget)), *labels))
    return 0


def _cmd_quotient(args) -> int:
    from .equivariance import (
        Budget,
        equivariant_quotient,
        nonexistence_from_symmetries,
        parse_symmetries,
        render_certificate,
    )

    bf = _load(args.infile)
    labels = _labels(bf)
    group = _resolve_group(args.group, labels[2])
    budget = Budget(args.budget)
    if args.symmetries:
        triples = parse_symmetries(Path(args.symmetries).read_text(), *labels)
        # full holds every gamma; other groups are checked element by element
        if not group.is_symmetric() and not {t.gamma for t in triples} <= set(group.elements()):
            raise ValueError(f"supplied triple has gamma outside the group {args.group!r}")
        cert = nonexistence_from_symmetries(bf.bij, triples, budget)
        if cert is None:
            sys.stdout.write("undecided: symmetry subset admits a matching\n")
            return 0
    else:
        cert = equivariant_quotient(bf.bij, group, budget)
    text = render_certificate(cert, *labels)
    if args.certificate:
        Path(args.certificate).write_text(text)
    sys.stdout.write(text)
    return 0 if cert.verdict == "exists" else EXIT_NOT_EXISTS


def _cmd_gallery(parser: argparse.ArgumentParser, args) -> int:
    kind = args.kind
    if bool(args.arg) == (kind == "klein"):
        parser.error(f"{kind} takes no argument" if args.arg else f"{kind} needs an argument")
    if kind == "cyclic":
        try:
            order = int(args.arg)
        except ValueError:
            parser.error(f"cyclic needs an integer order, not {args.arg!r}")

    from .gallery import (
        CayleyTable,
        checkered_product,
        regular_rep,
        render_parallel_table,
        shift_table,
    )

    if kind in ("cyclic", "klein"):
        table = CayleyTable.cyclic(order) if kind == "cyclic" else CayleyTable.klein()
        f = regular_rep(table)
        sys.stdout.write(serialize_bijection(f, None, None, _default_labels(f.n_c)))
    elif kind == "regular-rep":
        rows = []
        for line in content_lines(Path(args.arg).read_text()):
            try:
                rows.append(tuple(map(int, line.split())))
            except ValueError:
                raise FormatError(f"bad table row: {line!r}") from None
        sys.stdout.write(serialize_bijection(regular_rep(CayleyTable(tuple(rows)))))
    elif kind == "checkered":
        # label universe: letters for the support of sigma, declared by degree
        text = args.arg
        letters = sorted({t for t in text if t.isalpha()})
        sigma = parse_cycles(text, letters)
        prod = checkered_product(sigma, tuple(letters))
        sys.stdout.write(
            serialize_bijection(prod.bij, prod.a_labels, prod.b_labels, prod.c_labels)
        )
    elif kind == "thm4":
        from .lazy import build_counterexample, render_lazy

        labels = tuple(args.labels.split()) if args.labels else None
        if labels is None:
            labels = tuple(sorted({t for t in args.arg if t.isalpha()}))
        gamma = parse_cycles(args.arg, labels)
        lazy = build_counterexample(gamma, labels)
        sys.stdout.write(render_lazy(lazy, args.window))
    elif kind == "gadget-xyz":
        order = tuple(args.arg.split(","))
        labels = tuple(sorted(order))
        f = shift_table(order, labels)
        sys.stdout.write(render_parallel_table(f, ("0", "1", "2"), labels))
    return 0


def _cmd_probe(args) -> int:
    from .search import probe_cancelling

    group = _resolve_group(args.group, _default_labels(args.n_c))
    report = probe_cancelling(
        args.n_a, args.n_c, group, args.mode, sample=args.sample, seed=args.seed, jobs=args.jobs,
        group_name=args.group, node_limit=args.budget, cert_dir=args.cert_dir,
    )
    sys.stdout.write(report.render())
    return 0


def _cmd_verify_paper(args) -> int:
    from .corpus import run_corpus

    return 0 if run_corpus(sys.stdout) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every ``main()``
    call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="equidiv",
        description="Equivariant division of bijections f : A x C -> B x C",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divide", help="basepoint division")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--base", required=True, help="C index or label")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_divide)

    p = sub.add_parser("parallelize", help="collect all basepoint quotients")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_parallelize)

    p = sub.add_parser("stab", help="list all symmetries of a bijection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--group", default="full")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(fn=_cmd_stab)

    p = sub.add_parser("quotient", help="decide equivariant quotient existence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--group", default="full")
    p.add_argument("--symmetries", help="symmetry file: nonexistence-only subset mode")
    p.add_argument("--certificate", help="also write the certificate to this path")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("gallery", help="emit a gallery instance")
    p.add_argument(
        "kind",
        choices=["regular-rep", "cyclic", "klein", "checkered", "thm4", "gadget-xyz"],
    )
    p.add_argument("arg", nargs="?", default="")
    p.add_argument("--window", type=int, default=8, help="columns for lazy tables")
    p.add_argument("--labels", help="C labels for thm4 (space separated)")
    p.set_defaults(fn=functools.partial(_cmd_gallery, p))

    p = sub.add_parser("probe", help="scan all bijections at a small size")
    p.add_argument("--nA", dest="n_a", type=int, required=True)
    p.add_argument("--nC", dest="n_c", type=int, required=True)
    p.add_argument("--group", default="full")
    p.add_argument("--mode", choices=["all", "parallel"], default="all")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cert-dir")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("verify-paper", help="run the built-in verification corpus")
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EquidivError, ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
