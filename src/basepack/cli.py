"""Command-line entry point.

Subcommands compose over JSON on stdin/stdout so reductions chain in
shell pipes.  Exit codes: 0 = yes/ok, 1 = no/failed check, 2 =
usage/format error, 3 = resource cap exceeded, 4 = internal error (the
traceback goes to stderr).  Each problem and rule reads its input
through the problem registry in :mod:`basepack.solvers`: JSON when the
input starts with ``{``, else the problem's text format; an instance of
the wrong schema is a format error.  ``--cap`` takes a non-negative
integer and applies to the common-bases, naesat, even-factor and
mod4-2factor solvers only.  A matroid descriptor nested too deeply for
its recursive oracles exits 3, and so does ``adversary --t`` above 8 (above 5 for the ``size-order``
and ``pair-avoider`` solvers, which query every subset), before
anything is built.
``gadget verify`` certifies up to ell = 5 blocks on one core.

Most of a stage's wall time is interpreter start-up and imports, so a
command imports what only it uses when it runs: the reductions for
``reduce``, the gadget for ``gadget`` and ``emit-dot --gadget-ell``, the
adversary for ``adversary``, and :mod:`traceback` for an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ResourceCapExceeded, check_independence_axioms
from .formats import (
    FormatError,
    dump_instance,
    load_instance,
    load_matroid,
    parse_json,
    read_json,
    read_payload,
    read_text,
)
from .graphs import BipartiteGraph, Digraph
from .instances import CnfFormula, ModularTreesInstance
from .solvers import PROBLEMS, load_certificate, lookup, solve_parity_bases, verify_certificate

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _emit(data: dict, pretty: bool = False) -> None:
    print(json.dumps(data, indent=2 if pretty else None))


def _load_instance(problem: str, raw: str, also: tuple = ()):
    """Read ``problem``'s input, which must be its instance class or one of ``also``."""
    row = lookup(problem)
    if row.parse is None or raw.lstrip().startswith("{"):
        instance = load_instance(parse_json(raw))
    else:
        instance = row.parse(raw)
        if isinstance(instance, CnfFormula) and instance.dropped_tautologies:
            print(f"warning: dropped {instance.dropped_tautologies} clause(s) containing "
                  "a variable and its negation", file=sys.stderr)
    if not isinstance(instance, (row.instance, *also)):
        raise FormatError(f"{problem} expects {row.instance.__name__} input, "
                          f"got {type(instance).__name__}")
    return instance


# rule -> (source problem, other instance classes it reads, reduction in basepack.reductions)
RULES = {
    "r1": ("modular-bases", (ModularTreesInstance,), "modular_to_common_bases"),
    "r2": ("naesat", (), "naesat_to_modular_trees"),
    "r3": ("even-factor", (), "even_factor_to_mod4_factor"),
    "r4": ("mod4-2factor", (), "mod4_factor_to_parity_bases"),
    "r5": ("common-bases", (), "to_partition_matroid_form"),
}


def cmd_build(args) -> int:
    data = read_json(args.input, sys.stdin)
    instance = load_instance(data)
    _emit(dump_instance(instance), args.pretty)
    return EXIT_YES


def cmd_reduce(args) -> int:
    from . import reductions

    source, also, reduction = RULES[args.rule]
    instance = _load_instance(source, read_text(args.input, sys.stdin), also)
    if isinstance(instance, ModularTreesInstance):  # r1 reads a graph's modules too
        instance = instance.to_modular_instance()
    red = getattr(reductions, reduction)(instance)
    if red is None:  # r4 answers unequal sides at once
        _emit({"schema": "verdict/1", "answer": "NO",
               "reason": "sides of unequal size admit no 2-factor"})
        return EXIT_NO
    _emit(dump_instance(red.instance, red.provenance), args.pretty)
    return EXIT_YES


def cmd_solve(args) -> int:
    row = lookup(args.problem)
    if args.cap is not None and not row.takes_cap:
        raise FormatError(f"--cap does not apply to {args.problem}")
    instance = _load_instance(args.problem, read_text(args.input, sys.stdin))
    certificate = row.solve(instance) if args.cap is None else row.solve(instance, cap=args.cap)
    if certificate is None:
        _emit({"schema": "verdict/1", "answer": "NO"})
        return EXIT_NO
    _emit(certificate.to_json(), args.pretty)
    return EXIT_YES


def cmd_verify(args) -> int:
    if args.instance == "-" and args.certificate == "-":
        raise FormatError("--instance and --certificate cannot both be read from stdin")
    instance = _load_instance(args.problem, read_text(args.instance, sys.stdin))
    cert_data = read_json(args.certificate, sys.stdin)
    certificate = load_certificate(args.problem, cert_data, instance)
    result = verify_certificate(args.problem, instance, certificate)
    if result.ok:
        _emit({"schema": "verdict/1", "answer": "VALID"})
        return EXIT_YES
    _emit({"schema": "verdict/1", "answer": "INVALID", "reason": result.reason})
    return EXIT_NO


def cmd_gadget(args) -> int:
    from .gadget import (
        DEFAULT_LABELING,
        BlockLabeling,
        build_gadget,
        check_verify_ell,
        search_block_labeling,
        verify_gadget,
    )

    if args.action == "search":
        labeling = search_block_labeling()
        _emit(labeling.to_json(), args.pretty)
        return EXIT_YES
    labeling = DEFAULT_LABELING
    if args.labeling:
        data = read_json(args.labeling, sys.stdin)
        labeling = read_payload(data, (BlockLabeling,), "gadget labeling")
    check_verify_ell(args.ell)  # building a large pair alone costs gigabytes
    pair = build_gadget(labeling, args.ell)
    cert = verify_gadget(pair)
    _emit(cert.to_json(), args.pretty)
    return EXIT_YES if cert.ok else EXIT_NO


def _masks_by_size(n: int):
    """Every n-bit mask in (popcount, value) order, each size class walked
    with Gosper's next-combination step."""
    yield 0
    for k in range(1, n + 1):
        m = (1 << k) - 1
        while not m >> n:
            yield m
            low = m & -m
            ripple = m + low
            m = ((ripple ^ m) >> 2) // low | ripple


def cmd_adversary(args) -> int:
    from .adversary import (
        SWEEP_MAX_T,
        build_adversary,
        count_parity_hiding_sets,
        run_indistinguishability,
    )

    if args.solver != "parity-sweep" and args.t > SWEEP_MAX_T:
        raise ResourceCapExceeded(
            f"solver {args.solver} queries all 2^{4 * args.t} subsets; "
            f"t = {args.t} exceeds cap {SWEEP_MAX_T}"
        )
    pair = build_adversary(args.t)
    if args.solver == "parity-sweep":
        def solver(matroid):
            return solve_parity_bases(pair.parity_instance(matroid))
    elif args.solver == "size-order":
        def solver(matroid):
            for m in _masks_by_size(matroid.ground.size):
                matroid.indep_mask(m)
            return None
    elif args.solver == "pair-avoider":
        def solver(matroid):
            n = matroid.ground.size
            for m in range(1 << n):
                if m.bit_count() != 2 * args.t:
                    matroid.indep_mask(m)
            return None
    else:
        raise FormatError(f"unknown solver {args.solver!r}")
    report = run_indistinguishability(pair, solver, hidden=args.hidden)
    data = report.to_json()
    data["candidate_hidden_sets"] = count_parity_hiding_sets(args.t)
    _emit(data, args.pretty)
    return EXIT_YES


def cmd_axioms(args) -> int:
    data = read_json(args.input, sys.stdin)
    descriptor = data.get("matroid", data) if isinstance(data, dict) else data
    matroid = load_matroid(descriptor)
    kwargs = {} if args.cap is None else {"cap": args.cap}
    report = check_independence_axioms(matroid, **kwargs)
    _emit(
        {
            "schema": "axiom-report/1",
            "ok": report.ok,
            "checks": [
                {"axiom": c.name, "passed": c.passed,
                 "witness": [sorted(w) for w in c.witness] if c.witness else None}
                for c in report.checks
            ],
        },
        args.pretty,
    )
    return EXIT_YES if report.ok else EXIT_NO


def cmd_emit_dot(args) -> int:
    if args.gadget_ell:
        from .gadget import DEFAULT_LABELING, gadget_graphs

        first, second = gadget_graphs(DEFAULT_LABELING, args.gadget_ell)
        print(first.to_dot("first"))
        print(second.to_dot("second"))
        return EXIT_YES
    data = read_json(args.input, sys.stdin)
    instance = load_instance(data)
    if isinstance(instance, ModularTreesInstance):
        print(instance.graph.to_dot())
    elif isinstance(instance, (BipartiteGraph, Digraph)):
        print(instance.to_dot())
    else:
        raise FormatError("emit-dot expects a graph-backed instance")
    return EXIT_YES


def _cap(text: str) -> int:
    """An element cap: a non-negative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basepack",
        description="Matroid base-packing toolkit: constructions, reductions, solvers.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="validate and normalize an instance JSON")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("reduce", help="transform an instance (r1..r5)")
    p.add_argument("--rule", required=True, choices=list(RULES))
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="run a brute-force solver")
    p.add_argument("--problem", required=True, choices=list(PROBLEMS))
    p.add_argument("--cap", type=_cap, default=None, help="exhaustive size cap override")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("--problem", required=True, choices=list(PROBLEMS))
    p.add_argument("--instance", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gadget", help="search or certify the reduction gadget")
    p.add_argument("action", choices=["search", "verify"])
    p.add_argument("--ell", type=int, default=1, help="number of blocks to certify")
    p.add_argument("--labeling", default=None, help="labeling JSON (default: built-in)")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("adversary", help="run the oracle-query experiment")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--solver", default="parity-sweep",
                   choices=["parity-sweep", "size-order", "pair-avoider"])
    p.add_argument("--hidden", default="relaxed", choices=["strict", "relaxed"])
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("axioms", help="exhaustively check the independence axioms")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--cap", type=_cap, default=None)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("emit-dot", help="render a graph-backed instance as DOT")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--gadget-ell", type=int, default=0,
                   help="render the built-in gadget with this many blocks instead")
    p.set_defaults(func=cmd_emit_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:  # oracles recurse once per descriptor level
        print("error: input nested too deeply to evaluate (recursion limit)", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # FormatError and UniverseMismatch among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a bug, not a verdict: keep it apart from exit 1
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
