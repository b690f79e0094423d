"""Command-line entry point.

Subcommands compose over JSON on stdin/stdout so reductions chain in
shell pipes.  Exit codes: 0 = yes/ok, 1 = no/failed check, 2 =
usage/format error, 3 = resource cap exceeded, 4 = internal error (the
traceback goes to stderr).  Each problem and rule reads its input
through the problem registry in :mod:`basepack.solvers`: JSON when the
input starts with ``{``, else the problem's text format; an instance of
the wrong schema is a format error.  ``--cap`` applies to the
common-bases, naesat, even-factor and mod4-2factor solvers only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .core import ResourceCapExceeded, UniverseMismatch, check_independence_axioms
from .adversary import build_adversary, count_parity_hiding_sets, run_indistinguishability
from .formats import (
    FormatError,
    dump_instance,
    load_instance,
    load_matroid,
    parse_json,
    read_json,
    read_text,
)
from .gadget import (
    DEFAULT_LABELING,
    BlockLabeling,
    build_gadget,
    search_block_labeling,
    verify_gadget,
)
from .graphs import BipartiteGraph, Digraph
from .instances import ModularTreesInstance
from .reductions import (
    CertificateRejected,
    even_factor_to_mod4_factor,
    mod4_factor_to_parity_bases,
    modular_to_common_bases,
    naesat_to_modular_trees,
    to_partition_matroid_form,
)
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
        if isinstance(instance, tuple):  # parse_dimacs also returns its warnings
            instance, warnings = instance
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
    if not isinstance(instance, (row.instance, *also)):
        raise FormatError(f"{problem} expects {row.instance.__name__} input, "
                          f"got {type(instance).__name__}")
    return instance


def _modular_to_common_bases(inst):
    if isinstance(inst, ModularTreesInstance):
        inst = inst.to_modular_instance()
    return modular_to_common_bases(inst)


# rule -> (source problem, other instance classes it reads, reduction)
RULES = {
    "r1": ("modular-bases", (ModularTreesInstance,), _modular_to_common_bases),
    "r2": ("naesat", (), naesat_to_modular_trees),
    "r3": ("even-factor", (), even_factor_to_mod4_factor),
    "r4": ("mod4-2factor", (), mod4_factor_to_parity_bases),
    "r5": ("common-bases", (), to_partition_matroid_form),
}


def cmd_build(args) -> int:
    data = read_json(args.input, sys.stdin)
    instance = load_instance(data)
    _emit(dump_instance(instance), args.pretty)
    return EXIT_YES


def cmd_reduce(args) -> int:
    source, also, reduce = RULES[args.rule]
    red = reduce(_load_instance(source, read_text(args.input, sys.stdin), also))
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
    if args.action == "search":
        labeling = search_block_labeling()
        _emit(labeling.to_json(), args.pretty)
        return EXIT_YES
    labeling = DEFAULT_LABELING
    if args.labeling:
        labeling = BlockLabeling.from_json(read_json(args.labeling, sys.stdin))
    pair = build_gadget(labeling, args.ell)
    cert = verify_gadget(pair, workers=args.threads)
    _emit(cert.to_json(), args.pretty)
    return EXIT_YES if cert.ok else EXIT_NO


def cmd_adversary(args) -> int:
    pair = build_adversary(args.t)
    if args.solver == "parity-sweep":
        def solver(matroid):
            from .instances import ParityInstance

            return solve_parity_bases(ParityInstance(matroid, pair.pairing))
    elif args.solver == "size-order":
        def solver(matroid):
            n = matroid.ground.size
            masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
            for m in masks:
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
        pair = build_gadget(DEFAULT_LABELING, args.gadget_ell)
        print(pair.first_graph.to_dot("first"))
        print(pair.second_graph.to_dot("second"))
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
    p.add_argument("--cap", type=int, default=None, help="exhaustive size cap override")
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
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes for the sweep")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("adversary", help="run the oracle-query experiment")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--solver", default="parity-sweep",
                   choices=["parity-sweep", "size-order", "pair-avoider"])
    p.add_argument("--hidden", default="relaxed", choices=["strict", "relaxed"])
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("axioms", help="exhaustively check the independence axioms")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--cap", type=int, default=None)
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
    except (FormatError, CertificateRejected, UniverseMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a bug, not a verdict: keep it apart from exit 1
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
