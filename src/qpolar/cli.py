"""Command-line interface.

Subcommands:

  verify N [--oracle]          run the counting checks, print a table
  generators N                 list every MCS, one per line
  spread N [--method ...]      print one or more spreads as blocks
  graph N [--format dot|json]  export the commutation graph
  commute P Q [--oracle]       test two Pauli words

Exit codes: 0 = success / commute, 1 = a check failed / anticommute,
2 = usage error.  JSON output always uses the envelope
{"n": ..., "kind": ..., "data": [...]} with sorted keys and two-space
indentation, so parse-and-reserialize is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, DomainError, QPolarError
from .geometry import (
    MAX_SPREAD_FULL_ENUM_QUBITS,
    desarguesian_spread,
    enumerate_generators,
    enumerate_spreads,
)
# span_points is unused here but stays importable from cli, where the
# tracer test in bench/test_bench.py looks for a re-bound name
from .gf2 import all_points, span_points  # noqa: F401
from .pauli import commutes, commutes_matrix, mcs_of_generator, vector_to_pauli
from .verify import run_verification

MAX_VERIFY_QUBITS = 4
MAX_GRAPH_QUBITS = 3


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _emit_json(n_qubits: int, kind: str, data) -> None:
    print(canonical_json({"n": n_qubits, "kind": kind, "data": data}))


def _block_words(subspace) -> list[str]:
    return sorted(mcs_of_generator(subspace))


def cmd_verify(args) -> int:
    n = args.n_qubits
    if not 1 <= n <= MAX_VERIFY_QUBITS:
        raise DomainError(f"verify supports 1 <= N <= {MAX_VERIFY_QUBITS}, got {n}")
    report = run_verification(n, oracle=args.oracle)
    if args.format == "json":
        _emit_json(n, "report", [c.to_dict() for c in report.checks])
    else:
        print(f"verification report  N={n}")
        for c in report.checks:
            status = "pass" if c.ok else "FAIL"
            print(f"  {c.name:<22} expected {c.expected:>8}  actual {c.actual:>8}  {status}")
        print(f"overall: {'pass' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def cmd_generators(args) -> int:
    # one string per distinct word while every block is held for output:
    # N=4 renders 34,425 words, of which 255 are distinct
    words: dict[str, str] = {}
    blocks = [
        [words.setdefault(w, w) for w in _block_words(g)]
        for g in enumerate_generators(args.n_qubits)
    ]
    if args.format == "json":
        _emit_json(args.n_qubits, "generators", blocks)
    else:
        for block in blocks:
            print(",".join(block))
    return 0


def cmd_spread(args) -> int:
    n = args.n_qubits
    if args.all and args.limit is not None:
        raise DomainError("--all and --limit are mutually exclusive")
    if args.method == "desarguesian":
        if args.all or args.limit is not None:
            raise DomainError("--all/--limit apply only to --method search")
        spreads = [desarguesian_spread(n)]
    else:
        if args.all:
            if n > MAX_SPREAD_FULL_ENUM_QUBITS:
                raise CapacityError(
                    f"--all (full enumeration) is capped at N<={MAX_SPREAD_FULL_ENUM_QUBITS}"
                )
            spreads = enumerate_spreads(n, limit=None)
        else:
            limit = 1 if args.limit is None else args.limit
            spreads = enumerate_spreads(n, limit=limit)
    for s in spreads:
        s.validate()
    rendered = [[_block_words(b) for b in s.blocks] for s in spreads]
    if args.format == "json":
        _emit_json(n, "spreads", rendered)
    else:
        for i, spread in enumerate(rendered):
            if i:
                print()
            for block in spread:
                print(",".join(block))
    return 0


def cmd_graph(args) -> int:
    n = args.n_qubits
    if not 1 <= n <= MAX_GRAPH_QUBITS:
        raise DomainError(f"graph supports 1 <= N <= {MAX_GRAPH_QUBITS}, got {n}")
    words = sorted(vector_to_pauli(p) for p in all_points(n))
    adjacency = {
        w: [u for u in words if u != w and commutes(w, u)] for w in words
    }
    if args.format == "json":
        _emit_json(n, "graph", [[w, adjacency[w]] for w in words])
    else:
        print(f"graph commutation_n{n} {{")
        for w in words:
            print(f'  "{w}";')
        for w in words:
            for u in adjacency[w]:
                if w < u:
                    print(f'  "{w}" -- "{u}";')
        print("}")
    return 0


def cmd_commute(args) -> int:
    # both verdicts come first, so an error leaves nothing on stdout
    verdict = commutes(args.word1, args.word2)
    matrix_verdict = commutes_matrix(args.word1, args.word2) if args.oracle else verdict
    print("commute" if verdict else "anticommute")
    if args.oracle:
        print(f"matrix: {'commute' if matrix_verdict else 'anticommute'}")
        print(f"agreement: {'yes' if verdict == matrix_verdict else 'no'}")
    return 0 if verdict and verdict == matrix_verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpolar",
        description="Pauli commutation structure as a binary symplectic geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="recount points, generators, spreads, censuses")
    p.add_argument("n_qubits", type=int)
    p.add_argument("--oracle", action="store_true", help="also sweep the matrix oracle")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generators", help="list every maximally commuting set")
    p.add_argument("n_qubits", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("spread", help="print spreads as blocks of operators")
    p.add_argument("n_qubits", type=int)
    p.add_argument("--method", choices=("desarguesian", "search"), default="desarguesian")
    p.add_argument(
        "--all",
        action="store_true",
        help=f"search: enumerate every spread (N <= {MAX_SPREAD_FULL_ENUM_QUBITS})",
    )
    p.add_argument("--limit", type=int, help="search: stop after this many spreads")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("graph", help="export the commutation graph")
    p.add_argument("n_qubits", type=int)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("commute", help="test whether two Pauli words commute")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--oracle", action="store_true", help="cross-check with exact matrices")
    p.set_defaults(func=cmd_commute)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except QPolarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
