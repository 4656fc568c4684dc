"""Command-line interface.

Subcommands:

  verify N [--oracle]          run the counting checks, print a table
  generators N                 list every MCS, one per line
  spread N [--method ...]      print one or more spreads as blocks
  graph N [--format dot|json]  export the commutation graph
  commute P Q [--oracle]       test two Pauli words

Exit codes: 0 = success / commute, 1 = a check failed / anticommute,
2 = usage error or a failed write to stdout (one ``error:`` line on
stderr), 141 = stdout closed early, as by ``| head -1`` (128 + SIGPIPE,
what a shell reports for cat; nothing on stderr).

JSON output always uses the envelope {"n": ..., "kind": ..., "data": [...]}
with sorted keys and two-space indentation, so parse-and-reserialize is
byte-identical.  canonical_json is json.dumps(sort_keys=True, indent=2)
byte for byte, as a property test checks, but emits a list of strings
that need no escaping as one C join, a list of such non-empty string
lists as one nested C join, and any other list item by item.  The MCS
blocks of one generators or spread command are rendered column by
column through one word table, and their text format is written by one
print.  Both take generators as RREF key tuples, never as Subspaces:
spread --method search renders each generator once and builds every
spread by indexing those words with its cover, the blocks' indices from
geometry._spread_covers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import CAPS, DomainError, QPolarError, check_cap
from .geometry import _generator_bases, _spread_covers, desarguesian_spread
# span_points is unused here but stays importable from cli, where the
# tracer test in bench/test_bench.py looks for a re-bound name
from .gf2 import _perp_masks, span_points  # noqa: F401
from .pauli import _keys_to_words, _mcs_words, commutes, commutes_matrix
from .verify import run_verification


def canonical_json(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2), byte for byte."""
    return _encode(payload, "")


def _encode(obj, indent: str) -> str:
    """canonical_json of obj nested at ``indent``.

    With an indent the stdlib encodes in pure Python, so lists of strings
    are joined here in C instead.  A list of strings is one join, as
    "".join raises TypeError on any other item.  A list whose items are
    all non-empty lists or tuples of strings is one nested join: the type
    check comes first, as "".join also accepts a str or a dict, and an
    empty item would come out as [""] instead of [].  A join is used only
    when its text needs no escaping; any other list is encoded item by item.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)) and obj:
        nested = {*map(type, obj)} <= {list, tuple} and all(obj)
        try:
            plain = "".join(map("".join, obj) if nested else obj)
            joinable = encode_basestring_ascii(plain)[1:-1] == plain  # JSON escapes char by char
        except TypeError:
            joinable = False
        if not joinable:
            body = sep.join([_encode(item, inner) for item in obj])
            return f"[\n{inner}{body}\n{indent}]"
        head = tail = '"'
        if nested:
            inner2 = inner + "  "
            head, tail = "[\n" + inner2 + '"', '"\n' + inner + "]"
            obj = map(('",\n' + inner2 + '"').join, obj)
        body = (tail + sep + head).join(obj)
        return f"[\n{inner}{head}{body}{tail}\n{indent}]"
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        # one join of every piece, so a long value is copied once, not once per level
        parts = ["{"]
        for k, v in sorted(obj.items()):
            parts += (sep, encode_basestring_ascii(k), ": ", _encode(v, inner))
        parts[1] = "\n" + inner  # no comma before the first member
        parts += ("\n", indent, "}")
        return "".join(parts)
    # scalars, empty containers, and dicts with keys that json itself converts
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _emit_json(n_qubits: int, kind: str, data) -> None:
    print(canonical_json({"n": n_qubits, "kind": kind, "data": data}))


def cmd_verify(args) -> int:
    n = args.n_qubits
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
    blocks = _mcs_words(_generator_bases(args.n_qubits), args.n_qubits)
    if args.format == "json":
        _emit_json(args.n_qubits, "generators", blocks)
    else:
        print("\n".join(map(",".join, blocks)))
    return 0


def cmd_spread(args) -> int:
    n = args.n_qubits
    if args.all and args.limit is not None:
        raise DomainError("--all and --limit are mutually exclusive")
    if args.method == "desarguesian":
        if args.all or args.limit is not None:
            raise DomainError("--all/--limit apply only to --method search")
        rendered = [_mcs_words([b.keys for b in desarguesian_spread(n).blocks], n)]
    else:
        bases, covers = _spread_covers(n, None if args.all else 1 if args.limit is None else args.limit)
        words = _mcs_words(bases, n)
        rendered = [[words[i] for i in cover] for cover in covers]
    if args.format == "json":
        _emit_json(n, "spreads", rendered)
    else:
        print("\n\n".join(["\n".join(map(",".join, spread)) for spread in rendered]))
    return 0


def cmd_graph(args) -> int:
    n = args.n_qubits
    check_cap("graph", n)
    keys = range(1, 1 << (2 * n))
    points = sorted(zip(_keys_to_words(keys, n), keys))
    perps = _perp_masks(n)
    adjacency = []
    for w, key in points:
        perp = perps[key] ^ (1 << (key - 1))  # no point is its own neighbour
        adjacency.append((w, [u for u, k in points if perp >> (k - 1) & 1]))
    if args.format == "json":
        _emit_json(n, "graph", adjacency)
    else:
        print(f"graph commutation_n{n} {{")
        for w, _ in points:
            print(f'  "{w}";')
        for w, neighbours in adjacency:
            for u in neighbours:
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one ``error:`` line; subparsers share it."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree for every subcommand.

    ``main`` builds one on its first call and reuses it, so a ``CAPS``
    entry changed at run time shows in ``--help`` only for a parser built
    after the change.
    """
    parser = _Parser(
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
        help=f"search: enumerate every spread (N <= {CAPS['spread search']})",
    )
    p.add_argument("--limit", type=int, metavar="K", help="search: the first K spreads of --all")
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


_parser = None  # main's tree, built on its first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except QPolarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    try:
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError("stdout is closed")
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # send what is still buffered to devnull, so the interpreter's final
        # flush cannot fail and print a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if isinstance(exc, BrokenPipeError):
            code = 141  # the reader has gone: nothing to report
        else:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
