"""Command-line surface: every verification as a batch subcommand.

Data goes to standard output, logs to standard error.  Exit codes: 0 for
success (and for a confirmed certification), 2 when a certification run
inside the theorem regime finds the maximiser is not the unique complete
split graph, 1 for operational errors (bad flags, malformed input, I/O).
All reals are printed with 15 significant digits so output diffs round-trip.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import sys
from contextlib import contextmanager
from typing import Iterable

# canonical_form is not called here: the benchmark's stream pass
# (perfbench/worker.py) reads it as fanfree.cli.canonical_form.
from .enumeration import (EnumerationTask, canonical_form, enumerate_graphs,
                          stream_graph6, write_graph6)
from .fans import contains_fan
from .graphs import Graph, graph6_encode, split_parameter
from .matching import ForbiddenPattern
from .search import (_defined, _sig15, certify_max_q1, certificate_payload,
                     efgg_construction, turan_bruteforce)
from .spectral import (merris_bound, q1, q1_split_closed_form,
                       q1_split_lower_bound)

logger = logging.getLogger("fanfree")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are operational errors: exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@contextmanager
def _opened(path: str | None, mode: str):
    """The file at ``path``, or the standard stream for None or ``-``.
    Input is read as latin-1, so each byte reaches graph6 decoding as is."""
    if path is not None and path != "-":
        with open(path, mode, encoding="latin-1" if mode == "r" else "ascii") as fh:
            yield fh
    elif mode == "w" or not hasattr(sys.stdin, "buffer"):
        yield sys.stdout if mode == "w" else sys.stdin
    else:
        stream = io.TextIOWrapper(sys.stdin.buffer, encoding="latin-1")
        try:
            yield stream
        finally:
            stream.detach()  # leave sys.stdin open


def _read_graphs(path: str | None, fail_fast: bool) -> Iterable[Graph]:
    with _opened(path, "r") as stream:
        yield from stream_graph6(stream, fail_fast=fail_fast)


def _cell(v, sep: str = ",") -> str:
    """One TSV cell: None is empty, booleans are lower case, reals have 15
    significant digits, list items join with ';' and dict entries are
    key=value pairs joined with ``sep``."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, list):
        return ";".join(_cell(item) for item in v)
    if isinstance(v, dict):
        return sep.join(f"{key}={_cell(item)}" for key, item in v.items())
    return str(v)


def _write(args: argparse.Namespace, payload) -> None:
    """Write ``payload`` to ``--output`` in ``--format``.

    JSON dumps the payload itself.  TSV gives one line of cells per row
    dict when the payload is a list of rows, else one key/value line per
    entry of the payload dict.
    """
    with _opened(args.output, "w") as sink:
        if args.format == "json":
            json.dump(payload, sink, indent=2)
            sink.write("\n")
        elif isinstance(payload, list):
            for row in payload:
                sink.write("\t".join(_cell(v) for v in row.values()) + "\n")
        else:
            for key, v in payload.items():
                sink.write(f"{key}\t{_cell(v, ';')}\n")


# -- subcommand bodies -------------------------------------------------


def _cmd_q1(args) -> int:
    rows = [{"graph6": graph6_encode(g), "n": g.n, "e": g.edge_count(),
             "q1": _sig15(q1(g))}
            for g in _read_graphs(args.input, args.fail_fast)]
    _write(args, rows)
    return EXIT_OK


def _cmd_fan_free(args) -> int:
    rows = []
    for g in _read_graphs(args.input, args.fail_fast):
        witness = contains_fan(g, args.k)
        rows.append({"graph6": graph6_encode(g),
                     "fan_free": witness is None,
                     "center": None if witness is None else witness.center})
    _write(args, rows)
    return EXIT_OK


def _cmd_certify(args) -> int:
    source = None if args.input is None else _read_graphs(args.input, args.fail_fast)
    cert = certify_max_q1(args.n, args.k, source, jobs=args.jobs)
    logger.info("certify n=%d k=%d: scanned %d fan-free of %d classes in %.2fs",
                cert.n, cert.k, cert.scanned, cert.total, cert.elapsed)
    _write(args, certificate_payload(cert))
    if cert.in_theorem_regime and not cert.winner_is_split:
        logger.warning("counterexample: winner %s is not the complete split graph",
                       cert.winner)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if (args.shards is None) != (args.shard_index is None):
        raise _UsageError("--shards and --shard-index must be given together")
    shard = None if args.shards is None else (args.shard_index, args.shards)
    task = EnumerationTask(args.n, connected_only=args.connected_only, shard=shard)
    if args.format == "json":
        graphs = [graph6_encode(g) for g in enumerate_graphs(task)]
        _write(args, {"n": args.n, "connected_only": args.connected_only,
                      "count": len(graphs), "graphs": graphs})
    else:
        with _opened(args.output, "w") as sink:
            count = write_graph6(sink, enumerate_graphs(task))
        logger.info("enumerated %d graphs of order %d", count, args.n)
    return EXIT_OK


def _cmd_turan(args) -> int:
    pattern = ForbiddenPattern(args.pattern, args.k)
    source = None if args.input is None else _read_graphs(args.input, args.fail_fast)
    _write(args, certificate_payload(turan_bruteforce(args.n, pattern, source)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rows = []
    for g in _read_graphs(args.input, args.fail_fast):
        merris, vertex = _defined(merris_bound, g) or (None, None)
        k = split_parameter(g)
        closed = lower = None
        if k is not None:
            closed = q1_split_closed_form(g.n, k)
            lower = _defined(q1_split_lower_bound, g.n, k)
        rows.append({"graph6": graph6_encode(g), "n": g.n, "e": g.edge_count(),
                     "q1": _sig15(q1(g)), "merris": _sig15(merris),
                     "merris_vertex": vertex, "split_k": k,
                     "split_closed_form": _sig15(closed),
                     "split_lower_bound": _sig15(lower)})
    _write(args, rows)
    return EXIT_OK


def _cmd_construct(args) -> int:
    g, spec = efgg_construction(args.n, args.k)
    _write(args, {"graph6": graph6_encode(g), "n": spec.n, "k": spec.k,
                  "edges": g.edge_count(), "parity": spec.parity,
                  "embedded": spec.embedded,
                  "embedded_vertex_count": spec.embedded_vertex_count,
                  "embedded_edge_count": spec.embedded_edge_count,
                  "embedded_max_degree": spec.embedded_max_degree})
    return EXIT_OK


# -- parser ------------------------------------------------------------


def _add_io(p: _Parser, fmt: str, *,
            input_help: str | None = "graph6 input file (default stdin)") -> None:
    if input_help is not None:
        p.add_argument("--input", "-i", help=input_help)
        p.add_argument("--fail-fast", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="stop at the first malformed line (default) or "
                            "skip it with a log message")
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "tsv"), default=fmt,
                   help="output format")


def build_parser() -> _Parser:
    parser = _Parser(prog="fanfree",
                     description="Spectral extremal toolkit for fan-free graphs")
    parser.add_argument("--config", help="JSON file of flag defaults; "
                                         "explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("q1", help="signless-Laplacian spectral "
                       "radius per input graph")
    _add_io(p, "tsv")
    p.set_defaults(run=_cmd_q1)

    p = sub.add_parser("fan-free", help="fan containment per input graph")
    p.add_argument("--k", type=int, help="fan parameter")
    _add_io(p, "tsv")
    p.set_defaults(run=_cmd_fan_free, required_flags=("k",))

    p = sub.add_parser("certify", help="exhaustively certify the spectral "
                       "maximiser among fan-free graphs")
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--k", type=int, help="fan parameter")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, each scanning one round-robin "
                        "enumeration shard (default 1)")
    _add_io(p, "json", input_help="graph6 file of candidates, '-' for stdin "
                                   "(default: walk every fan-free class of order n)")
    p.set_defaults(run=_cmd_certify, required_flags=("n", "k"))

    p = sub.add_parser("enumerate", help="stream one representative per "
                       "isomorphism class")
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--shard-index", type=int, default=None)
    _add_io(p, "tsv", input_help=None)
    p.set_defaults(run=_cmd_enumerate, required_flags=("n",))

    p = sub.add_parser("turan", help="brute-force pattern-free edge maximum "
                       "with formula cross-check")
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--pattern", choices=("kk2", "fan"))
    p.add_argument("--k", type=int)
    _add_io(p, "json", input_help="graph6 file of candidates, '-' for stdin "
                                   "(default: walk every pattern-free class of order n)")
    p.set_defaults(run=_cmd_turan, required_flags=("n", "pattern", "k"))

    p = sub.add_parser("bounds", help="per-graph spectral radius, degree "
                       "bound, and split-graph closed forms")
    _add_io(p, "tsv")
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("construct", help="edge-maximal fan-free construction")
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--k", type=int)
    _add_io(p, "json", input_help=None)
    p.set_defaults(run=_cmd_construct, required_flags=("n", "k"))

    return parser


def _config_value(command: _Parser, key: str, value) -> tuple[str, object]:
    """The destination and value of a config entry, read as its flag
    reads the command line: a switch takes a JSON boolean, ``false``
    setting the opposite of what the switch sets, and any other flag a
    string or a number, checked by its own type and choices."""
    flag = "--" + key.replace("_", "-")
    action = command._option_string_actions[flag]
    switch = action.nargs == 0
    if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
        expected = (f"{flag} is a switch, expected true or false" if switch
                    else "expected a string or a number")
        raise _UsageError(f"config key {key!r}: {expected}, got {json.dumps(value)}")
    try:
        parsed = command.parse_args([flag] if switch else [f"{flag}={value}"])
    except _UsageError as exc:
        raise _UsageError(f"config key {key!r}: {exc}") from None
    chosen = getattr(parsed, action.dest)
    return action.dest, not chosen if value is False else chosen


def _apply_config(parser: _Parser, args: argparse.Namespace) -> None:
    """Make the config file's entries defaults of the chosen subcommand;
    an entry that is not one of its long flags other than ``--help``, or
    that its flag would not accept, is an error."""
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise _UsageError("config file must hold a JSON object")
    command = parser.commands[args.command]
    unknown = sorted(key for key in data if key == "help" or "--" + key.replace("_", "-")
                     not in command._option_string_actions)
    if unknown:
        raise _UsageError(f"config keys not taken by {args.command}: "
                          + ", ".join(unknown))
    command.set_defaults(**dict(_config_value(command, key, v)
                                for key, v in data.items()))


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        for name in getattr(args, "required_flags", ()):
            if getattr(args, name, None) is None:
                raise _UsageError(f"--{name.replace('_', '-')} is required")
        return args.run(args)
    except (_UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main(None))
