"""Command-line surface: every verification as a batch subcommand.

Data goes to standard output, logs to standard error.  Exit codes: 0 for
success (and for a confirmed certification), 2 when a certification run
inside the theorem regime finds the maximiser is not the unique complete
split graph, 1 for operational errors (bad flags, malformed input, I/O).
All reals are printed with 15 significant digits so output diffs round-trip.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from typing import Iterable, TextIO

from .config import DEFAULT_TOLERANCES, Tolerances
from .enumeration import (EnumerationTask, canonical_form, enumerate_graphs,
                          stream_graph6, write_graph6)
from .fans import contains_fan
from .graphs import Graph, Graph6Error, graph6_encode, make_split
from .matching import ForbiddenPattern, turan_kk2
from .search import (certify_max_q1, certificate_payload, efgg_construction,
                     efgg_in_regime, efgg_value, emit_certificate,
                     turan_bruteforce)
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


def _sig(x: float) -> str:
    return f"{x:.15g}"


def _jsonable(x: float) -> float:
    return float(f"{x:.15g}")


def _open_input(path: str | None):
    if path is None or path == "-":
        return sys.stdin, False
    return open(path, "r", encoding="ascii"), True


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii"), True


def _read_graphs(path: str | None, fail_fast: bool) -> Iterable[Graph]:
    stream, owned = _open_input(path)
    try:
        yield from stream_graph6(stream, fail_fast=fail_fast)
    finally:
        if owned:
            stream.close()


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = DEFAULT_TOLERANCES
    if getattr(args, "tol_eigen", None) is not None:
        tol = replace(tol, eigen=args.tol_eigen)
    if getattr(args, "tol_margin", None) is not None:
        tol = replace(tol, margin=args.tol_margin)
    return tol


def _emit_rows(sink: TextIO, fmt: str, rows: list[dict], columns: list[str]) -> None:
    if fmt == "json":
        json.dump(rows, sink, indent=2)
        sink.write("\n")
        return
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float):
                cells.append(_sig(v))
            else:
                cells.append(str(v))
        sink.write("\t".join(cells) + "\n")


def _emit_record(sink: TextIO, fmt: str, payload: dict) -> None:
    if fmt == "json":
        json.dump(payload, sink, indent=2)
        sink.write("\n")
        return
    for key, v in payload.items():
        if isinstance(v, list):
            parts = []
            for item in v:
                if isinstance(item, dict):
                    parts.append(",".join(f"{ik}={_cell(iv)}" for ik, iv in item.items()))
                else:
                    parts.append(_cell(item))
            text = ";".join(parts)
        elif isinstance(v, dict):
            text = ";".join(f"{ik}={_cell(iv)}" for ik, iv in v.items())
        else:
            text = _cell(v)
        sink.write(f"{key}\t{text}\n")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _sig(v)
    return str(v)


def _split_parameter(g: Graph) -> int | None:
    """k such that the graph is the complete split graph S_{n,k}, else None."""
    n = g.n
    if n < 2:
        return None
    degs = sorted(g.degree(v) for v in range(n))
    full = sum(1 for d in degs if d == n - 1)
    if full == 0:
        return None
    k = n - 1 if full == n else full
    if degs != sorted([k] * (n - k) + [n - 1] * k):
        return None
    if canonical_form(g) != canonical_form(make_split(n, k)):
        return None
    return k


# -- subcommand bodies -------------------------------------------------


def _cmd_q1(args) -> int:
    tol = _tolerances(args)
    rows = []
    for g in _read_graphs(args.input, args.fail_fast):
        rows.append({"graph6": graph6_encode(g), "n": g.n, "e": g.edge_count(),
                     "q1": _jsonable(q1(g, tolerances=tol))})
    sink, owned = _open_output(args.output)
    try:
        _emit_rows(sink, args.format, rows, ["graph6", "n", "e", "q1"])
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def _cmd_fan_free(args) -> int:
    rows = []
    for g in _read_graphs(args.input, args.fail_fast):
        witness = contains_fan(g, args.k)
        rows.append({"graph6": graph6_encode(g),
                     "fan_free": witness is None,
                     "center": None if witness is None else witness.center})
    sink, owned = _open_output(args.output)
    try:
        _emit_rows(sink, args.format, rows, ["graph6", "fan_free", "center"])
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def _cmd_certify(args) -> int:
    tol = _tolerances(args)
    if args.jobs < 1 or (args.shards is not None and args.shards < 1):
        raise _UsageError("--jobs and --shards must be at least 1")
    shards = args.shards
    if shards is None and args.jobs > 1:
        shards = args.jobs
    source = None
    if args.input is not None:
        source = list(_read_graphs(args.input, args.fail_fast))
    cert = certify_max_q1(args.n, args.k, source, tolerances=tol,
                          shards=shards, jobs=args.jobs)
    logger.info("certify n=%d k=%d: scanned %d fan-free of %d classes in %.2fs",
                cert.n, cert.k, cert.scanned, cert.total, cert.elapsed)
    sink, owned = _open_output(args.output)
    try:
        if args.format == "json":
            emit_certificate(cert, sink)
        else:
            _emit_record(sink, "tsv", certificate_payload(cert))
    finally:
        if owned:
            sink.close()
    if cert.in_theorem_regime and not cert.winner_is_split:
        logger.warning("counterexample: winner %s is not the complete split graph",
                       cert.winner)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    shard = None
    if args.shard_index is not None:
        if args.shards is None:
            raise _UsageError("--shard-index requires --shards")
        shard = (args.shard_index, args.shards)
    task = EnumerationTask(args.n, connected_only=args.connected_only, shard=shard)
    sink, owned = _open_output(args.output)
    try:
        if args.format == "json":
            graphs = [graph6_encode(g) for g in enumerate_graphs(task)]
            json.dump({"n": args.n, "connected_only": args.connected_only,
                       "count": len(graphs), "graphs": graphs}, sink, indent=2)
            sink.write("\n")
        else:
            count = write_graph6(sink, enumerate_graphs(task))
            logger.info("enumerated %d graphs of order %d", count, args.n)
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def _cmd_turan(args) -> int:
    pattern = ForbiddenPattern(args.pattern, args.k)
    source = None
    if args.input is not None:
        source = list(_read_graphs(args.input, args.fail_fast))
    record = turan_bruteforce(args.n, pattern, source)
    payload = certificate_payload(record)
    if pattern.kind == "kk2":
        payload["formula_value"] = turan_kk2(args.n, args.k)[0]
    else:
        payload["formula_value"] = efgg_value(args.n, args.k)
        payload["formula_guaranteed"] = efgg_in_regime(args.n, args.k)
    sink, owned = _open_output(args.output)
    try:
        _emit_record(sink, args.format, payload)
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def _cmd_bounds(args) -> int:
    tol = _tolerances(args)
    rows = []
    for g in _read_graphs(args.input, args.fail_fast):
        value = q1(g, tolerances=tol)
        bound, vertex = merris_bound(g)
        k = _split_parameter(g)
        closed = lower = None
        if k is not None:
            closed = _jsonable(q1_split_closed_form(g.n, k))
            if g.n >= 2 * k * k - 4 * k + 3:
                lower = _jsonable(q1_split_lower_bound(g.n, k))
        rows.append({"graph6": graph6_encode(g), "n": g.n, "e": g.edge_count(),
                     "q1": _jsonable(value), "merris": _jsonable(bound),
                     "merris_vertex": vertex, "split_k": k,
                     "split_closed_form": closed, "split_lower_bound": lower})
    sink, owned = _open_output(args.output)
    try:
        _emit_rows(sink, args.format, rows,
                   ["graph6", "n", "e", "q1", "merris", "merris_vertex",
                    "split_k", "split_closed_form", "split_lower_bound"])
    finally:
        if owned:
            sink.close()
    return EXIT_OK


def _cmd_construct(args) -> int:
    g, spec = efgg_construction(args.n, args.k)
    payload = {"graph6": graph6_encode(g), "n": spec.n, "k": spec.k,
               "edges": g.edge_count(), "parity": spec.parity,
               "embedded": spec.embedded,
               "embedded_vertex_count": spec.embedded_vertex_count,
               "embedded_edge_count": spec.embedded_edge_count,
               "embedded_max_degree": spec.embedded_max_degree}
    sink, owned = _open_output(args.output)
    try:
        _emit_record(sink, args.format, payload)
    finally:
        if owned:
            sink.close()
    return EXIT_OK


# -- parser ------------------------------------------------------------


def _add_io(p: _Parser, *, with_input: bool = True) -> None:
    if with_input:
        p.add_argument("--input", "-i", help="graph6 input file (default stdin)")
        p.add_argument("--fail-fast", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="stop at the first malformed line (default) or "
                            "skip it with a log message")
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "tsv"), default=None,
                   help="output format")


def _add_tol(p: _Parser) -> None:
    p.add_argument("--tol-eigen", type=float, help="eigenvalue accuracy target")
    p.add_argument("--tol-margin", type=float, help="equality margin for ties")


def build_parser() -> _Parser:
    parser = _Parser(prog="fanfree",
                     description="Spectral extremal toolkit for fan-free graphs")
    parser.add_argument("--config", help="JSON file of flag defaults; "
                                         "explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: list[_Parser] = [parser]
    parser.subcommand_parsers = registry

    p = sub.add_parser("q1", help="signless-Laplacian spectral "
                       "radius per input graph")
    registry.append(p)
    _add_io(p)
    _add_tol(p)
    p.set_defaults(run=_cmd_q1, default_format="tsv")

    p = sub.add_parser("fan-free", help="fan containment per input graph")
    registry.append(p)
    p.add_argument("--k", type=int, help="fan parameter")
    _add_io(p)
    p.set_defaults(run=_cmd_fan_free, default_format="tsv", required_flags=("k",))

    p = sub.add_parser("certify", help="exhaustively certify the spectral "
                       "maximiser among fan-free graphs")
    registry.append(p)
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--k", type=int, help="fan parameter")
    p.add_argument("--shards", type=int, default=None,
                   help="split the scan into this many enumeration shards "
                        "(default: one per job)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes that scan the shards (default 1)")
    _add_io(p)
    _add_tol(p)
    p.set_defaults(run=_cmd_certify, default_format="json",
                   required_flags=("n", "k"))

    p = sub.add_parser("enumerate", help="stream one representative per "
                       "isomorphism class")
    registry.append(p)
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--shard-index", type=int, default=None)
    _add_io(p, with_input=False)
    p.set_defaults(run=_cmd_enumerate, default_format="tsv",
                   required_flags=("n",))

    p = sub.add_parser("turan", help="brute-force pattern-free edge maximum "
                       "with formula cross-check")
    registry.append(p)
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--pattern", choices=("kk2", "fan"))
    p.add_argument("--k", type=int)
    _add_io(p)
    p.set_defaults(run=_cmd_turan, default_format="json",
                   required_flags=("n", "pattern", "k"))

    p = sub.add_parser("bounds", help="per-graph spectral radius, degree "
                       "bound, and split-graph closed forms")
    registry.append(p)
    _add_io(p)
    _add_tol(p)
    p.set_defaults(run=_cmd_bounds, default_format="tsv")

    p = sub.add_parser("construct", help="edge-maximal fan-free construction")
    registry.append(p)
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--k", type=int)
    _add_io(p, with_input=False)
    p.set_defaults(run=_cmd_construct, default_format="json",
                   required_flags=("n", "k"))

    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> None:
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise _UsageError("--config needs a file argument")
    with open(argv[idx + 1], "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise _UsageError("config file must hold a JSON object")
    defaults = {str(k).replace("-", "_"): v for k, v in data.items()}
    # defaults must land on every subparser: a subparser re-applies its
    # own defaults over anything set on the top-level namespace
    for p in parser.subcommand_parsers:
        p.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        for name in getattr(args, "required_flags", ()):
            if getattr(args, name, None) is None:
                raise _UsageError(f"--{name.replace('_', '-')} is required")
        if args.format is None:
            args.format = args.default_format
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (Graph6Error, ValueError, OSError, RuntimeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main(None))
