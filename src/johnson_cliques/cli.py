"""Command-line front end.

All machine output goes to stdout as JSON or the fixed edgelist/DOT formats;
human-readable messages go to stderr. Exit codes: 0 success; 1 a usage error,
or a "gen --out" file or stdout that cannot be opened or written; 2 a
validation error (a bad label or parameter, class max at n = m+1, a graph over
its cap) or a skipped verify pair; 3 a failed verify check or a pair whose
check raised, which outranks 2; 141 stdout closed by its reader early, as
under "| head".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import cache, partial
from typing import BinaryIO, Iterator

from . import cliques, combinat, graph, oracle
from .errors import ValidationError

_RANGE_RE = re.compile(r"(\d+)\.\.(\d+)\Z", re.ASCII)
_INT_RE = re.compile(r"-?\d+\Z", re.ASCII)


class _UsageError(Exception):
    pass


class _Help(Exception):
    """Carries the text of ``--help`` to run(), which writes it to ``out``."""


#: Width of the help text, whatever $COLUMNS or the terminal says.
_HELP_WIDTH = 78


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        kwargs["formatter_class"] = partial(argparse.HelpFormatter, width=_HELP_WIDTH)
        super().__init__(**kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def print_help(self, file=None) -> None:
        raise _Help(self.format_help())


def _parse_range(text: str) -> range:
    match = _RANGE_RE.match(text)
    if match:
        try:
            return range(int(match.group(1)), int(match.group(2)) + 1)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"expected a range like 2..4, got {text!r}")


def _ascii_int(text: str) -> int:
    """``text`` as an int: ASCII digits after at most one minus sign, and
    nothing else, where int() also takes other digits, "_", "+" and spaces."""
    if _INT_RE.match(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _env_cap(default: int) -> int:
    raw = os.environ.get("JOHNSON_MAX_VERTICES")
    if raw is None:
        return default
    try:
        cap = _ascii_int(raw)
    except argparse.ArgumentTypeError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"JOHNSON_MAX_VERTICES must be a positive integer, got {raw!r}")
    return cap


# json.dumps builds a new encoder on every call with non-default separators.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _family_chunks(
    p: graph.JohnsonParams, kinds: list[cliques.CliqueClass], sep: bytes
) -> Iterator[bytes]:
    """The bytes of ``_dumps(h.to_dict())`` for each clique h of the
    families of ``kinds``, one family after the other, each in colex order
    of the defining sets, joined by ``sep``: as byte strings of whole runs
    and at most _CHUNK_LINES lines, each one after the first led by ``sep``.

    Each line is a precomputed head ``{"class":..,"set":[a`` plus the text
    of the larger elements and the fixed tail, so a run of
    combinat._colex_runs() is one join of the head texts it slices off its
    table around the run's shared text.
    """
    n = p.n
    chunk, lines = [], 0
    for kind in kinds:
        k, size = cliques._class_shape(p, kind)
        head = f'{{"class":"{kind.value}","set":['
        heads = [f"{head}{e}".encode() for e in range(n + 1)]
        elements = [f",{e}".encode() for e in range(n + 1)]
        tail = f'],"n":{n},"m":{p.m},"size":{size}}}'.encode()
        for prefixes, rest in combinat._colex_runs(n, k, heads, elements, tail):
            count = len(prefixes)
            if lines + count > combinat._CHUNK_LINES:
                yield sep.join(chunk)
                chunk, lines = [b""], 0
            chunk.append((rest + sep).join(prefixes) + rest)
            lines += count
    yield sep.join(chunk)


@cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process. Parsing keeps
    no state in it: each parse_args() call fills a new namespace."""
    parser = _Parser(prog="johnson-cliques", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_params(p: _Parser) -> None:
        p.add_argument("--n", type=_ascii_int, required=True, help="ground-set size")
        p.add_argument("--m", type=_ascii_int, required=True, help="label size")

    p = sub.add_parser("gen", help="export the graph")
    add_params(p)
    p.add_argument("--format", required=True, choices=graph.EXPORT_FORMATS)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("adj", help="test adjacency of two labels")
    add_params(p)
    p.add_argument("labels", nargs=2, metavar="LABEL")
    p.set_defaults(func=_cmd_adj)

    p = sub.add_parser("cliques", help="stream maximal cliques")
    add_params(p)
    p.add_argument("--class", dest="clique_class", choices=("min", "max", "all"), default="all")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=_cmd_cliques)

    p = sub.add_parser("classify", help="classify a clique")
    add_params(p)
    p.add_argument("labels", nargs="+", metavar="LABEL")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("extend", help="maximal extensions of a clique")
    add_params(p)
    p.add_argument("labels", nargs="+", metavar="LABEL")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("partition", help="edge partition into one clique class")
    add_params(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("number", help="clique number and clique partition number")
    add_params(p)
    p.set_defaults(func=_cmd_number)

    p = sub.add_parser("verify", help="check closed forms against the brute-force oracle")
    p.add_argument("--m-range", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--n-range", type=_parse_range, required=True, metavar="C..D")
    p.add_argument("--jobs", type=_ascii_int, default=1)
    p.add_argument(
        "--timings",
        action="store_true",
        help="print per-phase seconds and work counters, one JSON line per pair, on stderr",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_gen(args, out, err) -> int:
    params = graph.JohnsonParams(args.n, args.m)
    cap = _env_cap(graph.DEFAULT_EXPORT_CAP)
    if args.out is None:
        graph.export(params, args.format, out, max_vertices=cap)
        return 0
    # Refuse an over-cap graph before open() truncates the file.
    graph._check_cap(params, cap, "export")
    try:
        with open(args.out, "wb") as sink:
            graph.export(params, args.format, sink, max_vertices=cap)
    except OSError as exc:  # the open, a write or the flush at close
        err.write(f"error: cannot write --out file: {exc}\n".encode())
        return 1
    return 0


def _cmd_adj(args, out, err) -> int:
    params = graph.JohnsonParams(args.n, args.m)
    u, v = (combinat.parse_label(text) for text in args.labels)
    combinat.validate_label(u, params.n, params.m)
    combinat.validate_label(v, params.n, params.m)
    out.write(b"true\n" if graph.are_adjacent(u, v) else b"false\n")
    return 0


def _cmd_cliques(args, out, err) -> int:
    params = graph.JohnsonParams(args.n, args.m)
    if args.clique_class != "all":
        kinds = [cliques.CliqueClass(args.clique_class)]
    elif params.degenerate:
        # "all" lists the graph's actual maximal cliques, which in the
        # degenerate regime is the class-min family alone.
        kinds = [cliques.CliqueClass.MIN]
    else:
        kinds = [cliques.CliqueClass.MIN, cliques.CliqueClass.MAX]
    # Both families are non-empty, so the stream has at least one line.
    out.writelines(_family_chunks(params, kinds, b"\n"))
    out.write(b"\n")
    return 0


def _parse_clique(args) -> cliques.Clique:
    params = graph.JohnsonParams(args.n, args.m)
    return cliques.Clique.from_labels((combinat.parse_label(text) for text in args.labels), params)


def _cmd_classify(args, out, err) -> int:
    result = cliques.classify(_parse_clique(args))
    if result.kind is cliques.ClassificationKind.SINGLETON:
        payload = {"kind": result.kind.value}
    elif result.kind is cliques.ClassificationKind.EDGE_BOTH:
        h_min, h_max = result.extensions
        payload = {"kind": result.kind.value, "min": h_min.to_dict(), "max": h_max.to_dict()}
    else:
        payload = {**result.extensions[0].to_dict(), "kind": result.kind.value}
    out.write(_dumps(payload).encode() + b"\n")
    return 0


def _cmd_extend(args, out, err) -> int:
    extensions = cliques.extend_to_maximal(_parse_clique(args))
    out.write(_dumps([h.to_dict() for h in extensions]).encode() + b"\n")
    return 0


def _cmd_partition(args, out, err) -> int:
    params = graph.JohnsonParams(args.n, args.m)
    out.write(f'{{"cp":{cliques.clique_partition_number(params)},"parts":['.encode())
    out.writelines(_family_chunks(params, [cliques._partition_class(params)], b","))
    out.write(b"]}\n")
    return 0


def _cmd_number(args, out, err) -> int:
    params = graph.JohnsonParams(args.n, args.m)
    payload = {
        "n": params.n,
        "m": params.m,
        "clique_number": cliques.clique_number(params),
        "clique_partition_number": cliques.clique_partition_number(params),
        "degenerate": params.degenerate,
    }
    out.write(_dumps(payload).encode() + b"\n")
    return 0


def _cmd_verify(args, out, err) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    cap = _env_cap(oracle.DEFAULT_MATERIALIZE_CAP)
    start = time.perf_counter()
    total = passed = skipped = 0
    summed = 0.0
    for result in oracle.verify_range(args.m_range, args.n_range, jobs=args.jobs, max_vertices=cap):
        out.write(_dumps(result.to_dict()).encode() + b"\n")
        total += 1
        if isinstance(result, oracle.SkippedPair):
            skipped += 1
            continue
        if isinstance(result, oracle.FailedPair):
            err.write(result.trace.encode(errors="backslashreplace"))
            continue
        passed += result.passed
        summed += sum(result.phase_seconds.values())
        if args.timings:
            seconds = {phase: round(s, 6) for phase, s in result.phase_seconds.items()}
            err.write(
                _dumps({"n": result.params.n, "m": result.params.m, "seconds": seconds,
                        "counters": result.counters}).encode() + b"\n"
            )
    wall = time.perf_counter() - start
    if not total:
        raise _UsageError(
            f"--m-range and --n-range yield no valid (n, m) pair "
            f"(need m >= 2 and m+1 <= n <= {combinat.MAX_GROUND_SET})"
        )
    note = f"; {skipped} skipped over the materialization cap {cap}" if skipped else ""
    err.write(
        f"{passed}/{total} pairs passed in {wall:.2f}s wall time "
        f"({summed:.2f}s summed over pairs){note}\n".encode()
    )
    if passed + skipped < total:
        return 3
    return 2 if skipped else 0


def run(argv: list[str], out: BinaryIO, err: BinaryIO) -> int:
    """Parse ``argv`` and run one subcommand, writing UTF-8 bytes to the byte
    streams ``out`` and ``err``, which it flushes before it returns and never closes."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out, err)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n".encode(errors="backslashreplace"))
        return 1
    except _Help as exc:
        out.write(exc.args[0].encode())
        return 0
    except ValidationError as exc:
        err.write(f"error: {exc}\n".encode(errors="backslashreplace"))
        return 2
    finally:
        # A buffered stdout whose reader has gone fails here, inside main's
        # BrokenPipeError handler, not in the flush at interpreter exit.
        out.flush()
        err.flush()


def main() -> None:
    try:
        code = run(sys.argv[1:], sys.stdout.buffer, sys.stderr.buffer)
    except BrokenPipeError:
        # The reader of stdout left early, as ``| head`` does. As the Python
        # signal docs advise, point stdout at devnull so that the flush at
        # exit cannot fail again, and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except OSError as exc:
        # A write to stdout failed, as on a full disk: devnull takes the rest.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.buffer.write(f"error: {exc}\n".encode())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
