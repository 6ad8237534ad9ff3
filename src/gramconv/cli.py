"""Command-line front end.

Subcommands: recover, unparse, mutate, transform, prodsig, metrics, converge.
All file inputs and outputs are UTF-8; grammars travel in the JSON
interchange format, notations as `.edd` files, scripts as JSON step lists.

Exit codes are uniform: 0 success, 1 domain error (recovery failure, violated
precondition, malformed content), 2 usage error (bad flags, files that cannot
be read or written), 3 convergence finished with a non-empty residue.
Commands are deterministic: identical inputs produce byte-identical outputs.
Set GRAMCONV_COLOR=0 to disable ANSI color on diagnostics.  An input must be
a regular file or a pipe; anything else, such as a device, exits 2, since it
may never end.  An output is written in place and, when it is a regular file,
cut at the end of the new text.  A path that cannot be opened, read, written
or cut exits 2 with an error line that names it, and so does a failed write
to standard output.  The argument parser is built once per process; each
call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys

from . import converge as cv
from . import interchange, notation, recovery
from .grammar import Grammar
from .mutate import MUTATION_KINDS, Mutation, MutationError, mutate
from .transform import apply_script, script_from_json

USAGE_ERROR = 2
DOMAIN_ERROR = 1
RESIDUE = 3


def _color_enabled() -> bool:
    return os.environ.get("GRAMCONV_COLOR", "1") != "0" and sys.stderr.isatty()


def _fail(message: str, code: int) -> int:
    prefix = "\x1b[31merror:\x1b[0m" if _color_enabled() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    """Read a regular file or a pipe as UTF-8.  Anything else is refused
    before it is read, since a device such as /dev/zero never ends.  An
    error raised after the open names the path too."""
    with open(path, "r", encoding="utf-8") as handle:
        mode = os.fstat(handle.fileno()).st_mode
        if not (stat.S_ISREG(mode) or stat.S_ISFIFO(mode)):
            raise OSError(errno.EINVAL, "not a regular file or a pipe", path)
        try:
            return handle.read()
        except OSError as exc:
            exc.filename = path
            raise


def _print(text: str) -> None:
    """Write text to standard output and flush it, so that a failed write
    exits 2 with an error line rather than failing again at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        exc.filename = "standard output"
        # drop what could not be written: the flush at exit would fail on it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, as `open(path, "w")` would, but without
    O_TRUNC: a regular file is overwritten from its start and then cut at
    the end of the text, since truncating it to zero first can stall for
    tens of milliseconds (ext4 mounted with `discard`).  Devices and pipes
    are only written.  An error raised after the open names the path too."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    except OSError as exc:
        exc.filename = path
        raise
    finally:
        os.close(fd)


def _load_grammar(path: str) -> Grammar:
    return interchange.deserialize(_read_text(path))


def _load_notation(path: str) -> notation.NotationSpec:
    return notation.parse_spec(_read_text(path))


def cmd_recover(args) -> int:
    spec = _load_notation(args.notation)
    report = recovery.recover(_read_text(args.text), spec)
    for line, message in report.warnings:
        print(f"{args.text}:{line}: warning: {message}", file=sys.stderr)
    if args.verbose:
        for event in report.heuristics:
            print(f"{args.text}:{event.line}: heuristic {event.name}: {event.detail}",
                  file=sys.stderr)
    _write_text(args.out, interchange.serialize(report.grammar))
    if args.report:
        _write_text(args.report, interchange.dumps({
            "warnings": [{"line": line, "message": message}
                         for line, message in report.warnings],
            "heuristics": [{"line": event.line, "name": event.name,
                            "detail": event.detail}
                           for event in report.heuristics],
        }))
    return 0


def cmd_unparse(args) -> int:
    spec = _load_notation(args.notation)
    text = recovery.unparse(_load_grammar(args.grammar), spec)
    if args.out:
        _write_text(args.out, text)
    else:
        _print(text)
    return 0


def _parse_mutation(text: str) -> Mutation:
    kind, _, raw = text.partition(":")
    if kind not in MUTATION_KINDS:
        raise MutationError(f"unknown mutation kind {kind!r}")
    params: dict = {}
    if kind == "disciplined-rename":
        if not raw:
            raise MutationError("disciplined-rename needs a convention, "
                                "e.g. disciplined-rename:lower")
        params["convention"] = raw
    elif kind == "extract-subgrammar":
        params["roots"] = [name.strip() for name in raw.split(",") if name.strip()]
        if not params["roots"]:
            raise MutationError("extract-subgrammar needs root names, "
                                "e.g. extract-subgrammar:expr,stmt")
    elif raw:
        raise MutationError(f"mutation {kind!r} takes no argument")
    return Mutation(kind, params)


def _step_doc(step) -> dict:
    # what `step_to_json` gives, with the expressions left in for `dumps`
    return {"op": step.op, "args": step.args}


def _production_doc(prod) -> dict:
    # what `production_to_json` gives, with the rhs left in for `dumps`
    return {"label": prod.label, "lhs": prod.lhs, "rhs": prod.rhs}


def cmd_mutate(args) -> int:
    mutation = _parse_mutation(args.mutation)
    result = mutate(_load_grammar(args.grammar), mutation)
    _write_text(args.out, interchange.serialize(result.grammar))
    _write_text(args.out + ".trace", interchange.dumps([_step_doc(step) for step in result.trace]))
    print(f"{mutation.kind}: {result.changed_count} change(s)", file=sys.stderr)
    return 0


def cmd_transform(args) -> int:
    steps = script_from_json(json.loads(_read_text(args.script)))
    result = apply_script(_load_grammar(args.grammar), steps)
    _write_text(args.out, interchange.serialize(result))
    _write_text(args.out + ".trace", interchange.dumps([_step_doc(step) for step in steps]))
    return 0


def cmd_prodsig(args) -> int:
    _print(cv.render_prodsig_table(_load_grammar(args.grammar)) + "\n")
    return 0


def cmd_metrics(args) -> int:
    metrics = cv.sig_metrics(_load_grammar(args.grammar))
    lines = [f"productions: {metrics.productions}",
             f"distinct footprints: {metrics.distinct_footprints}"]
    lines += [f"footprint {fp}: {count}" for fp, count in metrics.footprint_histogram.items()]
    shown = " ".join(f"{lhs}={size}" for lhs, size in metrics.signature_sizes)
    lines.append(f"signature sizes: {shown}".rstrip())
    _print("\n".join(lines) + "\n")
    return 0


def cmd_converge(args) -> int:
    master = _load_grammar(args.master)
    servant = _load_grammar(args.servant)

    observer = None
    if args.verbose:
        def observer(phase: str, g: Grammar) -> None:
            print(f"--- {phase} ---", file=sys.stderr)
            sys.stderr.write(interchange.serialize(g))

    report = cv.guided_converge(master, servant, observer=observer)
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    _print(cv.render_match_report(report))
    if args.report:
        _write_text(args.report, interchange.dumps(
            cv._report_doc(report, _production_doc, _step_doc)))
    return RESIDUE if report.residue else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one; `parse_args` gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="gramconv",
        description="Recover, transform, mutate and converge grammars.")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("recover", help="parse grammar text in an EBNF dialect")
    cmd.add_argument("text", help="grammar text file")
    cmd.add_argument("--notation", required=True, help="notation spec (.edd)")
    cmd.add_argument("--out", required=True, help="output grammar file")
    cmd.add_argument("--report", help="warning/heuristic report file")
    cmd.add_argument("-v", dest="verbose", action="store_true")
    cmd.set_defaults(run=cmd_recover)

    cmd = sub.add_parser("unparse", help="render a grammar in an EBNF dialect")
    cmd.add_argument("grammar")
    cmd.add_argument("--notation", required=True)
    cmd.add_argument("--out")
    cmd.set_defaults(run=cmd_unparse)

    cmd = sub.add_parser("mutate", help="apply a grammar mutation")
    cmd.add_argument("grammar")
    cmd.add_argument("--mutation", required=True,
                     help="kind[:args], e.g. normalize-anf or disciplined-rename:lower")
    cmd.add_argument("--out", required=True)
    cmd.set_defaults(run=cmd_mutate)

    cmd = sub.add_parser("transform", help="apply a transformation script")
    cmd.add_argument("grammar")
    cmd.add_argument("--script", required=True, help="JSON list of steps")
    cmd.add_argument("--out", required=True)
    cmd.set_defaults(run=cmd_transform)

    cmd = sub.add_parser("prodsig", help="print production rules with signatures")
    cmd.add_argument("grammar")
    cmd.set_defaults(run=cmd_prodsig)

    cmd = sub.add_parser("metrics", help="print signature statistics")
    cmd.add_argument("grammar")
    cmd.set_defaults(run=cmd_metrics)

    cmd = sub.add_parser("converge", help="converge a servant grammar onto a master")
    cmd.add_argument("master")
    cmd.add_argument("servant")
    cmd.add_argument("--report", help="write the match report as JSON")
    cmd.add_argument("-v", dest="verbose", action="store_true",
                     help="dump intermediate grammars of the convergence phases")
    cmd.set_defaults(run=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except FileNotFoundError as exc:
        return _fail(f"cannot open {exc.filename}", USAGE_ERROR)
    except IsADirectoryError as exc:
        return _fail(f"{exc.filename} is a directory", USAGE_ERROR)
    except OSError as exc:  # other path errors: not a directory, permission, I/O
        return _fail(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc),
                     USAGE_ERROR)
    except json.JSONDecodeError as exc:
        return _fail(f"malformed JSON: {exc}", DOMAIN_ERROR)
    except ValueError as exc:  # every domain error class derives from it
        return _fail(str(exc), DOMAIN_ERROR)
    except RecursionError:
        return _fail("input is nested too deeply", DOMAIN_ERROR)


if __name__ == "__main__":
    sys.exit(main())
