"""Command-line interface: a thin shell over the library.

Commands::

    subcart classify  FILE --point CSV [--radius R]
    subcart stratify  FILE [--radius R] [--epsilon E] [--out PATH]
    subcart frame     FILE --point CSV [--radius R] [--out PATH]
    subcart verify    FILE [--radius R] [--epsilon E] [--out PATH]

Each command loads the space, parses its options, makes one library call
(``classify``, ``stratify``, ``verify`` or ``frame_at``) and
emits the JSON that the library builds; ``_emit`` is the one serializer.
A ``--radius`` or ``--epsilon`` that is given is always parsed, so an
empty one is an input error; only a missing one means the default.  An
option value that does not parse is refused with an error naming the
option (``--radius: ``, ``--epsilon: `` or ``--point coordinate K: ``).

Exit codes: 0 when every verdict passes, 1 when any verdict fails, 2 on
input errors: unreadable or malformed files, an ``--out`` path that
cannot be written, non-member points, an unparsable or negative
``--radius`` or ``--epsilon``, a ``--radius`` of 0 on a space of more
than one sample, a ``frame`` anchor that the regular/singular rule
labels singular, and frame evaluation outside its rank-constant
neighborhood.

Reports are JSON with rational-string coordinates and are byte-identical
across runs on identical inputs: term order, grid order, and pivot choice
are all deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import frames
from .errors import SubcartError
from .poly import parse_rational
from .space import load_space
from .stratify import StratificationReport, classify, stratify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _rational(text: str, option: str) -> Fraction:
    """``parse_rational``, refusing the text with an error that names its option."""
    try:
        return parse_rational(text)
    except SubcartError as exc:
        raise SubcartError(f"{option}: {exc}") from None


def _parse_point(text: str, ambient_dim: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != ambient_dim:
        raise SubcartError(
            f"--point has {len(parts)} coordinates, expected {ambient_dim}"
        )
    return tuple(_rational(p, f"--point coordinate {k}") for k, p in enumerate(parts, 1))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SubcartError(f"--out: cannot write {out}: {exc.strerror or exc}") from None


def _finish(report: StratificationReport, payload: dict, out: str | None) -> int:
    """Emit the payload, summarize the report on stderr, return its exit code."""
    _emit(payload, out)
    c = report.counts()
    lines = [f"records: {c['records']} (regular {c['regular']}, singular {c['singular']})"]
    lines += [f"{v.name}: {'pass' if v.passed else 'FAIL'}" for v in report.verdicts]
    print("\n".join(lines), file=sys.stderr)
    return EXIT_PASS if report.all_pass() else EXIT_FAIL


def _cmd_classify(args) -> int:
    space = load_space(args.file)
    point = _parse_point(args.point, space.ambient_dim)
    _emit(classify(space, point, args.radius).to_json(), args.out)
    return EXIT_PASS


def _cmd_stratify(args) -> int:
    report = stratify(load_space(args.file), args.radius, args.epsilon)
    return _finish(report, report.to_json(), args.out)


def _cmd_verify(args) -> int:
    report = frames.verify(load_space(args.file), args.radius, args.epsilon)
    return _finish(report, report.summary_json(), args.out)


def _cmd_frame(args) -> int:
    space = load_space(args.file)
    anchor = _parse_point(args.point, space.ambient_dim)
    frame, evaluations = frames.frame_at(stratify(space, args.radius), anchor)
    _emit(frame.to_json(evaluations), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subcart",
        description="Exact tangent-space and regular/singular analysis of "
        "finitely presented subspaces of R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_point, needs_epsilon in (
        ("classify", _cmd_classify, True, False),
        ("stratify", _cmd_stratify, False, True),
        ("frame", _cmd_frame, True, False),
        ("verify", _cmd_verify, False, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("file", help="space presentation JSON file")
        if needs_point:
            p.add_argument(
                "--point",
                required=True,
                help="comma-separated rational coordinates, e.g. '1/2,0,1'",
            )
        p.add_argument(
            "--radius",
            type=lambda text: _rational(text, "--radius"),
            help="rational adjacency radius",
        )
        if needs_epsilon:
            p.add_argument(
                "--epsilon",
                type=lambda text: _rational(text, "--epsilon"),
                help="rational density radius",
            )
        p.add_argument("--out", help="write the JSON report to this path")
        p.set_defaults(func=func)
    return parser


# one parser per process: each is a web of reference cycles that only the
# cyclic collector frees
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except SubcartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
