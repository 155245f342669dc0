"""Command-line interface: a thin shell over the library.

Commands::

    subcart classify  FILE --point CSV [--radius R]
    subcart stratify  FILE [--radius R] [--epsilon E] [--out PATH]
    subcart frame     FILE --point CSV [--radius R] [--out PATH]
    subcart verify    FILE [--radius R] [--epsilon E] [--out PATH]

Options are parsed here; all analysis is left to the library
(``classify_point``, ``stratify``, ``verify_local_triviality`` and
``anchored_frame``).

Exit codes: 0 when every verdict passes, 1 when any verdict fails, 2 on
input errors: unreadable or malformed files, non-member points, a
negative ``--radius`` or ``--epsilon``, a ``frame`` anchor that the
regular/singular rule labels singular, and frame evaluation outside its
rank-constant neighborhood.

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
from .space import SpacePresentation, load_space
from .stratify import StratificationReport, classify_point, stratify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _parse_point(text: str, ambient_dim: int) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",")]
    if len(parts) != ambient_dim:
        raise SubcartError(
            f"--point has {len(parts)} coordinates, expected {ambient_dim}"
        )
    return tuple(parse_rational(p) for p in parts)


def _rational_option(args, name: str) -> Fraction | None:
    value = getattr(args, name, None)
    return parse_rational(value) if value else None


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    space = load_space(args.file)
    point = _parse_point(args.point, space.ambient_dim)
    record = classify_point(space, point, _rational_option(args, "radius"))
    _emit(record.to_json(), args.out)
    return EXIT_PASS


def _cmd_stratify(args) -> int:
    _, report = _build_report(args)
    _emit(report.to_json(), args.out)
    _summary(report)
    return EXIT_PASS if report.all_pass() else EXIT_FAIL


def _cmd_verify(args) -> int:
    space, report = _build_report(args)
    triviality = frames.verify_local_triviality(space, report)
    payload = {
        "space": report.space_name,
        "verdicts": {
            **{v.name: v.to_json() for v in report.verdicts},
            triviality.name: triviality.to_json(),
        },
        "params": {"radius": str(report.radius), "epsilon": str(report.epsilon)},
        "counts": _counts(report),
        "caveats": list(report.caveats),
    }
    _emit(payload, args.out)
    _summary(report, triviality)
    return EXIT_PASS if report.all_pass() and triviality.passed else EXIT_FAIL


def _cmd_frame(args) -> int:
    space, report = _build_report(args)
    anchor = _parse_point(args.point, space.ambient_dim)
    frame, evaluations = frames.anchored_frame(space, report, anchor)
    payload = {
        "anchor": [str(c) for c in frame.anchor],
        "pivots": [c + 1 for c in frame.pivot_columns],
        "free": [c + 1 for c in frame.free_columns],
        "evaluations": [
            {
                "point": [str(c) for c in report.analyses[j].point],
                "basis": [[str(c) for c in v] for v in basis],
            }
            for j, basis in evaluations
        ],
    }
    _emit(payload, args.out)
    return EXIT_PASS


def _build_report(args) -> tuple[SpacePresentation, StratificationReport]:
    space = load_space(args.file)
    return space, stratify(
        space,
        radius=_rational_option(args, "radius"),
        epsilon=_rational_option(args, "epsilon"),
    )


def _counts(report: StratificationReport) -> dict:
    labels = [r.label for r in report.records]
    return {
        "records": len(labels),
        "regular": labels.count("regular"),
        "singular": labels.count("singular"),
    }


def _summary(report: StratificationReport, *extra) -> None:
    c = _counts(report)
    lines = [
        f"records: {c['records']} (regular {c['regular']}, singular {c['singular']})"
    ]
    for v in report.verdicts + extra:
        lines.append(f"{v.name}: {'pass' if v.passed else 'FAIL'}")
    print("\n".join(lines), file=sys.stderr)


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
        p.add_argument("--radius", help="adjacency radius (rational string)")
        if needs_epsilon:
            p.add_argument("--epsilon", help="density radius (rational string)")
        p.add_argument("--out", help="write the JSON report to this path")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SubcartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
