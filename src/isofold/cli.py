"""Command-line front end.

Exit codes: 0 success, 1 I/O, parse or usage failure, 2 infeasible
instance, 3 degenerate hull, 4 audit failure.  Errors go to stderr as
one JSON object so scripts never have to scrape prose.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .extension import DegenerateHullError, NonExpansivenessViolation, extend_all
from .fileio import (
    NumberTooLong,
    ParseError,
    instance_hash,
    parse_instance,
    parse_map,
    read_text,
    serialize_map,
    write_text,
)
from .svg import render_svg
from .verification import (
    AuditConfig,
    AuditReport,
    audit_interpolation,
    audit_lipschitz,
    audit_structure,
)

__all__ = ["main", "console", "cmd_extend", "cmd_verify"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_INFEASIBLE = 2
EXIT_DEGENERATE = 3
EXIT_AUDIT = 4


def _fail(code: int, kind: str, **detail) -> int:
    payload = {"error": kind}
    payload.update(detail)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments, which is the infeasible-instance
    # code here; raise instead so main reports a usage failure.
    def error(self, message):
        raise argparse.ArgumentError(None, message)


# ASCII digits over the whole string: int() would also take any Unicode
# digit and surrounding whitespace.
_DIGITS = re.compile(r"[0-9]+")
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")


def _positive_int(text: str) -> int:
    if not _DIGITS.fullmatch(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _signed_int(text: str) -> int:
    if not _SIGNED_DIGITS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(text)


def _run_audits(f, inst, cfg) -> AuditReport:
    checks = []
    checks.extend(audit_interpolation(f, inst).checks)
    checks.extend(audit_lipschitz(f, cfg).checks)
    checks.extend(audit_structure(f).checks)
    return AuditReport(checks)


def cmd_extend(args) -> int:
    try:
        inst = parse_instance(read_text(args.input))
    except OSError as exc:
        return _fail(EXIT_IO, "io", detail=str(exc))
    except ParseError as exc:
        return _fail(EXIT_IO, "parse", detail=str(exc))

    try:
        f = extend_all(inst)
    except NonExpansivenessViolation as exc:
        return _fail(
            EXIT_INFEASIBLE, "nonexpansiveness_violation",
            pair=[exc.pair.i, exc.pair.j],
        )
    except DegenerateHullError as exc:
        return _fail(EXIT_DEGENERATE, "degenerate_hull", dimension=exc.dimension)

    report = None
    if args.verify != "none":
        cfg = AuditConfig(sample_count=args.samples, rng_seed=args.seed)
        report = _run_audits(f, inst, cfg)

    try:
        document = serialize_map(
            f, instance_hash(inst), None if report is None else report.as_dict()
        )
    except NumberTooLong as exc:
        return _fail(EXIT_IO, "number_too_long", detail=str(exc))
    try:
        if args.output:
            write_text(args.output, document)
        else:
            sys.stdout.write(document)
        if args.svg:
            render_svg(f, inst, args.svg)
    except OSError as exc:
        return _fail(EXIT_IO, "io", detail=str(exc))

    if report is not None and not report.all_passed:
        return _fail(
            EXIT_AUDIT, "audit_failure",
            failed=[name for name, ok, _ in report.checks if not ok],
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        inst = parse_instance(read_text(args.instance))
        stored = parse_map(read_text(args.map))
    except OSError as exc:
        return _fail(EXIT_IO, "io", detail=str(exc))
    except ParseError as exc:
        return _fail(EXIT_IO, "parse", detail=str(exc))

    cfg = AuditConfig(sample_count=args.samples, rng_seed=args.seed)
    expected = instance_hash(inst)
    provenance = (
        "provenance.instance_hash",
        expected == stored.instance_hash,
        None if expected == stored.instance_hash
        else {"expected": expected, "stored": stored.instance_hash},
    )
    report = AuditReport(
        [provenance] + list(_run_audits(stored.map, inst, cfg).checks)
    )
    sys.stdout.write(report.to_json() + "\n")
    if not report.all_passed:
        return _fail(
            EXIT_AUDIT, "audit_failure",
            failed=[name for name, ok, _ in report.checks if not ok],
        )
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isofold",
        description="Extend a finite rational non-expansive map to a "
        "piecewise-linear one on the convex hull, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ext = sub.add_parser("extend", help="build and certify a map from an instance file")
    ext.add_argument("--input", required=True, help="instance JSON path")
    ext.add_argument("--output", help="map JSON path (stdout when omitted)")
    ext.add_argument("--svg", help="figure path")
    ext.add_argument(
        "--verify", choices=["exact", "none"], default="exact",
        help="audit the produced map exactly, or not at all",
    )
    ext.add_argument("--samples", type=_positive_int, default=1000)
    ext.add_argument("--seed", type=_signed_int, default=0)
    ext.set_defaults(run=cmd_extend)

    ver = sub.add_parser("verify", help="re-audit a previously written map file")
    ver.add_argument("--map", required=True, help="map JSON path")
    ver.add_argument("--instance", required=True, help="instance JSON path")
    ver.add_argument("--samples", type=_positive_int, default=1000)
    ver.add_argument("--seed", type=_signed_int, default=0)
    ver.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _fail(EXIT_IO, "usage", detail=str(exc))
    return args.run(args)


def console() -> None:
    sys.exit(main())
