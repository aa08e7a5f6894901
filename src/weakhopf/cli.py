"""Command-line front end: every capability as a scriptable command.

Exit codes are a strict contract: 0 means every check passed, 1 means a
mathematical violation was found, 2 means the input was malformed.  Reports
are deterministic for identical inputs and available as human text or as a
structured JSON document behind --format.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AxiomViolation,
    InternalInconsistency,
    MalformedInput,
    PreconditionError,
    Verdict,
)
from .exactla import parse_field_name
from .serialize import (
    REPORT_FORMAT_VERSION,
    document_from_wba,
    emit,
    functor_from_document,
    matrix_strings,
    parse_text,
    wba_from_document,
)
from .weakbia import dualize, lemma_suite, verify_antipode
from . import decomp, fixtures, tannaka

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_BUG = 70


class Report:
    """Command echo, per-check verdicts with witnesses, derived data."""

    def __init__(self, command: str, inputs):
        self.command = command
        self.inputs = list(inputs)
        self.checks = []
        self.derived = {}
        self.errors = []

    def add_check(self, name: str, verdict: Verdict):
        self.checks.append((name, verdict))

    def add_error(self, kind: str, message: str):
        self.errors.append((kind, message))

    @property
    def exit_code(self) -> int:
        if any(kind == "malformed" for kind, _ in self.errors):
            return EXIT_MALFORMED
        if self.errors or any(not v.ok for _, v in self.checks):
            return EXIT_VIOLATION
        return EXIT_PASS

    def to_structured(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "checks": [
                {
                    "name": name,
                    "ok": v.ok,
                    "violations": [
                        {
                            "law": viol.law,
                            "witness": list(viol.witness),
                            "lhs": _jsonable(viol.lhs),
                            "rhs": _jsonable(viol.rhs),
                        }
                        for viol in v.violations
                    ],
                }
                for name, v in self.checks
            ],
            "errors": [{"kind": kind, "message": msg} for kind, msg in self.errors],
            "derived": self.derived,
            "exit_code": self.exit_code,
        }

    def to_text(self) -> str:
        lines = [f"command: {self.command} {' '.join(self.inputs)}".rstrip()]
        for kind, msg in self.errors:
            lines.append(f"error [{kind}]: {msg}")
        for name, v in self.checks:
            if v.ok:
                lines.append(f"check {name}: pass")
            else:
                lines.append(f"check {name}: FAIL")
                for viol in v.violations:
                    lines.append(f"  violation: {viol.describe()}")
        for key, value in self.derived.items():
            lines.append(f"{key}: {_text_value(value)}")
        lines.append(f"exit: {self.exit_code}")
        return "\n".join(lines) + "\n"


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _text_value(value):
    if isinstance(value, list) and value and isinstance(value[0], list):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in value) + "]"
    if isinstance(value, list):
        return "[" + " ".join(str(x) for x in value) + "]"
    return str(value)


def _axiom_check_name(exc: AxiomViolation) -> str:
    return {
        "antipode verification": "antipode",
        "comodule axioms": "comodule-axioms",
    }.get(exc.context, "weak-bialgebra-axioms")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror}")


def _load_wba(path: str):
    return wba_from_document(parse_text(_read_file(path)))


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _finish_report(report: Report, args) -> int:
    text = (
        emit(report.to_structured()) if args.format == "structured" else report.to_text()
    )
    _write_output(text, args.out)
    return report.exit_code


def _load_reported(report: Report, path: str):
    """The weak bialgebra of path, its axioms recorded as passing; or None, with
    the malformed input or the failed check recorded instead."""
    try:
        h, _ = _load_wba(path)
    except MalformedInput as exc:
        report.add_error("malformed", str(exc))
        return None
    except AxiomViolation as exc:
        report.add_check(_axiom_check_name(exc), exc.verdict)
        return None
    report.add_check("weak-bialgebra-axioms", Verdict.passing())
    return h


def cmd_check(args) -> int:
    report = Report("check", [args.file])
    h = _load_reported(report, args.file)
    if h is not None:
        report.add_check("lemma-suite", lemma_suite(h))
        if h.antipode is not None:
            report.add_check("antipode", verify_antipode(h, h.antipode))
        report.derived["dim"] = h.dim
        report.derived["dim H_t"] = h.ht.dim
        report.derived["dim H_s"] = h.hs.dim
    return _finish_report(report, args)


def cmd_counital(args) -> int:
    report = Report("counital", [args.file])
    h = _load_reported(report, args.file)
    if h is not None:
        fmt = h.field.fmt
        report.derived["eps_t"] = matrix_strings(h.eps_t)
        report.derived["eps_s"] = matrix_strings(h.eps_s)
        report.derived["eps_t'"] = matrix_strings(h.eps_t_prime)
        report.derived["eps_s'"] = matrix_strings(h.eps_s_prime)
        report.derived["H_t basis"] = [[fmt(x) for x in v] for v in h.ht.basis]
        report.derived["H_s basis"] = [[fmt(x) for x in v] for v in h.hs.basis]
        report.derived["dim H_t"] = h.ht.dim
        report.derived["dim H_s"] = h.hs.dim
    return _finish_report(report, args)


def cmd_lemmas(args) -> int:
    report = Report("lemmas", [args.file])
    h = _load_reported(report, args.file)
    if h is not None:
        report.add_check("lemma-suite", lemma_suite(h))
    return _finish_report(report, args)


def cmd_decompose(args) -> int:
    report = Report("decompose", [args.file])
    h = _load_reported(report, args.file)
    if h is not None:
        res = decomp.decompose(h)
        fmt = h.field.fmt
        report.derived["blocks"] = res.block_count
        report.derived["block dims"] = [b.dim for b in res.blocks]
        report.derived["block idempotents"] = [[fmt(x) for x in e] for e in res.block_idempotents]
        report.derived["certificates"] = list(res.certificates)
    return _finish_report(report, args)


def cmd_reconstruct(args) -> int:
    report = Report("reconstruct", [args.source, args.target, args.functor])
    try:
        h, h_comods = _load_wba(args.source)
        k, _ = _load_wba(args.target)
        fd = functor_from_document(parse_text(_read_file(args.functor)), h, h_comods, k)
        result = tannaka.reconstruct_weak_bialgebra_map(fd)
    except MalformedInput as exc:
        report.add_error("malformed", str(exc))
        return _finish_report(report, args)
    except AxiomViolation as exc:
        report.add_check(_axiom_check_name(exc), exc.verdict)
        return _finish_report(report, args)
    for name, verdict in result.layers:
        report.add_check(name, verdict)
    report.derived["phi"] = matrix_strings(result.phi)
    if not result.ok:
        report.derived["first failing layer"] = result.first_failing_layer()
    return _finish_report(report, args)


def _emit_built(build, args) -> int:
    """Write the document of the weak bialgebra build() returns, or say on
    stderr why it could not be built."""
    try:
        out = build()
    except MalformedInput as exc:
        sys.stderr.write(f"error [malformed]: {exc}\n")
        return EXIT_MALFORMED
    except (AxiomViolation, PreconditionError) as exc:
        sys.stderr.write(f"error [violation]: {exc}\n")
        return EXIT_VIOLATION
    _write_output(emit(document_from_wba(out)), args.out)
    return EXIT_PASS


def cmd_dsum(args) -> int:
    return _emit_built(
        lambda: decomp.direct_sum(_load_wba(args.file_a)[0], _load_wba(args.file_b)[0]), args
    )


def cmd_dualize(args) -> int:
    return _emit_built(lambda: dualize(_load_wba(args.file)[0]), args)


def cmd_fixture(args) -> int:
    return _emit_built(
        lambda: fixtures.preset(args.name, parse_field_name(args.field) if args.field else None),
        args,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wba",
        description="Exact toolkit for finite-dimensional weak bialgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report rendering (document-emitting commands ignore this)",
        )

    p = sub.add_parser("check", help="verify axioms, lemma suite, antipode")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("counital", help="print counital maps and subalgebras")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_counital)

    p = sub.add_parser("lemmas", help="run the lemma suite")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("decompose", help="indecomposable decomposition")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="reconstruct a weak bialgebra map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("functor")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("dsum", help="emit the direct sum of two documents")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)
    p.set_defaults(func=cmd_dsum)

    p = sub.add_parser("dualize", help="emit the dual weak bialgebra")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("fixture", help="emit a named preset document")
    p.add_argument("name")
    p.add_argument("--field", default=None, help="field override, e.g. GF(5)")
    common(p)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency (bug): {exc}\n")
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
