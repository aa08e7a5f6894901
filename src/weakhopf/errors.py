"""Error types and check verdicts shared across the toolkit.

Every check in this package is exact: a law either holds on the nose or it is
violated at a concrete basis witness.  Checks therefore report `Verdict`
objects whose violations carry the witness indices and both sides' values,
so a failing fixture can be debugged from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(ToolkitError):
    """Structurally unusable input: bad shapes, mixed fields, parse errors."""


class PreconditionError(ToolkitError):
    """An operation received an object violating its stated precondition."""


class InternalInconsistency(ToolkitError):
    """A provably-impossible state for valid inputs; indicates a bug."""


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt_value(x) for x in v) + ")"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    return str(v)


@dataclass(frozen=True)
class Violation:
    """One failed law instance: the law's name, where, and both sides."""

    law: str
    witness: tuple = ()
    lhs: object = None
    rhs: object = None

    def describe(self) -> str:
        parts = [self.law]
        if self.witness:
            parts.append("at " + _fmt_value(self.witness))
        if self.lhs is not None or self.rhs is not None:
            parts.append(f"lhs={_fmt_value(self.lhs)} rhs={_fmt_value(self.rhs)}")
        return " ".join(parts)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact check; empty violation list means pass."""

    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "pass"
        return "; ".join(v.describe() for v in self.violations)

    @staticmethod
    def passing() -> "Verdict":
        return Verdict(())

    @staticmethod
    def failing(violations) -> "Verdict":
        return Verdict(tuple(violations))


class AxiomViolation(ToolkitError):
    """Raised when a verifying constructor finds mathematical violations."""

    def __init__(self, verdict: Verdict, context: str = ""):
        self.verdict = verdict
        self.context = context
        prefix = context + ": " if context else ""
        super().__init__(prefix + verdict.describe())
