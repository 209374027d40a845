"""Named-check containers and their one-line text serialization.

A Report is a flat list of named residual checks plus a verdict that is, by
construction, the conjunction of the individual passes.  Reports serialize to
one line of ``key=value`` text with residuals printed to six significant
digits, so a stream of reports is byte-stable across runs for fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .matcore import DEFAULT_TOL

if TYPE_CHECKING:  # pragma: no cover
    from .genlab import Seed

__all__ = ["Check", "Report", "check_le", "check_ge", "check_flag", "to_line"]


@dataclass(frozen=True)
class Check:
    """One named residual with its pass/fail resolution.

    ``marginal`` flags residuals that land suspiciously close to (or inside
    the forbidden gap between) the decision thresholds; marginal failures
    still count as failures.
    """

    name: str
    residual: float
    passed: bool
    marginal: bool = False


def check_le(name: str, residual: float, limit: float = DEFAULT_TOL.res_rtol) -> Check:
    """Expect ``residual <= limit`` (res_rtol unless given); ties within 10% of
    the limit are marginal."""
    passed = residual <= limit
    marginal = 0.9 * limit <= residual <= 1.1 * limit
    return Check(name, float(residual), passed, marginal)


def check_ge(name: str, residual: float, floor: float) -> Check:
    """Expect ``residual >= floor`` (a deliberately violated property).

    Residuals below ``floor`` that res_rtol does not accept fall in the
    forbidden gray zone: they fail and are flagged marginal, forcing
    investigation instead of silent flakiness.
    """
    passed = residual >= floor
    marginal = residual < floor and not DEFAULT_TOL.holds(residual)
    return Check(name, float(residual), passed, marginal)


def check_flag(name: str, ok: bool) -> Check:
    """Boolean check encoded with residual 0 (ok) or 1 (not ok)."""
    return Check(name, 0.0 if ok else 1.0, bool(ok))


@dataclass(frozen=True)
class Report:
    """Outcome of one trial or diagnostic call: named checks plus provenance."""

    suite: str
    trial: int
    checks: tuple[Check, ...]
    seed: "Seed | None" = field(default=None)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in report {self.suite}/{self.trial}")

    def residual(self, name: str) -> float:
        return self.check(name).residual

    def passed(self, name: str) -> bool:
        return self.check(name).passed


def _status(c: Check) -> str:
    base = "pass" if c.passed else "fail"
    return base + ":marginal" if c.marginal else base


def to_line(report: Report) -> str:
    """Serialize a report to one flat key=value line."""
    parts = [f"suite={report.suite}", f"trial={report.trial}"]
    if report.seed is not None:
        parts.append(f"root={report.seed.root}")
        parts.append(f"stream={report.seed.stream}")
    for c in report.checks:
        parts.append(f"{c.name}={c.residual:.5e}:{_status(c)}")
    parts.append(f"verdict={'pass' if report.verdict else 'fail'}")
    return " ".join(parts)
