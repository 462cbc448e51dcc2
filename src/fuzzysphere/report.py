"""Structured pass/fail records shared by all verification suites."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import __version__

__all__ = ["CheckRecord", "Report"]


def _json(x):
    """x, or for a non-finite float the string "inf", "-inf" or "nan" that
    float() reads back: strict JSON has no such numbers, and null already
    means the default k."""
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


@dataclass
class CheckRecord:
    """One verified relation, bound or value, keyed by its check tag."""

    tag: str
    lam: int | None = None
    m: int | None = None
    value: float | None = None
    bound: float | None = None
    residual: float | None = None
    passed: bool = True

    def to_dict(self):
        d = {"tag": self.tag, "lambda": self.lam, "value": _json(self.value),
             "pass": self.passed}
        if self.m is not None:
            d["m"] = self.m
        if self.bound is not None:
            d["bound"] = _json(self.bound)
        if self.residual is not None:
            d["residual"] = _json(self.residual)
        return d


@dataclass
class Report:
    checks: list[CheckRecord] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    version: str = __version__

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    def add_residual(self, tag, residual, tol, lam=None, m=None):
        return self.add(CheckRecord(tag=tag, lam=lam, m=m,
                                    residual=float(residual), bound=float(tol),
                                    passed=bool(residual <= tol)))

    def add_residuals(self, tags, residuals, tol, lam=None):
        """One add_residual per tag, each against the same tol."""
        for tag, r in zip(tags, residuals):
            self.add_residual(tag, r, tol, lam=lam)
        return self

    def add_verdict(self, tag, ok, lam=None, m=None):
        """A yes/no check, recorded as the residual 0 or 1 against 0.5."""
        return self.add_residual(tag, 0.0 if ok else 1.0, 0.5, lam=lam, m=m)

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> dict:
        n_pass = sum(c.passed for c in self.checks)
        return {"passed": n_pass, "failed": len(self.checks) - n_pass}

    def first_failure(self) -> CheckRecord | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self, timestamp: str | None = None) -> dict:
        d = {
            "config": {key: _json(v) for key, v in self.config.items()},
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
            "version": self.version,
        }
        if timestamp is not None:
            d["timestamp"] = timestamp
        return d

    def to_json(self, timestamp: str | None = None) -> str:
        """One line of strict JSON with sorted keys: to_dict writes each
        non-finite float as a string, and one it missed raises.  An indent
        would force json's pure-Python encoder, about 2.5x slower on a
        circle-all report."""
        return json.dumps(self.to_dict(timestamp), sort_keys=True,
                          allow_nan=False)
