"""Structured pass/fail results: the report ``verify.verify`` builds, the
``Counterexample`` a failed check raises, and the series comparison that
raises it."""

from __future__ import annotations

from dataclasses import dataclass, field

_BOUND_LABELS = {"nmax": "n", "order": "order", "mmax": "m"}


class Counterexample(Exception):
    """The first case a check found where its identity fails; the
    exception's text is the report's witness."""


@dataclass
class VerificationReport:
    """Outcome of one exact check, carrying a reproducible witness on failure."""

    name: str
    params: dict[str, object] = field(default_factory=dict)
    witness: str | None = None
    counts: dict[str, int] = field(default_factory=dict)
    elapsed_s: float | None = field(default=None, compare=False)  # set by verify.verify

    @property
    def passed(self) -> bool:
        """A report passes exactly when it carries no witness."""
        return self.witness is None

    def __bool__(self) -> bool:
        return self.passed

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def bounds_label(self) -> str:
        chunks = []
        for key, value in self.params.items():
            label = _BOUND_LABELS.get(key)
            chunks.append(f"{label}<={value}" if label else f"{key}={value}")
        return " ".join(chunks)

    def line(self) -> str:
        """One-line machine-readable verdict, e.g. ``THM12 n<=26 PASS``."""
        label = self.bounds_label()
        head = f"{self.name} {label}" if label else self.name
        return f"{head} {self.status}"

    def text(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [self.line()]
        for key, value in self.counts.items():
            lines.append(f"  {key}: {value}")
        if self.witness is not None:
            lines.append(f"  counterexample: {self.witness}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "status": self.status,
            "witness": self.witness,
            "counts": dict(self.counts),
            "elapsed_s": self.elapsed_s,
        }


def compare_series(built, expected, where: str = "") -> int:
    """How many terms ``built`` has, once it equals ``expected``
    coefficientwise; otherwise a Counterexample at their first difference,
    the smallest key, as ``where`` + ``q^c x^a y^b: built A, expected B``
    for a ``MultiSeries`` and ``q^c x^a: ...`` for a ``LaurentPoly``.
    Sides of different truncation orders raise ``ValueError``; a
    ``LaurentPoly`` has none, so it never compares with a ``MultiSeries``."""
    if getattr(built, "order", None) != getattr(expected, "order", None):
        raise ValueError("series truncation orders differ")
    for key in sorted(built.terms.keys() | expected.terms.keys()):
        a, b = built.terms.get(key, 0), expected.terms.get(key, 0)
        if a != b:
            named = " ".join(f"{var}^{exp}" for var, exp in zip("qxy", key))
            raise Counterexample(f"{where}{named}: built {a}, expected {b}")
    return len(built.terms)
