"""Structured pass/fail results shared by every checker in the package."""

from __future__ import annotations

from dataclasses import dataclass, field

_BOUND_LABELS = {"nmax": "n", "order": "order", "mmax": "m"}


@dataclass
class VerificationReport:
    """Outcome of one exact check, carrying a reproducible witness on failure."""

    name: str
    params: dict[str, object] = field(default_factory=dict)
    passed: bool = True
    witness: str | None = None
    counts: dict[str, int] = field(default_factory=dict)
    elapsed_s: float | None = field(default=None, compare=False)  # set by verify.verify

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


def series_witness(built, expected) -> str | None:
    """Where two truncated series first differ, at the smallest (q, x, y),
    as ``q^c x^a y^b: built A, expected B``; None when they agree."""
    gap = built.first_discrepancy(expected)
    if gap is None:
        return None
    (q, x, y), a, b = gap
    return f"q^{q} x^{x} y^{y}: built {a}, expected {b}"


def series_report(name: str, params: dict, built, expected) -> VerificationReport:
    """Compare two truncated series coefficientwise: PASS with the term count,
    or FAIL with the ``series_witness`` of the first difference."""
    witness = series_witness(built, expected)
    if witness is None:
        return VerificationReport(name, params, True, counts={"terms": len(built.terms)})
    return VerificationReport(name, params, False, witness=witness)
