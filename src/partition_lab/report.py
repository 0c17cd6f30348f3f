"""Structured pass/fail results: the report ``verify.verify`` builds, the
``Counterexample`` a failed check raises, and the series comparison that
raises it."""

from __future__ import annotations

_BOUND_LABELS = {"nmax": "n", "order": "order", "mmax": "m"}


class Counterexample(Exception):
    """The first case a check found where its identity fails; the
    exception's text is the report's witness."""


class VerificationReport:
    """Outcome of one exact check, carrying a reproducible witness on failure.

    ``params`` and ``counts`` default to a fresh dict each.  Equality
    ignores ``elapsed_s``, which ``verify.verify`` sets; a report is
    mutable, so it is not hashable.
    """

    __slots__ = ("name", "params", "witness", "counts", "elapsed_s")

    def __init__(
        self,
        name: str,
        params: dict[str, object] | None = None,
        witness: str | None = None,
        counts: dict[str, int] | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        self.name = name
        self.params = {} if params is None else params
        self.witness = witness
        self.counts = {} if counts is None else counts
        self.elapsed_s = elapsed_s

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VerificationReport):
            return (
                self.name == other.name
                and self.params == other.params
                and self.witness == other.witness
                and self.counts == other.counts
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"VerificationReport(name={self.name!r}, params={self.params!r}, "
            f"witness={self.witness!r}, counts={self.counts!r}, elapsed_s={self.elapsed_s!r})"
        )

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
        """The verdict line, and under a failing one its witness."""
        if self.witness is None:
            return self.line()
        return f"{self.line()}\n  counterexample: {self.witness}"

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
