"""Output checks for the benchmark, sharing no code with partition_lab.

Reference counts come from plain integer recurrences, and series are read
back from their serialized text (``q^c x^a y^b : coeff`` per line), so no
check trusts the library's own arithmetic.  Digests pinned in
``digests.json`` were recorded from the seed commit; they catch a wrong x
or y exponent that the x = y = 1 counts cannot see.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).with_name("digests.json")

# Series that count strict partitions (equivalently odd partitions) at x = y = 1.
STRICT_SERIES = (
    "LHS_THM11", "RHS_THM11", "GF_SOL_LEN", "GF_KMEASURE", "GF_A_TYPES", "GF_B",
)

SERIES_NAMES = STRICT_SERIES + ("GF_2MEASURE_P", "GF_PARITY")

CHECKER_NAMES = (
    "PROP_2MEASURE", "THM11", "EQ11", "EQ31", "EQ_2MEASURE_P", "THM12", "THM13",
    "COROLLARY", "GF4", "GF5", "SYLVESTER", "INVOLUTION", "LEMMA51",
    "GLAISHER_COUNTEREX", "FINITE_LEMMAS",
)


def partition_counts(limit: int) -> list[int]:
    """p(0..limit): partitions of n, by the coin-change recurrence."""
    return largest_part_at_most(limit, limit)


def strict_counts(limit: int) -> list[int]:
    """q(0..limit): partitions of n into distinct parts."""
    ways = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(limit, part - 1, -1):
            ways[n] += ways[n - part]
    return ways


def largest_part_at_most(m: int, limit: int) -> list[int]:
    """Partitions of 0..limit with every part at most m."""
    ways = [1] + [0] * limit
    for part in range(1, m + 1):
        for n in range(part, limit + 1):
            ways[n] += ways[n - part]
    return ways


def largest_part_exactly(m: int, limit: int) -> list[int]:
    """Partitions of 0..limit whose largest part is exactly m."""
    rest = largest_part_at_most(m, limit)
    return [rest[n - m] if n >= m else 0 for n in range(limit + 1)]


def collapse(text: str, order: int) -> list[int]:
    """Coefficients of q^0..q^order of a serialized series at x = y = 1."""
    sums = [0] * (order + 1)
    for line in text.splitlines():
        monomial, coeff = line.split(" : ")
        q = int(monomial.split()[0].removeprefix("q^"))
        sums[q] += int(coeff)
    return sums


def series_key(name: str, params: dict, order: int) -> str:
    """Pin key, e.g. ``GF_PARITY m=7 order=45``."""
    fields = [name] + [f"{k}={v}" for k, v in sorted(params.items())]
    return " ".join(fields + [f"order={order}"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tally_digest(tally: dict) -> str:
    return digest(json.dumps(tally, sort_keys=True))


def load_pins() -> dict:
    with PINS_PATH.open() as handle:
        return json.load(handle)


class Outcome:
    """Output checks attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 10 - len(self.failures)])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def expected_counts(name: str, params: dict, order: int) -> list[int] | None:
    """Coefficients of q^0..q^order the series must have at x = y = 1."""
    if name == "GF_PARITY":
        return largest_part_exactly(params["m"], order)
    if name == "GF_2MEASURE_P":
        return partition_counts(order)
    if name in STRICT_SERIES:
        return strict_counts(order)
    return None


def check_series(outcome: Outcome, built: list, pins: dict) -> None:
    """``built`` holds (name, params, order, serialized text) per series."""
    sides: dict[int, dict[str, str]] = {}
    for name, params, order, text in built:
        key = series_key(name, params, order)
        counts = expected_counts(name, params, order)
        outcome.expect(
            counts is not None and collapse(text, order) == counts,
            f"{key}: wrong counts at x = y = 1",
        )
        outcome.expect(digest(text) == pins.get(key), f"{key}: digest differs from pin")
        if name in ("LHS_THM11", "RHS_THM11"):
            sides.setdefault(order, {})[name] = text
    for order, pair in sorted(sides.items()):
        outcome.expect(
            pair.get("LHS_THM11") == pair.get("RHS_THM11"),
            f"THM11 sides differ at order {order}",
        )


def check_reports(outcome: Outcome, reports: list) -> None:
    """``reports`` holds (name, passed) per checker, in run order."""
    names = [name for name, _passed in reports]
    outcome.expect(names == list(CHECKER_NAMES), f"checkers ran were {names}")
    for name, passed in reports:
        outcome.expect(passed, f"{name} did not PASS")


def check_tallies(outcome: Outcome, tallies: dict, pins: dict) -> None:
    """Per-n tallies of the all, strict and odd families.

    ``all`` rows are (2-measure, length, count); ``strict`` rows (length,
    odd-run count, count); ``type1``/``type2`` rows (2-modular Durfee side,
    sub-side, count); ``alt`` rows (Durfee side, alternating index, count).
    """
    sizes = [int(n) for n in tallies]
    limit = max(sizes, default=0)
    p, q = partition_counts(limit), strict_counts(limit)
    for n in sizes:
        tally = tallies[str(n)]
        strict = {(length, runs): c for length, runs, c in tally["strict"]}
        odd_size = sum(c for _k, _m, c in tally["type1"] + tally["type2"])
        outcome.expect(sum(c for *_key, c in tally["all"]) == p[n], f"n={n}: all != p(n)")
        outcome.expect(sum(strict.values()) == q[n], f"n={n}: strict != q(n)")
        outcome.expect(odd_size == sum(strict.values()), f"n={n}: odd size != strict size")
        # THM12: type I (k, m) <-> 2k parts, 2m odd runs; type II (k, m) <->
        # 2k-1 parts, 2m+1 odd runs.
        mapped = {(2 * k, 2 * m): c for k, m, c in tally["type1"]}
        mapped.update({(2 * k - 1, 2 * m + 1): c for k, m, c in tally["type2"]})
        outcome.expect(mapped == strict, f"n={n}: THM12 cells differ")
        # THM13: alternating index m at side k <-> strict with m odd runs and
        # 2k or 2k-1 parts, whichever shares m's parity.
        mapped = {(2 * k - m % 2, m): c for k, m, c in tally["alt"]}
        outcome.expect(mapped == strict, f"n={n}: THM13 cells differ")
        outcome.expect(
            tally_digest(tally) == pins.get(str(n)), f"n={n}: tally digest differs from pin"
        )
