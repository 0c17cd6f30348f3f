"""Exhaustive partition-family enumeration and one checker per identity.

Every check is exact: a checker walks each family and size once with
``core.partitions`` and tallies by statistic (``_enumeration_series``
returns one series per key from that one walk), and series are compared
coefficientwise.  THM12 and THM13 each send an odd partition to one
strict cell (``_thm12_cell``, ``_thm13_cell``), and COROLLARY, GF4 and
GF5 read those cells too.  LEMMA51 walks each size of the rest below
one largest part once and tops each rest with every largest part m it
allows.  FINITE_LEMMAS compares the sides ``qseries`` returns for each
terminating identity.  Each ``check_*`` returns what it counted, or
raises ``Counterexample`` at the first failure (``compare_series`` names
the first coefficient where two series differ); ``verify`` alone turns
either into a ``VerificationReport`` under the checker's name and bounds.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict, namedtuple

from . import maps, qseries
from .core import Partition, k_measure, parity_index, parse, partitions, sol
from .qseries import Monomial, MultiSeries
from .shapes import DurfeeType, alternating_index, dur2, dur2_sub

_BOUND_LABELS = {"nmax": "n", "order": "order", "mmax": "m", "k": "k"}


class Counterexample(Exception):
    """The first case a check found where its identity fails; the
    exception's text is the report's witness."""


class VerificationReport:
    """Outcome of one exact check, carrying a reproducible witness on failure.

    ``params`` and ``counts`` default to a fresh dict each.  Equality
    ignores ``elapsed_s``, which ``verify`` sets; a report is
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

    def line(self) -> str:
        """One-line machine-readable verdict, e.g. ``THM12 n<=26 PASS``: each
        param as an upper bound, under its ``_BOUND_LABELS`` label or its name."""
        words = [self.name]
        words += [f"{_BOUND_LABELS.get(key, key)}<={value}" for key, value in self.params.items()]
        return " ".join(words + [self.status])

    def text(self) -> str:
        """The verdict line, and under a failing one its witness."""
        witness = "" if self.witness is None else f"\n  counterexample: {self.witness}"
        return self.line() + witness

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
    if built.terms == expected.terms:
        return len(built.terms)
    for key in sorted(built.terms.keys() | expected.terms.keys()):
        a, b = built.terms.get(key, 0), expected.terms.get(key, 0)
        if a != b:
            named = " ".join(f"{var}^{exp}" for var, exp in zip("qxy", key))
            raise Counterexample(f"{where}{named}: built {a}, expected {b}")
    return len(built.terms)


class FamilySpec(namedtuple("FamilySpec", ("n", "strict", "odd_parts"), defaults=(False, False))):
    """The partitions of ``n``, restricted to strict ones, odd parts, or both."""

    __slots__ = ()


def enumerate_family(spec: FamilySpec):
    """``core.partitions`` of spec.n under the family's flags:
    reverse-lexicographic, each partition once."""
    return partitions(spec.n, distinct=spec.strict, odd=spec.odd_parts)


def _enumeration_series(order, key, **family) -> list[MultiSeries]:
    """One series per exponent pair in the flat tuple ``key(p)``, (a1, b1,
    a2, b2, ...): series i sums q^n x^ai y^bi over ``partitions(n, **family)``
    for n <= order.  One walk of each size tallies every pair.  A negative
    exponent raises ``Counterexample`` naming the first partition whose key
    gives one."""
    terms: defaultdict[int, Counter] = defaultdict(Counter)
    for n in range(order + 1):
        for cell, count in Counter(map(key, partitions(n, **family))).items():
            if min(cell) < 0:
                p = next(p for p in partitions(n, **family) if min(key(p)) < 0)
                raise Counterexample(f"{p}: key {cell} has a negative exponent")
            for i in range(0, len(cell), 2):
                terms[i][(n, cell[i], cell[i + 1])] += count
    return [MultiSeries(order, series) for series in terms.values()]


def _strict_cell(p) -> tuple[int, int]:
    """A strict partition's cell (odd runs, parts), as GF_SOL_LEN weights it."""
    return sol(p), p.length


def _thm12_cell(p) -> tuple[int, int]:
    """THM12's strict cell of an odd partition: (2m + t, 2k - t) at
    2-modular Durfee side k, sub-side m and type t, 0 for I and 1 for II;
    the empty partition at (0, 0)."""
    if not p:
        return 0, 0
    kind, m = dur2_sub(p)
    t = kind is DurfeeType.TYPE_II
    return 2 * m + t, 2 * dur2(p) - t


def _thm13_cell(p) -> tuple[int, int]:
    """THM13's strict cell of an odd partition: (alt, 2k - alt % 2) at
    2-modular Durfee side k and alternating index alt."""
    alt = alternating_index(p)
    return alt, 2 * dur2(p) - alt % 2


# -- checkers -------------------------------------------------------------------


def check_prop_2measure(nmax: int) -> dict:
    """2 * (2-measure) = length + odd-run count on every strict partition."""
    checked = 0
    for n in range(nmax + 1):
        for p in partitions(n, distinct=True):
            checked += 1
            if 2 * k_measure(p, 2) != p.length + sol(p):
                raise Counterexample(str(p))
    return {"partitions": checked}


def check_thm11(order: int) -> dict:
    """Double-sum series equals the Pochhammer-sum series coefficientwise."""
    lhs = qseries.build("LHS_THM11", order)
    rhs = qseries.build("RHS_THM11", order)
    return {"terms": compare_series(lhs, rhs)}


def check_eq11(order: int) -> dict:
    """Built sol/length series equals direct enumeration over strict partitions."""
    built = qseries.build("GF_SOL_LEN", order)
    (expected,) = _enumeration_series(order, _strict_cell, distinct=True)
    return {"terms": compare_series(built, expected)}


def check_eq31(order: int, k: int) -> dict:
    """k-measure series against enumeration for every k' = 1, ..., k, all
    from one walk; a failing k' prefixes its witness, e.g. ``k=2 ``."""

    def key(p):
        cell = ()
        for kk in range(1, k + 1):
            cell += (k_measure(p, kk), p.length)
        return cell

    terms = 0
    for kk, expected in enumerate(_enumeration_series(order, key, distinct=True), 1):
        built = qseries.build("GF_KMEASURE", order, k=kk)
        terms += compare_series(built, expected, f"k={kk} ")
    return {"terms": terms}


def check_eq_2measure_p(order: int) -> dict:
    """2-measure series over all partitions against enumeration."""
    built = qseries.build("GF_2MEASURE_P", order)
    (expected,) = _enumeration_series(order, lambda p: (k_measure(p, 2), p.length))
    return {"terms": compare_series(built, expected)}


def _check_cells(nmax: int, odd_key, strict_key) -> dict:
    """Odd partitions tallied by ``odd_key`` against strict partitions
    tallied by ``strict_key``, each an exponent pair (x, y), as series to
    order ``nmax``; the count is the cells the odd side holds."""
    (odd,) = _enumeration_series(nmax, odd_key, odd=True)
    (strict,) = _enumeration_series(nmax, strict_key, distinct=True)
    return {"cells": compare_series(odd, strict, "odd against strict: ")}


def check_thm12(nmax: int) -> dict:
    """Odd partitions at their 2-modular Durfee cell (``_thm12_cell``)
    against strict partitions at (odd runs, parts)."""
    return _check_cells(nmax, _thm12_cell, _strict_cell)


def check_thm13(nmax: int) -> dict:
    """Odd partitions at their alternating-index cell (``_thm13_cell``)
    against strict partitions at (odd runs, parts).  A strict partition's
    parts and odd runs share parity, so a strict cell of mixed parity has
    no odd preimage and fails against 0."""
    return _check_cells(nmax, _thm13_cell, _strict_cell)


def check_corollary(nmax: int) -> dict:
    """Euler refinement through the 2-modular Durfee side: THM12's cell
    without its odd runs, against strict partitions by parts, so strict
    partitions with 2j - 1 or 2j parts match odd partitions of side j."""
    return _check_cells(nmax, lambda p: (0, _thm12_cell(p)[1]), lambda p: (0, p.length))


def _check_refinement(order: int, cell, name: str, reindex) -> dict:
    """Odd partitions tallied at ``cell`` against GF_SOL_LEN, then the
    built series ``name`` against that tally sent through ``reindex``."""
    (odd,) = _enumeration_series(order, cell, odd=True)
    sol_len = qseries.build("GF_SOL_LEN", order)
    terms = compare_series(odd, sol_len, "odd against GF_SOL_LEN: ")
    built = qseries.build(name, order)
    terms += compare_series(built, odd.map_exponents(reindex), "against enumeration: ")
    return {"terms": terms}


def check_gf4(order: int) -> dict:
    """GF_A_TYPES through THM12's cell: the odd tally at ``_thm12_cell``
    is GF_SOL_LEN, and sent to (x // 2, ceil(y/2)) it is GF_A_TYPES.  That
    reindex forgets only the type t, as (2m + t) // 2 = m and
    ceil((2k - t)/2) = k; the full-grain comparison sees it."""
    return _check_refinement(
        order, _thm12_cell, "GF_A_TYPES", lambda q, x, y: (q, x // 2, (y + 1) // 2)
    )


def check_gf5(order: int) -> dict:
    """GF_B through THM13's cell: the odd tally at ``_thm13_cell`` is
    GF_SOL_LEN, and sent to (x, ceil(y/2)) it is GF_B.  That reindex loses
    nothing: a strict partition's parts and odd runs share parity, so
    len = 2 ceil(len/2) - sol % 2 on GF_SOL_LEN's support."""
    return _check_refinement(order, _thm13_cell, "GF_B", lambda q, x, y: (q, x, (y + 1) // 2))


def _transported_stats(p: Partition, image: Partition) -> dict:
    # the statistics Sylvester's map transports from the odd partition p to
    # its image sylvester(p): Durfee side against half the image length,
    # the alternating index against the image's odd-run count, and the
    # three hook-length relations tying consecutive readings to part
    # multiplicities and gaps.  Returns an empty count, or raises
    # Counterexample naming p and every relation that fails; the hook
    # relations index the readings by the Durfee side, so a wrong side is
    # reported alone.
    if not p:
        return {}
    k = dur2(p)
    if k != (image.length + 1) // 2:
        raise Counterexample(f"{p}: Durfee side {k} != ceil(len/2) {(image.length + 1) // 2}")
    # the hook readings: the image's parts, with the trailing zero that
    # maps.sylvester drops put back when the length is odd
    ell = list(image.parts) + [0] * (image.length % 2)
    problems: list[str] = []
    if alternating_index(p) != sol(image):
        problems.append(
            f"alt {alternating_index(p)} != sol(image) {sol(image)}"
        )
    for i in range(1, k):
        if ell[2 * i - 2] - ell[2 * i - 1] - 1 != p.multiplicity(2 * i - 1):
            problems.append(f"l{2 * i - 1}-l{2 * i}-1 != multiplicity of {2 * i - 1}")
    if ell[2 * k - 1] != 0:
        if ell[2 * k - 2] - ell[2 * k - 1] - 1 != p.multiplicity(2 * k - 1):
            problems.append(f"l{2 * k - 1}-l{2 * k}-1 != multiplicity of {2 * k - 1}")
        if p.parts[k - 1] <= 2 * k - 1:
            problems.append(f"nonzero l{2 * k} but row {k} does not exceed the square")
    for i in range(1, k):
        gap = p.parts[i - 1] - p.parts[i]
        if ell[2 * i - 1] - ell[2 * i] - 1 != gap // 2:
            problems.append(f"l{2 * i}-l{2 * i + 1}-1 != half gap at row {i}")
    if problems:
        raise Counterexample(f"{p}: " + "; ".join(problems))
    return {}


def check_sylvester(nmax: int) -> dict:
    """Hook bijection: statistics transport plus bijectivity at every size.

    Images and strict partitions are compared as sets of part tuples:
    partitions are equal exactly when their parts are."""
    checked = 0
    for n in range(nmax + 1):
        images = set()
        start = checked
        for p in partitions(n, odd=True):
            image = maps.sylvester(p)
            _transported_stats(p, image)
            images.add(image.parts)
            checked += 1
        strict_set = {p.parts for p in partitions(n, distinct=True)}
        if images != strict_set or len(images) != checked - start:
            raise Counterexample(f"image of odd partitions of {n} is not all strict partitions")
    return {"partitions": checked}


def check_involution(nmax: int) -> dict:
    """Involution on signed pairs: involutive, weight-preserving,
    sign-reversing off fixed points, cases swapping, and the fixed-point
    weights matching strict partitions by 2-measure and length.

    The signed weights of size n, the sum of sign x^x y^y over every pair
    of that size, are tallied before any pair is streamed.  A pair's x
    and sign are its labeled side's, and its y is the sum of both sides'
    lengths, so the sum over the pairs (lam, eta) with |lam| = s and
    |eta| = n - s factors: tally the strict partitions of s by length,
    the labeled partitions of n - s by (x, length) weighted by sign, and
    add the products of the two tallies at x and the summed length.  Over
    s = 0..n that is the same sum, term for term, as over every pair the
    stream yields, and it must equal the strict partitions of n counted
    by 2-measure and length.

    Pairs are streamed, not listed, from the strict and the labeled
    partitions of each size, listed once and shared across sizes.  Each
    pair is classified once, and each pair's image is computed once.  A
    fixed pair must be its own image.  A case-1 pair p must map to a
    case-2 pair of the same weight and the opposite sign, and phi of that
    image must be p again.  That phi^2 = id makes phi one-to-one from case
    1 into case 2, and equal counts of the two cases at each size make it
    onto; so every case-2 pair q is phi(p) for exactly one case-1 p, and
    phi(q) = p has been computed and checked there.  A case-2 pair thus
    only adds to its case's count."""
    case1, case2, fixed = maps.PhiCase.CASE1, maps.PhiCase.CASE2, maps.PhiCase.FIXED
    pair_count = 0
    strict: list[list[Partition]] = []
    labeled: list[list[maps.LabeledPartition]] = []
    lengths: list[Counter] = []  # strict[s] by length
    signs: list[Counter] = []  # labeled[m] by (x, length), weighted by sign
    for n in range(nmax + 1):
        strict.append(list(partitions(n, distinct=True)))
        labeled.append(maps.enumerate_labeled(n))
        lengths.append(Counter(lam.length for lam in strict[n]))
        tally = Counter()
        for eta in labeled[n]:
            tally[(eta.x_count, eta.length)] += eta.sign
        signs.append(tally)
        signed = Counter()
        for s in range(n + 1):
            for (x, eta_length), sign_sum in signs[n - s].items():
                for lam_length, count in lengths[s].items():
                    signed[(x, lam_length + eta_length)] += count * sign_sum
        strict_weights = Counter((k_measure(t, 2), t.length) for t in strict[n])
        if signed != strict_weights:
            raise Counterexample(f"weight sums differ at total size {n}")
        case1_count = case2_count = 0
        fixed_pairs = []
        for pair in maps._pairs(n, strict, labeled):
            pair_count += 1
            case = maps.classify_pair(pair)[0]
            if case is case2:
                case2_count += 1
                continue
            phi_case, image = maps.involution_phi(pair)
            if case is fixed:
                if image != pair:
                    raise Counterexample(f"case does not swap at {pair}")
                if phi_case is not fixed or pair.sign != 1:
                    raise Counterexample(f"bad fixed point {pair}")
                fixed_pairs.append(pair)
                continue
            case1_count += 1
            image_case, back = maps.involution_phi(image)
            if back != pair:
                raise Counterexample(f"phi^2({pair}) = {back}")
            if image.weight != pair.weight:
                raise Counterexample(f"weight changed at {pair}")
            if phi_case is not case1 or image_case is not case2:
                raise Counterexample(f"case does not swap at {pair}")
            if image.sign != -pair.sign:
                raise Counterexample(f"sign kept at {pair}")
        if case1_count != case2_count:
            raise Counterexample(f"case 1 and case 2 counts differ at total size {n}")
        fixed_weights = Counter(pair.weight[:2] for pair in fixed_pairs)
        if fixed_weights != strict_weights:
            raise Counterexample(f"weight sums differ at total size {n}")
        if {maps.strict_to_fixed(t) for t in strict[n]} != set(fixed_pairs):
            raise Counterexample(f"fixed points at size {n} are not the strict partitions")
        for pair in fixed_pairs:
            if maps.strict_to_fixed(maps.fixed_to_strict(pair)) != pair:
                raise Counterexample(f"fixed-point round trip fails at {pair}")
    return {"pairs": pair_count}


def check_lemma51(mmax: int, order: int) -> dict:
    """Parity-index series over fixed largest part against enumeration,
    plus the odd-gap decomposition round trip on every partition of
    n <= 14, whatever the bounds.

    A partition with largest part m is one largest part m on top of a rest
    whose parts are at most m.  Each rest size s < order is walked once,
    capped at min(mmax, order - s), and tallied by (t, i): t is the rest's
    largest part (0 when empty), i the parity index of its ascending
    scan 0, parts.  Topping the rest with m >= t adds one last step from t
    to m, so the rest counts at q^(s+m) x^(i + (m - t) % 2) in series m
    for every m from max(t, 1) up to the cap."""
    if order < mmax:
        raise ValueError(f"LEMMA51 needs order >= mmax, got order {order} < mmax {mmax}")
    terms: list[Counter] = [Counter() for _m in range(mmax + 1)]
    for s in range(order):
        cap = min(mmax, order - s)
        tally = Counter(
            (rest.parts[0] if rest.parts else 0, parity_index(rest.parts[::-1]))
            for rest in partitions(s, max_part=cap)
        )
        for (t, i), count in tally.items():
            for m in range(max(t, 1), cap + 1):
                terms[m][(s + m, i + (m - t) % 2, 0)] += count
    compared = 0
    for m in range(1, mmax + 1):
        built = qseries.build("GF_PARITY", order, m=m)
        compared += compare_series(built, MultiSeries(order, terms[m]), f"m={m} ")
    round_trips = 0
    for n in range(15):
        for p in partitions(n):
            sigma, tau = maps.lemma51_decompose(p)
            if maps.lemma51_compose(sigma, tau) != p:
                raise Counterexample(f"round trip at {p}")
            round_trips += 1
    return {"terms": compared, "round_trips": round_trips}


def check_glaisher_counterexample() -> dict:
    """Glaisher's map fixes 11+3+1 yet lands outside the strict family with
    3 parts and 1 odd run (its odd-run count is 3).

    The iterated Dyson map, the other classical odd-to-strict bijection,
    also misses that family, sending 11+3+1 to 12+3; it is not implemented
    here and this note records the reference value only.
    """
    source = Partition((11, 3, 1))
    image = maps.glaisher(source)
    if not (image == source and image.is_strict() and image.length == 3 and sol(image) == 3):
        raise Counterexample(f"glaisher(11+3+1) = {image}, sol = {sol(image)}")
    return {"partitions": 1}


def check_finite_lemmas(order: int) -> dict:
    """Bundle of the terminating identities, each instance's two sides from
    ``qseries`` compared: the (x; q^2)_n expansion for n <= 8,
    q-Chu-Vandermonde for 0 <= i, j <= 6, and the q-binomial theorem for
    the monomials q, q^2 and -q.  A row's vanishing rule, (its text,
    whether both sides vanish), is QCHU's j > i; ``vanishes`` counts the
    instances whose sides do.  The counts add up the terms, then count the
    instances by name.  A failing instance's witness is prefixed by its
    name and arguments, e.g. ``QCHU i=2 j=3 ``."""
    cases = [("XQ2_EXPANSION", f"n={n}", qseries.xq2_sides, (n,), None) for n in range(9)]
    cases += [
        ("QCHU", f"i={i} j={j}", qseries.qchu_sides, (i, j), ("j > i", j > i))
        for i in range(7) for j in range(7)
    ]
    cases += [
        ("QBINOM", f"a={c}*q^{s}", qseries.qbinom_sides, (Monomial(c, q=s), order), None)
        for c, s in ((1, 1), (1, 2), (-1, 1))
    ]
    totals, instances = Counter(), Counter()
    for name, label, sides, args, vanishing in cases:
        where = f"{name} {label} "
        lhs, rhs = sides(*args)
        totals["terms"] += compare_series(lhs, rhs, where)
        if vanishing:
            rule, vanishes = vanishing
            if lhs.is_zero() != vanishes:
                said = "do not vanish" if vanishes else "vanish"
                raise Counterexample(
                    f"{where}both sides {said}, but they vanish exactly when {rule}"
                )
            totals["vanishes"] += vanishes
        instances[name] += 1
    return {**totals, **instances}


# -- example sets ----------------------------------------------------------------

_EXAMPLE_SETS = {
    "16-4-2": {
        "A": [
            "5+5+3+1+1+1",
            "5+5+1+1+1+1+1+1",
            "7+5+3+1",
            "7+5+1+1+1+1",
            "9+5+1+1",
            "7+7+1+1",
        ],
        "B": [
            "5+5+3+3",
            "5+5+3+1+1+1",
            "5+5+1+1+1+1+1+1",
            "7+5+1+1+1+1",
            "9+5+1+1",
            "7+7+1+1",
        ],
        "D": [
            "10+3+2+1",
            "9+4+2+1",
            "8+5+2+1",
            "8+4+3+1",
            "7+4+3+2",
            "6+5+4+1",
        ],
    },
    "15-3-1": {
        "A": [
            "11+3+1",
            "9+3+1+1+1",
            "7+3+1+1+1+1+1",
            "5+3+1+1+1+1+1+1+1",
            "3+3+1+1+1+1+1+1+1+1+1",
        ],
        "B": [
            "9+3+3",
            "3+3+3+3+3",
            "3+3+3+3+1+1+1",
            "3+3+3+1+1+1+1+1+1",
            "3+3+1+1+1+1+1+1+1+1+1",
        ],
        "D": [
            "12+2+1",
            "10+3+2",
            "8+4+3",
            "7+6+2",
            "6+5+4",
        ],
    },
}

EXAMPLE_PRESETS = tuple(_EXAMPLE_SETS)


def example_sets(preset: str) -> dict[str, list[Partition]]:
    """The worked example families, keyed "A", "B", "D", in printed order.

    "16-4-2" carries the type I family at Durfee side 2, sub-side 1; "15-3-1"
    the type II family at Durfee side 2, sub-side 0.
    """
    try:
        raw = _EXAMPLE_SETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; choose from {EXAMPLE_PRESETS}") from None
    return {key: [parse(text) for text in values] for key, values in raw.items()}


# -- registry ---------------------------------------------------------------------

# name -> (function, {bound: (least, desk, deep)}), a value per PROFILES
# entry; every bound is an upper bound (EQ31 checks k' = 1, ..., k).  Below
# its least value a bound would check nothing, or, for k, ask for a
# k-measure that does not exist; LEMMA51's order >= mmax, which relates two
# bounds, is its checker's own.  Desk values finish comfortably on a laptop,
# deep ones in seconds; deep nmax 45 = 9+9+9+9+9 is the first size with
# 2-modular Durfee side 5.
PROFILES = ("desk", "deep")
CHECKERS = {
    "PROP_2MEASURE": (check_prop_2measure, {"nmax": (0, 40, 60)}),
    "THM11": (check_thm11, {"order": (0, 30, 60)}),
    "EQ11": (check_eq11, {"order": (0, 25, 60)}),
    "EQ31": (check_eq31, {"order": (0, 22, 40), "k": (1, 3, 3)}),
    "EQ_2MEASURE_P": (check_eq_2measure_p, {"order": (0, 20, 50)}),
    "THM12": (check_thm12, {"nmax": (0, 26, 45)}),
    "THM13": (check_thm13, {"nmax": (0, 26, 45)}),
    "COROLLARY": (check_corollary, {"nmax": (0, 26, 45)}),
    "GF4": (check_gf4, {"order": (0, 25, 40)}),
    "GF5": (check_gf5, {"order": (0, 25, 40)}),
    "SYLVESTER": (check_sylvester, {"nmax": (0, 26, 45)}),
    "INVOLUTION": (check_involution, {"nmax": (0, 12, 18)}),
    "LEMMA51": (check_lemma51, {"mmax": (1, 10, 14), "order": (1, 30, 50)}),
    "GLAISHER_COUNTEREX": (check_glaisher_counterexample, {}),
    "FINITE_LEMMAS": (check_finite_lemmas, {"order": (0, 15, 45)}),
}


def verify(name: str, profile: str = "desk", **bounds) -> VerificationReport:
    """Run one named checker, using its row's ``profile`` value for any
    bound left unset or ``None``.

    The checker's ``CHECKERS`` row names the bounds it accepts, and this is
    the one place a given bound is checked: known, an int and not a bool,
    and at least its least value (the tests pin the row's own values).  The
    report carries the checker's name and bounds, and its counts, or the
    witness of the ``Counterexample`` it raised; ``elapsed_s`` is the
    checker's wall time.  Any other exception propagates.
    """
    try:
        func, limits = CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown checker {name!r}; choose from {tuple(CHECKERS)}") from None
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    column = PROFILES.index(profile) + 1
    kwargs = {key: row[column] for key, row in limits.items()}
    for key, value in bounds.items():
        if value is None:
            continue
        if key not in limits:
            raise ValueError(f"checker {name} does not accept bound {key!r}")
        if type(value) is not int:  # bool is an int subclass
            raise ValueError(f"checker {name} needs an integer {key}, got {value!r}")
        least = limits[key][0]
        if value < least:
            raise ValueError(f"checker {name} needs {key} >= {least}, got {value}")
        kwargs[key] = value
    start = time.perf_counter()
    try:
        counts, witness = func(**kwargs), None
    except Counterexample as exc:
        counts, witness = {}, str(exc)
    return VerificationReport(name, kwargs, witness, counts, time.perf_counter() - start)


def verify_all(profile: str = "desk"):
    """Run every checker at profile bounds; reports come back in fixed order."""
    return [verify(name, profile) for name in CHECKERS]
