"""Exhaustive partition-family enumeration and one checker per identity.

Every check is exact: a checker walks each family and size once with
``core.partitions`` and tallies by statistic (``_enumeration_series``
returns one series per key from that one walk), and series are compared
coefficientwise.  THM12, THM13 and COROLLARY tally odd partitions by the
strict cell their Durfee statistics name, strict partitions by that cell's
statistics, and compare the two.  Each ``check_*`` returns what it counted,
or raises ``Counterexample`` at the first failure; ``verify`` turns either
into a ``VerificationReport`` under the checker's name and bounds.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict, namedtuple

from . import maps, qseries
from .core import Partition, k_measure, parity_index, parse, partitions, sol
from .qseries import Monomial, MultiSeries
from .report import Counterexample, VerificationReport, compare_series
from .shapes import DurfeeType, alternating_index, dur2, dur2_sub


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
    for n <= order.  One walk of each size tallies every pair."""
    terms: defaultdict[int, Counter] = defaultdict(Counter)
    for n in range(order + 1):
        for cell, count in Counter(map(key, partitions(n, **family))).items():
            for i in range(0, len(cell), 2):
                terms[i][(n, cell[i], cell[i + 1])] += count
    return [MultiSeries(order, series) for series in terms.values()]


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
    (expected,) = _enumeration_series(order, lambda p: (sol(p), p.length), distinct=True)
    return {"terms": compare_series(built, expected)}


def check_eq31(order: int, k: int | None = None) -> dict:
    """k-measure series against enumeration, k in {1, 2, 3} by default, all from one walk."""
    ks = (k,) if k is not None else (1, 2, 3)

    def key(p):
        cell = ()
        for kk in ks:
            cell += (k_measure(p, kk), p.length)
        return cell

    terms = 0
    for kk, expected in zip(ks, _enumeration_series(order, key, distinct=True)):
        built = qseries.build("GF_KMEASURE", order, k=kk)
        terms += compare_series(built, expected, f"k={kk} ")
    return {"terms": terms}


def check_eq_2measure_p(order: int) -> dict:
    """2-measure series over all partitions against enumeration."""
    built = qseries.build("GF_2MEASURE_P", order)
    (expected,) = _enumeration_series(order, lambda p: (k_measure(p, 2), p.length))
    return {"terms": compare_series(built, expected)}


def _check_cells(name: str, nmax: int, odd_key, strict_key) -> dict:
    """Odd partitions tallied by ``odd_key`` against strict partitions
    tallied by ``strict_key``, for every n in 1..nmax, over the cells either
    side holds, up to the first cell where the counts differ."""
    if nmax < 1:
        raise ValueError(f"{name} needs nmax >= 1; sizes up to {nmax} hold no cell")
    checked = 0
    for n in range(1, nmax + 1):
        odd = Counter(map(odd_key, partitions(n, odd=True)))
        strict = Counter(map(strict_key, partitions(n, distinct=True)))
        for cell in sorted(odd.keys() | strict.keys()):
            checked += 1
            a, b = odd[cell], strict[cell]
            if a != b:
                raise Counterexample(f"n={n} cell {cell}: odd {a} != strict {b}")
    return {"cells": checked}


def check_thm12(nmax: int) -> dict:
    """Type I/II Durfee-square counts against strict-partition counts.

    Odd partitions are tallied by their strict-side cell: type I at Durfee
    side k, sub-side m goes to (2k, 2m), type II to (2k-1, 2m+1).  Strict
    partitions are tallied by (parts, odd runs).
    """

    def odd_key(p):
        kind, m = dur2_sub(p)
        type_ii = kind is DurfeeType.TYPE_II
        return 2 * dur2(p) - type_ii, 2 * m + type_ii

    return _check_cells("THM12", nmax, odd_key, lambda p: (p.length, sol(p)))


def check_thm13(nmax: int) -> dict:
    """Alternating-index counts against strict-partition counts.

    Odd partitions with Durfee side k and alternating index m are tallied
    at (2k - m % 2, m), strict partitions by (parts, odd runs).  A strict
    partition's parts and odd runs share parity, so a strict cell of mixed
    parity has no odd preimage and fails against 0.
    """

    def odd_key(p):
        m = alternating_index(p)
        return 2 * dur2(p) - m % 2, m

    return _check_cells("THM13", nmax, odd_key, lambda p: (p.length, sol(p)))


def check_corollary(nmax: int) -> dict:
    """Euler refinement through the 2-modular Durfee side.

    Checked in the form the theorems actually sum to: odd partitions with
    Durfee side j are tallied at 2j parts if of type I and 2j-1 if of type
    II, strict partitions by their number of parts; hence strict partitions
    with 2j-1 or 2j parts match odd partitions with Durfee side j.
    """

    def odd_key(p):
        return 2 * dur2(p) - (dur2_sub(p)[0] is DurfeeType.TYPE_II)

    return _check_cells("COROLLARY", nmax, odd_key, lambda p: p.length)


def _check_against_sol_len(order, built, enumerated, reindex) -> dict:
    """``built`` against enumeration, then against GF_SOL_LEN with its
    exponents sent through ``reindex``."""
    terms = compare_series(built, enumerated, "against enumeration: ")
    reindexed = qseries.build("GF_SOL_LEN", order).map_exponents(reindex)
    return {"terms": terms + compare_series(built, reindexed, "against reindexed: ")}


def check_gf4(order: int) -> dict:
    """Durfee-type series against enumeration and the reindexed sol/length series."""
    built = qseries.build("GF_A_TYPES", order)
    (enumerated,) = _enumeration_series(
        order, lambda p: (dur2_sub(p)[1] if p else 0, dur2(p)), odd=True
    )
    return _check_against_sol_len(
        order, built, enumerated, lambda q, x, y: (q, x // 2, (y + 1) // 2)
    )


def check_gf5(order: int) -> dict:
    """Alternating-index series against enumeration and the reindexed series."""
    built = qseries.build("GF_B", order)
    (enumerated,) = _enumeration_series(
        order, lambda p: (alternating_index(p), dur2(p)), odd=True
    )
    return _check_against_sol_len(
        order, built, enumerated, lambda q, x, y: (q, x, (y + 1) // 2)
    )


def _transported_stats(p: Partition, image: Partition) -> dict:
    # the statistics Sylvester's map transports from the odd partition p to
    # its image sylvester(p): Durfee side against half the image length,
    # the alternating index against the image's odd-run count, and the
    # three hook-length relations tying consecutive readings to part
    # multiplicities and gaps.  Returns an empty count, or raises
    # Counterexample naming p and every relation that fails.
    if not p:
        return {}
    # the hook readings: the image's parts, with the trailing zero that
    # maps.sylvester drops put back when the length is odd
    ell = list(image.parts) + [0] * (image.length % 2)
    k = dur2(p)
    problems: list[str] = []
    if k != (image.length + 1) // 2:
        problems.append(f"Durfee side {k} != ceil(len/2) {(image.length + 1) // 2}")
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
    """Hook bijection: statistics transport plus bijectivity at every size."""
    checked = 0
    for n in range(nmax + 1):
        images = set()
        total = 0
        for p in partitions(n, odd=True):
            total += 1
            image = maps.sylvester(p)
            _transported_stats(p, image)
            images.add(image)
            checked += 1
        strict_set = set(partitions(n, distinct=True))
        if images != strict_set or len(images) != total:
            raise Counterexample(f"image of odd partitions of {n} is not all strict partitions")
    return {"partitions": checked}


_SWAPPED = {maps.PhiCase.CASE1: maps.PhiCase.CASE2, maps.PhiCase.CASE2: maps.PhiCase.CASE1}


def check_involution(nmax: int) -> dict:
    """Involution on signed pairs: involutive, weight-preserving,
    sign-reversing off fixed points, cases swapping, and the fixed-point
    weights matching strict partitions by 2-measure and length.

    Pairs are streamed, not listed, from the strict and the labeled
    partitions of each size, listed once and shared across sizes.  Each
    pair and its image are classified once; the two cases serve every check."""
    pair_count = 0
    strict: list[list[Partition]] = []
    labeled: list[list[maps.LabeledPartition]] = []
    for n in range(nmax + 1):
        strict.append(list(partitions(n, distinct=True)))
        labeled.append(maps.enumerate_labeled(n))
        signed = Counter()
        fixed_weights = Counter()
        fixed_pairs = []
        for pair in maps._pairs(n, strict, labeled):
            pair_count += 1
            x, y, _q = weight = pair.weight
            sign = pair.sign
            case, image = maps.involution_phi(pair)
            icase, back = maps.involution_phi(image)
            if back != pair:
                raise Counterexample(f"phi^2({pair}) = {back}")
            if image.weight != weight:
                raise Counterexample(f"weight changed at {pair}")
            if image == pair:
                if case is not maps.PhiCase.FIXED or sign != 1:
                    raise Counterexample(f"bad fixed point {pair}")
                fixed_pairs.append(pair)
                fixed_weights[(x, y)] += 1
            else:
                if icase is not _SWAPPED[case]:
                    raise Counterexample(f"case does not swap at {pair}")
                if image.sign != -sign:
                    raise Counterexample(f"sign kept at {pair}")
            signed[(x, y)] += sign
        strict_weights = Counter((k_measure(t, 2), t.length) for t in strict[n])
        if signed != strict_weights or fixed_weights != strict_weights:
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
    n <= 14, whatever the bounds."""
    if order < mmax:
        raise ValueError(f"LEMMA51 needs order >= mmax, got order {order} < mmax {mmax}")
    compared = 0
    for m in range(1, mmax + 1):
        built = qseries.build("GF_PARITY", order, m=m)
        terms: dict[tuple[int, int, int], int] = {}
        for n in range(m, order + 1):
            rests = partitions(n - m, max_part=m)  # every part but one largest m
            indices = Counter(parity_index(rest.parts[::-1] + (m,)) for rest in rests)
            for index, count in indices.items():
                terms[(n, index, 0)] = count
        compared += compare_series(built, MultiSeries(order, terms), f"m={m} ")
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
    """Bundle of the terminating identities: the (x; q^2)_n expansion for
    n <= 8, q-Chu-Vandermonde for 0 <= i, j <= 6, which must vanish exactly
    when j > i, and the q-binomial theorem for the monomials q, q^2 and -q.
    The counts add up every instance's counts by key, then count the
    instances by name.  A failing instance's witness is prefixed by its
    name and arguments, e.g. ``QCHU i=2 j=3 ``."""
    cases = [("XQ2_EXPANSION", f"n={n}", qseries.check_xq2_expansion, (n,)) for n in range(9)]
    cases += [
        ("QCHU", f"i={i} j={j}", qseries.check_qchu, (i, j)) for i in range(7) for j in range(7)
    ]
    cases += [
        ("QBINOM", f"a={c}*q^{s}", qseries.check_qbinom, (Monomial(c, q=s), order))
        for c, s in ((1, 1), (1, 2), (-1, 1))
    ]
    totals, instances = Counter(), Counter()
    for name, label, check, args in cases:
        try:
            totals.update(check(*args))
        except Counterexample as exc:
            raise Counterexample(f"{name} {label} {exc}") from exc
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


def example_sets(preset: str) -> dict[str, list[Partition]]:
    """The worked example families, keyed "A", "B", "D", in printed order.

    "16-4-2" carries the type I family at Durfee side 2, sub-side 1; "15-3-1"
    the type II family at Durfee side 2, sub-side 0.
    """
    try:
        raw = _EXAMPLE_SETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; choose from {tuple(_EXAMPLE_SETS)}") from None
    return {key: [parse(text) for text in values] for key, values in raw.items()}


# -- registry ---------------------------------------------------------------------

# name -> (function, accepted bound keywords)
CHECKERS = {
    "PROP_2MEASURE": (check_prop_2measure, ("nmax",)),
    "THM11": (check_thm11, ("order",)),
    "EQ11": (check_eq11, ("order",)),
    "EQ31": (check_eq31, ("order", "k")),
    "EQ_2MEASURE_P": (check_eq_2measure_p, ("order",)),
    "THM12": (check_thm12, ("nmax",)),
    "THM13": (check_thm13, ("nmax",)),
    "COROLLARY": (check_corollary, ("nmax",)),
    "GF4": (check_gf4, ("order",)),
    "GF5": (check_gf5, ("order",)),
    "SYLVESTER": (check_sylvester, ("nmax",)),
    "INVOLUTION": (check_involution, ("nmax",)),
    "LEMMA51": (check_lemma51, ("mmax", "order")),
    "GLAISHER_COUNTEREX": (check_glaisher_counterexample, ()),
    "FINITE_LEMMAS": (check_finite_lemmas, ("order",)),
}

# bounds chosen to finish comfortably on a laptop
DESK_PROFILE = {
    "PROP_2MEASURE": {"nmax": 40},
    "THM11": {"order": 30},
    "EQ11": {"order": 25},
    "EQ31": {"order": 22},
    "EQ_2MEASURE_P": {"order": 20},
    "THM12": {"nmax": 26},
    "THM13": {"nmax": 26},
    "COROLLARY": {"nmax": 26},
    "GF4": {"order": 25},
    "GF5": {"order": 25},
    "SYLVESTER": {"nmax": 26},
    "INVOLUTION": {"nmax": 12},
    "LEMMA51": {"mmax": 10, "order": 30},
    "GLAISHER_COUNTEREX": {},
    "FINITE_LEMMAS": {"order": 15},
}


# smallest value each bound may take; below it a checker would check nothing,
# or, for k, ask for a k-measure that does not exist
_LEAST_BOUND = {"nmax": 0, "order": 0, "k": 1, "mmax": 1}


def verify(name: str, **bounds) -> VerificationReport:
    """Run one named checker, using desk-profile bounds for anything unset.

    The report carries the checker's name and bounds, and its counts, or
    the witness of the ``Counterexample`` it raised; ``elapsed_s`` is the
    checker's wall time.  Any other exception propagates.
    """
    try:
        func, accepted = CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown checker {name!r}; choose from {tuple(CHECKERS)}") from None
    kwargs = dict(DESK_PROFILE.get(name, {}))
    for key, value in bounds.items():
        if value is None:
            continue
        if key not in accepted:
            raise ValueError(f"checker {name} does not accept bound {key!r}")
        kwargs[key] = value
    for key, value in kwargs.items():
        if type(value) is not int:  # bool is an int subclass
            raise ValueError(f"checker {name} needs an integer {key}, got {value!r}")
        least = _LEAST_BOUND.get(key)
        if least is not None and value < least:
            raise ValueError(f"checker {name} needs {key} >= {least}, got {value}")
    start = time.perf_counter()
    try:
        counts, witness = func(**kwargs), None
    except Counterexample as exc:
        counts, witness = {}, str(exc)
    return VerificationReport(name, kwargs, witness, counts, time.perf_counter() - start)


def verify_all(profile: str = "desk"):
    """Run every checker at profile bounds; reports come back in fixed order."""
    if profile != "desk":
        raise ValueError(f"unknown profile {profile!r}")
    return [verify(name) for name in CHECKERS]
