"""Exhaustive partition-family enumeration and one checker per identity.

Every check is exact: families are walked by ``core.partitions`` and
tallied by statistic, the A, B and D cells of the two bivariate
refinements are counted by one tally each, and series are compared
coefficientwise.  Each ``check_*`` returns what it counted, or raises
``Counterexample`` at the first failure; ``verify`` turns either into a
``VerificationReport`` under the checker's name and bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import maps, qseries
from .core import Partition, k_measure, parity_index, partitions, sol
from .qseries import Monomial, MultiSeries
from .report import Counterexample, VerificationReport, compare_series
from .shapes import DurfeeType, alternating_index, dur2, dur2_sub


@dataclass(frozen=True)
class FamilySpec:
    """The partitions of ``n``, restricted to strict ones, odd parts, or both."""

    n: int
    strict: bool = False
    odd_parts: bool = False


def enumerate_family(spec: FamilySpec):
    """``core.partitions`` of spec.n under the family's flags:
    reverse-lexicographic, each partition once."""
    return partitions(spec.n, distinct=spec.strict, odd=spec.odd_parts)


# -- cell tallies -----------------------------------------------------------------


def _tally(family, key) -> dict:
    """How many partitions in ``family`` take each value of ``key(p)``."""
    counts: dict = {}
    for p in family:
        value = key(p)
        counts[value] = counts.get(value, 0) + 1
    return counts


def _strict_cells(n: int) -> dict:
    """Strict partitions of n by (length, odd-run count): the D cells."""
    return _tally(partitions(n, distinct=True), lambda p: (p.length, sol(p)))


def _durfee_cells(n: int) -> dict:
    """Nonempty odd partitions of n by (2-modular Durfee side, type,
    sub-Durfee side): the A cells.  The empty partition has no sub-side."""
    nonempty = (p for p in partitions(n, odd=True) if p)
    return _tally(nonempty, lambda p: (dur2(p), *dur2_sub(p)))


def _alt_cells(n: int) -> dict:
    """Odd partitions of n by (2-modular Durfee side, alternating index):
    the B cells."""
    return _tally(partitions(n, odd=True), lambda p: (dur2(p), alternating_index(p)))


def count_D(n: int, k: int, m: int) -> int:
    """Strict partitions of n with k parts and m odd-length runs."""
    return _strict_cells(n).get((k, m), 0)


def count_A(n: int, k: int, m: int, kind: DurfeeType) -> int:
    """Odd partitions of n of 2-modular type ``kind``, Durfee side k, sub-side m."""
    if not isinstance(kind, DurfeeType):
        raise ValueError(f"kind must be a DurfeeType, got {kind!r}")
    return _durfee_cells(n).get((k, kind, m), 0)


def count_B(n: int, k: int, m: int) -> int:
    """Odd partitions of n with 2-modular Durfee side k, alternating index m."""
    return _alt_cells(n).get((k, m), 0)


def _enumeration_series(order, key, **family) -> MultiSeries:
    """Sum of q^n x^a y^b over ``partitions(n, **family)`` for n <= order,
    where ``key(p)`` gives the exponents (a, b)."""
    terms: dict[tuple[int, int, int], int] = {}
    for n in range(order + 1):
        for (a, b), count in _tally(partitions(n, **family), key).items():
            terms[(n, a, b)] = count
    return MultiSeries(order, terms)


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
    expected = _enumeration_series(order, lambda p: (sol(p), p.length), distinct=True)
    return {"terms": compare_series(built, expected)}


def check_eq31(order: int, k: int | None = None) -> dict:
    """k-measure series against enumeration, for k in {1, 2, 3} by default."""
    ks = (k,) if k is not None else (1, 2, 3)
    terms = 0
    for kk in ks:
        built = qseries.build("GF_KMEASURE", order, k=kk)
        expected = _enumeration_series(
            order, lambda p: (k_measure(p, kk), p.length), distinct=True
        )
        terms += compare_series(built, expected, f"k={kk} ")
    return {"terms": terms}


def check_eq_2measure_p(order: int) -> dict:
    """2-measure series over all partitions against enumeration."""
    built = qseries.build("GF_2MEASURE_P", order)
    expected = _enumeration_series(order, lambda p: (k_measure(p, 2), p.length))
    return {"terms": compare_series(built, expected)}


def _check_cells(name: str, nmax: int, cells) -> dict:
    """Compare count cells for every n in 1..nmax, up to the first mismatch.

    ``cells(n)`` tallies the partitions of n it needs and yields one
    (label, left, right) triple per cell, to be equal.
    """
    if nmax < 1:
        raise ValueError(f"{name} needs nmax >= 1; sizes up to {nmax} hold no cell")
    checked = 0
    for n in range(1, nmax + 1):
        for label, left, right in cells(n):
            checked += 1
            if left != right:
                raise Counterexample(f"n={n} {label}: {left} != {right}")
    return {"cells": checked}


def check_thm12(nmax: int) -> dict:
    """Type I/II Durfee-square counts against strict-partition counts.

    For every cell: type I at (k, m) matches strict partitions with 2k parts
    and 2m odd runs; type II at (k, m) matches 2k-1 parts and 2m+1 odd runs.
    The (k, m) grid is derived from n so no cell is skipped.
    """

    def cells(n):
        strict, odd = _strict_cells(n), _durfee_cells(n)
        for k in range(1, n + 1):
            for m in range(0, k + 1):
                yield (
                    f"type I k={k} m={m}",
                    odd.get((k, DurfeeType.TYPE_I, m), 0),
                    strict.get((2 * k, 2 * m), 0),
                )
                yield (
                    f"type II k={k} m={m}",
                    odd.get((k, DurfeeType.TYPE_II, m), 0),
                    strict.get((2 * k - 1, 2 * m + 1), 0),
                )

    return _check_cells("THM12", nmax, cells)


def check_thm13(nmax: int) -> dict:
    """Alternating-index counts against strict-partition counts.

    A strict partition with k parts and m odd runs forces k and m to share
    parity, so each (k, m) cell of matching parity is compared with the
    alternating-index count at Durfee side ceil(k/2); mismatched-parity
    cells are asserted empty on the strict side.
    """

    def cells(n):
        strict, alt_counts = _strict_cells(n), _alt_cells(n)
        for k in range(1, n + 1):
            for m in range(0, k + 1):
                d = strict.get((k, m), 0)
                if (k - m) % 2:
                    yield f"k={k} m={m} parity mismatch, D vs 0", d, 0
                else:
                    yield f"k={k} m={m} B vs D", alt_counts.get(((k + 1) // 2, m), 0), d

    return _check_cells("THM13", nmax, cells)


def check_corollary(nmax: int) -> dict:
    """Euler refinement through the 2-modular Durfee side.

    Checked in the form the theorems actually sum to: strict partitions with
    2j (resp. 2j-1) parts match odd partitions of type I (resp. type II)
    with Durfee side j, hence strict partitions with 2j-1 or 2j parts match
    odd partitions with Durfee side j.
    """

    def cells(n):
        strict_by_len = _tally(partitions(n, distinct=True), lambda p: p.length)
        odd = _tally(partitions(n, odd=True), lambda p: (dur2(p), dur2_sub(p)[0]))
        for j in range(1, n + 1):
            yield (
                f"j={j} type I vs 2j parts",
                odd.get((j, DurfeeType.TYPE_I), 0),
                strict_by_len.get(2 * j, 0),
            )
            yield (
                f"j={j} type II vs 2j-1 parts",
                odd.get((j, DurfeeType.TYPE_II), 0),
                strict_by_len.get(2 * j - 1, 0),
            )

    return _check_cells("COROLLARY", nmax, cells)


def _check_against_sol_len(order, built, enumerated, reindex) -> dict:
    """``built`` against enumeration, then against GF_SOL_LEN with its
    exponents sent through ``reindex``."""
    terms = compare_series(built, enumerated, "against enumeration: ")
    reindexed = qseries.build("GF_SOL_LEN", order).map_exponents(reindex)
    return {"terms": terms + compare_series(built, reindexed, "against reindexed: ")}


def check_gf4(order: int) -> dict:
    """Durfee-type series against enumeration and the reindexed sol/length series."""
    built = qseries.build("GF_A_TYPES", order)
    enumerated = _enumeration_series(
        order, lambda p: (dur2_sub(p)[1] if p else 0, dur2(p)), odd=True
    )
    return _check_against_sol_len(
        order, built, enumerated, lambda q, x, y: (q, x // 2, (y + 1) // 2)
    )


def check_gf5(order: int) -> dict:
    """Alternating-index series against enumeration and the reindexed series."""
    built = qseries.build("GF_B", order)
    enumerated = _enumeration_series(
        order, lambda p: (alternating_index(p), dur2(p)), odd=True
    )
    return _check_against_sol_len(
        order, built, enumerated, lambda q, x, y: (q, x, (y + 1) // 2)
    )


def check_sylvester(nmax: int) -> dict:
    """Hook bijection: statistics transport plus bijectivity at every size."""
    checked = 0
    for n in range(nmax + 1):
        images = set()
        total = 0
        for p in partitions(n, odd=True):
            total += 1
            image = maps.sylvester(p)
            maps._transported_stats(p, image)
            images.add(image)
            checked += 1
        strict_set = set(partitions(n, distinct=True))
        if images != strict_set or len(images) != total:
            raise Counterexample(f"image of odd partitions of {n} is not all strict partitions")
    return {"partitions": checked}


def check_involution(nmax: int) -> dict:
    """Involution on signed pairs: involutive, weight-preserving,
    sign-reversing off fixed points, cases swapping, and the fixed-point
    weights matching strict partitions by 2-measure and length."""
    pair_count = 0
    for n in range(nmax + 1):
        pairs = maps.enumerate_pairs(n)
        pair_count += len(pairs)
        signed: dict[tuple[int, int], int] = {}
        fixed_pairs = []
        for pair in pairs:
            image = maps.involution_phi(pair)
            back = maps.involution_phi(image)
            if back != pair:
                raise Counterexample(f"phi^2({pair}) = {back}")
            if image.weight != pair.weight:
                raise Counterexample(f"weight changed at {pair}")
            case, _, _ = maps.classify_pair(pair)
            if image == pair:
                if case is not maps.PhiCase.FIXED or pair.sign != 1:
                    raise Counterexample(f"bad fixed point {pair}")
                fixed_pairs.append(pair)
            else:
                icase, _, _ = maps.classify_pair(image)
                expected = (
                    maps.PhiCase.CASE2 if case is maps.PhiCase.CASE1 else maps.PhiCase.CASE1
                )
                if icase is not expected:
                    raise Counterexample(f"case does not swap at {pair}")
                if image.sign != -pair.sign:
                    raise Counterexample(f"sign kept at {pair}")
            x, y, _q = pair.weight
            signed[(x, y)] = signed.get((x, y), 0) + pair.sign
        signed = {k: v for k, v in signed.items() if v}
        fixed_weights = _tally(fixed_pairs, lambda pair: pair.weight[:2])
        strict_weights = _tally(partitions(n, distinct=True), lambda t: (k_measure(t, 2), t.length))
        if signed != strict_weights or fixed_weights != strict_weights:
            raise Counterexample(f"weight sums differ at total size {n}")
        recovered = {maps.strict_to_fixed(t) for t in partitions(n, distinct=True)}
        if recovered != set(fixed_pairs):
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
            for index, count in _tally(rests, lambda rest: parity_index(rest.parts[::-1] + (m,))).items():
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
    n <= 8, q-Chu-Vandermonde for 0 <= i, j <= 6, and the q-binomial theorem
    for the monomials q, q^2 and -q.  A failing instance's witness is
    prefixed by its name and arguments, e.g. ``QCHU i=2 j=3 ``."""
    cases = [("XQ2_EXPANSION", f"n={n}", qseries.check_xq2_expansion, (n,)) for n in range(9)]
    cases += [
        ("QCHU", f"i={i} j={j}", qseries.check_qchu, (i, j)) for i in range(7) for j in range(7)
    ]
    cases += [
        ("QBINOM", f"a={c}*q^{s}", qseries.check_qbinom, (Monomial(c, q=s), order))
        for c, s in ((1, 1), (1, 2), (-1, 1))
    ]
    counts = {"terms": 0}
    for name, label, check, args in cases:
        try:
            got = check(*args)
        except Counterexample as exc:
            raise Counterexample(f"{name} {label} {exc}") from exc
        counts["terms"] += got.get("terms", 0)
        counts[name] = counts.get(name, 0) + 1
    return counts


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
    from .core import parse

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


# smallest bound each keyword may take; below it a checker would check nothing
_LEAST_BOUND = {"nmax": 0, "order": 0, "mmax": 1}


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
