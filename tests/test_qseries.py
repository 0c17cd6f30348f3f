"""Exact truncated series ring, Pochhammer products, Gaussian binomial
coefficients, named series, and the finite hypergeometric checkers."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from partition_lab import qseries
from partition_lab.core import k_measure, partitions, sol
from partition_lab.qseries import (
    LaurentPoly,
    Monomial,
    MultiSeries,
    build,
    check_qbinom,
    check_qchu,
    check_xq2_expansion,
    pochhammer,
)
from partition_lab.report import Counterexample

ORDER = 8
DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def series_from_terms(entries, order=ORDER):
    return MultiSeries(order, {key: coeff for key, coeff in entries})


small_series = st.builds(
    lambda entries: series_from_terms(entries.items()),
    st.dictionaries(
        st.tuples(
            st.integers(0, ORDER), st.integers(0, 3), st.integers(0, 3)
        ),
        st.integers(-5, 5),
        max_size=6,
    ),
)


def box_partition_count(rows, cols, size):
    """Oracle: partitions of ``size`` with at most ``rows`` parts, each <= cols."""
    return sum(
        1
        for p in partitions(size, max_part=None)
        if p.length <= rows and (not p or p.parts[0] <= cols)
    )


class TestRingOps:
    def test_add_zero(self):
        a = series_from_terms([((1, 1, 0), 2), ((3, 0, 2), -1)])
        assert a + MultiSeries.zero(ORDER) == a

    def test_geometric_inverse(self):
        one_minus_q = MultiSeries(ORDER, {(0, 0, 0): 1, (1, 0, 0): -1})
        geometric = MultiSeries(ORDER, {(n, 0, 0): 1 for n in range(ORDER + 1)})
        assert one_minus_q * geometric == MultiSeries.one(ORDER)

    def test_two_factor_product(self):
        n = 3
        a = MultiSeries.one(n) + MultiSeries.term(1, n, q=1, y=1)
        b = MultiSeries.one(n) + MultiSeries.term(1, n, q=2, y=1)
        product = a * b
        assert product == MultiSeries(
            n, {(0, 0, 0): 1, (1, 0, 1): 1, (2, 0, 1): 1, (3, 0, 2): 1}
        )

    @settings(max_examples=60)
    @given(small_series, small_series, small_series)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiSeries.one(3) + MultiSeries.one(4)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            MultiSeries(3, {(-1, 0, 0): 1})

    def test_constructors_do_not_alias_the_callers_dict(self):
        # the checked constructors keep the caller's keys, in a dict of their
        # own: a change on either side leaves the other as it was
        for make, kept, zero in (
            (lambda terms: MultiSeries(ORDER, terms), {(1, 0, 0): 2, (2, 1, 1): -1}, (3, 0, 0)),
            (LaurentPoly, {(-1, 0): 2, (2, 1): -1}, (3, 0)),
        ):
            given = {**kept, zero: 0}
            built = make(given)
            assert built.terms == kept and built.terms is not given
            given[zero] = 7
            assert built.terms == kept
            built.terms.clear()
            assert given == {**kept, zero: 7}

    def test_scalar_and_pow(self):
        # a series adds and multiplies only another series; an int is not promoted
        a = MultiSeries.term(2, ORDER, q=1)
        with pytest.raises(TypeError):
            3 * a
        with pytest.raises(TypeError):
            a * 3
        with pytest.raises(TypeError):
            a + 3
        with pytest.raises(TypeError):
            3 + a


class TestInvert:
    def test_invert_one(self):
        assert MultiSeries.one(ORDER).invert() == MultiSeries.one(ORDER)

    def test_invert_one_minus_q(self):
        inv = MultiSeries(ORDER, {(0, 0, 0): 1, (1, 0, 0): -1}).invert()
        assert inv == MultiSeries(ORDER, {(n, 0, 0): 1 for n in range(ORDER + 1)})

    def test_invert_q_factorial_counts_bounded_partitions(self):
        # oracle first: coefficients of 1/(q;q)_2 count partitions with parts <= 2
        expected = {
            size: sum(1 for p in partitions(size) if not p or p.parts[0] <= 2)
            for size in range(5)
        }
        assert expected[4] == 3
        product = pochhammer(Monomial(1, q=1), 1, 2, 4)
        inverse = product.invert()
        for size, count in expected.items():
            assert inverse.terms.get((size, 0, 0), 0) == count

    @settings(max_examples=40)
    @given(small_series)
    def test_invert_round_trip(self, a):
        tail = MultiSeries(ORDER, {k: c for k, c in a.terms.items() if k[0] >= 1})
        unit = MultiSeries.one(ORDER) + tail
        negated = MultiSeries(ORDER, {k: -c for k, c in unit.terms.items()})
        for series in (unit, negated):  # constant term +1 and -1
            assert series * series.invert() == MultiSeries.one(ORDER)

    def test_invert_rejects_non_unit(self):
        with pytest.raises(ValueError):
            MultiSeries.term(2, ORDER).invert()
        with pytest.raises(ValueError):
            (MultiSeries.one(ORDER) + MultiSeries.term(1, ORDER, x=1)).invert()


binomial_runs = st.tuples(
    st.sampled_from([1, -1, 2, -3]),
    st.lists(st.integers(0, 3), max_size=3),
    st.integers(0, 3),
    st.integers(0, 2),
)


def one_minus(c, s, a, b):
    """The binomial 1 - c q^s x^a y^b as a series, for the reference paths;
    at (s, a, b) = (0, 0, 0) it is the constant 1 - c."""
    terms = {(0, 0, 0): 1}
    terms[(s, a, b)] = terms.get((s, a, b), 0) - c
    return MultiSeries(ORDER, terms)


class TestBinomialSteps:
    """The two O(terms) binomial runs against products of one-factor
    references, with invert() for division."""

    @settings(max_examples=60)
    @given(small_series, binomial_runs)
    # f holds both k and k + shift, with c != 1
    @example(series_from_terms([((0, 0, 0), 1), ((1, 0, 0), 1)]), (2, [1], 0, 0))
    # coefficients cancel: (1 + q)(1 - q) drops q^1, and (1 - q)/(1 - q) is 1
    @example(series_from_terms([((0, 0, 0), 1), ((1, 0, 0), 1)]), (1, [1], 0, 0))
    @example(series_from_terms([((0, 0, 0), 1), ((1, 0, 0), -1)]), (1, [1], 0, 0))
    # cancel, then refill: dividing 1 - yq by (1 - yq) twice gives 1/(1 - yq);
    # the first shift leaves y q^1 at 0, and the second must fill it once
    @example(series_from_terms([((0, 0, 0), 1), ((1, 0, 1), -1)]), (1, [1, 1], 0, 1))
    # an empty run is a copy
    @example(series_from_terms([((0, 0, 0), 1), ((2, 1, 0), 3)]), (1, [], 0, 0))
    def test_steps_match_products(self, f, run):
        # the steps store their output unchecked, so each result must be
        # what the checked constructor makes of its terms, with no zero
        # kept, in a dict of its own
        c, shifts, a, b = run
        times = over = f
        for s in shifts:
            times = times * one_minus(c, s, a, b)
            if s >= 1:
                over = over * one_minus(c, s, a, b).invert()
        results = [(f._times_binomial(c, shifts, a, b), times)]
        if all(s >= 1 for s in shifts):
            results.append((f._over_binomial(c, shifts, a, b), over))
        for result, reference in results:
            assert result == reference
            assert result == MultiSeries(ORDER, result.terms)
            assert all(result.terms.values())
            assert result.terms is not f.terms

    def test_steps_reject_bad_binomials(self):
        f = MultiSeries.one(ORDER)
        with pytest.raises(ValueError):
            pochhammer(Monomial(1, q=-1), 1, 3, 5)
        # a negative exponent anywhere in the run, also after valid shifts
        for step in (f._times_binomial, f._over_binomial):
            for shifts, a, b in (
                ((-1,), 0, 0), ((1, 2, -1), 0, 0), ((1,), -1, 0), ((1,), 0, -1), ((), -1, 0),
            ):
                with pytest.raises(ValueError):
                    step(1, shifts, a, b)
        # only q is truncated, so s = 0 has no inverse
        for shifts in ((0,), (2, 0)):
            with pytest.raises(ValueError):
                f._over_binomial(1, shifts, 1, 0)

    def test_long_division_run_in_any_order(self):
        # a run of 24 shifts, given ascending, descending and shuffled with a
        # repeated shift, equals dividing by one factor at a time in the
        # order given: taking the largest shift first changes no coefficient
        order = 36
        f = MultiSeries(order, {(0, 0, 0): 1, (3, 1, 0): -2, (5, 0, 1): 1, (7, 2, 1): 3})
        shuffled = [9, 17, 2, 24, 13, 5, 20, 1, 11, 6, 22, 15, 3, 18, 8, 23, 12, 4, 19, 10,
                    14, 7, 21, 16, 5]
        assert sorted(set(shuffled)) == list(range(1, 25)) and len(shuffled) == 25
        for c, a, b in ((1, 0, 1), (-1, 1, 0), (2, 0, 0)):
            for shifts in (range(1, 25), range(24, 0, -1), shuffled):
                one_at_a_time = f
                for s in shifts:
                    one_at_a_time = one_at_a_time._over_binomial(c, (s,), a, b)
                result = f._over_binomial(c, iter(shifts), a, b)
                assert result == one_at_a_time
                assert result == MultiSeries(order, result.terms)
                assert all(result.terms.values())

    def test_no_builder_calls_invert(self, monkeypatch):
        # builders divide only by binomial steps and multiply a series only
        # by a monomial, never by another series
        def refuse(self):
            raise AssertionError("invert() called")

        real_mul = MultiSeries.__mul__

        def monomial_mul(self, other):
            if isinstance(other, MultiSeries) and min(len(self.terms), len(other.terms)) > 1:
                raise AssertionError("series x series product")
            return real_mul(self, other)

        monkeypatch.setattr(MultiSeries, "invert", refuse)
        monkeypatch.setattr(MultiSeries, "__mul__", monomial_mul)
        for name, params in (
            ("LHS_THM11", {}), ("RHS_THM11", {}), ("GF_SOL_LEN", {}), ("GF_KMEASURE", {"k": 3}),
            ("GF_2MEASURE_P", {}), ("GF_A_TYPES", {}), ("GF_B", {}), ("GF_PARITY", {"m": 3}),
        ):
            build(name, 10, **params)
        assert check_qbinom(Monomial(1, q=1), 6)["terms"] > 0


# (e, a, b, i, j) with q^e, i and 2j reaching past ORDER
cell_lists = st.lists(
    st.tuples(
        st.integers(0, ORDER + 2), st.integers(0, 2), st.integers(0, 2),
        st.integers(0, ORDER + 2), st.integers(0, ORDER // 2 + 2),
    ),
    max_size=8,
)


@settings(max_examples=60)
@given(cell_lists)
@example([])
@example([(1, 0, 1, 3, 0), (1, 0, 1, 3, 0), (0, 1, 0, 0, 2)])  # a duplicate, gaps in i and j
@example([(2, 1, 1, ORDER + 1, ORDER // 2 + 1), (ORDER + 1, 0, 0, 1, 1)])
def test_double_sum_matches_inverted_factorials(cells):
    expected = MultiSeries.zero(ORDER)
    for e, a, b, i, j in cells:
        expected = expected + (
            MultiSeries.term(1, ORDER, q=e, x=a, y=b)
            * pochhammer(Monomial(1, q=1), 1, i, ORDER).invert()
            * pochhammer(Monomial(1, q=2), 2, j, ORDER).invert()
        )
    assert qseries._double_sum(ORDER, cells) == expected


class TestPochhammer:
    def test_monomial_defaults_and_fields(self):
        a = Monomial(-1, q=3)
        assert (a.coeff, a.x, a.y, a.q) == (-1, 0, 0, 3)
        assert Monomial(2) == Monomial(2, 0, 0, 0) == Monomial(coeff=2, x=0, y=0, q=0)
        assert hash(Monomial(2, x=1)) == hash(Monomial(2, 1))
        assert repr(Monomial(1, x=1)) == "Monomial(coeff=1, x=1, y=0, q=0)"
        with pytest.raises(AttributeError):
            a.q = 4

    def test_empty_product(self):
        assert pochhammer(Monomial(1, q=1), 1, 0, ORDER) == MultiSeries.one(ORDER)

    def test_x_q2_two_factors(self):
        got = pochhammer(Monomial(1, x=1), 2, 2, ORDER)
        assert got == MultiSeries(
            ORDER, {(0, 0, 0): 1, (0, 1, 0): -1, (2, 1, 0): -1, (2, 2, 0): 1}
        )

    def test_infinite_product_counts_strict_partitions(self):
        # oracle first: (-yq; q)_inf coefficients count strict partitions by length
        order = 3
        expected = {}
        for n in range(order + 1):
            for p in partitions(n, distinct=True):
                key = (n, 0, p.length)
                expected[key] = expected.get(key, 0) + 1
        got = pochhammer(Monomial(-1, y=1, q=1), 1, None, order)
        assert got == MultiSeries(order, expected)

    def test_infinite_product_rejects_unanchored(self):
        with pytest.raises(ValueError):
            pochhammer(Monomial(1), 1, None, ORDER)
        with pytest.raises(ValueError):
            pochhammer(Monomial(1, x=1), 1, None, ORDER)  # x is not truncated

    def test_factors_past_the_order_are_one(self):
        far = pochhammer(Monomial(1, x=1), 2, 10**9, ORDER)
        assert far == pochhammer(Monomial(1, x=1), 2, ORDER + 1, ORDER)

    def test_zero_factor_is_one(self):
        # 1 - 0 q^s is 1, in a finite product and in the infinite one
        assert pochhammer(Monomial(0, q=1), 1, 3, 5) == MultiSeries.one(5)
        assert pochhammer(Monomial(0, q=1), 1, None, 5) == MultiSeries.one(5)

    def test_negative_length_rejected(self):
        # a negative length would silently give the empty product
        with pytest.raises(ValueError):
            pochhammer(Monomial(1, q=1), 1, -3, 5)

    def test_poch_times_inverse(self):
        product = pochhammer(Monomial(1, q=1), 1, 3, ORDER)
        assert product * product.invert() == MultiSeries.one(ORDER)


def gauss(n, i):
    # {exponent: coefficient} of the Gaussian binomial [n, i]
    return {q: c for (q, _x, _y), c in qseries._gauss(n, i).terms.items()}


class TestGaussBinomial:
    def test_choose_zero(self):
        for a in range(5):
            assert gauss(a, 0) == {0: 1}

    def test_two_choose_one(self):
        assert gauss(2, 1) == {0: 1, 1: 1}

    def test_four_choose_two_coefficients(self):
        assert gauss(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}

    def test_palindromic_and_binomial_at_q_one(self):
        for a in range(12):
            for b in range(a + 1):
                coeffs = gauss(a, b)
                top = b * (a - b)
                assert all(coeffs[e] == coeffs[top - e] for e in range(top + 1)), (a, b)
                assert sum(coeffs.values()) == math.comb(a, b), (a, b)

    def test_counts_box_partitions(self):
        for a in range(9):
            for b in range(a + 1):
                coeffs = gauss(a, b)
                # one past the top degree reads 0 by truncation at that degree
                for size in range(b * (a - b) + 2):
                    assert coeffs.get(size, 0) == box_partition_count(
                        b, a - b, size
                    ), (a, b, size)


class TestSerialization:
    def test_line_format_and_sorting(self):
        series = series_from_terms([((2, 1, 0), 3), ((0, 0, 0), 1), ((2, 0, 1), -1)])
        assert series.serialize().splitlines() == [
            "q^0 x^0 y^0 : 1",
            "q^2 x^0 y^1 : -1",
            "q^2 x^1 y^0 : 3",
        ]


class TestBuilders:
    def test_double_sum_at_order_zero(self):
        assert build("LHS_THM11", 0) == MultiSeries.one(0)

    def test_sol_length_coefficient_q6(self):
        # oracle first: strict partitions of 6 classified by (sol, length)
        expected = {}
        for p in partitions(6, distinct=True):
            key = (sol(p), p.length)
            expected[key] = expected.get(key, 0) + 1
        assert expected == {(1, 1): 1, (2, 2): 2, (1, 3): 1}
        series = build("GF_SOL_LEN", 10)
        assert {(x, y): c for (q, x, y), c in series.terms.items() if q == 6} == expected

    def test_parity_series_smallest_case(self):
        series = build("GF_PARITY", 10, m=2)
        assert series.terms.get((2, 0, 0), 0) == 1
        assert series.terms.get((2, 1, 0), 0) == 0
        # the cells stop at the first one past the order, so a huge m is instant
        assert build("GF_PARITY", 5, m=10**9) == MultiSeries.zero(5)

    def test_double_sum_equals_pochhammer_sum(self):
        assert build("LHS_THM11", 14) == build("RHS_THM11", 14)

    def test_double_sum_counts_two_measure(self):
        order = 12
        expected = {}
        for n in range(order + 1):
            for p in partitions(n, distinct=True):
                key = (n, k_measure(p, 2), p.length)
                expected[key] = expected.get(key, 0) + 1
        assert build("LHS_THM11", order) == MultiSeries(order, expected)

    def test_k_measure_series_matches_enumeration(self):
        order = 10
        for k in (1, 2, 3):
            expected = {}
            for n in range(order + 1):
                for p in partitions(n, distinct=True):
                    key = (n, k_measure(p, k), p.length)
                    expected[key] = expected.get(key, 0) + 1
            assert build("GF_KMEASURE", order, k=k) == MultiSeries(order, expected)

    def test_all_partition_series_matches_enumeration(self):
        order = 10
        expected = {}
        for n in range(order + 1):
            for p in partitions(n):
                key = (n, k_measure(p, 2), p.length)
                expected[key] = expected.get(key, 0) + 1
        assert build("GF_2MEASURE_P", order) == MultiSeries(order, expected)

    def test_type_split_series_agree(self):
        order = 12
        a_series = build("GF_A_TYPES", order)
        b_series = build("GF_B", order)
        reindexed_a = build("GF_SOL_LEN", order).map_exponents(
            lambda q, x, y: (q, x // 2, (y + 1) // 2)
        )
        reindexed_b = build("GF_SOL_LEN", order).map_exponents(
            lambda q, x, y: (q, x, (y + 1) // 2)
        )
        assert a_series == reindexed_a
        assert b_series == reindexed_b

    def test_alternating_index_series_from_type_split(self):
        # type II: largest part 2k-1 over q^((k-1)(2k-1)); type I: 2k over q^(k(2k-1))
        order = 40
        expected = MultiSeries.one(order)
        k = 1
        while k * (2 * k - 1) <= order:
            for m, shift in ((2 * k - 1, (k - 1) * (2 * k - 1)), (2 * k, k * (2 * k - 1))):
                head = MultiSeries.term(1, order, q=shift, y=k)
                expected = expected + head * build("GF_PARITY", order, m=m)
            k += 1
        assert build("GF_B", order) == expected

    def test_y_degree_bounded_by_q_degree(self):
        for name in ("LHS_THM11", "RHS_THM11", "GF_SOL_LEN", "GF_2MEASURE_P", "GF_A_TYPES", "GF_B"):
            series = build(name, 10)
            assert all(y <= q for (q, _x, y) in series.terms)

    def test_build_rejects_a_y_exponent_above_q(self, monkeypatch):
        # the check runs in build() itself, for every named series
        def bad(m, order):
            return MultiSeries(order, {(1, 0, 2): 1})

        monkeypatch.setitem(qseries._BUILDERS, "GF_PARITY", (bad, ("m",)))
        with pytest.raises(RuntimeError, match="GF_PARITY has a y-exponent above its q-exponent"):
            build("GF_PARITY", 5, m=1)

    def test_build_validates_arguments(self):
        with pytest.raises(ValueError):
            build("NO_SUCH_SERIES", 5)
        with pytest.raises(ValueError):
            build("GF_KMEASURE", 5)
        with pytest.raises(ValueError):
            build("GF_SOL_LEN", 5, k=2)
        # a bool or a float is not a k or an m, even when it compares as 1
        for bad in (0, True, 1.0, 1.5):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                build("GF_KMEASURE", 5, k=bad)
            with pytest.raises(ValueError, match="m must be a positive integer"):
                build("GF_PARITY", 5, m=bad)

    @pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "5", None])
    def test_build_rejects_an_order_that_is_not_an_int(self, bad):
        # a bool would build a series whose order is True, a float fail
        # inside range(); each names the series, as verify() names a checker
        for name in ("LHS_THM11", "GF_PARITY"):
            params = {"m": 1} if name == "GF_PARITY" else {}
            with pytest.raises(ValueError, match=f"^series {name} needs an integer order, got {bad!r}$"):
                build(name, bad, **params)


def strict_counts(order):
    """q(n) for n <= order: each part used at most once."""
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(order, part - 1, -1):
            counts[n] += counts[n - part]
    return counts


def partition_counts(order):
    """p(n) for n <= order: each part used any number of times."""
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            counts[n] += counts[n - part]
    return counts


def at_x_y_one(series):
    counts = [0] * (series.order + 1)
    for (q, _x, _y), coeff in series.terms.items():
        counts[q] += coeff
    return counts


class TestDeepCrossChecks:
    """Series at x = y = 1 against integer recurrences, far past enumeration."""

    @pytest.mark.parametrize("name", ["GF_SOL_LEN", "GF_A_TYPES", "GF_B"])
    def test_strict_and_odd_series_count_q_n(self, name):
        # strict partitions directly; odd partitions by Euler's theorem
        assert at_x_y_one(build(name, 150)) == strict_counts(150)

    def test_all_partition_series_counts_p_n(self):
        assert at_x_y_one(build("GF_2MEASURE_P", 150)) == partition_counts(150)

    def test_two_measure_sides_agree(self):
        # THM11: the run double sum equals the alternating Pochhammer sum
        assert build("LHS_THM11", 90) == build("RHS_THM11", 90)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_measure_series_count_q_n(self, k):
        assert at_x_y_one(build("GF_KMEASURE", 90, k=k)) == strict_counts(90)

    def test_recurrences(self):
        assert strict_counts(10) == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
        assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_builders_match_benchmark_digests():
    # every pin is a SHA-256 of serialize(); the file is read, never written
    pins = json.loads(DIGESTS.read_text())["series"]
    assert pins
    for key, pin in pins.items():
        name, *fields = key.split()
        params = {k: int(v) for k, v in (field.split("=") for field in fields)}
        text = build(name, **params).serialize()
        assert hashlib.sha256(text.encode()).hexdigest() == pin, key


class TestLaurentPoly:
    def test_negative_exponent_arithmetic(self):
        a = LaurentPoly.term(1, q=-2)
        b = LaurentPoly.term(3, q=5)
        assert a * b == LaurentPoly.term(3, q=3)

    def test_poch_hits_zero_factor(self):
        # (q^0 appearing in the product kills it)
        assert LaurentPoly.poch(1, 0, 1, 1).is_zero()
        assert not LaurentPoly.poch(1, -2, 1, 2).is_zero()
        assert LaurentPoly.poch(1, -2, 1, 3).is_zero()

    @pytest.mark.parametrize("coeff", [1, -1, 2])
    @pytest.mark.parametrize("q_start", [-3, 0, 2])
    def test_poch_is_the_running_product_of_its_factors(self, coeff, q_start):
        # poch's shifted adds against the general product, factor by factor,
        # across cancelling (q^0) and negative q-powers
        for step in (1, 2):
            for x in (0, 1):
                expected = LaurentPoly.one()
                for n in range(7):
                    assert LaurentPoly.poch(coeff, q_start, step, n, x) == expected
                    factor = LaurentPoly.term(coeff, q=q_start + step * n, x=x)
                    expected = expected * (LaurentPoly.one() - factor)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            LaurentPoly({(0, -1): 1})

    @pytest.mark.parametrize("terms", [{(0.5, 0): 1}, {(0, 0): 1.25}, {(True, 0): 1}])
    def test_rejects_a_non_integer_exponent_or_coefficient(self, terms):
        # exact integers only: a float, or a bool passing for an int
        with pytest.raises(ValueError, match="^non-integer term "):
            LaurentPoly(terms)

    def test_poch_rejects_a_negative_length(self):
        # as pochhammer does; a negative length is not the empty product
        for coeff in (1, 0):
            with pytest.raises(ValueError, match="^n must be nonnegative, got -2$"):
                LaurentPoly.poch(coeff, 0, 1, -2)
        assert LaurentPoly.poch(1, 0, 1, 0) == LaurentPoly.one()

    def test_non_polynomial_operands_raise_type_error(self):
        one = LaurentPoly.one()
        for expression in (
            lambda: one + 3, lambda: 3 + one, lambda: one - 3, lambda: one * 3, lambda: 3 * one,
            lambda: one * 2.5, lambda: 2.5 * one, lambda: one + MultiSeries.one(3),
            lambda: one * MultiSeries.one(3),
        ):
            with pytest.raises(TypeError):
                expression()


class TestFiniteIdentities:
    def test_xq2_trivial_case(self):
        assert check_xq2_expansion(0) == {"terms": 1}

    def test_xq2_small_range(self):
        # x^i carries q^(i(i-1)) times a Gaussian binomial in q^2 with
        # i(n - i) + 1 terms, so (x; q^2)_n has n + 1 + C(n + 1, 3) terms
        for n in range(7):
            assert check_xq2_expansion(n) == {"terms": n + 1 + math.comb(n + 1, 3)}

    def test_qchu_example_with_vanishing(self):
        assert check_qchu(2, 3) == {"terms": 0, "vanishes": 1}

    def test_qchu_nonvanishing(self):
        # q^10 (1 - q^-4)(1 - q^-3)(1 - q)(1 - q^2) has seven terms
        assert check_qchu(4, 2) == {"terms": 7, "vanishes": 0}

    def test_qchu_sides_equal_their_product_forms(self, monkeypatch):
        # check_qchu builds each side as one running polynomial through the
        # factor runs; here both are the products of whole Pochhammer
        # polynomials and monomials, for every instance FINITE_LEMMAS checks
        sides = []
        real = qseries.compare_series

        def capture(built, expected, where=""):
            sides.append((built, expected))
            return real(built, expected, where)

        monkeypatch.setattr(qseries, "compare_series", capture)
        poch, term = LaurentPoly.poch, LaurentPoly.term
        for i in range(7):
            for j in range(7):
                lhs = LaurentPoly.zero()
                for n in range(j + 1):
                    lhs = lhs + (
                        poch(-1, i + 1, 1, n)
                        * poch(1, -j, 1, n)
                        * term(1, q=n)
                        * poch(1, 2 * n + 2, 2, j - n)
                    )
                rhs = term(-1 if j % 2 else 1, q=j * (i + 1)) * poch(1, -i, 1, j) * poch(1, 1, 1, j)
                check_qchu(i, j)
                assert sides.pop() == (lhs, rhs), (i, j)

    def test_qbinom_spec_example(self):
        assert check_qbinom(Monomial(1, q=1), 10)["terms"] > 0

    def test_qbinom_compares_up_to_twice_the_order(self, monkeypatch):
        # q^(2N) x^N is the coefficient q^N x^N of the theorem in z = x, which
        # the substitution z = xq moves to q^(2N): a check cut at q^N misses it
        real = qseries.pochhammer

        def skewed(a, step, n, order):
            return real(a, step, n, order) + MultiSeries.term(1, order, q=12, x=6)

        monkeypatch.setattr(qseries, "pochhammer", skewed)
        with pytest.raises(Counterexample) as caught:
            check_qbinom(Monomial(1, q=1), 6)
        assert str(caught.value).startswith("q^12 x^6 y^0:")

    def test_xq2_witness_names_a_coefficient(self, monkeypatch):
        # every Gaussian binomial 1: (x; q^2)_2 keeps -x q^2, the sum loses it
        monkeypatch.setattr(qseries, "_gauss", lambda n, i: MultiSeries.one(0))
        with pytest.raises(Counterexample) as caught:
            check_xq2_expansion(2)
        assert str(caught.value) == "q^2 x^1: built -1, expected 0"

    def test_dispatch(self):
        assert check_xq2_expansion(3) == {"terms": 8}
        assert check_qchu(1, 1) == {"terms": 3, "vanishes": 0}
        assert check_qbinom(Monomial(-1, q=1), 8)["terms"] > 0
