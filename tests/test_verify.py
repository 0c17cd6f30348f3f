"""Family enumeration, checkers, example sets, and guards on who may call
what in the package source."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import partition_lab
from partition_lab import maps, qseries
from partition_lab import verify as verify_module
from partition_lab.core import parity_index, parse, partitions, runs, sol
from partition_lab.qseries import LaurentPoly, MultiSeries
from partition_lab.report import Counterexample, VerificationReport, compare_series
from partition_lab.shapes import DurfeeType, alternating_index, dur2, dur2_sub
from partition_lab.verify import (
    CHECKERS,
    FamilySpec,
    _check_cells,
    _thm12_cell,
    _thm13_cell,
    enumerate_family,
    example_sets,
    verify,
    verify_all,
)


def _package_uses(matches):
    """(file name, innermost enclosing function, node) for every node of the
    package's source that ``matches``."""
    uses = []
    for path in sorted(Path(partition_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if matches(node):
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(inside, key=lambda f: f.lineno) if inside else None
                uses.append((path.name, owner and owner.name, node))
    return uses


def _swapping_fixed_pairs(phi):
    # phi, but sending the fixed pairs of 5+1 and 4+2, both of weight
    # (2, 2, 6), to each other
    a, b = (maps.strict_to_fixed(parse(t)) for t in ("5+1", "4+2"))
    swap = {a: b, b: a}
    return lambda pair: phi(swap.get(pair, pair))


def _calling_0_3_case2(classify):
    # classify_pair, but calling the case-1 pair (0, 3) case 2
    moved = maps.parse_pair("0|3")

    def wrong(pair):
        case, a, b = classify(pair)
        return (maps.PhiCase.CASE2 if pair == moved else case), a, b

    return wrong


def _calling_type_ii_from_side_2_type_i(dur2_sub):
    # dur2_sub, but calling every type II partition of 2-modular side >= 2
    # type I, its sub-side kept
    def wrong(p):
        kind, m = dur2_sub(p)
        if kind is DurfeeType.TYPE_II and dur2(p) >= 2:
            kind = DurfeeType.TYPE_I
        return kind, m

    return wrong


def _checkers_reading(name):
    """The ``CHECKERS`` whose function reads ``name`` from verify's namespace,
    itself or through verify's module-level helpers."""
    tree = ast.parse(Path(verify_module.__file__).read_text())
    reads = {
        f.name: {node.id for node in ast.walk(f) if isinstance(node, ast.Name)}
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
    }

    def reaches(func):
        return name in reads[func] or any(reaches(h) for h in reads[func] & reads.keys() - {func})

    return [checker for checker, (func, _limits) in CHECKERS.items() if reaches(func.__name__)]


class TestEnumerate:
    def test_strict_partitions_of_six(self):
        got = list(enumerate_family(FamilySpec(6, strict=True)))
        assert got == [parse("6"), parse("5+1"), parse("4+2"), parse("3+2+1")]

    def test_odd_partitions_of_five(self):
        got = list(enumerate_family(FamilySpec(5, odd_parts=True)))
        assert got == [parse("5"), parse("3+1+1"), parse("1+1+1+1+1")]

    def test_strict_four_parts_two_odd_runs_of_sixteen(self):
        got = {p for p in partitions(16, distinct=True) if p.length == 4 and sol(p) == 2}
        assert got == {
            parse("10+3+2+1"),
            parse("9+4+2+1"),
            parse("8+5+2+1"),
            parse("8+4+3+1"),
            parse("7+4+3+2"),
            parse("6+5+4+1"),
        }

    def test_strict_odd_partitions_of_nine(self):
        got = list(enumerate_family(FamilySpec(9, strict=True, odd_parts=True)))
        assert got == [parse("9"), parse("5+3+1")]

    def test_determinism(self):
        spec = FamilySpec(12, odd_parts=True)
        assert list(enumerate_family(spec)) == list(enumerate_family(spec))

    def test_family_spec_fields(self):
        # called as the benchmark's enumerate_deep workload calls it
        strict, odd = FamilySpec(7, strict=True), FamilySpec(7, odd_parts=True)
        assert (strict.n, strict.strict, strict.odd_parts) == (7, True, False)
        assert (odd.n, odd.strict, odd.odd_parts) == (7, False, True)
        assert FamilySpec(7) == FamilySpec(7, False, False) != strict
        assert len({FamilySpec(7), FamilySpec(7, False, False), strict, odd}) == 3
        assert repr(strict) == "FamilySpec(n=7, strict=True, odd_parts=False)"
        with pytest.raises(AttributeError):
            strict.n = 8


class TestCounts:
    def test_parity_constraint_on_strict_counts(self):
        # THM13 relies on it: a strict cell (parts, odd runs) of mixed parity
        # holds no strict partition
        for n in range(1, 15):
            for p in partitions(n, distinct=True):
                assert (p.length - sol(p)) % 2 == 0, p


class TestCheckers:
    @pytest.mark.parametrize(
        "name,bounds",
        [
            ("PROP_2MEASURE", {"nmax": 16}),
            ("THM11", {"order": 12}),
            ("EQ11", {"order": 10}),
            ("EQ31", {"order": 8}),
            ("EQ_2MEASURE_P", {"order": 8}),
            ("THM12", {"nmax": 12}),
            ("THM13", {"nmax": 12}),
            ("COROLLARY", {"nmax": 12}),
            ("GF4", {"order": 10}),
            ("GF5", {"order": 10}),
            ("SYLVESTER", {"nmax": 12}),
            ("INVOLUTION", {"nmax": 8}),
            ("LEMMA51", {"mmax": 4, "order": 12}),
            ("GLAISHER_COUNTEREX", {}),
            ("FINITE_LEMMAS", {"order": 8}),
        ],
    )
    def test_each_checker_passes_small(self, name, bounds):
        report = verify(name, **bounds)
        assert report.passed, report.witness

    @pytest.mark.parametrize("name", list(CHECKERS))
    def test_each_checker_counts_something_at_least_bounds(self, name):
        least = {key: low for key, (low, _desk, _deep) in CHECKERS[name][1].items()}
        report = verify(name, **least)
        assert report.passed, report.witness
        assert report.params == least
        assert report.counts and all(count > 0 for count in report.counts.values())

    @pytest.mark.parametrize(
        "name,key",
        [(name, key) for name, (_func, limits) in CHECKERS.items() for key in limits],
    )
    def test_bound_below_least_is_rejected(self, name, key):
        least = CHECKERS[name][1][key][0]
        with pytest.raises(ValueError, match=f"^checker {name} needs {key} >= {least}, got {least - 1}$"):
            verify(name, **{key: least - 1})

    def test_unknown_checker_and_bad_bound(self):
        with pytest.raises(ValueError):
            verify("NOPE")
        with pytest.raises(ValueError):
            verify("THM11", nmax=5)
        # a bool would run as 0 or 1 and pass; a float or a string is no bound
        for bad in (True, 2.5, "3"):
            with pytest.raises(ValueError, match=f"checker THM12 needs an integer nmax, got {bad!r}"):
                verify("THM12", nmax=bad)

    def test_report_params_are_the_bounds_run_at(self):
        assert verify("EQ31").params == {"order": 22}
        assert verify("EQ31", order=5, k=2).params == {"order": 5, "k": 2}
        assert verify("LEMMA51", mmax=2).params == {"mmax": 2, "order": 30}
        assert verify("THM12", profile="deep").params == {"nmax": 45}
        # an explicit bound wins over the profile's, the other bound is the profile's
        assert verify("THM12", "deep", nmax=3).params == {"nmax": 3}
        assert verify("LEMMA51", "deep", order=14).params == {"mmax": 14, "order": 14}
        with pytest.raises(ValueError, match="^unknown profile 'nonsense'"):
            verify("THM12", profile="nonsense")
        with pytest.raises(ValueError, match="^unknown profile 'nonsense'"):
            verify_all("nonsense")

    def test_bound_rows_rise_from_least_to_desk_to_deep(self):
        for name, (_func, limits) in CHECKERS.items():
            for key, (least, desk, deep) in limits.items():
                if (name, key) == ("EQ31", "k"):  # both leave k to the checker
                    assert desk is deep is None
                else:
                    assert least <= desk <= deep, (name, key)
        # 45 = 9+9+9+9+9 is the first size with 2-modular Durfee side 5,
        # k(2k - 1) at k = 5, so deep reaches it on the odd-partition side
        assert dur2(parse("9+9+9+9+9")) == 5
        assert all(dur2(p) < 5 for n in range(45) for p in partitions(n, odd=True))
        for name in ("THM12", "THM13", "COROLLARY", "SYLVESTER"):
            assert CHECKERS[name][1]["nmax"][2] >= 5 * (2 * 5 - 1), name

    def test_trivial_order_zero(self):
        assert verify("THM11", order=0).passed

    def test_verify_records_elapsed_time(self):
        report = verify("THM12", nmax=5)
        assert isinstance(report.elapsed_s, float) and report.elapsed_s >= 0
        assert report.to_dict()["elapsed_s"] == report.elapsed_s
        # the time is not part of a report's identity
        untimed = VerificationReport(report.name, report.params, report.witness, report.counts)
        assert untimed.elapsed_s is None and report == untimed

    @pytest.mark.parametrize(
        "stat,name,bounds,line,witness",
        [
            ("k_measure", "PROP_2MEASURE", {"nmax": 5}, "PROP_2MEASURE n<=5 FAIL", "1"),
            (
                "k_measure",
                "EQ31",
                {"order": 5},
                "EQ31 order<=5 FAIL",
                "k=1 q^1 x^0 y^1: built 0, expected 1",
            ),
            (
                "sol",
                "THM12",
                {"nmax": 3},
                "THM12 n<=3 FAIL",
                "odd against strict: q^1 x^0 y^1: built 0, expected 1",
            ),
            (
                "dur2",
                "GF4",
                {"order": 5},
                "GF4 order<=5 FAIL",
                # the odd partition 1, of type II, sits at 2 * 0 - 1 parts
                "1: key (1, -1) has a negative exponent",
            ),
            (
                "parity_index",
                "LEMMA51",
                {"mmax": 3, "order": 5},
                "LEMMA51 m<=3 order<=5 FAIL",
                # the empty rest's index is 0 either way, and the top step
                # still gives q^1 index 1; the rest 1 of q^2 is the first
                # one the broken index reads
                "m=1 q^2 x^0 y^0: built 0, expected 1",
            ),
            ("sol", "EQ11", {"order": 5}, "EQ11 order<=5 FAIL", "q^1 x^0 y^1: built 0, expected 1"),
            (
                "k_measure",
                "EQ_2MEASURE_P",
                {"order": 5},
                "EQ_2MEASURE_P order<=5 FAIL",
                "q^1 x^0 y^1: built 0, expected 1",
            ),
            (
                "k_measure",
                "INVOLUTION",
                {"nmax": 3},
                "INVOLUTION n<=3 FAIL",
                "weight sums differ at total size 1",
            ),
            (
                "alternating_index",
                "THM13",
                {"nmax": 3},
                "THM13 n<=3 FAIL",
                "odd against strict: q^1 x^0 y^2: built 1, expected 0",
            ),
            (
                "alternating_index",
                "GF5",
                {"order": 5},
                "GF5 order<=5 FAIL",
                "odd against GF_SOL_LEN: q^1 x^0 y^2: built 1, expected 0",
            ),
            (
                "dur2",
                "COROLLARY",
                {"nmax": 3},
                "COROLLARY n<=3 FAIL",
                "1: key (0, -1) has a negative exponent",
            ),
        ],
    )
    def test_broken_statistic_fails_with_bounds_and_witness(
        self, monkeypatch, stat, name, bounds, line, witness
    ):
        # the line names only the requested bounds; a sub-loop index or the
        # series compared against goes into the witness prefix
        monkeypatch.setattr(verify_module, stat, lambda *args: 0)
        report = verify(name, **bounds)
        assert report.line() == line
        assert report.witness == witness
        assert report.params == bounds and report.counts == {}
        assert isinstance(report.elapsed_s, float)

    @pytest.mark.parametrize(
        "owner,attr,fault,name,bounds,line,witness",
        [
            (
                qseries,
                "build_k_measure_gf",
                lambda real: lambda k, order: real(k + 1, order),
                "THM11",
                {"order": 5},
                "THM11 order<=5 FAIL",
                "q^4 x^1 y^2: built 0, expected 1",
            ),
            (
                # GF_SOL_LEN weighted by the 2-measure: GF_B still matches
                # the reindexed odd tally, so only the comparison of that
                # tally with GF_SOL_LEN can fail
                qseries,
                "build_run_double_sum_gf",
                lambda real: lambda order, x_weight: real(order, lambda i, j: i + j),
                "GF5",
                {"order": 5},
                "GF5 order<=5 FAIL",
                "odd against GF_SOL_LEN: q^3 x^0 y^2: built 1, expected 0",
            ),
            (
                verify_module,
                "alternating_index",
                lambda real: lambda p: real(p) + (p.size == 7),
                "SYLVESTER",
                {"nmax": 8},
                "SYLVESTER n<=8 FAIL",
                "7: alt 1 != sol(image) 0",
            ),
            (
                # one k's statistic off at two parts only: the joint tally
                # must keep k = 3's cells out of the k = 1 and 2 series
                verify_module,
                "k_measure",
                lambda real: lambda p, k: real(p, k) + (k == 3 and p.length == 2),
                "EQ31",
                {"order": 6},
                "EQ31 order<=6 FAIL",
                "k=3 q^3 x^1 y^2: built 1, expected 0",
            ),
            (
                maps,
                "glaisher",
                lambda real: maps.sylvester,
                "GLAISHER_COUNTEREX",
                {},
                "GLAISHER_COUNTEREX FAIL",
                "glaisher(11+3+1) = 8+6+1, sol = 3",
            ),
            (
                # a product that drops the sign of its coefficient leaves
                # (x; q^2)_n alone and breaks the (-q^(i+1); q)_n factors
                LaurentPoly,
                "poch",
                lambda real: classmethod(
                    lambda cls, coeff, *rest, **kw: real(abs(coeff), *rest, **kw)
                ),
                "FINITE_LEMMAS",
                {"order": 5},
                "FINITE_LEMMAS order<=5 FAIL",
                "QCHU i=0 j=1 q^1 x^0: built 2, expected 0",
            ),
            (
                qseries,
                "pochhammer",
                lambda real: lambda a, step, n, order: (
                    real(a, step, n, order) + MultiSeries.term(1, order, q=12, x=6)
                ),
                "FINITE_LEMMAS",
                {"order": 6},
                "FINITE_LEMMAS order<=6 FAIL",
                "QBINOM a=1*q^1 q^12 x^6 y^0: built 0, expected 1",
            ),
            (
                # a phi that moves two fixed pairs of one weight onto each
                # other: reported, not a KeyError
                maps,
                "involution_phi",
                _swapping_fixed_pairs,
                "INVOLUTION",
                {"nmax": 6},
                "INVOLUTION n<=6 FAIL",
                "case does not swap at (0, 5x+1x)",
            ),
            (
                # one case-1 pair called case 2, by phi too: every pair's own
                # checks pass, only the two case counts differ
                maps,
                "classify_pair",
                _calling_0_3_case2,
                "INVOLUTION",
                {"nmax": 5},
                "INVOLUTION n<=5 FAIL",
                "case 1 and case 2 counts differ at total size 3",
            ),
            (
                # one labeled partition's sign flipped: the signed weights,
                # tallied per size before any pair streams, catch it at its
                # own size, ahead of the sign checks on its pairs
                maps.LabeledPartition,
                "sign",
                lambda real: property(
                    lambda eta: -real.fget(eta) if str(eta) == "3+1x" else real.fget(eta)
                ),
                "INVOLUTION",
                {"nmax": 6},
                "INVOLUTION n<=6 FAIL",
                "weight sums differ at total size 4",
            ),
            (
                # sol 3 too low from three parts on: 3+2+1's key (-2, 3) is
                # a FAIL naming it, not MultiSeries' ValueError
                verify_module,
                "sol",
                lambda real: lambda p: real(p) - 3 * (p.length >= 3),
                "EQ11",
                {"order": 25},
                "EQ11 order<=25 FAIL",
                "3+2+1: key (-2, 3) has a negative exponent",
            ),
            (
                # a wrong Durfee side fails before the hook readings it
                # indexes, not with an IndexError
                verify_module,
                "dur2",
                lambda real: lambda p: real(p) + (bool(p) and p.parts[0] >= 21),
                "SYLVESTER",
                {"nmax": 26},
                "SYLVESTER n<=26 FAIL",
                "21: Durfee side 2 != ceil(len/2) 1",
            ),
        ],
    )
    def test_broken_layer_fails_with_bounds_and_witness(
        self, monkeypatch, owner, attr, fault, name, bounds, line, witness
    ):
        # a fault in one layer: a builder, a map, a statistic at one size
        # only, or the arithmetic of a finite lemma; the witness names the
        # failing case
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        report = verify(name, **bounds)
        assert report.line() == line
        assert report.witness == witness
        assert report.params == bounds and report.counts == {}

    @pytest.mark.parametrize(
        "name,bounds",
        [
            ("EQ31", {"order": 7}),
            ("EQ31", {"order": 7, "k": 2}),
            ("EQ11", {"order": 7}),
            ("EQ_2MEASURE_P", {"order": 7}),
            ("GF4", {"order": 7}),
            ("GF5", {"order": 7}),
        ],
    )
    def test_series_checker_walks_each_size_once(self, monkeypatch, name, bounds):
        # one walk of each size serves every key: EQ31 tallies k = 1, 2
        # and 3 from the same strict partitions, not one walk per k
        walked = []
        real = verify_module.partitions

        def counted(n, **family):
            walked.append(n)
            return real(n, **family)

        monkeypatch.setattr(verify_module, "partitions", counted)
        assert verify(name, **bounds)
        assert walked == list(range(bounds["order"] + 1))

    def test_lemma51_walks_each_rest_size_once(self, monkeypatch):
        # one capped walk of each rest size serves every largest part m,
        # then the round trips walk n <= 14 unrestricted
        walked = []
        real = verify_module.partitions

        def counted(n, **family):
            walked.append((n, family))
            return real(n, **family)

        monkeypatch.setattr(verify_module, "partitions", counted)
        assert verify("LEMMA51", mmax=4, order=12)
        rests = [(s, {"max_part": min(4, 12 - s)}) for s in range(12)]
        assert walked == rests + [(n, {}) for n in range(15)]

    def test_lemma51_against_a_tally_of_whole_partitions(self, monkeypatch):
        # the oracle scans each whole partition 0, parts ascending, so it
        # checks the rest tally's last step from the rest's largest part t
        # to m, and each partition is counted once under its own m
        order = 18
        real_build = qseries.build
        built_for = []

        def oracle(name, order_, **params):
            if name != "GF_PARITY":
                return real_build(name, order_, **params)
            built_for.append(params["m"])
            terms = Counter(
                (n, parity_index(p.parts[::-1]), 0)
                for n in range(order_ + 1)
                for p in partitions(n)
                if p.parts and p.parts[0] == params["m"]
            )
            return MultiSeries(order_, terms)

        monkeypatch.setattr(qseries, "build", oracle)
        report = verify("LEMMA51", mmax=6, order=order)
        assert report.passed, report.witness
        assert built_for == [1, 2, 3, 4, 5, 6]

    def test_verify_all_runs_every_checker(self, monkeypatch):
        # shrink the bounds so the full sweep stays fast
        small = {
            "PROP_2MEASURE": {"nmax": 10},
            "THM11": {"order": 8},
            "EQ11": {"order": 8},
            "EQ31": {"order": 6},
            "EQ_2MEASURE_P": {"order": 6},
            "THM12": {"nmax": 8},
            "THM13": {"nmax": 8},
            "COROLLARY": {"nmax": 8},
            "GF4": {"order": 8},
            "GF5": {"order": 8},
            "SYLVESTER": {"nmax": 8},
            "INVOLUTION": {"nmax": 6},
            "LEMMA51": {"mmax": 3, "order": 8},
            "GLAISHER_COUNTEREX": {},
            "FINITE_LEMMAS": {"order": 6},
        }
        for name, bounds in small.items():
            func, limits = CHECKERS[name]
            rows = {
                key: (least, bounds.get(key, desk), deep)
                for key, (least, desk, deep) in limits.items()
            }
            monkeypatch.setitem(CHECKERS, name, (func, rows))
        reports = verify_all()
        assert [r.name.split()[0] for r in reports] == list(CHECKERS)
        assert all(reports)

    @pytest.mark.parametrize("name", ["THM12", "THM13", "COROLLARY"])
    def test_cell_count_is_the_cells_a_passing_check_compares(self, name):
        # a passing check compares each strict cell that occurs, once per
        # size from n = 0 on: the (odd runs, parts) pairs, odd runs counted
        # from runs, not sol, or for COROLLARY the lengths
        def cell(p):
            odd_runs = sum(1 for run in runs(p) if len(run) % 2)
            return p.length if name == "COROLLARY" else (odd_runs, p.length)

        expected = 0
        for nmax in range(13):
            expected += len({cell(p) for p in partitions(nmax, distinct=True)})
            assert verify(name, nmax=nmax).counts == {"cells": expected}

    def test_check_cells_fails_on_a_cell_only_one_side_holds(self):
        # by largest part, n <= 1 matches, but at n = 2 the odd 1+1 sits at
        # x^1 and the strict 2 at x^2; by the rest beside the largest part,
        # the strict 2 sits at x^0 and sorts before the odd 1+1 at x^1
        def largest(p):
            return (p.parts[0] if p else 0), 0

        def rest(p):
            return p.size - largest(p)[0], 0

        assert _check_cells(1, largest, largest) == _check_cells(1, rest, rest) == {"cells": 2}
        with pytest.raises(Counterexample) as odd_only:
            _check_cells(3, largest, largest)
        assert str(odd_only.value) == "odd against strict: q^2 x^1 y^0: built 1, expected 0"
        with pytest.raises(Counterexample) as strict_only:
            _check_cells(3, rest, rest)
        assert str(strict_only.value) == "odd against strict: q^2 x^0 y^0: built 0, expected 1"

    @pytest.mark.parametrize(
        "zero,witness",
        [
            # both sides equal, so only the vanishing check can fail
            (False, "QCHU i=0 j=1 both sides do not vanish, but they vanish exactly when j > i"),
            (True, "QCHU i=0 j=0 both sides vanish, but they vanish exactly when j > i"),
        ],
    )
    def test_finite_lemmas_fail_when_qchu_vanishes_off_j_above_i(
        self, monkeypatch, zero, witness
    ):
        monkeypatch.setattr(LaurentPoly, "is_zero", lambda self: zero)
        report = verify("FINITE_LEMMAS", order=4)
        assert report.line() == "FINITE_LEMMAS order<=4 FAIL"
        assert report.witness == witness and report.counts == {}

    def test_involution_goes_through_the_public_phi(self, monkeypatch):
        # the benchmark traces maps.involution_phi, so the checker must call
        # that name, and on each pair exactly once: on a case-1 pair, on its
        # image (the case-2 pairs) and on a fixed pair
        from partition_lab.verify import check_involution

        calls = []
        real = maps.involution_phi

        def counted(pair):
            calls.append(pair)
            return real(pair)

        monkeypatch.setattr(maps, "involution_phi", counted)
        counts = check_involution(8)
        every_pair = Counter(pair for n in range(9) for pair in maps.enumerate_pairs(n))
        assert Counter(calls) == every_pair
        assert counts["pairs"] == len(calls) > 0

    def test_every_desk_report_counts_what_it_checked(self):
        # what the enumeration-side checkers and FINITE_LEMMAS check at desk
        # bounds, pinned so that a cell or term loop that silently checks less
        # fails here
        pinned = {
            "EQ11": {"terms": 157},
            "EQ31": {"terms": 340},
            "EQ_2MEASURE_P": {"terms": 457},
            "THM12": {"cells": 168},
            "THM13": {"cells": 168},
            "COROLLARY": {"cells": 107},
            "GF4": {"terms": 272},
            "GF5": {"terms": 314},
            "SYLVESTER": {"partitions": 1069},
            "INVOLUTION": {"pairs": 4158},
            "LEMMA51": {"terms": 545, "round_trips": 508},
            "FINITE_LEMMAS": {
                "terms": 1312,
                "vanishes": 21,
                "XQ2_EXPANSION": 9,
                "QCHU": 49,
                "QBINOM": 3,
            },
        }
        reports = verify_all("desk")
        for report in reports:
            assert report.passed, report.line()
            assert report.counts and all(v > 0 for v in report.counts.values()), report.line()
            assert isinstance(report.elapsed_s, float) and report.elapsed_s >= 0, report.line()
        assert {r.name: r.counts for r in reports if r.name in pinned} == pinned

    @pytest.mark.deep
    def test_every_deep_report_counts_what_it_checked(self):
        # every deep report's counts, pinned as the desk ones are; a few
        # seconds, so a CI step of its own runs it (pytest -m deep), and the
        # default run leaves it out
        pinned = {
            "PROP_2MEASURE": {"partitions": 101983},
            "THM11": {"terms": 825},
            "EQ11": {"terms": 825},
            "EQ31": {"terms": 1005},
            "EQ_2MEASURE_P": {"terms": 4411},
            "THM12": {"cells": 476},
            "THM13": {"cells": 476},
            "COROLLARY": {"cells": 250},
            "GF4": {"terms": 647},
            "GF5": {"terms": 762},
            "SYLVESTER": {"partitions": 16857},
            "INVOLUTION": {"pairs": 47079},
            "LEMMA51": {"terms": 1642, "round_trips": 508},
            "GLAISHER_COUNTEREX": {"partitions": 1},
            "FINITE_LEMMAS": {
                "terms": 6862,
                "vanishes": 21,
                "XQ2_EXPANSION": 9,
                "QCHU": 49,
                "QBINOM": 3,
            },
        }
        reports = verify_all("deep")
        assert all(reports), [r.line() for r in reports if not r]
        assert {r.name: r.counts for r in reports} == pinned

    @pytest.mark.parametrize(
        "stat,fault,failing",
        [
            pytest.param(
                "alternating_index",
                lambda real: lambda p: real(p) + 2 * (dur2(p) >= 3),
                {"THM13", "GF5", "SYLVESTER"},
                id="alternating_index+2_at_side_3",
            ),
            pytest.param(
                # a gap: side 4 first occurs at n = 28 (7+7+7+7), past every
                # desk bound of the checkers that read the alternating index
                "alternating_index",
                lambda real: lambda p: real(p) + 2 * (dur2(p) >= 4),
                set(),
                id="alternating_index+2_at_side_4",
            ),
            pytest.param(
                "k_measure",
                lambda real: lambda p, k: real(p, k) + (k == 2 and p.length >= 8),
                {"PROP_2MEASURE", "EQ_2MEASURE_P"},
                id="k_measure_2+1_at_length_8",
            ),
            pytest.param(
                "k_measure",
                lambda real: lambda p, k: real(p, k) + (k == 3 and p.length >= 6),
                {"EQ31"},
                id="k_measure_3+1_at_length_6",
            ),
            pytest.param(
                # a gap: a strict partition of length 7 needs n >= 28, past
                # every desk bound but PROP_2MEASURE's n <= 40
                "sol",
                lambda real: lambda p: real(p) + 2 * (p.length >= 7),
                {"PROP_2MEASURE"},
                id="sol+2_at_length_7",
            ),
            pytest.param(
                "sol",
                lambda real: lambda p: real(p) - 3 * (p.length >= 3),
                {"PROP_2MEASURE", "EQ11", "THM12", "THM13", "SYLVESTER", "GLAISHER_COUNTEREX"},
                id="sol-3_at_length_3",
            ),
            pytest.param(
                "dur2",
                lambda real: lambda p: real(p) + (bool(p) and p.parts[0] >= 21),
                {"THM12", "THM13", "COROLLARY", "GF4", "GF5", "SYLVESTER"},
                id="dur2+1_at_largest_part_21",
            ),
            pytest.param(
                "parity_index",
                lambda real: lambda parts: real(parts) + (len(parts) >= 9),
                {"LEMMA51"},
                id="parity_index+1_on_9_values",
            ),
            pytest.param(
                "dur2_sub",
                _calling_type_ii_from_side_2_type_i,
                {"THM12", "COROLLARY", "GF4"},
                id="dur2_sub_type_ii_as_type_i_at_side_2",
            ),
        ],
    )
    def test_mutant_fails_exactly_these_desk_checkers(self, monkeypatch, stat, fault, failing):
        # what a desk PASS catches: one statistic broken in verify's
        # namespace, every desk checker that reads it run, and the set that
        # fails pinned, an empty one included
        monkeypatch.setattr(verify_module, stat, fault(getattr(verify_module, stat)))
        readers = _checkers_reading(stat)
        assert readers
        assert {name for name in readers if not verify(name)} == failing

    def test_gf4_fails_on_a_type_error_that_keeps_side_and_sub_side(self, monkeypatch):
        # GF_A_TYPES forgets the type, so only the odd tally at THM12's full
        # cell, against GF_SOL_LEN, can see it: 3+3 is type II at side 2,
        # sub-side 0, and the flip moves it from (1, 3) to (0, 4)
        monkeypatch.setattr(
            verify_module, "dur2_sub", _calling_type_ii_from_side_2_type_i(dur2_sub)
        )
        report = verify("GF4", order=10)
        assert report.line() == "GF4 order<=10 FAIL"
        assert report.witness == "odd against GF_SOL_LEN: q^6 x^0 y^4: built 1, expected 0"

    def test_reindex_maps_forget_exactly_what_the_typed_series_do_not_tally(self):
        # GF4 and GF5 send THM12's and THM13's cells to the cells of
        # GF_A_TYPES, (sub-side, side), and GF_B, (alternating index, side)
        for n in range(31):
            for p in partitions(n, odd=True):
                x, y = _thm12_cell(p)
                assert (x // 2, (y + 1) // 2) == (dur2_sub(p)[1] if p else 0, dur2(p)), p
                x, y = _thm13_cell(p)
                assert (x, (y + 1) // 2) == (alternating_index(p), dur2(p)), p
        # and GF5's reindex of GF_SOL_LEN's cells is one-to-one
        cells = {(sol(p), p.length) for n in range(31) for p in partitions(n, distinct=True)}
        assert len({(odd_runs, (length + 1) // 2) for odd_runs, length in cells}) == len(cells)


class TestReports:
    def test_line_format(self):
        report = VerificationReport("THM12", {"nmax": 26})
        assert report.line() == "THM12 n<=26 PASS"

    def test_fail_carries_witness(self):
        report = VerificationReport("X", {"order": 3}, witness="q^1: 0 != 1")
        assert report.line() == "X order<=3 FAIL"
        assert "counterexample: q^1: 0 != 1" in report.text()
        assert not report and not report.passed
        # the verdict is the witness, so a report cannot pass while carrying one
        with pytest.raises(AttributeError):
            report.passed = True

    def test_compare_series_names_first_difference(self):
        built = MultiSeries(4, {(1, 0, 1): 1, (3, 2, 1): 5, (4, 1, 1): 2})
        expected = MultiSeries(4, {(1, 0, 1): 1, (3, 2, 1): 7, (4, 1, 1): 2})
        with pytest.raises(Counterexample) as caught:
            compare_series(built, expected)
        assert str(caught.value) == "q^3 x^2 y^1: built 5, expected 7"
        with pytest.raises(Counterexample, match=r"^k=2 q\^3 x\^2 y\^1: built 5"):
            compare_series(built, expected, "k=2 ")
        assert compare_series(built, built) == 3

    def test_compare_series_returns_equal_sides_without_sorting(self, monkeypatch):
        # equal sides are one dict comparison, whatever order their terms
        # were stored in; only a difference sorts the keys to name the first
        from partition_lab import report as report_module

        terms = {(1, 0, 1): 1, (3, 2, 1): 5, (4, 1, 1): 2}
        built = MultiSeries(4, terms)
        expected = MultiSeries(4, dict(reversed(terms.items())))
        assert list(built.terms) != list(expected.terms)
        laurent = LaurentPoly({(-2, 1): 3, (0, 0): 1})
        shuffled = LaurentPoly({(0, 0): 1, (-2, 1): 3})

        def no_sort(keys):
            raise AssertionError("equal sides were sorted")

        monkeypatch.setattr(report_module, "sorted", no_sort, raising=False)
        assert compare_series(built, expected) == 3
        assert compare_series(laurent, shuffled, "QCHU i=0 j=0 ") == 2
        with pytest.raises(AssertionError, match="equal sides were sorted"):
            compare_series(built, MultiSeries(4, {(1, 0, 1): 1}))

    def test_compare_series_rejects_different_orders(self):
        with pytest.raises(ValueError, match="series truncation orders differ"):
            compare_series(MultiSeries.one(3), MultiSeries.one(4))

    def test_compare_series_rejects_mixed_types(self):
        # a LaurentPoly is not truncated, so it has no order to match a
        # MultiSeries; keys of different lengths would name no coefficient
        with pytest.raises(ValueError, match="series truncation orders differ"):
            compare_series(MultiSeries.one(3), LaurentPoly.one())
        with pytest.raises(ValueError, match="series truncation orders differ"):
            compare_series(LaurentPoly.one(), MultiSeries.one(3))

    def test_compare_series_names_a_laurent_difference(self):
        # q^0 x^2 is only on the expected side and sorts before q^1 x^2
        built = LaurentPoly({(-2, 1): 3, (0, 0): 1, (1, 2): 4})
        expected = LaurentPoly({(-2, 1): 3, (0, 0): 1, (0, 2): -4, (1, 2): 5})
        with pytest.raises(Counterexample) as caught:
            compare_series(built, expected)
        assert str(caught.value) == "q^0 x^2: built 0, expected -4"
        with pytest.raises(Counterexample, match=r"^QCHU i=0 j=1 q\^0 x\^2: built 0"):
            compare_series(built, expected, "QCHU i=0 j=1 ")
        assert compare_series(built, built) == 3

    def test_package_exports_the_verify_counterexample(self):
        assert partition_lab.Counterexample is verify_module.Counterexample is Counterexample

    def test_verify_alone_builds_reports(self):
        # every VerificationReport comes from verify.verify, so the name and
        # bounds on a report are always the ones a checker ran at
        builders = _package_uses(
            lambda node: isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith("VerificationReport")
        )
        assert [(path, owner) for path, owner, _node in builders] == [("verify.py", "verify")]

    def test_reports_own_their_default_dicts(self):
        first, second = VerificationReport("X"), VerificationReport("X")
        assert first.params == first.counts == {}
        assert first.params is not second.params and first.counts is not second.counts
        assert first.params is not first.counts
        first.counts["terms"] = 1
        assert second.counts == {} and first != second

    def test_report_equality_ignores_time_and_reports_are_unhashable(self):
        report = VerificationReport("X", {"order": 3}, None, {"terms": 2}, 0.5)
        assert report == VerificationReport("X", {"order": 3}, counts={"terms": 2})
        assert report != VerificationReport("X", {"order": 3}, "w", {"terms": 2}, 0.5)
        assert report != ("X", {"order": 3}, None, {"terms": 2})
        with pytest.raises(TypeError):
            hash(report)
        assert repr(report) == (
            "VerificationReport(name='X', params={'order': 3}, witness=None,"
            " counts={'terms': 2}, elapsed_s=0.5)"
        )

    def test_to_dict_round_trip_fields(self):
        report = VerificationReport("Y", {"nmax": 5}, counts={"cells": 7})
        data = report.to_dict()
        assert data["status"] == "PASS" and data["counts"] == {"cells": 7}
        assert "elapsed_s" in data and data["elapsed_s"] is None  # only verify() times


class TestTrustedConstruction:
    def test_only_producers_of_the_invariant_skip_checks(self):
        # object.__new__ skips a constructor's checks, so only the one walk,
        # which builds each Partition in place, and MultiSeries._trusted, which
        # the two binomial steps call with a valid result, may reach it; every
        # reference counts, the name as a string too, so an alias cannot widen
        # the path either
        uses = _package_uses(
            lambda node: getattr(node, "attr", None) in ("__new__", "_trusted")
            or (isinstance(node, ast.Constant) and node.value in ("__new__", "_trusted"))
        )
        assert sorted((path, owner, ast.unparse(node)) for path, owner, node in uses) == [
            ("core.py", "_walk", "object.__new__"),
            ("qseries.py", "_over_binomial", "MultiSeries._trusted"),
            ("qseries.py", "_times_binomial", "MultiSeries._trusted"),
            ("qseries.py", "_trusted", "object.__new__"),
        ]
        # and only the checking constructor and that walk store parts,
        # or the length kept beside them
        stores = _package_uses(
            lambda node: (
                isinstance(node, ast.Attribute)
                and node.attr in ("parts", "length")
                and not isinstance(node.ctx, ast.Load)
            )
            or getattr(node, "id", None) == "setattr"
            or getattr(node, "attr", None) == "__setattr__"
        )
        assert sorted((path, owner, ast.unparse(node)) for path, owner, node in stores) == [
            ("core.py", "__init__", "self.length"),
            ("core.py", "__init__", "self.parts"),
            ("core.py", "_walk", "p.length"),
            ("core.py", "_walk", "p.parts"),
        ]


class TestExports:
    # definitions that no module of the package reads, each with why it stays
    UNCALLED = {
        "enumerate_family": "the benchmark binds it and reports verify.enumerate_family.yielded",
        "invert": "the reference for binomial division; the benchmark binds it",
    }

    # another module's private names that a module reads, each with why
    PRIVATE_READS = {
        "maps._pairs": "verify streams each size's pairs from strict and labeled"
        " lists shared across sizes; a public per-size stream would list both"
        " again for every smaller size, 91 enumerate_labeled calls and 91"
        " strict walks instead of 13 each at desk bounds",
    }

    def test_every_export_has_a_library_caller(self):
        # a function, class or method (exported or not, dunders aside) that
        # the package defines but none of its modules reads is surface that
        # only the tests use; a definition or an import is not a read
        package = Path(partition_lab.__file__).parent
        defined, read = set(), set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not node.name.startswith("__"):
                        defined.add(node.name)
                elif path.name != "__init__.py":
                    read.add(getattr(node, "id", None) or getattr(node, "attr", None))
        assert sorted(defined - read) == sorted(self.UNCALLED)

    def test_no_module_reads_another_modules_private_names(self):
        # a module's single-underscore names are its own; a read from another
        # module, through ``from . import m`` then ``m._name`` or through
        # ``from .m import _name``, needs a reason in PRIVATE_READS
        def private(name):
            return name.startswith("_") and not name.startswith("__")

        read = set()
        for path in Path(partition_lab.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            modules = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level:
                    if node.module is None:
                        modules.update(alias.asname or alias.name for alias in node.names)
                    else:
                        read.update(
                            f"{node.module}.{alias.name}"
                            for alias in node.names
                            if private(alias.name)
                        )
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and private(node.attr)
                ):
                    read.add(f"{node.value.id}.{node.attr}")
        assert sorted(read) == sorted(self.PRIVATE_READS)

    def test_import_loads_no_code_introspection_modules(self):
        # every verify call and benchmark pass imports the package cold;
        # dataclasses alone would load inspect, ast, dis and tokenize, and
        # the command line (argparse, json) is left to ``partition_lab.cli``.
        # The modules new after the import are compared with the same
        # interpreter's own start-up, whatever its site loads
        src = str(Path(partition_lab.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {src!r})\n"
            "import partition_lab\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "partition_lab.verify" in loaded
        unwanted = {"dataclasses", "inspect", "ast", "dis", "partition_lab.cli", "argparse", "json"}
        assert not loaded & unwanted, sorted(loaded)


class TestExampleSets:
    def test_cardinalities(self):
        for preset, size in (("16-4-2", 6), ("15-3-1", 5)):
            sets = example_sets(preset)
            assert [len(sets[key]) for key in ("A", "B", "D")] == [size] * 3

    def test_published_order_first_entries(self):
        sets = example_sets("16-4-2")
        assert sets["A"][0] == parse("5+5+3+1+1+1")
        assert sets["B"][0] == parse("5+5+3+3")
        assert sets["D"][0] == parse("10+3+2+1")
        sets = example_sets("15-3-1")
        assert sets["A"][0] == parse("11+3+1")
        assert sets["B"][0] == parse("9+3+3")
        assert sets["D"][0] == parse("12+2+1")

    def test_sets_match_enumeration(self):
        sets = example_sets("16-4-2")
        assert set(sets["A"]) == {
            p
            for p in partitions(16, odd=True)
            if dur2(p) == 2 and dur2_sub(p) == (DurfeeType.TYPE_I, 1)
        }
        assert set(sets["B"]) == {
            p for p in partitions(16, odd=True) if dur2(p) == 2 and alternating_index(p) == 2
        }
        assert set(sets["D"]) == {
            p for p in partitions(16, distinct=True) if p.length == 4 and sol(p) == 2
        }
        sets = example_sets("15-3-1")
        assert set(sets["A"]) == {
            p
            for p in partitions(15, odd=True)
            if dur2(p) == 2 and dur2_sub(p) == (DurfeeType.TYPE_II, 0)
        }
        assert set(sets["B"]) == {
            p for p in partitions(15, odd=True) if dur2(p) == 2 and alternating_index(p) == 1
        }
        assert set(sets["D"]) == {
            p for p in partitions(15, distinct=True) if p.length == 3 and sol(p) == 1
        }

    def test_membership_statistics(self):
        sets = example_sets("16-4-2")
        for p in sets["A"]:
            assert p.is_odd_parts() and dur2(p) == 2
            assert dur2_sub(p) == (DurfeeType.TYPE_I, 1)
        for p in sets["B"]:
            assert dur2(p) == 2 and alternating_index(p) == 2
        for p in sets["D"]:
            assert p.is_strict() and p.length == 4 and sol(p) == 2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            example_sets("1-2-3")
