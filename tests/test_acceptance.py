"""Acceptance suite: every headline identity at its full desk-scale bound.

Each test runs one criterion exactly (integer equality throughout, no
tolerances) and prints a one-line verdict.  Bounds are pinned here, not
configured.
"""

from pathlib import Path

import pytest

from partition_lab.core import Partition, parse, partitions, sol
from partition_lab.maps import (
    enumerate_pairs,
    involution_phi,
    involution_table,
    lemma51_compose,
    lemma51_decompose,
    sylvester,
)
from partition_lab.shapes import DurfeeType, alternating_index, dur2, dur2_sub
from partition_lab.verify import example_sets, verify

DATA = Path(__file__).parent / "data"


def _verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: {status}{suffix}")
    assert passed, f"criterion {number} failed{suffix}"


def test_criterion_01_double_sum_identity():
    report = verify("THM11", order=30)
    _verdict(1, "double sum = Pochhammer sum, order 30", report.passed, report.witness or "")


def test_criterion_02_sol_length_series():
    report = verify("EQ11", order=25)
    _verdict(2, "sol/length series vs enumeration, order 25", report.passed, report.witness or "")


def test_criterion_03_two_measure_relation():
    report = verify("PROP_2MEASURE", nmax=40)
    _verdict(3, "2*mu2 = length + sol, n <= 40", report.passed, report.witness or "")


def test_criterion_04_durfee_type_refinement():
    report = verify("THM12", nmax=26)
    ok = report.passed
    sets = example_sets("16-4-2")
    ok = ok and set(sets["A"]) == {
        p
        for p in partitions(16, odd=True)
        if dur2(p) == 2 and dur2_sub(p) == (DurfeeType.TYPE_I, 1)
    } and len(sets["A"]) == 6
    sets15 = example_sets("15-3-1")
    ok = ok and set(sets15["A"]) == {
        p
        for p in partitions(15, odd=True)
        if dur2(p) == 2 and dur2_sub(p) == (DurfeeType.TYPE_II, 0)
    } and len(sets15["A"]) == 5
    ok = ok and set(sets["D"]) == {
        p for p in partitions(16, distinct=True) if p.length == 4 and sol(p) == 2
    }
    ok = ok and set(sets15["D"]) == {
        p for p in partitions(15, distinct=True) if p.length == 3 and sol(p) == 1
    }
    _verdict(4, "type I/II refinement with published cells, n <= 26", ok, report.witness or "")


def test_criterion_05_alternating_index_refinement():
    report = verify("THM13", nmax=26)
    ok = report.passed
    sets = example_sets("16-4-2")
    ok = ok and set(sets["B"]) == {
        p for p in partitions(16, odd=True) if dur2(p) == 2 and alternating_index(p) == 2
    } and len(sets["B"]) == 6
    sets15 = example_sets("15-3-1")
    ok = ok and set(sets15["B"]) == {
        p for p in partitions(15, odd=True) if dur2(p) == 2 and alternating_index(p) == 1
    } and len(sets15["B"]) == 5
    _verdict(5, "alternating-index refinement with published cells, n <= 26", ok, report.witness or "")


def test_criterion_06_euler_refinement():
    report = verify("COROLLARY", nmax=26)
    _verdict(
        6,
        "Euler refinement via 2-modular Durfee side, n <= 26",
        report.passed,
        report.witness or "",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the unqualified per-k phrasing is false: at n=3, k=1 there is one "
        "strict partition with 1 part but two odd partitions with 2-modular "
        "Durfee side 1; the identity needs the partition count taken over "
        "lengths 2j-1 and 2j together (or refined by diagram type), which is "
        "what the COROLLARY checker verifies"
    ),
)
def test_criterion_06_euler_refinement_literal_wording():
    for n in range(1, 27):
        strict_by_len = {}
        for p in partitions(n, distinct=True):
            strict_by_len[p.length] = strict_by_len.get(p.length, 0) + 1
        odd_by_dur2 = {}
        for p in partitions(n):
            if p.is_odd_parts():
                k = dur2(p)
                odd_by_dur2[k] = odd_by_dur2.get(k, 0) + 1
        for k in range(1, n + 1):
            assert strict_by_len.get(k, 0) == odd_by_dur2.get((k + 1) // 2, 0), (n, k)


def test_criterion_07_sylvester_bijection():
    report = verify("SYLVESTER", nmax=26)
    ok = report.passed and sylvester(parse("9+7+7+5+1+1")) == parse("10+7+5+4+3+1")
    _verdict(7, "Sylvester bijection with statistics, n <= 26", ok, report.witness or "")


def test_criterion_08_involution():
    report = verify("INVOLUTION", nmax=12)
    ok = report.passed
    fixed = {str(p) for p in enumerate_pairs(6) if involution_phi(p)[1] == p}
    ok = ok and fixed == {"(0, 6x)", "(0, 5x+1x)", "(0, 4x+2x)", "(2, 3x+1x)"}
    table = involution_table(6)
    ok = ok and len(table.splitlines()) == 44  # header + 43 paired rows
    ok = ok and table + "\n" == (DATA / "involution_n6.txt").read_text()
    published = set((DATA / "involution_n6_printed.txt").read_text().splitlines())
    ok = ok and set(table.splitlines()[1:]) == published
    _verdict(8, "signed involution, totals <= 12, published table at 6", ok, report.witness or "")


def test_criterion_09_k_measure_series():
    eq31 = verify("EQ31", order=22, k=3)  # k = 1, 2 and 3 from one walk
    report = verify("EQ_2MEASURE_P", order=20)
    _verdict(
        9,
        "k-measure series (k=1,2,3; order 22) and all-partition series (order 20)",
        eq31.passed and report.passed,
        eq31.witness or report.witness or "",
    )


def test_criterion_10_type_split_series():
    gf4 = verify("GF4", order=25)
    gf5 = verify("GF5", order=25)
    _verdict(
        10,
        "Durfee-type and alternating-index series, order 25",
        gf4.passed and gf5.passed,
        gf4.witness or gf5.witness or "",
    )


def test_criterion_11_parity_series_and_decomposition():
    report = verify("LEMMA51", mmax=10, order=30)
    sigma, tau = lemma51_decompose(parse("8+5+5+2+2+2+1"))
    ok = report.passed and sigma == parse("7+6+3+1") and tau == parse("4+2+2")
    ok = ok and lemma51_compose(sigma, tau) == parse("8+5+5+2+2+2+1")
    for n in range(15):
        for p in partitions(n):
            s, t = lemma51_decompose(p)
            ok = ok and lemma51_compose(s, t) == p
    _verdict(11, "parity-index series (m <= 10, order 30) and odd-gap round trip", ok, report.witness or "")


def test_criterion_12_finite_lemmas():
    # every instance compared; the 21 QCHU instances with j > i vanish
    report = verify("FINITE_LEMMAS", order=15)
    counts = report.counts
    ok = report.passed and counts.get("vanishes") == 21 and counts.get("QCHU") == 49
    ok = ok and counts.get("XQ2_EXPANSION") == 9 and counts.get("QBINOM") == 3
    _verdict(12, "terminating lemmas: expansion n <= 8, Chu-Vandermonde i,j <= 6, binomial theorem order 15", ok, report.witness or "")


def test_criterion_13_glaisher_counterexample():
    report = verify("GLAISHER_COUNTEREX")
    image = parse("11+3+1")
    ok = report.passed and image == Partition((11, 3, 1)) and sol(image) == 3
    _verdict(13, "Glaisher fixes 11+3+1 outside the 3-part 1-run family", ok, report.witness or "")
