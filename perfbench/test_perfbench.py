"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_reference_counts():
    assert checks.partition_counts(40)[40] == 37338
    assert checks.strict_counts(40)[40] == 1113
    assert checks.partition_counts(5) == [1, 1, 2, 3, 5, 7]
    # 5 with largest part exactly 2: 2+2+1 and 2+1+1+1
    assert checks.largest_part_exactly(2, 5)[5] == 2


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = [-1, 0, 0, 2]
    durations = [10.0, 3.0, 4.0, 1.0]
    assert list(tracer.self_time(parent, durations)) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_spans_follow_the_call_tree(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer, "perf_counter", lambda: float(next(ticks)))
    t = tracer.Tracer()
    leaf = t.traced("leaf", lambda: None)
    outer = t.traced("outer", lambda: [leaf(), leaf()])

    def numbers():
        yield from (1, 2)

    gen = t.traced_generator("gen", numbers)
    outer()
    assert list(gen()) == [1, 2]
    summary = t.summary()
    # outer opens at 0, leaves span 1-2 and 3-4, outer closes at 5
    assert summary["outer"] == (1, 5.0, 3.0)
    assert summary["leaf"] == (2, 2.0, 2.0)
    assert summary["gen"][0] == 3  # two items and the final StopIteration
    assert t.counts["gen.yielded"] == 2


def test_instrumented_wraps_name_imports_and_restores():
    from partition_lab import core, maps, qseries, shapes, verify

    before = {
        "core.partitions": core.partitions,
        "verify.partitions": verify.partitions,
        "maps.dur2": maps.dur2,
        "mul": vars(qseries.MultiSeries)["__mul__"],
        "rmul": vars(qseries.MultiSeries)["__rmul__"],
        "poch": vars(qseries.LaurentPoly)["poch"],
        "checkers": dict(verify.CHECKERS),
        "build": qseries.build,
    }
    t = tracer.Tracer()
    with tracer.instrumented(t):
        assert verify.partitions is not before["verify.partitions"]
        assert shapes.dur2 is maps.dur2 is not before["maps.dur2"]
        assert verify.verify("THM12", nmax=6)
        assert verify.verify("FINITE_LEMMAS", order=4)
    layers = tracer.layer_metrics(t)
    assert layers["core.partitions.yielded"] > 0
    assert layers["shapes.stats.calls"] > 0
    assert layers["verify.THM12.s"] >= layers["verify.THM12.self_s"] > 0
    assert layers["qseries.laurent.self_s"] > 0
    assert 0 < layers["qseries.mul.kept_ratio"] <= 1
    assert core.partitions is before["core.partitions"]
    assert verify.partitions is before["verify.partitions"]
    assert maps.dur2 is before["maps.dur2"]
    assert vars(qseries.MultiSeries)["__mul__"] is before["mul"]
    assert vars(qseries.MultiSeries)["__rmul__"] is before["rmul"]
    assert vars(qseries.LaurentPoly)["poch"] is before["poch"]
    assert verify.CHECKERS == before["checkers"]
    assert qseries.build is before["build"]


def test_corrupted_series_fails_the_output_check():
    from partition_lab import qseries

    pins = checks.load_pins()["series"]
    text = qseries.build("GF_SOL_LEN", 25).serialize()
    good = checks.Outcome()
    checks.check_series(good, [("GF_SOL_LEN", {}, 25, text)], pins)
    assert good.attempted > 0 and good.fail_ratio == 0

    lines = text.splitlines()
    monomial, coeff = lines[7].split(" : ")
    lines[7] = f"{monomial} : {int(coeff) + 1}"
    bad = checks.Outcome()
    checks.check_series(bad, [("GF_SOL_LEN", {}, 25, "\n".join(lines))], pins)
    assert bad.fail_ratio > 0


def test_moved_exponent_fails_only_the_digest():
    pins = {}
    text = "q^0 x^0 y^0 : 1\nq^1 x^1 y^1 : 1"
    moved = "q^0 x^0 y^0 : 1\nq^1 x^0 y^1 : 1"
    pins[checks.series_key("GF_SOL_LEN", {}, 1)] = checks.digest(text)
    outcome = checks.Outcome()
    checks.check_series(outcome, [("GF_SOL_LEN", {}, 1, moved)], pins)
    assert outcome.failed == 1 and "digest" in outcome.failures[0]


def test_tally_with_a_moved_cell_fails():
    # n = 3: strict partitions 3 (length 1, one odd run) and 2+1 (length 2, no
    # odd run); odd partitions 3 (type I) and 1+1+1 (type II), both side 1
    tally = {
        "all": [[1, 1, 1], [1, 2, 1], [1, 3, 1]],
        "strict": [[1, 1, 1], [2, 0, 1]],
        "type1": [[1, 0, 1]],
        "type2": [[1, 0, 1]],
        "alt": [[1, 0, 1], [1, 1, 1]],
    }
    pins = {"3": checks.tally_digest(tally)}
    good = checks.Outcome()
    checks.check_tallies(good, {"3": tally}, pins)
    assert good.attempted == 6 and good.failed == 0, good.failures
    tally["type1"] = [[1, 1, 1]]
    bad = checks.Outcome()
    checks.check_tallies(bad, {"3": tally}, pins)
    assert bad.failed == 2  # THM12 cells and the digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_plan_depends_only_on_seed(workload):
    assert run.make_plan(workload, 7) == run.make_plan(workload, 7)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.LAYER_METRICS
    )
