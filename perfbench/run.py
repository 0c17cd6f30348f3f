"""Benchmark harness for partition-lab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_desk --seed 1 --seconds 40 --trace 0

Every timed pass starts a fresh interpreter (``workload.py``) that imports
the library from ``src/`` and does one cold pass, as a command-line user
does: no memo cache outlives a pass, ``assert``s stay on (no ``-O``), and
``PARTITION_LAB_THREADS`` is removed so the default serial path runs.
Passes run one at a time until ``--seconds`` is used up.  Every pass's
outputs are checked against independent references (``checks.py``).

Time metrics are in reference seconds.  The host this benchmark was built
on changes speed by up to 2.5x for minutes at a time, so the harness pins
itself and its passes to one CPU and times a fixed probe (``probe``) on it
before the first pass and after every pass; each pass's times are scaled
by PROBE_REF_S / the mean of the probe times just before and after it.
Raw medians and the probe are printed too.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the untraced passes.  With ``--trace 1`` untraced and traced passes
alternate; the result holds the per-layer metrics, medians over the traced
passes, and the tracing overhead (traced minus untraced median wall time).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
CLOCK = time.CLOCK_MONOTONIC
RUN_LIMIT_S = 170  # every run ends well inside three minutes

SERIES_ORDER = 36
PARITY_M = range(1, 13)
ENUMERATE_NMAX = 42

PROBE_SIZE = 150_000
PROBE_ORDER = 30
PROBE_REF_S = 0.1  # times are scaled to the speed at which probe() takes this long

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
SCALED = ("wall_s", "cpu_s", "setup_s")

WORKLOADS = ("verify_desk", "series_deep", "enumerate_deep")


def series_builds(parity_m) -> list:
    """[name, params] for every named series: GF_KMEASURE at k = 1, 2, 3 and
    GF_PARITY at each m in ``parity_m``."""
    plain = [name for name in checks.SERIES_NAMES if name not in ("GF_KMEASURE", "GF_PARITY")]
    builds = [[name, {}] for name in plain]
    builds += [["GF_KMEASURE", {"k": k}] for k in (1, 2, 3)]
    return builds + [["GF_PARITY", {"m": m}] for m in parity_m]


def make_plan(workload: str, seed: int) -> dict:
    """The pass's inputs, all drawn from ``seed``."""
    rng = random.Random(seed)
    if workload == "verify_desk":
        return {"workload": workload, "profile": "desk"}
    if workload == "series_deep":
        builds = series_builds(sorted(rng.sample(PARITY_M, 3)))
        rng.shuffle(builds)
        return {"workload": workload, "order": SERIES_ORDER, "builds": builds}
    sizes = list(range(1, ENUMERATE_NMAX + 1))
    rng.shuffle(sizes)
    return {"workload": workload, "sizes": sizes}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PARTITION_LAB_THREADS", None)
    return env


def probe() -> float:
    """Seconds for a fixed piece of interpreter work shaped like the
    library's: filling a dict keyed by tuples, then a truncated product of
    two (q, x, y) -> coefficient dicts, as MultiSeries.__mul__ does."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_SIZE):
        table[(i, i * 7 % 1000, i % 13)] = [i]
    terms = {
        (q, x, y): q + x * y + 1 for q in range(PROBE_ORDER) for x in range(4) for y in range(4)
    }
    product = {}
    for (q1, x1, y1), c1 in terms.items():
        for (q2, x2, y2), c2 in terms.items():
            if q1 + q2 < PROBE_ORDER:
                key = (q1 + q2, x1 + x2, y1 + y2)
                product[key] = product.get(key, 0) + c1 * c2
    return time.perf_counter() - start


def run_pass(src: Path, plan: dict, trace: bool, timeout: float) -> tuple[dict | None, str]:
    """One pass in a fresh interpreter; returns (data, error message).

    ``-E -s`` keeps PYTHON* variables and the user site out of the child,
    so ``-O`` cannot sneak in through PYTHONOPTIMIZE.
    """
    command = [
        sys.executable, "-E", "-s", str(HERE / "workload.py"),
        str(src), json.dumps(plan), "1" if trace else "0",
    ]
    t_spawn = time.clock_gettime(CLOCK)
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "pass timed out"
    if proc.returncode != 0:
        return None, f"pass exited {proc.returncode}: {err.strip()[-2000:]}"
    data = json.loads(out)
    data["wall_s"] = data["t_done"] - t_spawn
    data["setup_s"] = data["t_ready"] - t_spawn
    data["peak_rss_mib"] = data["peak_rss_kib"] / 1024
    return data, ""


def check_pass(plan: dict, data: dict, src: Path, pins: dict) -> checks.Outcome:
    outcome = checks.Outcome()
    library = Path(data["library"]).resolve()
    outcome.expect(library.is_relative_to(src), f"library imported from {library}")
    result = data["result"]
    if plan["workload"] == "verify_desk":
        checks.check_reports(outcome, result["reports"])
    if plan["workload"] == "series_deep":
        made = [[name, params] for name, params, _order, _text in result["series"]]
        outcome.expect(made == plan["builds"], "series built differ from the plan")
    checks.check_series(outcome, result["series"], pins["series"])
    if plan["workload"] == "enumerate_deep":
        sizes = sorted(map(int, result["tallies"]))
        outcome.expect(sizes == sorted(plan["sizes"]), "sizes differ from the plan")
        checks.check_tallies(outcome, result["tallies"], pins["tallies"])
    return outcome


def run_passes(src: Path, plan: dict, seconds: float, trace: bool):
    """Alternate untraced (and, with ``trace``, traced) passes until the
    next one would end after ``seconds``; at least one of each kind.
    Each pass gets ``scale``, PROBE_REF_S over the mean of the probes
    around it.  Returns both kinds of pass, the probe times and the check
    outcome."""
    pins = checks.load_pins()
    outcome = checks.Outcome()
    done: dict[bool, list[dict]] = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    start = time.monotonic()
    probes = [probe()]
    for turn in itertools.count():
        kind = kinds[turn % len(kinds)]
        elapsed = time.monotonic() - start
        if turn >= len(kinds):
            estimate = statistics.median(p["wall_s"] for p in done[kind]) if done[kind] else 0.0
            if elapsed + estimate > seconds:
                break
        data, error = run_pass(src, plan, kind, RUN_LIMIT_S - elapsed)
        if data is None:
            outcome.expect(False, error)
            break
        outcome.add(check_pass(plan, data, src, pins))
        probes.append(probe())
        data["scale"] = 2 * PROBE_REF_S / (probes[-2] + probes[-1])
        done[kind].append(data)
    return done[False], done[True], probes, outcome


def median_and_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def scaled(passes: list[dict], name: str) -> list[float]:
    return [p[name] * p["scale"] for p in passes]


def end_to_end_metrics(untraced: list[dict]) -> dict:
    metrics = {}
    for name, unit in END_TO_END:
        values = scaled(untraced, name) if name in SCALED else [p[name] for p in untraced]
        med, q1, q3 = median_and_quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        raw = statistics.median(p[name] for p in untraced)
        print(f"{name:<14} {med:>10.4f} {unit:<4} median of {len(untraced)}, "
              f"quartiles {q1:.4f} .. {q3:.4f}, raw median {raw:.4f}")
    return metrics


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name, unit, _better in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(scaled(traced, "wall_s")) - statistics.median(
                scaled(untraced, "wall_s")
            )
        elif unit == "s":
            value = statistics.median(p["layers"][name] * p["scale"] for p in traced)
        else:
            value = statistics.median_low(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<34} {value:>14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    if not (src / "partition_lab" / "__init__.py").is_file():
        print(f"error: no partition_lab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # passes inherit the pin, so every pass and probe shares one CPU's speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # compile the library's bytecode once, outside any timed pass
    warm = f"import sys; sys.path[:0] = [{str(src)!r}]; import partition_lab"
    subprocess.run([sys.executable, "-E", "-s", "-c", warm], env=child_env(), check=True)

    plan = make_plan(args.workload, args.seed)
    untraced, traced, probes, outcome = run_passes(src, plan, args.seconds, bool(args.trace))
    if not untraced or (args.trace and not traced):
        print("error: no pass completed: " + "; ".join(outcome.failures), file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  untraced passes {len(untraced)}"
          f"  traced passes {len(traced)}  probe median {statistics.median(probes):.4f} s")
    if args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced)
    print(f"{'fail_ratio':<14} {outcome.fail_ratio:>10.4f} ratio  "
          f"{outcome.failed} of {outcome.attempted} output checks failed")
    for failure in outcome.failures:
        print(f"  failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
