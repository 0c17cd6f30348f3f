"""One cold pass of a benchmark workload, in a fresh interpreter.

Usage: python3 -E -s perfbench/workload.py <src dir> <plan JSON> <trace 0|1>

Set-up ends once partition_lab is imported.  The pass then runs the plan
and records CLOCK_MONOTONIC (shared by every process on Linux), CPU time
and peak RSS (VmHWM, so Linux only) before doing anything else.  Only then
are the remaining outputs serialized and, in a traced pass, the spans
summarized.  One JSON object goes to stdout.
"""

import json
import resource
import sys
import time

CLOCK = time.CLOCK_MONOTONIC


def verify_desk(lib, plan):
    """verify_all at the plan's profile; records every series built on the way."""
    qseries, verify = lib.qseries, lib.verify
    built = []
    original = qseries.build

    def build(name, order, **params):
        series = original(name, order, **params)
        built.append((name, params, order, series))
        return series

    qseries.build = build
    try:
        reports = verify.verify_all(plan["profile"])
    finally:
        qseries.build = original
    return {"reports": [(r.name, r.passed) for r in reports]}, built


def series_deep(lib, plan):
    """Each series is built and serialized, as ``partition-lab series``
    does, so no series outlives its build."""
    build = lib.qseries.build
    order = plan["order"]
    series = [
        (name, params, order, build(name, order, **params).serialize())
        for name, params in plan["builds"]
    ]
    return {"series": series}, []


def enumerate_deep(lib, plan):
    """Per size: all partitions by (2-measure, length), the strict family by
    (length, odd-run count) and the odd family by 2-modular Durfee data and
    alternating index."""
    core, shapes, verify = lib.core, lib.shapes, lib.verify
    partitions, k_measure, sol = core.partitions, core.k_measure, core.sol
    dur2, dur2_sub, alternating_index = shapes.dur2, shapes.dur2_sub, shapes.alternating_index
    enumerate_family, FamilySpec = verify.enumerate_family, verify.FamilySpec
    type_one = shapes.DurfeeType.TYPE_I
    tallies = {}
    for n in plan["sizes"]:
        every, strict, type1, type2, alt = {}, {}, {}, {}, {}
        for p in partitions(n):
            key = (k_measure(p, 2), p.length)
            every[key] = every.get(key, 0) + 1
        for p in enumerate_family(FamilySpec(n, strict=True)):
            key = (p.length, sol(p))
            strict[key] = strict.get(key, 0) + 1
        for p in enumerate_family(FamilySpec(n, odd_parts=True)):
            side = dur2(p)
            kind, sub = dur2_sub(p)
            cells = type1 if kind is type_one else type2
            cells[(side, sub)] = cells.get((side, sub), 0) + 1
            key = (side, alternating_index(p))
            alt[key] = alt.get(key, 0) + 1
        tallies[n] = {"all": every, "strict": strict, "type1": type1, "type2": type2, "alt": alt}
    return {"tallies": tallies}, []


WORKLOADS = {
    "verify_desk": verify_desk,
    "series_deep": series_deep,
    "enumerate_deep": enumerate_deep,
}


def peak_rss_kib():
    """VmHWM: the peak RSS of this process's own address space.  ru_maxrss
    would also count the parent's, which the kernel carries across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def rows(cells):
    return sorted([*key, count] for key, count in cells.items())


def main():
    src, plan, trace = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, src)
    import partition_lab

    t_ready = time.clock_gettime(CLOCK)
    run = WORKLOADS[plan["workload"]]
    if trace:
        from tracer import Tracer, instrumented, layer_metrics

        tracer = Tracer()
        with instrumented(tracer), tracer.span("workload"):
            result, built = run(partition_lab, plan)
    else:
        result, built = run(partition_lab, plan)
    t_done = time.clock_gettime(CLOCK)
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kib = peak_rss_kib()

    if "tallies" in result:
        result["tallies"] = {
            n: {family: rows(cells) for family, cells in tally.items()}
            for n, tally in result["tallies"].items()
        }
    result.setdefault("series", []).extend(
        (name, params, order, s.serialize()) for name, params, order, s in built
    )
    out = {
        "library": partition_lab.__file__,
        "t_ready": t_ready,
        "t_done": t_done,
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "peak_rss_kib": peak_kib,
        "result": result,
        "layers": layer_metrics(tracer) if trace else None,
    }
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
