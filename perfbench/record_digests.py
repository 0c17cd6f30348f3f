"""Write digests.json: SHA-256 pins of every series and tally the
benchmark's output checks compare against.

Run from the root of a checkout of the reference commit:

    python3 perfbench/record_digests.py

The series_deep pins cover every GF_PARITY m a seed can pick.
"""

import json
from pathlib import Path

import checks
import run


def main() -> None:
    src = Path.cwd().resolve() / "src"
    plans = [
        run.make_plan("verify_desk", 0),
        {
            "workload": "series_deep",
            "order": run.SERIES_ORDER,
            "builds": run.series_builds(run.PARITY_M),
        },
        run.make_plan("enumerate_deep", 0),
    ]
    pins = {"series": {}, "tallies": {}}
    for plan in plans:
        data, error = run.run_pass(src, plan, False, run.RUN_LIMIT_S)
        if data is None:
            raise SystemExit(error)
        for name, params, order, text in data["result"]["series"]:
            pins["series"][checks.series_key(name, params, order)] = checks.digest(text)
        for n, tally in data["result"].get("tallies", {}).items():
            pins["tallies"][n] = checks.tally_digest(tally)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins['series'])} series and {len(pins['tallies'])} tallies")


if __name__ == "__main__":
    main()
