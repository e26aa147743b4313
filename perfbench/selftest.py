#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py

For each workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, and
    a traced run every per-layer metric, each by name with its unit, both
    on a "metric" line and in the final JSON line, plus failed_frac;
  * a clean run is correct with nothing failed;
  * a run whose sink output is deliberately corrupted is counted: failed
    is non-zero, correct is false and the printed failed_frac is above 0.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, corrupt):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny", "--corrupt", str(corrupt)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    return json.loads(lines[-1]), printed


def check(condition, what):
    if not condition:
        sys.exit(f"FAIL {what}")


def main():
    for spec in SPEC["workloads"]:
        workload = spec["name"]
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result, printed = run(workload, trace, corrupt=0)
            label = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: JSON metrics {got} != {want}")
            for name, unit in want.items():
                check(printed.get(name, (0, None))[1] == unit,
                      f"{label}: no 'metric {name} ... {unit}' line")
            check("failed_frac" in printed, f"{label}: no failed_frac line")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0, f"{label}: clean run failed")
            if trace == 0:
                for name in want:
                    check(result["metrics"][name]["value"] > 0,
                          f"{label}: {name} is 0")

        result, printed = run(workload, 0, corrupt=1)
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: corrupted output was not counted")
        check(printed["failed_frac"][0] > 0,
              f"{workload}: corrupted output left failed_frac at 0")
        print(f"ok {workload}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
