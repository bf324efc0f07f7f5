"""Quick self-test of the benchmark: one tiny pass of each workload.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` and both trace modes, one
shrunken run (a few contractions, two passes) must emit exactly the
named metrics, each with its declared unit and a finite value, count
at least one attempt, and report ``fail_ratio`` as failed / attempted.
Exits non-zero listing every problem found.
"""

from __future__ import annotations

import json
import math
import sys

import run


def check(spec, workload: str, trace: bool, result) -> list:
    problems = []
    where = f"{workload} trace={int(trace)}"
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics/units {got} != declared {units}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not finite")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} = {value} <= 0")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{where}: attempted = {result['attempted']}")
    if trace:
        want = result["failed"] / result["attempted"]
        if result["metrics"]["fail_ratio"]["value"] != want:
            problems.append(f"{where}: fail_ratio is not failed/attempted")
    if not result["correct"]:
        problems.append(f"{where}: not correct")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            result = run.run_workload(
                workload["name"], seed=0, seconds=0, trace=trace, tiny=True
            )
            problems += check(spec, workload["name"], trace, result)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
