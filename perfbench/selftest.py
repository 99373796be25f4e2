#!/usr/bin/env python3
"""perfbench self-test: every workload at a tiny size, the result line
against BENCHMARK.json, and the correctness gate against an injected
wrong reference.

    python3 perfbench/selftest.py            # from the repository root

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "names are well formed and unique")
    check(all(UNIT.match(m["unit"]) for m in
              spec["end_to_end"] + spec["per_layer"]), "units are well formed")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "every end-to-end bound is in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present with the largest bound")
    check(all(len(w["why"]) <= 200 for w in spec["workloads"]),
          "workload reasons fit 200 characters")


def run(workload, trace, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def check_result(spec, workload, trace):
    code, result = run(workload, trace)
    label = f"{workload} trace={trace}"
    if result is None:
        check(False, f"{label}: result line (exit {code})")
        return
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(code == 0 and set(result) == {"correct", "attempted", "failed",
                                        "metrics"}, f"{label}: exit 0, keys")
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, f"{label}: correct, nothing failed")
    check(list(result["metrics"]) == [m["name"] for m in wanted],
          f"{label}: metric names match BENCHMARK.json")
    check(all(result["metrics"][m["name"]]["unit"] == m["unit"]
              for m in wanted if m["name"] in result["metrics"]),
          f"{label}: units match BENCHMARK.json")
    values = [v["value"] for v in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) for v in values),
          f"{label}: every value is a number")
    if not trace:
        check(all(v > 0 for v in values), f"{label}: no end-to-end value is 0")


def check_gate(workload):
    code, result = run(workload, 0, ["--inject-wrong-reference"])
    check(code == 1 and result is not None and not result["correct"] and
          result["failed"] > 0,
          f"{workload}: an injected wrong reference fails the run")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        check_result(spec, workload, 0)
        check_result(spec, workload, 1)
        check_gate(workload)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
