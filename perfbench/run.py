#!/usr/bin/env python3
"""perfbench entry point: build, run one workload, print one result line.

    python3 perfbench/run.py --workload svc_interactive --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The script builds the phonoc library, the
two daemons and the C++ driver (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, runs the driver under a timeout in its
own process group, derives the span-based per-layer metrics from the
daemons' --trace files, and prints, last on stdout, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.
Exit codes: 0 = measured and correct, 1 = a wrong result, 2 = cannot
build or run, 3 = the driver timed out.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

DRIVER_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 800


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", "4",
                   "--target", "perfbench_driver"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_driver"


def source_revision(root):
    """git revision when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".inc",
                                                  ".txt"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    digest.update((root / "CMakeLists.txt").read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_driver(driver, args, work_dir, out_path, extra):
    cmd = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}", f"--out={out_path}"] + extra
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s and was killed", 3)
    # The daemons share the driver's process group: nothing may outlive it.
    kill_group()
    if code != 0:
        fail(f"driver exited with code {code}")


# --- span-derived per-layer metrics -------------------------------------------

def load_events(path):
    try:
        with open(path) as handle:
            return json.load(handle)["traceEvents"]
    except (OSError, ValueError, KeyError) as error:
        log(f"unreadable trace {path}: {error}")
        return []


def spans(events, category, name):
    return [e for e in events if e.get("ph") == "X" and
            e.get("cat") == category and e.get("name") == name]


def service_span_metrics(inputs):
    """queue wait, execute, cell and wire time per interactive request,
    matched by request id within one phonocd trace (one clock)."""
    queue, execute, cell, wire = [], [], [], []
    for item in inputs:
        events = load_events(item["trace"])
        admit_end = {}
        for span in spans(events, "service", "admit"):
            admit_end[span["args"].get("id")] = span["ts"] + span["dur"]
        executes = {s["args"].get("id"): s
                    for s in spans(events, "service", "execute")}
        cells_by_thread = {}
        for span in spans(events, "service", "cell"):
            cells_by_thread.setdefault((span["pid"], span["tid"]),
                                       []).append(span)
        for request_id, latency_ms in item["requests"]:
            run = executes.get(request_id)
            if run is None or request_id not in admit_end:
                continue
            wait_ms = (run["ts"] - admit_end[request_id]) / 1e3
            run_ms = run["dur"] / 1e3
            queue.append(wait_ms)
            execute.append(run_ms)
            end = run["ts"] + run["dur"]
            inside = [s["dur"] for s in
                      cells_by_thread.get((run["pid"], run["tid"]), [])
                      if run["ts"] <= s["ts"] and s["ts"] + s["dur"] <= end]
            if inside:
                cell.append(sum(inside) / 1e3)
            wire.append(latency_ms - wait_ms - run_ms)
    return {
        "service.queue_wait_ms": queue,
        "service.execute_ms": execute,
        "service.cell_ms": cell,
        "service.wire_ms": wire,
    }


def sched_span_metrics(inputs):
    """Scheduler unit span minus the worker's serve_shard span of the same
    unit (host, [begin, end), occurrence): framing + wire + dispatch."""
    overhead = []
    for item in inputs:
        units = spans(load_events(item["scheduler"]), "sched", "unit")
        for host, worker_trace in enumerate(item["workers"]):
            served = {}
            for span in sorted(spans(load_events(worker_trace), "sched",
                                     "serve_shard"), key=lambda s: s["ts"]):
                key = (span["args"]["begin"], span["args"]["end"])
                served.setdefault(key, []).append(span["dur"])
            seen = {}
            for span in sorted(units, key=lambda s: s["ts"]):
                if span["args"].get("host") != host:
                    continue
                key = (span["args"]["begin"], span["args"]["end"])
                k = seen.get(key, 0)
                seen[key] = k + 1
                if k < len(served.get(key, [])):
                    overhead.append((span["dur"] - served[key][k]) / 1e3)
    return {"sched.unit_overhead_ms": overhead}


# --- main ----------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-reference", action="store_true",
                        help="self-test: corrupt every reference result")
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail("no phonoc sources in this directory: nothing to build")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    driver = build(root, build_root / "perfbench")
    work_dir = (build_root / "perfbench-runs" /
                f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    out_path = work_dir / "driver.json"
    extra = ["--inject-wrong-reference"] if args.inject_wrong_reference else []
    started = time.monotonic()
    try:
        run_driver(driver, args, work_dir, out_path, extra)
        raw = json.loads(out_path.read_text())
        metrics = dict(raw["metrics"])
        if args.trace:
            derived = service_span_metrics(raw["service_traces"])
            derived.update(sched_span_metrics(raw["sched_traces"]))
            for name, values in derived.items():
                metrics[name] = {
                    "value": statistics.median(values) if values else 0.0,
                    "unit": "ms", "samples": len(values)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    elapsed = time.monotonic() - started

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"driver did not report {missing}")

    host = dict(raw["host"])
    host["revision"] = source_revision(root)
    host["run_seconds"] = round(elapsed, 3)
    print("# host: " + json.dumps(host, sort_keys=True))
    if host["build_type"] != "Release":
        print(f"# WARNING: {host['build_type']} build; numbers are not "
              "comparable with Release baselines")
    for note in raw.get("notes", [])[:20]:
        print(f"# note: {note}")
    for metric in wanted:
        value = metrics[metric["name"]]
        print(f"# {metric['name']:<28} {value['value']:>14.6g} "
              f"{metric['unit']:<6} n={value['samples']}")
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
