#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test [--seed 1]

Run from the root of a checkout. Builds perfbench/ (which builds the cilkm
library from the repo's own CMakeLists.txt) into .bench_build/, runs one
workload, prints a human-readable table, records the full result under
.bench_build/out/, and prints as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and a Chrome trace of the traced
reps is written next to the record. Exits nonzero, without a result line,
when the repo sources are missing or the build fails, and nonzero after
the result line when any rep's output differs from the serial reference.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"
BINARY = BUILD / "perfbench"

RUN_LIMIT_S = 170          # whole run, build excluded
BUILD_LIMIT_S = 850        # first run in a fresh checkout


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under make, too) and wait for it. Returns (exit code or None
    on timeout, stdout)."""
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
            return p.returncode, out
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            return None, None


def run_logged(cmd, timeout, log):
    """Run cmd with output to the log file; True iff it exits 0 in time."""
    with open(log, "ab") as f:
        code, _ = run_group(cmd, timeout, stdout=f, stderr=subprocess.STDOUT)
        return code == 0


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            fail(f"{needed} not found at the checkout root; the benchmark "
                 "builds the cilkm library from the repo sources", 3)
    OUT.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not (BUILD / "CMakeCache.txt").exists():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_LIMIT_S, log):
            fail(f"cmake configure failed; see {log}", 3)
    jobs = str(min(os.cpu_count() or 1, 4))
    if not run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench",
                       "-j", jobs], max(1, deadline - time.monotonic()), log):
        fail(f"build failed; see {log}", 3)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(args, timeout):
    """Run perfbench; return (exit code, stdout lines, report dict or None)."""
    code, out = run_group([str(BINARY)] + args, timeout,
                          stdout=subprocess.PIPE, text=True)
    if code is None:
        fail(f"perfbench did not finish within {timeout:.0f} s")
    lines = out.strip().splitlines()
    report = None
    if lines and lines[-1].startswith("{"):
        report = json.loads(lines[-1])
    return code, lines, report


def measure(a):
    bench = spec()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    trace_file = OUT / f"trace-{a.workload}-seed{a.seed}.json"
    if a.trace:
        args += ["--trace-out", str(trace_file)]
    code, _, report = run_binary(args, RUN_LIMIT_S)
    if report is None:
        fail(f"perfbench exited {code} without a report")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = bench["per_layer" if a.trace else "end_to_end"]
    measured = report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"metrics missing from the report: {', '.join(missing)}")

    info = report["info"]
    print(f"workload={a.workload} seed={a.seed} seconds={a.seconds} "
          f"trace={a.trace} N={int(info['workers_n'])} "
          f"items/rep={int(info['items_per_rep'])}")
    contended = measured["host.contended"] != 0
    print(f"host.cpus_effective={measured['host.cpus_effective']:.2f} of "
          f"{int(info['workers_n'])} (before {info['host.cpus_before']:.2f}, "
          f"after {info['host.cpus_after']:.2f})"
          + ("  CONTENDED: do not diff this run" if contended else ""))
    for name, value in measured.items():
        print(f"  {name:34s} {value:16.6g} {units.get(name, '')}")
    if a.trace:
        print(f"trace: {trace_file.relative_to(ROOT)}")

    result = {
        "correct": bool(report["correct"]) and code == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=a.workload, seed=a.seed, seconds=a.seconds,
                  trace=a.trace, contended=contended, info=info,
                  all_metrics={k: {"value": v, "unit": units.get(k)}
                               for k, v in measured.items()})
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def check_spec():
    """BENCHMARK.json and metrics.json describe the same metrics."""
    bench = spec()
    with open(HERE / "metrics.json") as f:
        described = json.load(f)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    problems = []
    if len(set(names)) != len(names):
        problems.append("duplicate metric names in BENCHMARK.json")
    for name in names:
        d = described["metrics"].get(name)
        if d is None:
            problems.append(f"{name}: not described in metrics.json")
        elif not {"layer", "definition", "moves", "flat_on"} <= d.keys():
            problems.append(f"{name}: description lacks a field")
    for name in described["metrics"]:
        if name not in names:
            problems.append(f"{name}: described but not in BENCHMARK.json")
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != sorted(described["workloads"]):
        problems.append("workload lists differ")
    for p in problems:
        print(f"self-test spec: {p}")
    return not problems


def self_test(seed):
    ok = check_spec()
    print(f"self-test spec: {'ok' if ok else 'FAILED'}")
    code, lines, _ = run_binary(["--self-test", "--seed", str(seed)],
                                RUN_LIMIT_S)
    print("\n".join(lines))
    ok = ok and code == 0
    # A short traced run must write a loadable trace with every span kind.
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / "trace-selftest.json"
    code, _, report = run_binary(["--workload", "lookup",
                                  "--seed", str(seed + 1), "--seconds", "1",
                                  "--trace", "1", "--trace-out", str(trace_file)],
                                 RUN_LIMIT_S)
    kinds = set()
    if code == 0 and trace_file.exists():
        with open(trace_file) as f:
            kinds = {e["name"] for e in json.load(f)["traceEvents"]
                     if e["ph"] == "X"}
    trace_ok = kinds == {"setup", "rep", "leaf", "collapse", "verify"}
    print(f"self-test traced run writes every span kind: "
          f"{'ok' if trace_ok else 'FAILED'}")
    ok = ok and trace_ok and report is not None and report["correct"]
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    build()
    sys.exit(self_test(a.seed) if a.self_test else measure(a))


if __name__ == "__main__":
    main()
