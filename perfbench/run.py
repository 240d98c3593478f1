#!/usr/bin/env python3
"""Repository benchmark: build the program, run one workload, check it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds the
program and the measuring binary (perfbench/harness) into .bench_build/;
later runs reuse the build. The measuring binary prints one JSON record;
this script checks it against BENCHMARK.json (every metric present, with
its unit; every interval brackets its point), prints a machine fingerprint
line and the record, and prints the result as the last line of standard
output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones.
The exit status is 0 only when every check passed.

--smoke runs every workload briefly, untraced and traced, plus a repeat of
the first run whose deterministic output metrics must equal the first's,
and reports each self-check.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
BUILD_TYPE = "Release"
# Every run must finish within this many seconds (the first one builds).
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 840

# Output metrics that depend only on the program's outputs and the seed.
DETERMINISTIC = ("fix_error_mean_m", "uplink_bytes_per_fix",
                 "core.gps_on_share")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def check_record(record, expected):
    """Problems with a measured record against the expected metrics
    ({name: unit}): missing, extra, wrong unit, non-finite, or an interval
    that does not bracket its point."""
    problems = []
    got = record.get("metrics", {})
    for name, unit in expected.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name]["unit"] != unit:
            problems.append("unit of %s: %s, expected %s"
                            % (name, got[name]["unit"], unit))
    for name in got:
        if name not in expected:
            problems.append("unexpected metric " + name)
    for name, m in got.items():
        v, lo, hi = m.get("value"), m.get("lo"), m.get("hi")
        if not all(isinstance(x, (int, float)) and math.isfinite(x)
                   for x in (v, lo, hi)):
            problems.append("non-finite %s" % name)
        elif not lo <= v <= hi:
            problems.append("interval of %s [%r, %r] misses %r"
                            % (name, lo, hi, v))
    return problems


def determinism_problems(first, second):
    """Deterministic output metrics that differ between two records of the
    same workload, seed and length."""
    a, b = first.get("metrics", {}), second.get("metrics", {})
    return ["%s changed across runs: %r then %r"
            % (n, a[n]["value"], b[n]["value"])
            for n in DETERMINISTIC
            if n in a and n in b and a[n]["value"] != b[n]["value"]]


def read_first_line(path, prefix=""):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(root):
    cache = {}
    try:
        with open(os.path.join(root, BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                             line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = "unknown"
    if cache.get("CMAKE_CXX_COMPILER"):
        try:
            out = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                                 capture_output=True, text=True, timeout=20)
            compiler = out.stdout.splitlines()[0] if out.stdout else compiler
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", BUILD_TYPE),
        # The checkout is not a git repository; whoever runs the benchmark
        # passes the revision in.
        "git_describe": os.environ.get("UNILOC_GIT_DESCRIBE", "unknown"),
    }


def loadavg():
    return read_first_line("/proc/loadavg").split()[:3]


def steal_seconds():
    """vCPU time the hypervisor gave to someone else, all vCPUs summed."""
    fields = read_first_line("/proc/stat").split()
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK")


def build(root):
    """Configure (once) and build the measuring binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("no program sources under %s/src" % root)
    build_dir = os.path.join(root, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    with open(os.path.join(build_dir, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(os.path.join(build_dir, "build.log"), "a") as out:
            steps = []
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
            steps.append(["cmake", "--build", build_dir, "--target",
                          "perfbench", "-j", jobs])
            for step in steps:
                done = subprocess.run(step, stdout=out, stderr=out,
                                      timeout=BUILD_DEADLINE_S)
                if done.returncode != 0:
                    raise RuntimeError("build step failed: %s (see %s)"
                                       % (" ".join(step),
                                          os.path.join(build_dir, "build.log")))
    return os.path.join(build_dir, "perfbench")


def run_once(root, binary, workload, seed, seconds, trace, setup_repeats,
             deadline):
    tmpdir = os.path.join(root, BUILD, "tmp", "%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--setup-repeats", str(setup_repeats), "--tmpdir", tmpdir]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        subprocess.run(["rm", "-rf", tmpdir])
    sys.stderr.write(done.stderr)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("measuring binary printed nothing (exit %d)"
                           % done.returncode)
    return json.loads(lines[-1]), done.returncode


def measure(root, spec, workload, seed, seconds, trace, setup_repeats,
            deadline):
    """One checked run: returns (result line dict, detail record)."""
    binary = build(root)
    # The build may take most of a first run's time; the measurement gets
    # its own allowance after it.
    deadline = max(deadline, time.monotonic() + 150)
    load_start, steal_start, t0 = loadavg(), steal_seconds(), time.monotonic()
    record, code = run_once(root, binary, workload, seed, seconds, trace,
                            setup_repeats, deadline)
    fp = fingerprint(root)
    fp["loadavg_start"] = load_start
    fp["loadavg_end"] = loadavg()
    fp["steal_share"] = round((steal_seconds() - steal_start) / max(
        1e-9, (time.monotonic() - t0) * len(os.sched_getaffinity(0))), 4)
    record["fingerprint"] = fp

    group = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}
    problems = check_record(record, expected)
    if code != 0:
        problems.append("measuring binary exit status %d" % code)
    failed_checks = [k for k, ok in record.get("checks", {}).items() if not ok]
    problems += ["self-check failed: " + k for k in failed_checks]
    record["problems"] = problems
    correct = bool(record.get("correct")) and not problems
    result = {
        "correct": correct,
        "attempted": int(record.get("attempted", 0)),
        "failed": int(record.get("failed", 0)),
        "metrics": {n: {"value": record["metrics"][n]["value"],
                        "unit": record["metrics"][n]["unit"]}
                    for n in expected if n in record.get("metrics", {})},
    }
    return result, record


def smoke(root, spec):
    """Every workload untraced and traced for a short window, plus one
    repeated run for determinism. Returns the number of failed runs."""
    seconds = 2.0
    deadline = time.monotonic() + 20 * 60
    failures = 0
    runs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    runs.append(runs[0])  # same workload, seed and length again
    records = []
    for workload, trace in runs:
        result, record = measure(root, spec, workload, 1, seconds, trace, 1,
                                 deadline)
        if len(records) == len(runs) - 1:
            record["problems"] += determinism_problems(records[0], record)
        records.append(record)
        ok = result["correct"] and not record["problems"]
        failures += 0 if ok else 1
        print(json.dumps({"smoke": workload, "trace": trace,
                          "correct": ok, "problems": record["problems"],
                          "checks": record.get("checks", {})}), flush=True)
    print(json.dumps({"smoke_failures": failures}))
    return failures


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        spec = load_spec(ROOT)
        if args.smoke:
            return 1 if smoke(ROOT, spec) else 0
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise RuntimeError("unknown workload %r (have %s)"
                               % (args.workload, ", ".join(names)))
        if args.seconds <= 0:
            raise RuntimeError("--seconds must be positive")
        # setup_s (the median of three set-ups) is an end-to-end metric;
        # a traced run reports the phases of a single set-up.
        repeats = 1 if args.trace else 3
        result, record = measure(ROOT, spec, args.workload, args.seed,
                                 args.seconds, args.trace, repeats, deadline)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(str(e))
        return 1
    for p in record["problems"]:
        log(p)
    print(json.dumps({"fingerprint": record.pop("fingerprint")}))
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
