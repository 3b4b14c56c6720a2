#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which compiles the
repository's src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
harness. The harness prints its report and, as the last line, one JSON
object with every metric it measured; this script reprints that line
holding only the metrics BENCHMARK.json names for the run's mode
(end_to_end with --trace 0, per_layer with --trace 1). Exits non-zero
without a result when the build fails, for example when the repository
sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the harness; returns the binary dir."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return out


def run_harness(binary_dir, args):
    work = os.path.join(binary_dir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(binary_dir, "perfbench")] + args + ["--work_dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return None, 1
    return proc.stdout, proc.returncode


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def gated(result, group):
    """The harness result narrowed to the metrics of one BENCHMARK.json group."""
    names = [m["name"] for m in load_spec()[group]]
    metrics = result["metrics"]
    return dict(result, metrics={n: metrics[n] for n in names if n in metrics})


def selftest(binary_dir):
    """Runs the harness self-test and checks its metrics against BENCHMARK.json."""
    spec = load_spec()
    out, code = run_harness(binary_dir, ["--selftest"])
    if out is None:
        return 1
    sys.stdout.write(out)
    ok = code == 0
    runs = {}
    for line in out.splitlines():
        if line.startswith("selftest-result "):
            _, workload, trace, payload = line.split(" ", 3)
            runs[(workload, trace)] = json.loads(payload)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            result = runs.get((workload, trace))
            if result is None:
                print("selftest FAIL: no %s run of %s" % (group, workload))
                ok = False
                continue
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    print("selftest FAIL: %s %s: %s missing or unit %r != %r" % (
                        workload, group, metric["name"],
                        got and got.get("unit"), metric["unit"]))
                    ok = False
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    binary_dir = build(build_dir())
    if binary_dir is None:
        return 1
    if args.selftest:
        return selftest(binary_dir)
    if not args.workload:
        parser.error("--workload is required")
    out, code = run_harness(binary_dir, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace])
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        sys.stderr.write("perfbench: the harness printed no result\n")
        return 1
    group = "per_layer" if args.trace == "1" else "end_to_end"
    lines[-1] = json.dumps(gated(result, group))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
