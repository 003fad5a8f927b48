#!/usr/bin/env python3
"""Collector pipeline benchmark: build, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload durable_bulk --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call builds the numdist libraries with the repository's own CMake
build (Release, no tests/tools/benches/examples) and this package against
them, under .bench_build/ (or $CARGO_TARGET_DIR when set). Later calls only
re-run the incremental builds. Build output goes to stderr; the benchmark's
last stdout line is its JSON result.

--self-test runs both workloads at a tiny size, checks that every metric
BENCHMARK.json names is emitted with its unit, and checks that the
correctness gate fires when one frame is dropped from the reference.
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
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def run_build_step(cmd):
    # Build chatter goes to stderr so stdout stays the benchmark's result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    base = build_dir()
    lib_dir = os.path.join(base, "numdist")
    bench_dir = os.path.join(base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", ROOT, "-B", lib_dir,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DNUMDIST_BUILD_TESTS=OFF",
                        "-DNUMDIST_BUILD_TOOLS=OFF",
                        "-DNUMDIST_BUILD_BENCHES=OFF",
                        "-DNUMDIST_BUILD_EXAMPLES=OFF"])
    run_build_step(["cmake", "--build", lib_dir, "-j", jobs])
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", bench_dir,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DNUMDIST_SOURCE_DIR=" + ROOT,
                        "-DNUMDIST_BUILD_DIR=" + lib_dir])
    run_build_step(["cmake", "--build", bench_dir, "-j", jobs])
    return os.path.join(bench_dir, "perfbench")


def run_bench(binary, args, capture, quiet=False):
    cmd = [binary, "--work-dir", os.path.join(build_dir(), "run")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.DEVNULL if quiet else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, (out.decode() if capture else "")


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_bench(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", str(trace), "--tiny"], capture=True)
            label = "%s trace=%d" % (workload, trace)
            if code != 0:
                problems.append("%s exited %d" % (label, code))
                continue
            result = last_json(out)
            if result["correct"] is not True or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    label, result["correct"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics %s, expected %s" % (
                    label, sorted(got.items()), sorted(wanted[trace].items())))
        code, out = run_bench(binary, [
            "--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", "0", "--tiny", "--drop-reference-frame"], capture=True,
            quiet=True)
        if code != 0 or last_json(out)["correct"] is not False:
            problems.append("%s: the gate did not fire on a dropped "
                            "reference frame" % workload)
    for p in problems:
        print("self-test: FAIL " + p, file=sys.stderr)
    print("self-test: %s" % ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_bench(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
