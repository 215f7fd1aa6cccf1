#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --smoke

The first call builds libbbs with the repository's own CMakeLists.txt
(tests, benches and examples off) and then the benchmark binary, both
under .bench_build/ at the repository root; later calls only rebuild
what changed. Build output goes to .bench_build/build.log. The binary's
last line of stdout is the result object.

--smoke runs every workload for a few seconds with every check on, plus
one traced run, and checks each result against BENCHMARK.json: correct,
nothing failed, and exactly the declared metrics. Exit 0 means it passed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(BUILD, "perfbench-run")
RUN_TIMEOUT_S = 170
WORKLOADS = ["decode", "prefill", "classify", "paper"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def jobs():
    return str(len(os.sched_getaffinity(0)))


def cmake(args, log):
    proc = subprocess.run(["cmake"] + args, stdout=log, stderr=log)
    if proc.returncode != 0:
        log.flush()
        with open(log.name, errors="replace") as f:
            tail = f.readlines()[-30:]
        sys.stderr.write("".join(tail))
        fail("build failed (see %s)" % log.name)


def build():
    """Configure (once) and build libbbs and the benchmark; return the
    binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no libbbs sources at %s (CMakeLists.txt and src/ needed)"
             % ROOT, 2)
    os.makedirs(BUILD, exist_ok=True)
    lib_dir = os.path.join(BUILD, "lib")
    bench_dir = os.path.join(BUILD, "perfbench")
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
            cmake(["-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release",
                   "-DBBS_BUILD_TESTS=OFF", "-DBBS_BUILD_BENCH=OFF",
                   "-DBBS_BUILD_EXAMPLES=OFF"], log)
        cmake(["--build", lib_dir, "--target", "bbs", "-j", jobs()],
              log)
        if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
            cmake(["-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
                   "-DBBS_ROOT=" + ROOT,
                   "-DBBS_LIBRARY=" + os.path.join(lib_dir, "libbbs.a")],
                  log)
        cmake(["--build", bench_dir, "-j", jobs()], log)
    return os.path.join(bench_dir, "perfbench")


def run(binary, args, capture):
    """Run the binary; return (exit code, stdout or None)."""
    try:
        proc = subprocess.run(
            [binary] + args + ["--scratch", SCRATCH], timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    # Decode needs a few seconds before its first streams finish their
    # budgets and reach the oracle.
    cases = [("decode", 0, 6), ("prefill", 0, 2), ("classify", 0, 2),
             ("paper", 0, 2), ("classify", 1, 2)]
    problems = 0
    for workload, trace, seconds in cases:
        code, stdout = run(binary, ["--workload", workload, "--seed", "7",
                                    "--seconds", str(seconds), "--trace",
                                    str(trace)], capture=True)
        lines = (stdout or "").strip().splitlines()
        verdict = "ok"
        try:
            result = json.loads(lines[-1]) if code == 0 and lines else None
        except ValueError:
            result = None
        if result is None:
            verdict = "no result (exit %d)" % code
        elif not result["correct"] or result["failed"] != 0:
            verdict = "%d of %d operations failed" % (result["failed"],
                                                      result["attempted"])
        elif set(result["metrics"]) != declared[trace]:
            verdict = "metrics differ from BENCHMARK.json: %s" % sorted(
                set(result["metrics"]) ^ declared[trace])
        elif any(not m["value"] > 0 for m in result["metrics"].values()
                 if trace == 0):
            verdict = "an end-to-end metric is not positive"
        problems += verdict != "ok"
        print("smoke %-9s trace=%d: %s" % (workload, trace, verdict))
    return 1 if problems else 0


def main():
    binary = build()
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke(binary))
    code, _ = run(binary, sys.argv[1:], capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
