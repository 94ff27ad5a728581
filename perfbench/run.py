#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt, which pulls in the repository's own
CMake project, into .bench_build/perfbench as a Release build, builds the
dct_perfbench binary and then becomes it (exec) with the same arguments.
The binary's stdout is the benchmark's stdout: its last line is the result
object.  Build output goes to .bench_build/perfbench-build.log, and to
stderr when the build fails.  Exits non-zero without a result when the
sources or the build are missing.

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]

runs every workload in turn and prints each one's report: every metric by
name with its unit.

    python3 perfbench/run.py --self-test [--seed <n>]

runs every workload briefly with one planted output fault and checks that
each is counted as a failed op.

    python3 perfbench/run.py --spread <n> --workload <name> [--seconds <s>]

runs the workload on seeds 1..n and prints each end-to-end metric's median
and interquartile range as a share of the median, the steadiness figure
BENCHMARK.json's bounds are set against.
"""
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "dct_perfbench"
LOG = BUILD_ROOT / "perfbench-build.log"
WORKLOADS = ["canonical_sim", "burst_ckpt_sim", "lossy_figures"]
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no dctraffic sources next to {Path(__file__).parent}; nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    BUILD_ROOT.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_ROOT / "perfbench-build.lock", "w") as lock, open(LOG, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append([cmake, *generator, "-S", str(ROOT / "perfbench"),
                          "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release",
                          "-DDCT_OBS=ON", "-DDCT_SANITIZE=OFF", "-DDCT_WERROR=OFF"])
        steps.append([cmake, "--build", str(BUILD_DIR), "--target", "dct_perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(LOG.read_text()[-8000:])
                if step is steps[0] and len(steps) == 2:
                    # A half-written cache must not make every later run fail.
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"build failed (log: {LOG})")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def run_bench(args, timeout=600):
    """Runs the built binary; returns (result object or None, stdout lines)."""
    done = subprocess.run([str(BINARY), *args, "--work-dir", str(BUILD_ROOT / "work")],
                          capture_output=True, text=True, timeout=timeout, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None, lines
    return json.loads(lines[-1]), lines


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def run_all(argv):
    ok = True
    for workload in WORKLOADS:
        result, lines = run_bench(["--workload", workload,
                                    "--seed", option(argv, "--seed", "42"),
                                    "--seconds", option(argv, "--seconds", "30"),
                                    "--trace", option(argv, "--trace", "0")])
        print("\n".join(lines[:-1]), flush=True)
        ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def spread(argv):
    workload = option(argv, "--workload", None)
    if workload not in WORKLOADS:
        fail(f"--spread needs --workload, one of {', '.join(WORKLOADS)}")
    values = {}
    for seed in range(1, int(option(argv, "--spread", "10")) + 1):
        result, _ = run_bench(["--workload", workload, "--seed", str(seed),
                                "--seconds", option(argv, "--seconds", "30"), "--trace", "0"])
        if result is None or not result["correct"]:
            fail(f"{workload} seed {seed} did not produce a correct result")
        print(f"seed {seed:3}  " + "  ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        print(f"{name:22} median {med:.6g}  iqr/median {(q3 - q1) / med:.4f}")
    return 0


def self_test(seed):
    """Plants one fault per workload; each must show up as a failed op."""
    ok = True
    for workload in WORKLOADS:
        result, lines = run_bench(["--workload", workload, "--seed", str(seed),
                                    "--seconds", "1", "--plant-fault"])
        caught = (result is not None and not result["correct"]
                  and result["failed"] == 1 and result["attempted"] >= 2)
        detail = next((l.strip() for l in lines if l.strip().startswith("FAILED")), "")
        print(f"{workload:16} planted fault {'counted' if caught else 'MISSED'}: "
              f"{result['failed'] if result else '?'} failed of "
              f"{result['attempted'] if result else '?'} attempted | {detail[:160]}")
        ok = ok and caught
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    build()
    if "--self-test" in argv:
        return self_test(option(argv, "--seed", "42"))
    if "--all" in argv:
        return run_all(argv)
    if "--spread" in argv:
        return spread(argv)
    args = list(argv)
    if "--work-dir" not in args:
        args += ["--work-dir", str(BUILD_ROOT / "work")]
    sys.stdout.flush()
    os.execv(str(BINARY), [str(BINARY), *args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
