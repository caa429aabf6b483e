#!/usr/bin/env python3
"""End-to-end benchmark launcher.

Builds the benchmark package (e2ebench/CMakeLists.txt, which compiles the
library from ../src) and runs one seeded workload in its own process:

    python3 e2ebench/run.py --workload mesh-sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is the run's JSON result. With --trace 1
the per-layer metrics are reported instead of the end-to-end ones, and the
spans are written as Chrome trace-event JSON under the build directory.

Spread mode runs each workload on several seeds and prints the median and
quartile spread of every end-to-end metric, against the bounds in
BENCHMARK.json:

    python3 e2ebench/run.py --spread 10 [--workload <name>] [--seconds 25]

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench
under the repository root).
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# OpenMP threads per workload: certify_scc runs OpenMP teams. Like every
# other pinned count (src/bench.hpp ThreadPins) this keeps two threads busy;
# the service certifies on two workers at once, so each team gets one.
WORKLOADS = {
    "mesh-sweep": 2,
    "powerlaw-batch": 2,
    "service-mixed": 1,
    "fleet-sharded": 2,
}
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a repository checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed", 1)
        step = ["cmake", "--build", str(out), "-j", str(BUILD_JOBS)]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed", 1)
    return out / "e2ebench"


def child_env(workload):
    # Only pinned settings reach the program: no ECL_* override or inherited
    # OpenMP setting may change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("ECL_", "OMP_"))}
    env["OMP_NUM_THREADS"] = str(WORKLOADS[workload])
    return env


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload process; returns its parsed JSON result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, env=child_env(workload), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} exited with code {proc.returncode}", 1)
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    if expected is not None and list(result["metrics"]) != expected:
        fail(f"reported metrics {list(result['metrics'])} differ from BENCHMARK.json {expected}", 1)
    return result, lines[-1]


def spread(binary, workloads, runs, seconds, first_seed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {}
        failed_shares = set()
        for seed in range(first_seed, first_seed + runs):
            result, _ = run_once(binary, workload, seed, seconds, False, echo=False)
            print(f"   seed {seed}: " + ", ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
            failed_shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
              f"failed shares {sorted(map(str, failed_shares))}")
        print(f"   {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}{'bound':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or rel <= bound / 3 else "  WIDE"
            steady &= flag == ""
            print(f"   {name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{rel:>10.4f}"
                  f"{bound if bound is not None else '-':>8}{flag}")
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, metavar="N",
                        help="run each workload on N seeds and print the quartile spread")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    binary = build()
    if args.spread:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return spread(binary, workloads, args.spread, args.seconds, args.first_seed)
    if not args.workload:
        fail("--workload is required")
    _, last = run_once(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
