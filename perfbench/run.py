#!/usr/bin/env python3
"""Per-auction benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload sealed-g64 --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library sources it compiles) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs perfbench_driver. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones; every
printed name and unit is checked against BENCHMARK.json first. --trace 1 also
leaves a Chrome trace and the per-layer JSON under .bench_out/.

Exit status: 0 when every correctness check passed, 1 otherwise (a failed
check, a build error, a missing BENCHMARK.json, or a name mismatch).
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    """Configure once and build `targets`; a file lock serialises builds."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        *targets], check=True, stdout=sys.stderr)
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_names(spec, listed):
    """Problems between BENCHMARK.json and the driver's metric table."""
    problems = []
    for group in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[group]]
        have = [(m["name"], m["unit"]) for m in listed[group]]
        if want != have:
            problems.append(f"{group}: BENCHMARK.json {want} != driver {have}")
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"name outside [A-Za-z0-9_.-]: {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        problems.append("workload list differs from the driver's")
    return problems


def reshape(result, spec, trace):
    """The contract's final line, after checking the metric names/units."""
    group = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != have:
        raise ValueError(f"metrics {sorted(have.items())} do not match "
                         f"BENCHMARK.json {sorted(want.items())}")
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {m["name"]: result["metrics"][m["name"]]
                        for m in group}}


def run(args):
    spec = load_spec()
    driver = os.path.join(build(["perfbench_driver"]), "perfbench_driver")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 2) or not lines:
        log(f"driver exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    final = reshape(result, spec, args.trace == 1)
    # Host stamp and run context (tail level, sample count) beside the result.
    print(json.dumps({"host": result["host"], "context": result["context"]}))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] and final["failed"] == 0 else 1


def selftest():
    out = build(["perfbench_driver", "perfbench_tests"])
    status = subprocess.run([os.path.join(out, "perfbench_tests")]).returncode
    listed = json.loads(subprocess.run(
        [os.path.join(out, "perfbench_driver"), "--list-metrics"],
        check=True, stdout=subprocess.PIPE, text=True).stdout)
    problems = check_names(load_spec(), listed)
    for problem in problems:
        log("name check:", problem)
    unit = subprocess.run([sys.executable, "-m", "unittest", "-q",
                           "test_run"], cwd=HERE).returncode
    return 0 if status == 0 and not problems and unit == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
