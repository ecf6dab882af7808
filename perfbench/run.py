#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark is compiled from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use; build
output goes to stderr so the last line of stdout is the benchmark's JSON
result.  --self-test builds and runs perfbench_selftest and checks that
BENCHMARK.json declares exactly the metrics the binary prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target: str) -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / target


def check_benchmark_json(binary: Path) -> int:
    listed = subprocess.run([str(binary), "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    printed = {}
    for line in filter(None, listed):
        kind, name, unit, better = line.split()
        printed.setdefault(kind, []).append(
            {"name": name, "unit": unit, "better": better})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for kind in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")}
                    for m in spec[kind]]
        if declared != printed.get(kind):
            print(f"FAIL: BENCHMARK.json {kind} differs from the binary's "
                  f"metric table", file=sys.stderr)
            failures += 1
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != ["annual", "gsd_online", "des_tail", "faulted_ops"]:
        print("FAIL: BENCHMARK.json workloads differ", file=sys.stderr)
        failures += 1
    print(f"BENCHMARK.json consistency: {'PASS' if not failures else 'FAIL'}")
    return failures


def main() -> int:
    args = sys.argv[1:]
    try:
        if args == ["--self-test"]:
            selftest = build("perfbench_selftest")
            binary = build("perfbench")
            code = subprocess.run([str(selftest)]).returncode
            return 1 if check_benchmark_json(binary) or code else 0
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    out_dir = build_dir() / "out"
    return subprocess.run([str(binary), *args, "--out-dir",
                           str(out_dir)]).returncode


if __name__ == "__main__":
    sys.exit(main())
