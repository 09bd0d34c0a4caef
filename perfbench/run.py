#!/usr/bin/env python3
"""Builds and runs one workload of the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script configures perfbench/ as its own
CMake project in Release (it builds the layer libraries from ../src out of
tree), runs perfbench_driver, checks its record against BENCHMARK.json and
prints, as the last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The full record (every metric, the
environment, the spec) is printed on the line before it and kept under
<build>/records/; traced runs also write their spans under <build>/trace/.
The build directory is $CARGO_TARGET_DIR (default .bench_build), relative
to the repository root. Exits non-zero, without a result line, when the
sources are missing, the build fails or the record breaks the contract;
exits 1 after the result line when an output check failed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver"


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += [p for p in (ROOT / sub).rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"simulator sources not found under {ROOT}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = next((w for w in bench["workloads"]
                     if w["name"] == args.workload), None)
    if workload is None:
        fail(f"unknown workload {args.workload!r}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    driver = build(build_dir)

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (build_dir / "trace").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(build_dir / "trace" /
                                   f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver exited {done.returncode} without a record")
    record = json.loads(lines[-1])
    if workload["why"].split(";")[0] != record["spec"]:
        fail("BENCHMARK.json why does not start with the driver's spec "
             f"{record['spec']!r}")

    record["git_sha"] = git_sha()
    record["source_sha256"] = source_digest()
    (build_dir / "records").mkdir(exist_ok=True)
    (build_dir / "records" /
     f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} is undefined on {args.workload}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps(record))
    print(json.dumps({"correct": record["correct"] and done.returncode == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if record["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
