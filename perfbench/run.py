#!/usr/bin/env python3
"""Run one workload of the wivi end-to-end benchmark.

    python3 perfbench/run.py --workload live --seed 1 --seconds 10 --trace 0

Run from the repository root. On first use it configures and builds
perfbench/ (which builds the wivi library from the repository sources) in
Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. It then runs the
workload, checks a traced run's Chrome trace with scripts/check_trace.py,
appends a record of the run (machine context, commit or source digest,
result) to <build>/runs.jsonl and prints the result as the last line of
standard output.

Exit status: 0 with a result line; non-zero without one when the build
fails, the benchmark fails, or a conservation law is broken.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
DIGEST_ROOTS = ("CMakeLists.txt", "cmake", "include", "src", "perfbench")


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir() -> str:
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(bdir: str, deadline: float) -> str | None:
    """Configure and (incrementally) build the benchmark; returns the binary."""
    def step(cmd: list[str]) -> bool:
        left = max(1.0, deadline - time.monotonic())
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=left)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"{' '.join(cmd[:2])} failed: {e}")
            return False
        return r.returncode == 0

    if not step(["cmake", "-S", "perfbench", "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]):
        return None
    jobs = str(os.cpu_count() or 1)
    if not step(["cmake", "--build", bdir, "-j", jobs, "--target", "wivi_perfbench"]):
        return None
    exe = os.path.join(bdir, "wivi_perfbench")
    return exe if os.path.exists(exe) else None


def source_digest() -> str:
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths: list[str] = []
    for root in DIGEST_ROOTS:
        if os.path.isfile(root):
            paths.append(root)
        for d, dirs, files in os.walk(root):
            dirs.sort()
            paths.extend(os.path.join(d, f) for f in sorted(files))
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None if r.returncode == 0 else None


def check_trace(path: str) -> bool:
    script = os.path.join("scripts", "check_trace.py")
    r = subprocess.run([sys.executable, script, "--trace", path],
                       stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    return r.returncode == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["live", "saturate", "churn", "offline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    started = time.monotonic()
    bdir = build_dir()
    exe = build(bdir, started + BUILD_TIMEOUT_S)
    if exe is None:
        log("build failed (run from the repository root of a full checkout)")
        return 1

    out_dir = os.path.join(bdir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        log(f"wivi_perfbench exited with status {r.returncode}")
        return r.returncode or 1
    result = json.loads(lines[-1])
    context = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])

    if args.trace:
        trace = os.path.join(out_dir, f"trace_{args.workload}_s{args.seed}.json")
        if not check_trace(trace):
            log(f"{trace} failed scripts/check_trace.py")
            result["correct"] = False

    record = {"context": {**context, "commit": commit(), "source_digest": source_digest(),
                          "recorded_unix": time.time()},
              "result": result}
    with open(os.path.join(bdir, "runs.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
