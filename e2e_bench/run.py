#!/usr/bin/env python3
"""Build and run the ADAPT end-to-end benchmark (see README.md).

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script builds e2e_bench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR or
.bench_build, pins the library's thread pool through
ADAPT_NUM_THREADS, runs one workload, keeps the full record under
.bench_out/, and prints the result object as the last line of
standard output.  A failed build, a refused pool size, or a result
that does not parse exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

POOL = 4  # pinned pool size, capped at the host's core count
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    """Configure (a no-op when nothing changed; also repairs an
    interrupted configure), then build the driver and the shard
    worker."""
    cmd = ["cmake", "-S", src_dir, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "adapt_shard_worker", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def revision(root):
    """Git revision when available, plus a digest of the library
    sources (an exported tree without .git has no revision)."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def validate(result, expected_names):
    """The result object's shape; raises ValueError when it is off."""
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1 or not isinstance(result["correct"], bool):
        raise ValueError("attempted < 1 or correct not a bool")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            raise ValueError(f"metric {name} malformed")
    if expected_names is not None and set(result["metrics"]) != expected_names:
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ expected_names)}")


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    out_dir = os.path.join(root, ".bench_out")
    try:
        build(src_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    pool = min(POOL, os.cpu_count() or 1)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADAPT_")}
    env["ADAPT_NUM_THREADS"] = str(pool)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(pool), "--rev", revision(root),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        validate(result, expected_metrics(root, args.trace))
    except (IndexError, ValueError) as e:
        log(f"unusable result: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
