#!/usr/bin/env python3
"""Builds the cdsim benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload paper-bus4 --seed 42 --seconds 20 \
        --trace 0 [--out results.json]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as an optimized Release build of the library and the cdsim_perfbench binary.
The benchmark's standard output is passed through after a revision line (git
commit when there is one, and a SHA-256 of the sources); its last line is the
JSON result. With --out, the result, the log and the build and revision
records are also written to the named file. Nothing is written by default.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-bus4", "mesh16-dram", "paper-sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the library sources: a revision id that works without git."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("include", "src", "perfbench"):
        files += sorted(p for p in (root / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_revision(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "cdsim_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "cdsim_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result and build record here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    for need in ("CMakeLists.txt", "include", "src"):
        if not (root / need).exists():
            fail(f"{root / need} is missing: run from a cdsim source checkout")

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(root, build_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_dir / "work")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    revision = {"git": git_revision(root), "source_sha256": source_digest(root)}
    print("revision: " + json.dumps(revision))
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode if proc.returncode > 0 else 1)

    if args.out:
        lines = proc.stdout.splitlines()
        build_rec = next((json.loads(l.split(":", 1)[1]) for l in lines
                          if l.startswith("build: ")), {})
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "revision": revision, "build": build_rec,
            "result": json.loads(lines[-1]), "log": lines[:-1],
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
