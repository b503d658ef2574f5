#!/usr/bin/env python3
"""Builds prany_bench from this checkout and runs one workload.

    python3 prany_bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 prany_bench/run.py --smoke

Run it from the root of a prany checkout. The first call configures and
builds the benchmark (CMake, Release) into .bench_build/cmake; later calls
only rebuild what changed. Each run gets a private directory under
.bench_build/run: WALs of the *_disk workload go to its disk/ part, on the
checkout's own filesystem, and the *_shm and socket workloads write to
its shm/ part, on which the benchmark mounts a tmpfs that only its own
process sees (a private mount namespace). Nothing is written outside the
checkout. The last line of stdout is the result JSON (see README.md).

--smoke runs every workload of BENCHMARK.json for one second, untraced
and traced, and checks that each run is correct and prints exactly the
metrics BENCHMARK.json names for its mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "prany_bench")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark. Returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: no prany sources at %s/src; run from the "
                         "root of a prany checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring: " + " ".join(cmd))
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "prany_bench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("run.py: build failed")
    return BINARY


def source_id():
    """The git commit if this is a git checkout, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def launch(binary, workload, seed, seconds, trace, capture=False, tag="",
           source=None):
    """Runs one workload; returns (exit code, stdout or None). The detailed
    result goes to .bench_build/results/[<tag>-]<workload>-s<seed>-t<trace>.json
    and records `source` (default: this checkout's source id).
    """
    run_dir = os.path.join(".bench_build", "run", str(os.getpid()))
    results = os.path.join(".bench_build", "results")
    os.makedirs(os.path.join(ROOT, results), exist_ok=True)
    out = os.path.join(results, "%s%s-s%d-t%d.json" % (
        tag + "-" if tag else "", workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--shm-dir", os.path.join(run_dir, "shm"),
           "--disk-dir", os.path.join(run_dir, "disk"),
           "--out", out,
           "--source-id", source or source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 124, None
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    """One-second runs of every workload, untraced and traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, stdout = launch(binary, workload, 1, 1, trace, capture=True)
            result = last_json(stdout) if code == 0 else None
            printed = set(result["metrics"]) if result else set()
            missing = sorted(set(expected[trace]) - printed)
            extra = sorted(printed - set(expected[trace]))
            good = (result is not None and result["correct"]
                    and result["failed"] == 0 and not missing and not extra)
            ok = ok and good
            print("%-18s trace=%d exit=%d %s%s%s" % (
                workload, trace, code, "ok" if good else "FAILED",
                " missing " + ",".join(missing) if missing else "",
                " unlisted " + ",".join(extra) if extra else ""))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload the binary knows, "
                        "e.g. mixed_closed_shm")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    code, _ = launch(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
