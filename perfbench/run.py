#!/usr/bin/env python3
"""End-to-end serving benchmark for raceserved, with a per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload screen-short --seed 1 --seconds 10 --trace 0

Builds the daemon and the two benchmark binaries from source on first use
(Release, into .bench_build/), prints the host context, then runs one of:

  --trace 0  perfbench_load: untraced closed-loop load; end-to-end metrics.
  --trace 1  perfbench_replay: traced replay through every layer; per-layer
             metrics.

The last line of standard output is the JSON result.  A failed build, a
failed run or a wrong answer exits non-zero.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("pairwise-full", "screen-short", "graph-map")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build once per checkout; later runs are a no-op check."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "rl")
    ):
        log("the repository sources are missing; nothing to build")
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
            )
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
                log("build failed: " + " ".join(cmd))
                return False
    return True


def spin(iterations):
    x = 0
    for i in range(iterations):
        x += i
    return x


def effective_cores(workers):
    """N spinning processes against one: N x t1 / tN (1.0 = no parallelism)."""
    iterations = 1_000_000

    def timed(n):
        t0 = time.perf_counter()
        pids = []
        for _ in range(n):
            pid = os.fork()
            if pid == 0:
                spin(iterations)
                os._exit(0)
            pids.append(pid)
        for pid in pids:
            os.waitpid(pid, 0)
        return time.perf_counter() - t0

    one = timed(1)
    many = timed(workers)
    return workers * one / many if many > 0 else 0.0


def cgroup_cpu_max():
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if done.returncode == 0:
            return done.stdout.decode().strip()
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest():
    """Content hash of the library and daemon sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def host_context():
    affinity = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": affinity,
        "cgroup_cpu_max": cgroup_cpu_max(),
        "effective_cores": round(effective_cores(affinity), 3),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def stop_group(child):
    """Kill whatever is left of the child's process group and wait for it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not build():
        return 1
    print("host: " + json.dumps(host_context()), flush=True)

    binary = os.path.join(BUILD_DIR, "perfbench_replay" if args.trace else "perfbench_load")
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--dir", scratch]
        # Its own process group, so the daemons it starts can be
        # reaped with it even if it dies without stopping them.
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = b""
            log(f"{os.path.basename(binary)} did not finish in {RUN_TIMEOUT_S} s")
        finally:
            stop_group(child)
        lines = out.decode(errors="replace").splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode != 0 or not lines:
            if lines:
                print(lines[-1], file=sys.stderr)
            log(f"{os.path.basename(binary)} exited {child.returncode}")
            return 1
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            log("malformed result line")
            return 1
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    finally:
        spans = os.path.join(scratch, "spans.tsv")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(BUILD_ROOT, f"spans-{args.workload}.tsv"))
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
