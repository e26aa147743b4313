#!/usr/bin/env python3
"""Builds the dpn libraries and the benchmark binary, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny] [--corrupt 0|1]

Run it from the repository root.  The build goes to .bench_build/ (the
repository's own CMake project, at its default RelWithDebInfo build type,
for the libraries; perfbench/CMakeLists.txt for the binary).  The first
run builds from scratch; later runs only check that the build is current.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Earlier lines carry the run's provenance ("meta ...") and every metric by
name and unit.  The workloads and metrics are described in NOTES.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("sieve_local", "stream_deep", "stream_wide", "factor_farm")
# These select a different program under test (scheduler, transport,
# flight recorder); a result measured with one set would not be comparable.
FORBIDDEN_ENV = ("DPN_SCHED", "DPN_TRANSPORT", "DPN_FLIGHT")
# dpn_perfbench abandons its own rounds after 150 s; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    log.write(("$ " + " ".join(str(c) for c in cmd) + "\n").encode())
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def library_targets():
    """Every library the repository defines under src/."""
    targets = []
    for cmake in sorted((ROOT / "src").glob("*/CMakeLists.txt")):
        targets += re.findall(r"add_library\(\s*(\w+)", cmake.read_text())
    return targets


def build():
    """Configures (once) and builds; returns the benchmark binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no dpn sources next to {HERE.name}/ (expected CMakeLists.txt "
             "and src/ at the repository root)")
    targets = library_targets()
    if not targets:
        fail("no libraries found under src/")
    BUILD.mkdir(exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    lib_dir = BUILD / "dpn"
    bench_dir = BUILD / "perfbench"
    binary = bench_dir / "dpn_perfbench"
    log_path = BUILD / "build.log"
    with open(BUILD / "lock", "w") as lock, open(log_path, "ab") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (lib_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", ROOT, "-B", lib_dir, *generator,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", lib_dir, "-j", jobs, "--target",
                      *targets])
        if not (bench_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", HERE, "-B", bench_dir, *generator,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                          f"-DDPN_SOURCE_DIR={ROOT}",
                          f"-DDPN_BUILD_DIR={lib_dir}"])
        steps.append(["cmake", "--build", bench_dir, "-j", jobs])
        for step in steps:
            if run_logged(step, log) != 0:
                log.close()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    return binary


def provenance():
    """Commit (or a hash of src/ outside git), cores and DPN_* settings."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha1": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "dpn_env": {k: v for k, v in sorted(os.environ.items())
                    if k.startswith("DPN_")},
    }


def failed_result(trace, reason):
    """The result line of a run that never reported: all of it failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    listed = spec.get("per_layer" if trace else "end_to_end", [])
    print(f"perfbench: {reason}", file=sys.stderr)
    return {"correct": False, "attempted": 1, "failed": 1,
            "metrics": {m["name"]: {"value": 0.0, "unit": m["unit"]}
                        for m in listed}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", choices=("0", "1"), default="0")
    args = parser.parse_args()

    forbidden = [k for k in FORBIDDEN_ENV if k in os.environ]
    if forbidden:
        print("perfbench: refusing to run with " + ", ".join(forbidden) +
              " set: it changes the program under test", file=sys.stderr)
        sys.exit(2)

    binary = build()
    print("meta " + json.dumps(provenance()), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--corrupt", args.corrupt]
    # cwd: post-mortem dumps the runtime may write land in the build tree.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=BUILD, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stdout = ""
    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        result = failed_result(args.trace == "1",
                               f"dpn_perfbench gave no result (exit "
                               f"{proc.returncode})")
    else:
        lines = lines[:-1]
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
