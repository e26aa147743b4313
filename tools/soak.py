#!/usr/bin/env python3
"""Soaks one gtest filter on one or more test binaries, interleaved, under load.

    python3 tools/soak.py --filter 'Suite.Test:Other.Test' [--runs 500] \
        [--busy 3] [--timeout 60] [--logs DIR] BINARY [BINARY ...]

Run i invokes every binary once with `--gtest_filter=<filter>`, in the
given order, before run i+1 starts, so drift of the host hits each binary
alike (give the parent's binary and the change's binary to compare them).
`--busy K` keeps K cores busy with spinning processes for the whole soak.
A run fails when the binary exits non-zero or outlives `--timeout`.
Binaries run inside DIR (default: the current directory), so files they
write there, such as flight-recorder dumps, stay with the soak's logs.

Prints the failure count per binary and keeps each binary's first failing
log as DIR/soak-<index>-<binary name>.log.  Exit status: 0 when no run
failed, else 1.
"""

import argparse
import subprocess
import sys
from pathlib import Path

SPIN = "while True: pass"


def run_once(binary, test_filter, timeout, cwd):
    """One invocation; returns (passed, combined output)."""
    try:
        done = subprocess.run(
            [binary, f"--gtest_filter={test_filter}"], cwd=cwd,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            errors="replace", timeout=timeout)
    except subprocess.TimeoutExpired as e:
        output = e.stdout or ""
        if isinstance(output, bytes):
            output = output.decode(errors="replace")
        return False, output + f"\n[soak] timed out after {timeout} s\n"
    return done.returncode == 0, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binaries", nargs="+")
    parser.add_argument("--filter", required=True)
    parser.add_argument("--runs", type=int, default=500)
    parser.add_argument("--busy", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=60)
    parser.add_argument("--logs", default=".")
    args = parser.parse_args()

    logs = Path(args.logs)
    logs.mkdir(parents=True, exist_ok=True)
    binaries = [str(Path(b).resolve()) for b in args.binaries]
    fails = [0] * len(binaries)
    spinners = [subprocess.Popen([sys.executable, "-c", SPIN])
                for _ in range(args.busy)]
    try:
        for run in range(1, args.runs + 1):
            for i, binary in enumerate(binaries):
                passed, output = run_once(binary, args.filter, args.timeout,
                                          logs)
                if passed:
                    continue
                fails[i] += 1
                if fails[i] == 1:
                    log = logs / f"soak-{i}-{Path(binary).name}.log"
                    log.write_text(output)
                    print(f"run {run}: {binary} failed; log kept in {log}",
                          flush=True)
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()

    print(f"filter {args.filter}, {args.runs} runs each, "
          f"{args.busy} busy cores")
    for binary, count in zip(binaries, fails):
        print(f"  {count:5d} / {args.runs} failed  {binary}")
    return 1 if any(fails) else 0


if __name__ == "__main__":
    sys.exit(main())
