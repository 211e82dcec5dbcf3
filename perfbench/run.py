#!/usr/bin/env python3
"""Build the sizing pipeline and its benchmark from source, run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  The workload runs in a fresh process
(perfbench/bench.ml); this script builds it and the bufsize CLI with dune,
adds the machine part of the run fingerprint (nproc, git commit), relays
the benchmark's output, and makes sure every process it started has ended.
The last line of standard output is the JSON result.  With --out, the
fingerprint and result are also appended to FILE as one JSON line, the
input of perfbench/compare.py.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("table1-sweep", "fig3-resim", "serve-explore", "bridge-kron")
BENCH_EXE = "_build/default/perfbench/bench.exe"
CLI_EXE = "_build/default/bin/bufsize_cli.exe"
RUN_TIMEOUT_S = 170


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--out")
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a bufsize checkout")
    # No shared dune cache: the build reads and writes inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/bufsize_cli.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        BENCH_EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--cli", CLI_EXE, "--commit", git_commit(),
    ]
    # Own process group, so a timeout also ends the daemon the serve
    # workload starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: workload timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(out)
        sys.exit("perfbench: workload exited with code %d" % proc.returncode)
    fingerprint = json.loads(lines[-2])["fingerprint"]
    fingerprint["nproc"] = os.cpu_count()
    result = json.loads(lines[-1])
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"fingerprint": fingerprint}))
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps({"fingerprint": fingerprint, "result": result}) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()
