#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload shm-pair --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. The Go program is built into
.bench_build/ with its build cache there too, so the run writes nothing
outside the checkout. The program's standard output is passed through; its
last line is the JSON result. The exit code is the program's, or non-zero
with no result when the repository or the Go toolchain is missing.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "perfbench")

# A run that has not finished by then is stopped; the benchmark's contract
# allows 180 s per run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def go_env():
    """The environment for go and the benchmark: caches inside the
    checkout, no toolchain or module downloads, and none of the runtime's
    UPCXX_* settings leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UPCXX_")}
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    return env


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group and kill the whole group if it
    outlives timeout, so no rank process is left behind."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["shm-pair", "dht-batch", "task-drain"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal", "core")):
        print("perfbench: the repository's sources are not next to perfbench/; nothing to build", file=sys.stderr)
        return 2
    if shutil.which("go") is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    # stdout of the build goes to stderr: the last line of stdout is the result.
    sys.stdout.flush()
    rc = subprocess.call(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return 1
    return run([BIN, "-workload", args.workload, "-seed", str(args.seed),
                "-seconds", str(args.seconds), "-trace", str(args.trace),
                # Relative, so the shm conduit's Unix socket paths stay short.
                "-dir", os.path.join(".bench_build", "run")],
               cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
