#!/usr/bin/env python3
"""Builds the PaRiS benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <ro_thread|rw_socket|rw_durable> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to stderr, so the last line of stdout is the result
JSON the benchmark prints. Cargo builds into $CARGO_TARGET_DIR (default
perfbench/target); the run's scratch files (WAL directories) live in a
per-run directory under it and are removed afterwards.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run takes well under a minute; a hung one is stopped after this.
RUN_TIMEOUT_S = 170


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if not configured:
        return os.path.join(HERE, "target")
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main(argv):
    target = target_dir()
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(target, "perfbench-scratch", str(os.getpid()))
    binary = os.path.join(target, "release", "paris-perfbench")
    # Its own process group, so a hung run takes its server children down
    # with it.
    proc = subprocess.Popen([binary, *argv, "--scratch", scratch], cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
