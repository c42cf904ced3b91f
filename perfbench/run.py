#!/usr/bin/env python3
"""Build the name-server benchmark from source and run one workload.

    python3 perfbench/run.py --workload lookup-rpc --seed 1 --seconds 10 --trace 0

Run from the root of a source tree.  The program is built with dune
into _build/; the load generator then starts the server in a child
process and drives it over a Unix-domain socket under .perfbench_run/.
The last line printed is the result object; the exit code is non-zero
when the build, the run or any correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["lookup-rpc", "update-rpc", "ckpt-restart"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=os.setpgrp, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 124
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        print("dune not found on PATH", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("not a source tree: no dune-project at the root", file=sys.stderr)
        return 2
    code = run([dune, "build", "--root", ROOT, "./perfbench/nsbench.exe"], BUILD_TIMEOUT_S,
               stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        print(f"build failed (exit {code})", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "nsbench.exe")
    sys.stdout.flush()
    return run([exe, "drive", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--rev", revision(), "--nproc", str(len(os.sched_getaffinity(0)))],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
