#!/usr/bin/env python3
"""The served-query benchmark's one command.

    python3 perfbench/run.py --workload hot-mix|adhoc-mix|cold-large \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `gql` and the load generator from
source with dune, records the host, then runs the load generator, whose
last output line is the JSON result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUDGET_S = 175  # a run must end within 180 s once built ...
BUILD_BUDGET_S = 850  # ... and within 900 s when it builds from scratch
NEEDED = ["dune-project", "bin/gql.ml", "lib/server/server.ml", "perfbench/dune",
          "perfbench/loadgen.ml"]
TARGETS = ["./bin/gql.exe", "./perfbench/loadgen.exe"]


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the build reads, in path order."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(root, n) for n in sorted(names)
                      if n == "dune" or n.endswith((".ml", ".mli", ".py"))]
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_group(cmd, timeout, **kw):
    """Run [cmd] in its own process group; on timeout stop the whole
    group (the load generator's servers included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        proc.wait(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["hot-mix", "adhoc-mix", "cold-large"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    start = time.time()

    missing = [p for p in NEEDED if not os.path.isfile(p)]
    if missing:
        fail(2, "not a checkout of the repository (missing %s)" % ", ".join(missing))

    code = run_group(["dune", "build", "--root", ".", *TARGETS], BUILD_BUDGET_S,
                     stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail(3, "build failed" if code is not None else "build timed out")
    built = time.time()

    host = {"nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "source_digest": source_digest(), "build_s": round(built - start, 3)}
    print("# host " + json.dumps(host), flush=True)

    cmd = ["./_build/default/perfbench/loadgen.exe", "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--gql", "./_build/default/bin/gql.exe"]
    build_s = built - start
    code = run_group(cmd, BUDGET_S - build_s if build_s < 60 else BUDGET_S - 5)
    if code is None:
        fail(4, "the load generator overran its time budget and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
