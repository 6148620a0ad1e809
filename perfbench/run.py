#!/usr/bin/env python3
"""Entry point of the serving benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload query|update|ingest \
        --seed N --seconds S --trace 0|1

Builds `bin/ruidtool.exe` and `perfbench/loadgen.exe` with dune, then runs
the load generator, which prints every metric by name and unit on stderr
and ends its standard output with one JSON result line.  The exit code is
the load generator's: 0 only when every operation succeeded with a correct
answer.  Working files go to `.perfbench/` under the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("query", "update", "ingest")
LOADGEN = os.path.join("_build", "default", "perfbench", "loadgen.exe")
RUIDTOOL = os.path.join("_build", "default", "bin", "ruidtool.exe")


def source_tree_present():
    return all(
        os.path.exists(p)
        for p in ("dune-project", "lib", os.path.join("bin", "ruidtool.ml"))
    )


def revision():
    """The commit under test, when this directory is a git work tree."""
    if os.environ.get("PERFBENCH_REV"):
        return os.environ["PERFBENCH_REV"]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    """Build both programs; True on success.

    A build from scratch gets 800 s.  Once the programs exist, a build is
    an up-to-date check that takes a second or two, so one that runs for a
    minute has hung (a dune process can wedge on its build lock); it is
    killed and tried once more.
    """
    cold = not (os.path.exists(LOADGEN) and os.path.exists(RUIDTOOL))
    for _ in range(1 if cold else 2):
        # Build output stays off stdout, whose last line is the result;
        # the shared dune cache stays off, so the build writes only under
        # the checkout.
        try:
            done = subprocess.run(
                ["dune", "build", "--root", ".",
                 "./" + RUIDTOOL.split("default/")[1],
                 "./" + LOADGEN.split("default/")[1]],
                stdout=sys.stderr, stderr=sys.stderr,
                env=dict(os.environ, DUNE_CACHE="disabled"),
                timeout=800 if cold else 60,
            )
        except subprocess.TimeoutExpired:
            print("perfbench: dune build timed out", file=sys.stderr)
            continue
        return done.returncode == 0 and os.path.exists(LOADGEN)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not source_tree_present():
        print("perfbench: no source tree here (dune-project, lib/, "
              "bin/ruidtool.ml); run from the root of a checkout",
              file=sys.stderr)
        return 2

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env = dict(os.environ, PERFBENCH_REV=revision())
    # The load generator and the servers it launches share a session of
    # their own, so nothing outlives this script even if it is cut short.
    proc = subprocess.Popen(
        [LOADGEN, "--ruidtool", RUIDTOOL,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, start_new_session=True,
    )

    def forward(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


if __name__ == "__main__":
    sys.exit(main())
