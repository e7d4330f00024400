#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

`--workload all` runs the four workloads in turn, so one command
prints every workload's metrics.

Run from the repository root. The first run configures and builds
libenzian plus the perfbench binary (Release) under the directory named
by $CARGO_TARGET_DIR, or .bench_build; later runs only rebuild what
changed. Build output goes to a log file in that directory, so the
binary's JSON result stays the last line of standard output. Any other
arguments are passed to the binary unchanged.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("link_sweep", "eci_stream", "rack_kv", "serving_mix")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configure once, then build incrementally. Returns the binary."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    ninja = shutil.which("ninja") is not None
    steps = []
    # The generator writes its build file only after a clean configure.
    if not os.path.exists(os.path.join(out, "build.ninja" if ninja
                                       else "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"]
                     + (["-G", "Ninja"] if ninja else []))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                sys.stderr.write("perfbench: build step failed (%s); see %s\n"
                                 % (" ".join(cmd), log_path))
                return None
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        return subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv):
    args = list(argv)
    if "--workload" not in args:
        sys.stderr.write("usage: run.py --workload {%s} --seed N --seconds S "
                         "--trace 0|1\n" % ",".join(WORKLOADS))
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    if "--git-sha" not in args:
        args += ["--git-sha", git_sha()]
    wi = args.index("--workload") + 1
    names = WORKLOADS if args[wi:wi + 1] == ["all"] else args[wi:wi + 1]
    rc = 0
    for name in names:
        run_args = list(args)
        run_args[wi] = name
        if "--trace-out" not in args and "--trace" in args:
            i = args.index("--trace")
            if i + 1 < len(args) and args[i + 1] == "1":
                run_args += ["--trace-out",
                             os.path.join(out, "trace_%s.json" % name)]
        sys.stdout.flush()
        status = subprocess.call([binary] + run_args)
        rc = rc or status
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
