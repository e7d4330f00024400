#!/usr/bin/env python3
"""Check each perfbench workload's sim_digest against a pinned value.

Usage: check_sim_digests.py [PINS]

PINS defaults to bench/baselines/perfbench_digests.json. For every
workload it names, runs

    perfbench/run.py --workload W --seed SEED --seconds 1 --trace 0

from the repository root (run.py builds perfbench on first use) and
compares the sim_digest line it prints with the pin. Prints one line
per workload. Exits 1 on a mismatch or a failed run, 2 on bad usage,
otherwise 0.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PINS = os.path.join(ROOT, "bench", "baselines",
                            "perfbench_digests.json")


def digest_of(workload, seed):
    """The sim_digest one short run prints, or None if the run failed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    for line in out.stdout.splitlines():
        if line.startswith("sim_digest "):
            return line.split()[1]
    return None


def main(argv):
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0] if argv else DEFAULT_PINS, encoding="utf-8") as f:
        pins = json.load(f)
    seed = pins["seed"]
    failed = False
    for workload, pinned in sorted(pins["digests"].items()):
        got = digest_of(workload, seed)
        ok = got == pinned
        failed = failed or not ok
        print("%-4s %-12s seed %d: %s (pinned %s)"
              % ("ok" if ok else "FAIL", workload, seed, got or "no digest",
                 pinned))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
