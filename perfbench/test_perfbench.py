#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds the binary like run.py does.
Checks that:
  * rack_kv's sim_digest is identical at 1 and 2 scheduler threads;
  * every workload's sim_digest repeats for the same seed;
  * every run is correct, and the metric names and units of untraced
    and traced runs are exactly BENCHMARK.json's end_to_end and
    per_layer lists.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build step)

SECONDS = "1"


def drive(binary, workload, seed, trace, extra=()):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)] + list(extra),
        capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (workload, out.returncode,
                                                 out.stderr))
    lines = out.stdout.strip().splitlines()
    digest = next(re.match(r"sim_digest (\w+)", l).group(1)
                  for l in lines if l.startswith("sim_digest "))
    return digest, json.loads(lines[-1])


def main():
    binary = run.build(run.build_dir())
    if binary is None:
        return 1
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    d1, _ = drive(binary, "rack_kv", 11, 0, ["--threads", "1"])
    d2, _ = drive(binary, "rack_kv", 11, 0, ["--threads", "2"])
    check(d1 == d2, "rack_kv sim_digest at 1 and 2 threads (%s, %s)"
          % (d1, d2))

    for w in spec["workloads"]:
        name = w["name"]
        da, plain = drive(binary, name, 5, 0)
        db, traced = drive(binary, name, 5, 1)
        check(da == db, "%s sim_digest repeats (%s, %s)" % (name, da, db))
        for trace, res, want in ((0, plain, e2e), (1, traced, layers)):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want,
                  "%s --trace %d metric names and units" % (name, trace))
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] > 0,
                  "%s --trace %d correct (%d of %d failed)"
                  % (name, trace, res["failed"], res["attempted"]))
        check(all(plain["metrics"][k]["value"] > 0 for k in e2e),
              "%s end-to-end metrics are nonzero" % name)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
