#!/usr/bin/env python3
"""Paired repository-benchmark comparison of two source trees.

Usage: perf_pairs.py --base DIR --change DIR --workload W
                     [--pairs 10] [--seconds 20] [--seed-base N]

Builds each tree with that tree's own perfbench/run.py into its own
build directory (CARGO_TARGET_DIR=DIR/.bench_build), then runs
--pairs pairs of the workload. Both runs of pair i use seed
seed-base + i, and the side that runs first alternates from pair to
pair, so drift on the host hits both sides alike.

For every end-to-end metric of the base tree's BENCHMARK.json it
prints each side's median, p25 and p75, how many pairs the change
won, and a verdict:
  gain       at least 10 pairs ran, the change won >= 90% of them, and
             its median beats the base median by more than the base's
             IQR
  unresolved either side's IQR exceeds the metric's bound (relative
             to its median), so the runs spread too widely to tell
  worse      the change's median is worse than the base's by more
             than the bound
  within     none of the above
It also prints each side's failed/attempted operation counts and
whether the two sides' sim_digest agreed on every pair.

Stops and exits 1 at the first run that fails or reports an incorrect
result, exits 2 on bad usage, otherwise 0 (a "worse" verdict is
reported, not enforced).
"""

import argparse
import json
import os
import subprocess
import sys

SIDES = ("base", "change")


def build(tree, env):
    """Build the tree's perfbench binary with its own run.py."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(run.build(run.build_dir()) is None)")
    return subprocess.call([sys.executable, "-B", "-c", code], cwd=tree,
                           env=env) == 0


def run_once(tree, env, workload, seed, seconds):
    """One perfbench run; returns (result JSON, sim_digest) or None."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return None
    digest = next((l.split()[1] for l in lines
                   if l.startswith("sim_digest ")), "?")
    try:
        return json.loads(lines[-1]), digest
    except ValueError:
        return None


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rel(delta, ref):
    """delta as a fraction of ref (ref 0: zero or infinite)."""
    if ref:
        return delta / abs(ref)
    return 0.0 if delta == 0 else float("inf")


def verdict(metric, base, change):
    """Wins, relative median gap and verdict for one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = float(metric["bound"])
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    b_med, c_med = quantile(base, 0.5), quantile(change, 0.5)
    b_iqr = quantile(base, 0.75) - quantile(base, 0.25)
    c_iqr = quantile(change, 0.75) - quantile(change, 0.25)
    gap = sign * (c_med - b_med)
    if len(base) >= 10 and wins >= 0.9 * len(base) and gap > b_iqr:
        word = "gain"
    elif rel(b_iqr, b_med) > bound or rel(c_iqr, c_med) > bound:
        word = "unresolved"
    elif rel(-gap, b_med) > bound:
        word = "worse"
    else:
        word = "within"
    return wins, rel(c_med - b_med, b_med), word


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")

    trees = {s: os.path.abspath(getattr(args, s)) for s in SIDES}
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    envs = {}
    for side in SIDES:
        envs[side] = dict(os.environ, CARGO_TARGET_DIR=os.path.join(
            trees[side], ".bench_build"))
        print("building %s (%s)" % (side, trees[side]), flush=True)
        if not build(trees[side], envs[side]):
            print("FAIL %s: build failed" % side)
            return 1

    values = {s: {m["name"]: [] for m in metrics} for s in SIDES}
    ops = {s: [0, 0] for s in SIDES}  # failed, attempted
    digests_agree = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        digests = {}
        for side in order:
            got = run_once(trees[side], envs[side], args.workload, seed,
                           args.seconds)
            if got is None:
                print("FAIL pair %d %s: run failed" % (i + 1, side))
                return 1
            res, digests[side] = got
            ops[side][0] += res["failed"]
            ops[side][1] += res["attempted"]
            if not res["correct"] or res["failed"]:
                print("FAIL pair %d %s: incorrect (%d of %d failed)"
                      % (i + 1, side, res["failed"], res["attempted"]))
                return 1
            for m in metrics:
                values[side][m["name"]].append(
                    res["metrics"][m["name"]]["value"])
        digests_agree &= len(set(digests.values())) == 1
        print("pair %d seed %d: %s first, ops_per_s %s" % (
            i + 1, seed, order[0], " vs ".join(
                "%s %.0f" % (s, values[s]["ops_per_s"][-1])
                for s in SIDES)), flush=True)

    print("\n%s, %d pairs of %d s, seeds %d..%d" % (
        args.workload, args.pairs, args.seconds, args.seed_base,
        args.seed_base + args.pairs - 1))
    print("%-14s %-7s %14s %14s %14s   %s" % (
        "metric", "side", "median", "p25", "p75", "wins  gap  verdict"))
    for m in metrics:
        name = m["name"]
        for side in SIDES:
            xs = values[side][name]
            print("%-14s %-7s %14.6g %14.6g %14.6g" % (
                name if side == "base" else "", side, quantile(xs, 0.5),
                quantile(xs, 0.25), quantile(xs, 0.75)), end="")
            if side == "base":
                print()
        wins, gap, word = verdict(m, values["base"][name],
                                  values["change"][name])
        print("   %d/%d %+.1f%% %s (%s is better, bound %g)" % (
            wins, args.pairs, 100 * gap, word, m["better"], m["bound"]))
    for side in SIDES:
        print("%-7s failed/attempted %d/%d" % (side, ops[side][0],
                                                ops[side][1]))
    print("sim_digest %s on every pair" % (
        "equal" if digests_agree else "DIFFERS"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
