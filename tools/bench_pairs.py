#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and record both sides.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        [--workload scaled-experiment] [--seeds 61,62,...,70] [--seconds S] \\
        [--output-dir .]

The seeds default to 61-70, ten pairs, the fewest a gain claim needs.
For each seed it runs ``perfbench/run.py --workload W --seed N --trace 0``
once in each checkout, one process at a time.  The side that goes first
alternates from seed to seed, so a drift in host speed falls on both sides
alike.  It then writes ``BENCH_<sha>_<workload>.json`` for each side, <sha>
being the checkout's short commit id before the first pair (with ``-dirty``
if its tree has uncommitted changes).  Each file holds the final JSON line of every seed's
run, the operations attempted and failed over all seeds, the median and
quartiles over the seeds of each metric, and for each end-to-end metric the
number of pairs in which that side reads better than the other (ties count
for neither), by the direction BENCHMARK.json gives it.  Every metric is
printed per seed, and each metric's medians, quartiles and wins at the end.
For each end-to-end metric it then prints the change's median as a signed
percentage of the parent's, next to the metric's bound, and whether a gain
could be claimed: over at least ten pairs, the change wins at least 9 in
10 of them and its median is better than the parent's by more than the
parent's interquartile range.  A claim that fails names the first of these
conditions it misses, with its numbers.
Two checkouts at the same commit id would write one file, so the tool
stops before the first pair when they are.
--seconds defaults to ``run_seconds`` of the change's BENCHMARK.json.

Both sides run in one bytecode regime: every run has
``PYTHONDONTWRITEBYTECODE=1``, and a ``__pycache__`` directory under either
checkout's ``src/`` stops the tool before the first pair.  A valid cache
on one side only would cut its start-up by about a third, so every
start-up figure would compare two different things.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIGN = {"lower": -1, "higher": 1}     # direction -> sign of a gain
CLAIM_PAIRS = 10                      # the fewest pairs a claim rests on
SEEDS = ",".join(str(seed) for seed in range(61, 61 + CLAIM_PAIRS))


def commit_id(checkout):
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    sha = git("rev-parse", "--short", "HEAD")
    return sha + "-dirty" if git("status", "--porcelain") else sha


def bytecode_caches(checkout):
    """The __pycache__ directories under the checkout's src/."""
    return sorted(os.path.join(base, name) for base, dirs, _
                  in os.walk(os.path.join(checkout, "src"))
                  for name in dirs if name == "__pycache__")


def run_once(checkout, workload, seed, seconds):
    """The final JSON line that perfbench/run.py prints in `checkout`,
    which writes no bytecode cache."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode != 0:
        raise SystemExit("%s, seed %d: perfbench exited %d\n%s"
                         % (checkout, seed, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    """The first and third quartiles of `values`, inclusive method."""
    if len(values) < 2:
        return [values[0], values[0]]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return [first, third]


def summary(sha, workload, seconds, runs, rivals, better):
    """One side's record: its runs, the median and quartiles of each metric,
    and the pairs it wins against `rivals`, the other side's runs in the
    same seed order, for each metric `better` maps to "lower" or "higher"."""
    def values(side, name):
        return [r["result"]["metrics"][name]["value"] for r in side]

    names = sorted(runs[0]["result"]["metrics"])
    return {
        "sha": sha,
        "workload": workload,
        "seconds": seconds,
        "runs": runs,
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "median": {name: statistics.median(values(runs, name))
                   for name in names},
        "quartiles": {name: quartiles(values(runs, name)) for name in names},
        "wins": {name: sum(SIGN[better[name]] * (ours - theirs) > 0
                           for ours, theirs in zip(values(runs, name),
                                                   values(rivals, name)))
                 for name in names if name in better},
    }


def claim_holds(parent, change, name, better):
    """Whether the change's gain on metric `name` may be claimed from the
    two summary() records: they hold at least CLAIM_PAIRS pairs, the change
    wins at least 9 in 10 of them, and its median is better than the
    parent's by more than the distance between the parent's quartiles."""
    return claim_shortfall(parent, change, name, better) is None


def claim_shortfall(parent, change, name, better):
    """The first condition of claim_holds that the two summary() records
    fail on metric `name`, with its numbers; None when all three hold."""
    pairs, wins = len(change["runs"]), change["wins"][name]
    first, third = parent["quartiles"][name]
    gap = SIGN[better] * (change["median"][name] - parent["median"][name])
    if pairs < CLAIM_PAIRS:
        return "%d pairs, fewer than %d" % (pairs, CLAIM_PAIRS)
    if 10 * wins < 9 * pairs:
        return "better in %d of %d pairs, fewer than 9 in 10" % (wins, pairs)
    if gap <= third - first:
        return ("median better by %.4g, not more than the parent's "
                "IQR %.4g" % (gap, third - first))
    return None


def main(argv=None):
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--parent", required=True, help="parent checkout")
    cli.add_argument("--change", required=True, help="changed checkout")
    cli.add_argument("--workload", default="scaled-experiment")
    cli.add_argument("--seeds", default=SEEDS,
                     help="comma-separated benchmark seeds, one pair each")
    cli.add_argument("--seconds", type=float)
    cli.add_argument("--output-dir", default=".")
    args = cli.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark["run_seconds"]
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    better = {name: metric["better"] for name, metric in metrics.items()}
    sides = {"parent": args.parent, "change": args.change}
    caches = [path for checkout in sides.values()
              for path in bytecode_caches(checkout)]
    if caches:
        raise SystemExit("bytecode cache %s: delete it, so that both sides "
                         "start without one" % caches[0])
    shas = {side: commit_id(checkout) for side, checkout in sides.items()}
    if shas["parent"] == shas["change"]:
        raise SystemExit("parent %s and change %s are both at %s: the "
                         "change's record would overwrite the parent's"
                         % (args.parent, args.change, shas["parent"]))
    runs = {side: [] for side in sides}
    for index, seed in enumerate(seeds):
        order = ["parent", "change"]
        if index % 2:
            order.reverse()
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append({"seed": seed, "result": result})
            print("seed %d %s: failed %d, %s" % (
                seed, side, result["failed"], ", ".join(
                    "%s %.4f" % (name, metric["value"]) for name, metric
                    in sorted(result["metrics"].items()))), file=sys.stderr)
    records = {}
    for side, rival in (("parent", "change"), ("change", "parent")):
        records[side] = summary(shas[side], args.workload, seconds,
                                runs[side], runs[rival], better)
        path = os.path.join(args.output_dir,
                            "BENCH_%s_%s.json" % (shas[side], args.workload))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records[side], handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(path)
    parent, change = records["parent"], records["change"]
    for name in sorted(change["median"]):
        print("%s: parent %.4f [%.4f, %.4f], change %.4f [%.4f, %.4f], "
              "change better in %s of %d pairs"
              % (name, parent["median"][name], *parent["quartiles"][name],
                 change["median"][name], *change["quartiles"][name],
                 change["wins"].get(name, "-"), len(change["runs"])),
              file=sys.stderr)
    for name, metric in metrics.items():
        base = parent["median"][name]
        shortfall = claim_shortfall(parent, change, name, metric["better"])
        print("%s: change %+.2f%% of the parent's median (bound %g%%), "
              "gain claim %s" % (
                  name, 100.0 * (change["median"][name] - base) / base,
                  100.0 * metric["bound"],
                  "holds" if shortfall is None else "fails: " + shortfall),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
