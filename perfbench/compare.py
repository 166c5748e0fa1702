#!/usr/bin/env python3
"""Compare two sets of perfbench runs made alternately on one host.

    python3 perfbench/compare.py BEFORE AFTER [--bench=BENCHMARK.json]

BEFORE and AFTER are files or directories holding the standard output of
untraced perfbench runs (several runs may be concatenated in one file).

Host speed drifts by more than a bound over minutes, so the two sides
must be run in pairs: for each workload and seed one BEFORE and one AFTER
run, back to back, with the side that goes first alternating from pair to
pair (A B, B A, A B, ...). Each run's first line carries its start time,
and the input is refused when a workload's runs are not paired this way.
Drift then hits both runs of a pair alike, and the verdicts rest on the
per-pair change.

For every workload and end-to-end metric of BENCHMARK.json, prints each
side's median and quartiles, the median per-pair gain (the relative
change, positive when AFTER is better) and a verdict:

  better      AFTER wins at least 9 in 10 pairs and the medians differ by
              more than BEFORE's own spread (quartile distance)
  worse       the median per-pair change is worse than the bound
  unchanged   neither, and the per-pair changes' spread fits the bound
  unresolved  neither, but that spread exceeds the bound: the runs cannot
              tell a change of that size from noise

A run that printed "correct": false, or that started but printed no
result, is incorrect. Any incorrect AFTER run, or a workload with runs on
one side only, fails the workload. Exits 1 when any verdict is "worse" or
any workload failed, 2 on unusable input.
"""

import json
import os
import statistics
import sys

WIN_SHARE = 0.9


def read_runs(path):
    """Every untraced run under `path`, as dicts with the keys workload,
    seed, started, correct and metrics (None for a run with no result).

    A run opens with a `perfbench_run` line and ends with its result line;
    a run whose output stops before the result (it crashed) is incorrect.
    """
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in sorted(names)]
    else:
        files = [path]
    runs = []
    for name in files:
        objs = []
        with open(name, encoding="utf-8") as f:
            for line in f:
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if isinstance(obj, dict) and ("perfbench_run" in obj or "metrics" in obj):
                    objs.append(obj)
        run = None
        for obj in objs + [None]:
            if obj is not None and "metrics" in obj:
                if run is not None:
                    run["correct"] = obj.get("correct") is True
                    run["metrics"] = {k: v["value"] for k, v in obj["metrics"].items()}
                continue
            if run is not None and run.pop("trace") == 0:
                runs.append(run)
            run = None
            if obj is not None:
                start = obj["perfbench_run"]
                run = {"workload": start["workload"], "seed": start["seed"],
                       "started": start["started_unix"], "trace": start["trace"],
                       "correct": False, "metrics": None}
    return runs


def summary(values):
    """(median, first quartile, third quartile) as the driver computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def gain(before, after, better):
    """Relative improvement of `after` over `before` (negative = worse)."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "higher" else -change


def pair_runs(before, after):
    """[(before metrics, after metrics)] of one workload's correct runs,
    paired by seed. Raises ValueError unless every seed has one run per
    side, each pair ran back to back, and the side that ran first
    alternates (the two orders differ in count by at most one)."""
    for side, runs in (("BEFORE", before), ("AFTER", after)):
        seeds = [r["seed"] for r in runs]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{side} has more than one run of a seed")
    if sorted(r["seed"] for r in before) != sorted(r["seed"] for r in after):
        raise ValueError("BEFORE and AFTER ran different seeds")
    timeline = sorted([(r["started"], 0, r) for r in before] +
                      [(r["started"], 1, r) for r in after], key=lambda t: t[0])
    pairs, first = [], [0, 0]
    for (_, side_x, x), (_, side_y, y) in zip(timeline[::2], timeline[1::2]):
        if side_x == side_y or x["seed"] != y["seed"]:
            raise ValueError(f"seed {x['seed']}: its BEFORE and AFTER runs are not back to back")
        first[side_x] += 1
        b, a = (x, y) if side_x == 0 else (y, x)
        pairs.append((b, a))
    if abs(first[0] - first[1]) > 1:
        raise ValueError(f"BEFORE ran first in {first[0]} pairs and AFTER in {first[1]}; "
                         "alternate the order")
    return [(b["metrics"], a["metrics"]) for b, a in pairs if b["correct"] and a["correct"]]


def verdict(metric, pairs):
    """Summaries of both sides, the median per-pair change and the verdict
    for one metric over [(before metrics, after metrics)] pairs."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = [x[name] for x, _ in pairs]
    b = [y[name] for _, y in pairs]
    (a_med, a_q1, a_q3), (b_med, b_q1, b_q3) = summary(a), summary(b)
    a_spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    changes = [gain(x[name], y[name], better) for x, y in pairs]
    change, c_q1, c_q3 = summary(changes)
    wins = sum(1 for c in changes if c > 0)
    if change < -bound:
        word = "worse"
    elif gain(a_med, b_med, better) > a_spread and wins >= WIN_SHARE * len(pairs):
        word = "better"
    elif c_q3 - c_q1 <= bound:
        word = "unchanged"
    else:
        word = "unresolved"
    return (a_med, a_q1, a_q3), (b_med, b_q1, b_q3), change, word


def compare(spec, before, after, out=sys.stdout):
    """Prints the comparison; returns the exit code."""
    code = 0
    print(f"{'workload':12} {'metric':24} {'before median [q1, q3]':>34} "
          f"{'after median [q1, q3]':>34} {'gain':>8}  verdict", file=out)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = [r for r in before if r["workload"] == workload]
        b_runs = [r for r in after if r["workload"] == workload]
        if not a_runs and not b_runs:
            continue
        if not a_runs or not b_runs:
            side = "BEFORE" if not a_runs else "AFTER"
            print(f"{workload:12} FAILED: no {side} runs", file=out)
            code = max(code, 1)
            continue
        a_bad = sum(1 for r in a_runs if not r["correct"])
        b_bad = sum(1 for r in b_runs if not r["correct"])
        try:
            pairs = pair_runs(a_runs, b_runs)
        except ValueError as e:
            print(f"compare: {workload}: {e}", file=sys.stderr)
            return 2
        if b_bad:
            print(f"{workload:12} FAILED: {b_bad} of {len(b_runs)} AFTER runs incorrect "
                  f"(BEFORE: {a_bad})", file=out)
            code = max(code, 1)
            continue
        if not pairs:
            print(f"{workload:12} (no pair with a correct BEFORE run; {a_bad} incorrect)",
                  file=out)
            continue
        for metric in spec["end_to_end"]:
            (am, a1, a3), (bm, b1, b3), change, word = verdict(metric, pairs)
            if word == "worse":
                code = max(code, 1)
            print(f"{workload:12} {metric['name']:24} "
                  f"{am:12.5g} [{a1:9.4g}, {a3:9.4g}] {bm:12.5g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{change:+8.1%}  {word}  (pairs={len(pairs)}, BEFORE incorrect={a_bad})",
                  file=out)
    return code


def main(argv):
    args = [a for a in argv if not a.startswith("--bench")]
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    for a in argv:
        if a.startswith("--bench="):
            bench = a.split("=", 1)[1]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(bench, encoding="utf-8") as f:
        spec = json.load(f)
    before, after = read_runs(args[0]), read_runs(args[1])
    if not before or not after:
        print("compare: no untraced runs found on one side", file=sys.stderr)
        return 2
    return compare(spec, before, after)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
