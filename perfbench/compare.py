"""Compare two versions of the library with the benchmark.

    python3 perfbench/compare.py run --base DIR --change DIR --workload W \
        [--pairs 10] [--seed 100] [--trace 0] --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

``run`` runs ``perfbench/run.py`` in two checkouts (parent and change) in
alternating pairs, the same seed for both sides of a pair, the base first
on even pairs and the change first on odd ones, each for BENCHMARK.json's
``run_seconds``, and appends one JSON line per run.  It stops when a run
fails, reports a wrong output, or gives a job's output a digest other than
the other side's for the same seed: the two versions must agree byte for
byte.  ``report`` prints one row per workload x metric: each side's
median and quartiles, the pairs the change won, and a verdict.  A metric
is ``better`` (or ``worse``) only when at least ten pairs ran, the change
wins (or loses) at least nine tenths of them, ties counting for neither,
and the medians differ by more than the parent's interquartile spread;
otherwise it is ``unresolved``.  ``in_bound`` says whether the change's median is no worse
than the parent's by more than the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9
MIN_PAIRS = 10


def run_pairs(args):
    seconds = spec()["run_seconds"]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.seed + pair
            sides = [("base", args.base), ("change", args.change)]
            digests = {}
            for side, root in sides if pair % 2 == 0 else sides[::-1]:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", args.workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(args.trace)],
                    cwd=root, capture_output=True, text=True)
                if proc.returncode:
                    sys.exit("%s run failed:\n%s" % (side, proc.stderr))
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                if not result["correct"]:
                    sys.exit("%s gave wrong output on seed %d:\n%s" % (
                        side, seed, proc.stderr))
                digests[side] = json.loads(next(
                    line for line in lines
                    if line.startswith("job_digests ")).split(" ", 1)[1])
                out.write(json.dumps({"side": side, "workload": args.workload,
                                      "pair": pair, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
            common = digests["base"].keys() & digests["change"].keys()
            differ = sorted(int(k) for k in common
                            if digests["base"][k] != digests["change"][k])
            if not common or differ:
                sys.exit("seed %d: outputs differ between base and change at "
                         "pool positions %s" % (seed, differ or "(none in common)"))


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


def directions():
    bench = spec()
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    return better, bounds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, higher):
    """(verdict, wins, pairs) by the pair-win and spread rule."""
    sign = 1 if higher else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    q1, med_b, q3 = quartiles(base)
    gap = sign * (statistics.median(change) - med_b)
    if len(base) < MIN_PAIRS:
        return "unresolved", wins, len(base)
    if wins >= WIN_SHARE * len(base) and gap > q3 - q1:
        return "better", wins, len(base)
    if losses >= WIN_SHARE * len(base) and -gap > q3 - q1:
        return "worse", wins, len(base)
    return "unresolved", wins, len(base)


def report(args):
    better, bounds = directions()
    runs = {}
    with open(args.file) as handle:
        for line in handle:
            row = json.loads(line)
            key = (row["workload"], row["pair"])
            runs.setdefault(key, {})[row["side"]] = row["result"]
    series = {}
    for (workload, _), sides in sorted(runs.items()):
        if set(sides) != {"base", "change"}:
            continue
        for metric in sides["base"]["metrics"]:
            entry = series.setdefault((workload, metric), ([], []))
            entry[0].append(sides["base"]["metrics"][metric]["value"])
            entry[1].append(sides["change"]["metrics"][metric]["value"])
    print("%-9s %-28s %-32s %-32s %-6s %-10s %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
        "wins", "verdict", "in_bound"))
    for (workload, metric), (base, change) in sorted(series.items()):
        higher = better.get(metric, "lower") == "higher"
        v, wins, pairs = verdict(base, change, higher)
        bq, cq = quartiles(base), quartiles(change)
        in_bound = "-"
        if metric in bounds:
            worse_by = (bq[1] - cq[1] if higher else cq[1] - bq[1]) / abs(bq[1])
            in_bound = "yes" if worse_by <= bounds[metric] else "no"
        print("%-9s %-28s %-32s %-32s %-6s %-10s %s" % (
            workload, metric, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
            "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
            "%d/%d" % (wins, pairs), v, in_bound))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--base", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=100)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("file")
    args = parser.parse_args(argv)
    if args.mode == "run":
        run_pairs(args)
    else:
        report(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
