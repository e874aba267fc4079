"""leibniz-lab benchmark: one workload, one process, one job in flight.

    python3 perfbench/run.py --workload {classify,bridge,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` it times whole cycles of jobs for about S seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed job
list untraced, traced (spans) and counted (Scalar operations), plus a
Scalar microbenchmark, and reports the per-layer metrics.  Either way it
checks every job's output, prints a table and each job's output digest,
and prints one JSON object as its last line.  ``--record-golden`` runs the
whole pool of the default seed once and stores its output digests in
``golden.json``.

Times are reported normalized to a reference kernel (see REF_NOMINAL_S;
set-up time to a standard-library import, see SETUP_REF_MODULES); the
table also shows the raw wall-clock figures.
"""

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 15
TRACE_CYCLES = 2
TAIL_BEYOND = 10
WALL_CAP = 1.5

# The speed of a core on the shared host drifts by up to 1.8x over seconds
# to minutes, which no affordable run length averages out.  So a fixed
# exact-arithmetic kernel that does not touch the library is timed after
# every job, and each job's wall time is scaled by REF_NOMINAL_S over the
# median kernel time of the REF_WINDOW samples around it.  REF_NOMINAL_S is
# the kernel's time on an uncontended core of the machine that defined the
# benchmark (2-core VM, Python 3.11.7), so normalized times read as seconds
# there.
REF_NOMINAL_S = 0.0065
REF_WINDOW = 6
_REF_RNG = random.Random(0)
REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
               for _ in range(16)] for _ in range(16)]

# Set-up is mostly import work, which slows less than that kernel when the
# host is slow, so the kernel over-corrects it.  Each set-up child instead
# times, right after its set-up, the import of standard-library modules that
# neither the library nor the benchmark loads, and its set-up time is scaled
# by SETUP_REF_NOMINAL_S over that (about that import's time on an
# uncontended core of the same machine).
SETUP_REF_MODULES = ("email.message", "http.client", "xml.dom.minidom",
                     "tarfile", "pickletools", "configparser")
SETUP_REF_NOMINAL_S = 0.025

# Pool position -> digest of that job's canonical output.  A job that runs
# again in the same run (next cycle, traced, counted) must give the same
# digest; the table is printed so that compare.py can require equal digests
# from the two versions it compares, on every seed.
DIGESTS = {}


def reference():
    t0 = time.perf_counter()
    workloads.fraction_rank(REF_MATRIX)
    return time.perf_counter() - t0


def normalize(walls, refs):
    """Scaled wall times; walls[j] ran between refs[j] and refs[j + 1]."""
    half = REF_WINDOW // 2
    return [wall * REF_NOMINAL_S
            / statistics.median(refs[max(0, j + 1 - half):j + 1 + half])
            for j, wall in enumerate(walls)]


def import_lab():
    """Import leibniz_lab from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "leibniz_lab", "__init__.py")):
        sys.exit("perfbench: no src/leibniz_lab in %s" % ROOT)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import leibniz_lab
    if not os.path.abspath(leibniz_lab.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: leibniz_lab imported from %s" % leibniz_lab.__file__)
    return leibniz_lab


def make_workload(name, seed, workdir):
    import_lab()
    return workloads.Workload(name, ROOT, seed, workdir)


def setup_reference():
    loaded = [m for m in SETUP_REF_MODULES if m in sys.modules]
    if loaded:
        sys.exit("perfbench: set-up reference modules already loaded: %s" % loaded)
    t0 = time.perf_counter()
    for module in SETUP_REF_MODULES:
        importlib.import_module(module)
    return time.perf_counter() - t0


def setup_seconds(name, seed):
    """(normalized, wall) medians over SETUP_REPEATS fresh interpreters of
    the time each takes to import the library and build the workload's
    inputs in memory; interpreter start-up, the same for every version, is
    left out.  The cli corpus is written to disk later, untimed: file
    creation on the host takes 0.03-0.15 s at random, and the library has
    no part in it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        samples.append(json.loads(proc.stdout))
    return (statistics.median(wall * SETUP_REF_NOMINAL_S / ref for wall, ref in samples),
            statistics.median(wall for wall, _ in samples))


class Tally:
    """Runs and checks jobs; keeps their wall times, the reference times
    between them, and the pass/fail count."""

    def __init__(self, wl, seed, run=None):
        self.wl = wl
        self.run = run or wl.run
        self.golden = None
        if seed == workloads.DEFAULT_SEED:
            with open(GOLDEN) as handle:
                self.golden = json.load(handle)[wl.name]
        self.walls, self.refs = [], [reference()]
        self.attempted = self.failed = 0

    def job(self, index, tracer=None):
        job = self.wl.pool[index % len(self.wl.pool)]
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            out = self.run(job)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        finally:
            if tracer is not None:
                tracer.on = False
        self.walls.append(wall)
        self.refs.append(reference())
        try:
            ok, dig = self.wl.check(job, out)
        except Exception:  # output of the wrong shape counts as wrong
            traceback.print_exc()
            ok = False
        pos = index % len(self.wl.pool)
        if ok:
            ok = DIGESTS.setdefault(pos, dig) == dig
        if ok and self.golden is not None:
            ok = self.golden[pos] == dig
        if not ok:
            print("perfbench: wrong output for %s job %d" % (self.wl.name, index),
                  file=sys.stderr)
            self.failed += 1

    def latencies(self):
        return normalize(self.walls, self.refs)


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the minimum when there are too few samples."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(name, seed, seconds):
    """Whole cycles of jobs until the next one would pass ``seconds`` of
    normalized time, so that the number of jobs, and with it the tail
    percentile, does not depend on the machine's current speed; a run never
    takes more than WALL_CAP times ``seconds`` of wall time."""
    setup_s, setup_wall = setup_seconds(name, seed)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        wl = make_workload(name, seed, workdir)
        Tally(wl, seed).job(0)  # warm-up, not counted
        tally = Tally(wl, seed)
        start = time.perf_counter()
        index = 0
        while True:
            done = len(tally.walls)
            for _ in range(wl.cycle):
                tally.job(index)
                index += 1
            lat = tally.latencies()
            if (sum(lat) + sum(lat[done:]) > seconds
                    or time.perf_counter() - start > WALL_CAP * seconds):
                break
    finally:
        shutil.rmtree(workdir)
    lat, walls = tally.latencies(), tally.walls
    correct = tally.attempted - tally.failed
    tail_s, pct = tail(lat)
    if name == "cli":
        peak_kb = wl.run.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (correct / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "correct_frac": (correct / tally.attempted, "ratio"),
    }
    notes = {"setup_s": "wall: %.6g" % setup_wall,
             "jobs_per_s": "wall: %.6g" % (correct / sum(walls)),
             "job_p50_s": "wall: %.6g" % statistics.median(walls),
             "job_tail_s": "wall: %.6g; p%.1f of %d jobs" % (
                 tail(walls)[0], pct, len(lat)),
             "correct_frac": "error_rate = %d/%d" % (tally.failed, tally.attempted)}
    return metrics, notes, tally.attempted, tally.failed


def scalar_micro(lab, number=4000, repeat=7):
    """Normalized ns per Scalar operation, median of ``repeat`` timings."""
    import timeit
    refs = [reference() for _ in range(REF_WINDOW)]
    S = lab.Scalar
    env = {"a": S.of(Fraction(3, 7)), "b": S.of(Fraction(-5, 11)),
           "ai": S.of(Fraction(3, 7), Fraction(2, 5)),
           "bi": S.of(Fraction(-5, 11), Fraction(1, 3))}
    out = {}
    for metric, stmt in (("add_q_ns", "a + b"), ("mul_q_ns", "a * b"),
                         ("mul_qi_ns", "ai * bi"), ("div_q_ns", "a / b")):
        times = timeit.Timer(stmt, globals=env).repeat(repeat, number)
        out["scalars." + metric] = statistics.median(times) / number * 1e9
    scale = REF_NOMINAL_S / statistics.median(
        refs + [reference() for _ in range(REF_WINDOW)])
    return {k: v * scale for k, v in out.items()}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric == "io.bytes_out":
        return "bytes"
    if metric.endswith("_per_instance"):
        return "per_job"
    return "count"


def traced(name, seed):
    """Each job of a fixed list runs untraced, then with spans, then with
    Scalar operations counted.  The tracing overhead is the median over
    jobs of traced / untraced wall time, so drift between jobs cancels."""
    import spans
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        wl = make_workload(name, seed, workdir)
        jobs = range(wl.cycle * TRACE_CYCLES)
        tracer, counter = spans.Tracer(), spans.Tracer()
        plain = Tally(wl, seed)
        plain.job(0)  # warm-up, not counted
        plain = Tally(wl, seed)
        tables = []
        if name == "cli":
            path = os.path.join(workdir, "table.json")
            child = [sys.executable, os.path.join(HERE, "cli_child.py")]
            with_spans = Tally(wl, seed, workloads.CliRunner(
                ROOT, workdir, child + ["spans", path]))
            counting = Tally(wl, seed, workloads.CliRunner(
                ROOT, workdir, child + ["count", path]))
            for i in jobs:
                plain.job(i)
                with_spans.job(i)
                tables.append(spans.read_table(path))
                counting.job(i)
                counter.ops += spans.read_table(path)["ops"]
        else:
            with_spans, counting = Tally(wl, seed), Tally(wl, seed)
            for i in jobs:
                plain.job(i)
                tracer.install_spans()
                with_spans.job(i, tracer)
                tracer.uninstall()
                counter.install_counting()
                counting.job(i, counter)
                counter.uninstall()
            tables.append(tracer.table())
        spans.write_table({"workload": name, "seed": seed, "tables": tables},
                          os.path.join(OUT, "spans-%s.json" % name))
    finally:
        shutil.rmtree(workdir)
    metrics, run_command_s = spans.layer_metrics(tables, len(jobs))
    metrics["scalars.ops"] = counter.ops
    metrics["io.bytes_out"] = plain.run.bytes_out if name == "cli" else 0
    metrics["cli.process_s"] = (sum(with_spans.walls) - run_command_s
                                if name == "cli" else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(with_spans.walls, plain.walls)) - 1.0
    metrics.update(scalar_micro(wl.lab))
    tallies = (plain, with_spans, counting)
    return ({k: (v, unit_of(k)) for k, v in metrics.items()}, {},
            sum(t.attempted for t in tallies), sum(t.failed for t in tallies))


def record_golden(name):
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        wl = make_workload(name, workloads.DEFAULT_SEED, workdir)
        digests = []
        for job in wl.pool:
            ok, dig = wl.check(job, wl.run(job))
            if not ok:
                sys.exit("perfbench: invariant check failed while recording")
            digests.append(dig)
    finally:
        shutil.rmtree(workdir)
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
    golden[name] = digests
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for this process and its children, so that the reference
    # kernel and the jobs it normalizes run on the same virtual core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        t0 = time.perf_counter()
        make_workload(args.workload, args.seed, None)
        wall = time.perf_counter() - t0
        print(json.dumps([wall, setup_reference()]))
        return 0
    import_lab()
    os.makedirs(OUT, exist_ok=True)
    if args.record_golden:
        record_golden(args.workload)
        return 0
    if args.trace:
        metrics, notes, attempted, failed = traced(args.workload, args.seed)
    else:
        metrics, notes, attempted, failed = end_to_end(
            args.workload, args.seed, args.seconds)
    for key, (value, unit) in metrics.items():
        print("%-30s %16.6g %-8s %s" % (key, value, unit, notes.get(key, "")))
    print("job_digests " + json.dumps(DIGESTS, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
