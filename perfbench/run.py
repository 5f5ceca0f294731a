"""Host-time benchmark for kmachine.

    python3 perfbench/run.py --workload walk_p2p --seed 1 --seconds 20 --trace 0

Run from the root of a kmachine checkout; the package is imported from
`src/`.  The process runs one workload single-threaded: it repeats the
workload's body (a fixed list of cells whose inputs come from the seed and
the repetition number) a fixed number of times, sized so that it takes
about `--seconds` on the reference box, checks every cell against its
oracle, and prints one JSON object as its last line.  End-to-end times are
scaled to the reference box's speed by a reference loop timed around each
repetition (see `speed_scale`).  With
`--trace 0` that object holds the end-to-end metrics; with `--trace 1` the
calls into each kmachine module are wrapped in spans and it holds the
per-layer metrics.  A result file (and, when traced, the first
repetition's spans) goes to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps this many cells beyond it
# The reference loop's seconds on the reference box (2-CPU x86, Python 3.11,
# numpy 2.4), in the state the nominal repetition times were measured in.
REF_NOMINAL_S = 0.060


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def reference_loop():
    """Seconds for a fixed mix of interpreter, dict, sort, small-generator
    and numpy array work that uses no kmachine code."""
    import numpy as np

    t0 = time.perf_counter()
    acc, d = 0, {}
    for i in range(60000):
        d[i % 997] = d.get(i % 997, 0) + i
        acc += (i * 7) % 13
    acc += sorted((i * 2654435761) % 1000003 for i in range(30000))[0]
    for s in range(300):
        acc += int(np.random.Generator(np.random.PCG64(s)).integers(0, 10, 8).sum())
    a = np.arange(200000, dtype=np.int64)
    for _ in range(20):
        a = (a * 31 + 7) % 100003
    return time.perf_counter() - t0


def reference_s():
    """The reference loop's time now: the fastest of three tries."""
    return min(reference_loop() for _ in range(3))


def speed_scale(ref_before, ref_after):
    """Factor that turns seconds measured between two reference timings into
    seconds at the reference box's speed.  A shared host's speed drifts by a
    third and more from minute to minute; the reference loop, which no
    change to kmachine touches, drifts with it, and the factor cancels it."""
    return REF_NOMINAL_S / ((ref_before + ref_after) / 2)


def measure_setup():
    """Median seconds, scaled to the reference speed, for a fresh interpreter
    to start and import kmachine, plus the raw median.  One untimed start
    first writes the bytecode cache, as an install does."""
    cmd = [sys.executable, "-c", "import kmachine"]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
    raw, scaled = [], []
    ref = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        ref_after = reference_s()
        scaled.append(raw[-1] * speed_scale(ref, ref_after))
        ref = ref_after
    return statistics.median(scaled), statistics.median(raw)


def tail(cells):
    """(value, label) of the tail cell time.  With at least 10*TAIL_BEYOND
    cells it is the highest percentile with TAIL_BEYOND cells beyond it.
    Fewer cells cannot place a percentile that high, and a lower one lands
    in whatever stretch the machine ran slow, so it is then the median over
    repetitions of each repetition's slowest cell."""
    n = len(cells)
    if n >= 10 * TAIL_BEYOND:
        ordered = sorted(c["s"] for c in cells)
        pct = 100.0 * (n - TAIL_BEYOND) / n
        return ordered[n - 1 - TAIL_BEYOND], f"p{pct:.1f} of {n} cells"
    slowest = {}
    for c in cells:
        slowest[c["rep"]] = max(slowest.get(c["rep"], 0.0), c["s"])
    return (statistics.median(slowest.values()),
            f"median slowest cell of {len(slowest)} repetitions ({n} cells)")


def git_commit():
    """The checkout's commit, read from `.git` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def run_body(workload, seed, repetitions, tracer):
    """Run the body `repetitions` times, timing the reference loop before
    and after each; returns the per-repetition and per-cell records, plus
    the traced repetitions' layer metrics."""
    reps, cells, layer_reps = [], [], []
    first_mark = None
    ref = reference_s()
    for rep in range(repetitions):
        body = workload(seed, rep)
        mark = tracer.mark() if tracer else 0
        w0, c0 = time.perf_counter(), time.process_time()
        for cell in body:
            if tracer:
                tracer.cell_id = len(cells)
            t0 = time.perf_counter()
            try:
                out = cell.run()
            except Exception:  # a crashing cell counts as failed; keep going
                traceback.print_exc(file=sys.stderr)
                out = None
            cells.append({"rep": rep, "label": cell.label,
                          "s": time.perf_counter() - t0, "out": out})
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ref_after = reference_s()
        reps.append({"wall_s": wall, "cpu_s": cpu,
                     "scale": speed_scale(ref, ref_after)})
        ref = ref_after
        if tracer:
            layer_reps.append(tracer.metrics(mark, wall))
            if rep == 0:
                first_mark = tracer.mark()
                counts = dict(tracer.counts)
            else:
                tracer.truncate(mark)
    if tracer:
        layer_reps[0].update(counts)
    return reps, cells, layer_reps, first_mark


def summarize_rep0(cells):
    """Digest of the first repetition's CSV rows and its simulated counts;
    both are fixed by the seed."""
    h = hashlib.sha256()
    sim = {}
    for c in cells:
        if c["rep"] != 0:
            break
        out = c["out"]
        h.update((out.digest_text if out else "error\n").encode())
        for key, val in (out.sim if out else {}).items():
            sim[key] = sim.get(key, 0) + val
    return h.hexdigest()[:16], sim


def measure(workload, seed, seconds, trace, spans_path=None):
    """One benchmark run in this process: the result object the command
    prints last, plus run details for the result file."""
    import spans
    import workloads

    setup_s, setup_raw_s = measure_setup() if not trace else (None, None)
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        reps, cells, layer_reps, first_mark = run_body(
            workloads.WORKLOADS[workload], seed,
            workloads.repetitions(workload, seconds), tracer)
    finally:
        if tracer:
            tracer.uninstall()

    attempted = len(cells)
    failed = sum(1 for c in cells if not (c["out"] and c["out"].ok))
    walk_misses = sum(1 for c in cells if c["out"] and c["out"].walk_miss)
    crashed = sum(1 for c in cells if c["out"] is None)
    # every failure must be a marginal Monte Carlo walk-estimate miss;
    # anything else (a wide estimate miss, an exact oracle disagreeing, a
    # pricing bound broken, a crash) is wrong
    correct = failed == walk_misses
    digest, sim = summarize_rep0(cells)

    if tracer:
        metrics = {}
        for name, unit in spans.LAYER_METRICS:
            if name in spans.COUNT_METRICS:
                value = layer_reps[0].get(name, 0)
            else:
                value = statistics.median(r[name] for r in layer_reps)
            metrics[name] = {"value": value, "unit": unit}
    else:
        # every time below is scaled to the reference speed
        for c in cells:
            c["s"] *= reps[c["rep"]]["scale"]
        tail_value, tail_label = tail(cells)
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] * r["scale"] for r in reps), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] * r["scale"] for r in reps), "s"),
            "cell_s.p50": (statistics.median(c["s"] for c in cells), "s"),
            "cell_s.tail": (tail_value, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "pass_frac": ((attempted - failed) / attempted, "1"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "repetitions": len(reps), "cells": attempted, "walk_misses": walk_misses,
        "crashed": crashed, "rep0_digest": digest, "rep0_sim": sim,
        "env": environment(),
        "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
        "raw_setup_s": setup_raw_s,
        "scale": statistics.median(r["scale"] for r in reps),
    }
    if tracer:
        if spans_path:
            tracer.dump(spans_path, first_mark)
            info["spans"] = Path(spans_path).name
    else:
        info["cell_s.tail"] = tail_label
    return {
        "info": info,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "repetitions": reps,
        "layer_repetitions": layer_reps,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "kmachine" / "__init__.py").is_file():
        print(f"no kmachine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = measure(args.workload, args.seed, args.seconds, args.trace,
                  spans_path=OUT_DIR / f"{stem}.spans.json")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print("# " + json.dumps(doc["info"], sort_keys=True))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
