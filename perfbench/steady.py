"""Steadiness mode: run every workload on several seeds and report each
end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py                       # all workloads, seeds 1..10
    python3 perfbench/steady.py --traced              # plus one traced run each
    python3 perfbench/steady.py --label after --against .bench_out/steady-before.json

Each run is a fresh `run.py` process; seeds go in the outer loop so slow
drift of the machine spreads over all workloads alike.  The spread is the
distance between the first and third quartile as a share of the median;
it must stay within the metric's bound from BENCHMARK.json.  `--against` compares medians with an earlier
summary: a metric worse by more than its bound is a regression.  The
command exits nonzero on a crashed run, a run that is not correct, a spread
over its bound or a regression.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
SEEDS = range(1, 11)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    result["info"] = json.loads(info_line[2:])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def worse_by(old, new, better):
    """Share by which `new` is worse than `old`; negative when better."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--label", default="latest")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    metrics = spec["end_to_end"]

    ok = True
    runs = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            res = run_once(w, seed, spec["run_seconds"], 0)
            if res is None or not res["correct"]:
                print(f"{w} seed {seed}: {'crashed' if res is None else 'not correct'}")
                ok = False
            if res is not None:
                runs[w].append(res)

    first = next((r[0] for r in runs.values() if r), None)
    summary = {"seeds": list(SEEDS), "seconds": spec["run_seconds"],
               "env": first["info"]["env"] if first else None, "workloads": {}}
    previous = None
    if args.against:
        with open(args.against) as fh:
            previous = json.load(fh)["workloads"]
    for w in names:
        if len(runs[w]) < 2:
            continue
        # the simulated outputs of each seed, which must repeat exactly
        rows = {"rep0": {str(r["info"]["seed"]): [r["info"]["rep0_digest"],
                                                  r["info"]["rep0_sim"]]
                         for r in runs[w]}}
        print(f"\n{w}: {len(runs[w])} runs, "
              f"{sum(r['failed'] for r in runs[w])}/{sum(r['attempted'] for r in runs[w])}"
              " cells failed")
        print(f"  {'metric':<13} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            st = spread([r["metrics"][m["name"]]["value"] for r in runs[w]])
            verdict = "ok"
            if st["spread"] > m["bound"]:
                verdict, ok = "SPREAD OVER BOUND", False
            elif st["spread"] > m["bound"] / 3:
                verdict = "ok (over a third of the bound)"
            if previous and w in previous:
                change = worse_by(previous[w][m["name"]]["median"], st["median"],
                                  m["better"])
                verdict += f"; {100 * change:+.1f}% worse than before"
                if change > m["bound"]:
                    verdict, ok = verdict + " REGRESSION", False
            rows[m["name"]] = st
            print(f"  {m['name']:<13} {m['unit']:<5} {st['median']:>12.5g}"
                  f" {st['q1']:>12.5g} {st['q3']:>12.5g} {st['spread']:>7.3f}"
                  f" {m['bound']:>6}  {verdict}")
        if previous and w in previous:
            before = previous[w].get("rep0", {})
            same = [s for s in rows["rep0"] if s in before]
            differ = [s for s in same if before[s] != rows["rep0"][s]]
            print(f"  digests and simulated counts: {len(same) - len(differ)}/{len(same)}"
                  " seeds identical to before")
            ok &= not differ
        summary["workloads"][w] = rows

    if args.traced:
        for w in names:
            res = run_once(w, SEEDS[0], spec["run_seconds"], 1)
            if res is None or not res["correct"]:
                print(f"{w} traced: {'crashed' if res is None else 'not correct'}")
                ok = False
                continue
            layers = {k: v["value"] for k, v in res["metrics"].items()}
            untraced = runs[w][0]["info"]["raw_wall_s"] if runs[w] else None
            summary["workloads"].setdefault(w, {})["traced"] = layers
            wall = layers["trace.wall_s"]
            print(f"\n{w} traced, seed {SEEDS[0]}: body {wall:.3f} s, "
                  f"residual {layers['trace.residual_s']:.4f} s"
                  + (f", tracing overhead {wall - untraced:+.3f} s" if untraced else ""))
            for k in sorted(layers):
                if k.endswith(".self_s"):
                    print(f"  {k:<18} {layers[k]:>9.4f} s  {100 * layers[k] / wall:5.1f}%")

    out = ROOT / ".bench_out" / f"steady-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsummary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
