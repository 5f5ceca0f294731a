"""The fixed desk-scale validation battery.

Eleven checks covering fidelity of each round kernel to its per-vertex
reference program, oracle agreement for every algorithm, placement
concentration, the explicit-constant pricing bounds, measured scaling laws,
and determinism.  `validate_all` runs everything, prints one verdict line per
check, and returns the results together with the CSV of every row produced
along the way; the CLI and the test suite both call it.
"""

import copy
import math
import statistics
from dataclasses import dataclass

from . import oracles
from .clique import Program, SimulationError, run_clique
from .graphs import generate, label_bits
from .harness import (
    ExperimentConfig,
    Instance,
    RunResult,
    default_stverify_candidate,
    fit_scaling,
    format_csv,
    rows_from_result,
    run_cell,
)
from .machines import check_mapping_bounds, random_vertex_partition
from .programs import ALGORITHMS, AlgoConfig
from .rng import derive


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    summary: str


def _seed(base, tag, *parts):
    return derive(base, "acceptance-" + tag, *parts) % (2**31)


def _stable(name: str) -> int:
    # never use hash() here: it is salted per process
    return sum(ord(c) * (i + 1) for i, c in enumerate(name))


def _connected_graph(model, n, seed, p=None, wmax=None):
    for attempt in range(64):
        g = generate(model, n, seed + 7919 * attempt, p=p, wmax=wmax)
        if oracles.is_connected(g):
            return g
    raise RuntimeError("could not draw a connected instance")


# criterion 1's algorithms: those that run a clique program, in table order
FIDELITY_ALGORITHMS = tuple(name for name, entry in ALGORITHMS.items() if entry.program)
FIDELITY_MODELS = (
    ("gnp", 40, 0.15, None), ("random_weighted", 24, 0.3, 50),
    ("cycle", 32, None, None), ("grid", 36, None, None),
    ("star", 24, None, None), ("clique", 16, None, None),
    ("gnp", 28, 0.3, None), ("random_weighted", 48, 0.2, 20),
    ("path", 20, None, None), ("gnp", 64, 0.1, None),
)


def fidelity_instances(base_seed: int):
    """Criterion 1's runs in battery order: (algorithm, Instance, seed),
    twenty per algorithm."""
    for algorithm in FIDELITY_ALGORITHMS:
        for i in range(20):
            model, n, p, wmax = FIDELITY_MODELS[i % len(FIDELITY_MODELS)]
            s = _seed(base_seed, "fid", _stable(algorithm), i)
            g = generate(model, n, s, p=p, wmax=wmax)
            cand = None
            if algorithm == "stverify":
                cand = default_stverify_candidate(g, i)
            yield algorithm, Instance(graph=g, candidate=cand), s


def per_vertex_reference(program):
    """The same program and budget without its round kernel: one state
    machine per vertex, each a deep copy, so no two can share an object."""
    return Program(program.name, lambda: copy.deepcopy(program.node()), budget=program.budget)


def _observed(run):
    """What criterion 1 compares of a run_clique result: the outputs' repr,
    all five columns of every round, and the metrics."""
    outputs, trace, metrics = run
    return (repr(outputs), metrics,
            [[col.tolist() for col in cols] for cols in trace.round_arrays()])


def _rows(results):
    return [row for res in results for row in rows_from_result(res)]


class Battery:
    """Runs the criteria in order, accumulating rows for the CSV."""

    def __init__(self, seed: int = 7, echo=None):
        self.seed = seed
        self.echo = echo or (lambda s: None)
        self.rows = []
        self.results = []
        self.reports = []  # every SimReport, for the bound criterion
        self.mis_phase_counts = []
        self.mis_budget_n = 256

    # -- plumbing ----------------------------------------------------------

    def _remember(self, res: RunResult):
        self.rows.extend(rows_from_result(res))
        self.reports.extend(res.reports.values())
        return res

    def _cell(self, algorithm, graph_spec, seed, k_list, inst=None, **algo):
        cfg = ExperimentConfig(
            algorithm=algorithm,
            graph=graph_spec,
            k=list(k_list),
            seeds=[seed],
            algo=AlgoConfig(**algo),
        )
        return self._remember(run_cell(cfg, seed, inst))

    def _done(self, cid, name, passed, summary):
        result = CriterionResult(cid, name, bool(passed), summary)
        self.results.append(result)
        self.echo(f"[{'PASS' if result.passed else 'FAIL'}] {cid:2d} {name}: {summary}")
        return result

    # -- criteria ----------------------------------------------------------

    def crit_1_fidelity(self):
        bad = total = 0
        for algorithm, inst, s in fidelity_instances(self.seed):
            prog = ALGORITHMS[algorithm].program(inst, AlgoConfig())
            try:
                runs = [_observed(run_clique(inst.graph, p, s))
                        for p in (prog, per_vertex_reference(prog))]
            except SimulationError:  # a run the engine refused matches nothing
                runs = None
            total += 1
            bad += runs is None or runs[0] != runs[1]
        return self._done(
            1, "simulation fidelity", bad == 0,
            f"{total - bad}/{total} runs gave identical outputs on both paths",
        )

    def crit_2_correctness(self):
        fails = []

        def tally(label, results):
            got = sum(res.valid for res in results)
            if got < len(results):
                fails.append(f"{label} {got}/{len(results)}")

        sizes = [16, 24, 32, 48, 64, 96, 128, 192, 256, 40]
        mst = []
        for i in range(100):  # spanning tree weight / edge-set agreement
            n = sizes[i % len(sizes)]
            s = _seed(self.seed, "mst", i)
            g = _connected_graph("random_weighted", n, s, p=0.3, wmax=1000)
            spec = {"model": "random_weighted", "n": n, "p": 0.3, "wmax": 1000}
            mst.append(self._cell("mst", spec, s, [4], inst=Instance(graph=g)))
        tally("mst", mst)
        families = {}
        for name, count, spec_fn in (
            ("bfs", 50,
             lambda i: {"model": "gnp", "n": [32, 48, 64, 96, 128][i % 5], "p": 0.1}),
            ("bf_sssp", 50,
             lambda i: {"model": "random_weighted",
                        "n": [32, 48, 64, 96, 128][i % 5], "p": 0.3, "wmax": 100}),
            ("triangle", 50, lambda i: {"model": "gnp", "n": 64, "p": 0.2}),
            ("mis", 100, lambda i: {"model": "gnp", "n": self.mis_budget_n, "p": 0.1}),
            ("hmis", 50,
             lambda i: {"hyper": True, "n": 64, "hyperedges": 128, "arity": 3}),
        ):
            families[name] = [self._cell(name, spec_fn(i), _seed(self.seed, name, i), [4])
                              for i in range(count)]
            tally(name, families[name])
        # phase counts feed criterion 8
        self.mis_phase_counts = [res.details["phases"] for res in families["mis"]]
        spanner = []
        for fixed_delta in (2, None):
            for i in range(10):
                n = [32, 64, 128][i % 3]
                d = fixed_delta or label_bits(n)
                spanner.append(self._cell("spanner", {"model": "gnp", "n": n, "p": 0.3},
                                          _seed(self.seed, "spanner", i, d), [4],
                                          delta=d))
        tally("spanner", spanner)
        tally("densest", [
            self._cell("densest",
                       {"model": "gnp", "n": 6 + (i % 7), "p": [0.3, 0.5, 0.7][i % 3]},
                       _seed(self.seed, "densest", i), [2])
            for i in range(100)
        ])
        gadgets = []
        for i in range(50):  # gadget families, both answers exercised
            for name, b, tag in (("stverify", 16, "gadget-st"), ("conn", 32, "gadget-conn")):
                spec = {"gadget": name, "b": b, "feasible": i % 2 == 0}
                gadgets.append(self._cell(name, spec, _seed(self.seed, tag, i), [4]))
        tally("gadgets", gadgets)
        return self._done(
            2, "oracle agreement", not fails,
            "all oracle checks passed" if not fails else "; ".join(fails),
        )

    def crit_3_mapping(self):
        n, p = 2048, 0.1
        worst_v = worst_e = 0.0
        ok = True
        for i in range(50):
            s = _seed(self.seed, "map", i)
            g = generate("gnp", n, s, p=p)
            delta = g.max_degree()
            for k in (4, 8, 16):
                part = random_vertex_partition(g, k, s + k)
                mv, me = check_mapping_bounds(g, part)
                vb = 4.0 * n / k
                eb = 8.0 * math.log2(n) * (g.m / k**2 + delta / k)
                worst_v = max(worst_v, mv / vb)
                worst_e = max(worst_e, me / eb)
                ok &= mv <= vb and me <= eb
            del g, part  # so the next graph's edge block never meets this one
        return self._done(
            3, "placement concentration", ok,
            f"worst vertex ratio {worst_v:.3f}, worst link ratio {worst_e:.3f}",
        )

    def crit_4_bounds(self):
        conv = [r for r in self.reports if r.mode in ("p2p", "bcast")]
        bad = sum(1 for r in conv if not r.bound_ok)
        return self._done(
            4, "pricing bounds on every run", bad == 0,
            f"{len(conv) - bad}/{len(conv)} conversions within the explicit bounds",
        )

    def crit_5_mst_scaling(self):
        results = [self._cell("mst", {"model": "gnp", "n": 4096, "p": 0.02},
                              _seed(self.seed, "mstscale", i), [2, 4, 8, 16, 32])
                   for i in range(5)]
        fit = fit_scaling(_rows(results), "k")
        ok = (all(res.valid for res in results)
              and -1.3 <= fit.slope <= -0.7 and fit.r2 >= 0.9)
        return self._done(
            5, "tree-merge scaling in k", ok,
            f"slope {fit.slope:.3f}, R^2 {fit.r2:.3f}",
        )

    def crit_6_pagerank_scaling(self):
        spec = {"model": "gnp", "n": 4096, "p": 0.02}
        results = [self._cell("pagerank", spec, _seed(self.seed, "prscale", i),
                              [2, 4, 8, 16, 32], gamma=0.15)
                   for i in range(5)]
        fit = fit_scaling(_rows(results), "k")
        halves = [self._cell("pagerank", spec, _seed(self.seed, "prscale", i), [8],
                             gamma=0.075)
                  for i in range(5)]
        base = [res.reports[8].km_rounds for res in results]
        ratio = (statistics.median([res.reports[8].km_rounds for res in halves])
                 / max(1, statistics.median(base)))
        ok = (all(res.valid for res in results + halves)
              and -1.3 <= fit.slope <= -0.7 and ratio >= 1.5)
        return self._done(
            6, "walk scaling in k and gamma", ok,
            f"slope {fit.slope:.3f}, R^2 {fit.r2:.3f}, gamma-halving ratio {ratio:.2f}",
        )

    def crit_7_gadget_growth(self):
        results = [self._cell("mst", {"gadget": "st_lower", "b": b},
                              _seed(self.seed, "stlower", b, i), [8])
                   for b in (512, 1024, 2048, 4096) for i in range(5)]
        fit = fit_scaling(_rows(results), "n")
        ok = all(res.valid for res in results) and 0.7 <= fit.slope <= 1.3
        return self._done(
            7, "hard-instance growth in n", ok,
            f"slope {fit.slope:.3f}, R^2 {fit.r2:.3f}",
        )

    def crit_8_mis_phases(self):
        budget = 10 * math.log2(self.mis_budget_n)
        within = sum(1 for p in self.mis_phase_counts if p <= budget)
        ok = within >= 99 and len(self.mis_phase_counts) == 100
        return self._done(
            8, "marking phases stay logarithmic", ok,
            f"{within}/100 runs within {budget:.0f} phases "
            f"(max seen {max(self.mis_phase_counts)})",
        )

    def crit_9_pagerank_accuracy(self):
        n = 64
        tokens = math.ceil(100 * math.log2(n))
        results = [self._cell("pagerank", {"model": "gnp", "n": n, "p": 0.2},
                              _seed(self.seed, "pracc", i), [4],
                              gamma=0.15, tokens_per_node=tokens)
                   for i in range(20)]
        worst_l1 = max(res.details["l1"] for res in results)
        worst_sum = max(abs(res.details["sum"] - 1.0) for res in results)
        ok = all(res.valid for res in results)
        return self._done(
            9, "walk estimates near the power-iteration fixpoint", ok,
            f"worst L1 {worst_l1:.4f} (cap 0.1), worst |sum-1| {worst_sum:.5f}",
        )

    def crit_10_hmis_rounds(self):
        results = [self._cell("hmis", {"hyper": True, "n": 1024,
                                       "hyperedges": 2048, "arity": 3},
                              _seed(self.seed, "hmisbig", k, i), [k])
                   for k in (4, 8, 16) for i in range(10)]
        reports = [rep for res in results for rep in res.reports.values()]
        ok = all(res.valid for res in results) and all(rep.bound_ok for rep in reports)
        worst = max(rep.km_rounds / rep.bound_rounds for rep in reports)
        return self._done(
            10, "hypergraph set rounds within bound", ok,
            f"worst rounds/bound ratio {worst:.4f}",
        )

    def crit_11_determinism(self):
        # cheap in-process double run of one cell per algorithm; command-level
        # byte identity of the full battery is exercised by the test suite
        specs = [
            ("bfs", {"model": "gnp", "n": 48, "p": 0.15}),
            ("mst", {"model": "random_weighted", "n": 48, "p": 0.3, "wmax": 60}),
            ("conn", {"gadget": "conn", "b": 24}),
            ("stverify", {"gadget": "stverify", "b": 12}),
            ("pagerank", {"model": "gnp", "n": 32, "p": 0.2}),
            ("mis", {"model": "gnp", "n": 48, "p": 0.15}),
            ("bf_sssp", {"model": "random_weighted", "n": 48, "p": 0.3, "wmax": 60}),
            ("spanner", {"model": "gnp", "n": 48, "p": 0.25}),
            ("densest", {"model": "gnp", "n": 10, "p": 0.5}),
            ("triangle", {"model": "gnp", "n": 32, "p": 0.2}),
            ("hmis", {"hyper": True, "n": 48, "hyperedges": 96, "arity": 3}),
            ("logsp", {"model": "gnp", "n": 32, "p": 0.3}),
        ]
        csvs = []
        for _ in range(2):
            rows = []
            for name, spec in specs:
                cfg = ExperimentConfig(
                    algorithm=name, graph=spec, k=[2, 4],
                    seeds=[_seed(self.seed, "det", _stable(name))],
                )
                rows.extend(rows_from_result(run_cell(cfg, cfg.seeds[0])))
            rows.sort(key=lambda r: (r["algorithm"], r["k"], r["seed"]))
            csvs.append(format_csv(rows))
        ok = csvs[0] == csvs[1]
        return self._done(
            11, "repeat runs byte-identical", ok,
            "duplicate battery produced identical CSV bytes" if ok
            else "CSV bytes differed between repeats",
        )

    # -- driver -------------------------------------------------------------

    def run(self):
        self.crit_1_fidelity()
        self.crit_2_correctness()
        self.crit_3_mapping()
        self.crit_5_mst_scaling()
        self.crit_6_pagerank_scaling()
        self.crit_7_gadget_growth()
        self.crit_8_mis_phases()
        self.crit_9_pagerank_accuracy()
        self.crit_10_hmis_rounds()
        self.crit_4_bounds()
        self.crit_11_determinism()
        self.results.sort(key=lambda r: r.cid)
        return self.results


def validate_all(seed: int = 7, echo=print):
    """Run the whole battery; returns (results, csv_text, all_passed)."""
    bat = Battery(seed=seed, echo=echo)
    bat.run()
    rows = sorted(
        bat.rows, key=lambda r: (r["algorithm"], r["n"], r["k"], r["W"], r["seed"])
    )
    csv_text = format_csv(rows)
    ok = all(r.passed for r in bat.results)
    return bat.results, csv_text, ok
