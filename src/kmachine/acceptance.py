"""The fixed desk-scale validation battery.

Eleven checks covering output fidelity between the clique and machine
executions, oracle agreement for every algorithm, placement concentration,
the explicit-constant pricing bounds, measured scaling laws, and
determinism.  `validate_all` runs everything, prints one verdict line per
check, and returns the results together with the CSV of every row produced
along the way; the CLI and the test suite both call it.
"""

import math
import statistics
from dataclasses import dataclass

from . import oracles
from .clique import run_clique
from .graphs import generate, label_bits
from .harness import (
    BROADCAST_ONLY,
    VALIDATORS,
    ExperimentConfig,
    Instance,
    RunResult,
    _engine_budget,
    default_stverify_candidate,
    fit_scaling,
    format_csv,
    make_program,
    natural_mode,
    rows_from_result,
    run_cell,
)
from .machines import (
    convert_broadcast,
    convert_p2p,
    check_mapping_bounds,
    random_vertex_partition,
    run_on_kmachines,
)
from .programs import AlgoConfig
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


FIDELITY_ALGORITHMS = ("bfs", "mst", "conn", "stverify", "pagerank", "mis",
                       "bf_sssp", "spanner", "densest", "triangle")
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
            if algorithm == "spanner" and wmax:
                model, p, wmax = "gnp", 0.2, None  # needs unit weights
            g = generate(model, n, s, p=p, wmax=wmax)
            cand = None
            if algorithm == "stverify":
                cand = default_stverify_candidate(g, i)
            yield algorithm, Instance(graph=g, candidate=cand), s


class Battery:
    """Runs the criteria in order, accumulating rows for the CSV."""

    def __init__(self, seed: int = 7, echo=None):
        self.seed = seed
        self.echo = echo or (lambda s: None)
        self.rows = []
        self.results = []
        self.reports = []  # (algorithm, SimReport) for the bound criterion
        self.mis_phase_counts = []
        self.mis_budget_n = 256

    # -- plumbing ----------------------------------------------------------

    def _remember(self, res: RunResult):
        self.rows.extend(rows_from_result(res))
        for rep in res.reports.values():
            self.reports.append((res.algorithm, rep))
        return res

    def _cell(self, algorithm, graph_spec, seed, k_list, mode=None, W=None, **algo):
        cfg = ExperimentConfig(
            algorithm=algorithm,
            graph=graph_spec,
            k=list(k_list),
            seeds=[seed],
            W=W,
            mode=mode,
            algo=AlgoConfig(**algo),
        )
        return self._remember(run_cell(cfg, seed))

    def _cell_graph(self, algorithm, g, seed, k_list, candidate=None, mode=None,
                    W=None, **algo):
        inst = Instance(graph=g, candidate=candidate)
        cfg = AlgoConfig(**algo)
        cfg.validate(g.n)
        program = make_program(algorithm, inst, cfg)
        outputs, trace, metrics = run_clique(
            g, program, seed, max_rounds=_engine_budget(algorithm, inst, cfg)
        )
        valid, details = VALIDATORS[algorithm](inst, cfg, outputs, metrics)
        if algorithm in BROADCAST_ONLY and metrics.unicasts:
            valid = False
        mode = mode or natural_mode(algorithm)
        reports = {}
        for k in k_list:
            W_eff = W or label_bits(g.n)
            part = random_vertex_partition(g, k, seed)
            rep = (
                convert_p2p(trace, part, W_eff)
                if mode == "p2p"
                else convert_broadcast(trace, part, W_eff)
            )
            rep.success = valid and rep.bound_ok
            reports[k] = rep
        res = RunResult(algorithm, seed, inst, outputs, metrics, valid, details,
                        reports)
        return self._remember(res)

    def _done(self, cid, name, passed, summary):
        result = CriterionResult(cid, name, bool(passed), summary)
        self.results.append(result)
        self.echo(f"[{'PASS' if result.passed else 'FAIL'}] {cid:2d} {name}: {summary}")
        return result

    # -- criteria ----------------------------------------------------------

    def crit_1_fidelity(self):
        bad = total = 0
        for algorithm, inst, s in fidelity_instances(self.seed):
            g = inst.graph
            cfg = AlgoConfig()
            prog_a = make_program(algorithm, inst, cfg)
            prog_b = make_program(algorithm, inst, cfg)
            out_k, _, _ = run_on_kmachines(
                g, prog_a, k=4, mode=natural_mode(algorithm), seed=s
            )
            out_c, _, _ = run_clique(g, prog_b, s)
            total += 1
            bad += out_k != out_c
        return self._done(
            1, "simulation fidelity", bad == 0,
            f"{total - bad}/{total} runs gave identical outputs on both paths",
        )

    def crit_2_correctness(self):
        fails = []
        sizes = [16, 24, 32, 48, 64, 96, 128, 192, 256, 40]
        ok = 0
        for i in range(100):  # spanning tree weight / edge-set agreement
            n = sizes[i % len(sizes)]
            s = _seed(self.seed, "mst", i)
            g = _connected_graph("random_weighted", n, s, p=0.3, wmax=1000)
            ok += self._cell_graph("mst", g, s, [4]).valid
        if ok < 100:
            fails.append(f"mst {ok}/100")
        for name, count, spec_fn in (
            ("bfs", 50,
             lambda i: {"model": "gnp", "n": [32, 48, 64, 96, 128][i % 5], "p": 0.1}),
            ("bf_sssp", 50,
             lambda i: {"model": "random_weighted",
                        "n": [32, 48, 64, 96, 128][i % 5], "p": 0.3, "wmax": 100}),
            ("triangle", 50, lambda i: {"model": "gnp", "n": 64, "p": 0.2}),
        ):
            got = 0
            for i in range(count):
                got += self._cell(name, spec_fn(i), _seed(self.seed, name, i), [4]).valid
            if got < count:
                fails.append(f"{name} {got}/{count}")
        got = 0  # MIS validity; phase counts feed criterion 8
        for i in range(100):
            res = self._cell("mis", {"model": "gnp", "n": 256, "p": 0.1},
                             _seed(self.seed, "mis", i), [4])
            got += res.valid
            self.mis_phase_counts.append(res.details["phases"])
        if got < 100:
            fails.append(f"mis {got}/100")
        got = 0
        for i in range(50):
            got += self._cell(
                "hmis", {"hyper": True, "n": 64, "hyperedges": 128, "arity": 3},
                _seed(self.seed, "hmis", i), [4],
            ).valid
        if got < 50:
            fails.append(f"hmis {got}/50")
        got = total = 0
        for fixed_delta in (2, None):
            for i in range(10):
                n = [32, 64, 128][i % 3]
                d = fixed_delta or max(1, math.ceil(math.log2(n)))
                res = self._cell("spanner", {"model": "gnp", "n": n, "p": 0.3},
                                 _seed(self.seed, "spanner", i, d), [4], delta=d)
                got += res.valid
                total += 1
        if got < total:
            fails.append(f"spanner {got}/{total}")
        got = 0
        for i in range(100):
            res = self._cell(
                "densest",
                {"model": "gnp", "n": 6 + (i % 7), "p": [0.3, 0.5, 0.7][i % 3]},
                _seed(self.seed, "densest", i), [2],
            )
            got += res.valid
        if got < 100:
            fails.append(f"densest {got}/100")
        got = total = 0
        for i in range(50):  # gadget families, both answers exercised
            got += self._cell("stverify", {"gadget": "stverify", "b": 16,
                                           "feasible": i % 2 == 0},
                              _seed(self.seed, "gadget-st", i), [4]).valid
            got += self._cell("conn", {"gadget": "conn", "b": 32,
                                       "feasible": i % 2 == 0},
                              _seed(self.seed, "gadget-conn", i), [4]).valid
            total += 2
        if got < total:
            fails.append(f"gadgets {got}/{total}")
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
        return self._done(
            3, "placement concentration", ok,
            f"worst vertex ratio {worst_v:.3f}, worst link ratio {worst_e:.3f}",
        )

    def crit_4_bounds(self):
        conv = [(a, r) for a, r in self.reports if r.mode in ("p2p", "bcast")]
        bad = sum(1 for _, r in conv if not r.bound_ok)
        return self._done(
            4, "pricing bounds on every run", bad == 0,
            f"{len(conv) - bad}/{len(conv)} conversions within the explicit bounds",
        )

    def crit_5_mst_scaling(self):
        rows = []
        valid = True
        for i in range(5):
            res = self._cell("mst", {"model": "gnp", "n": 4096, "p": 0.02},
                             _seed(self.seed, "mstscale", i), [2, 4, 8, 16, 32])
            valid &= res.valid
            rows.extend(rows_from_result(res))
        fit = fit_scaling(rows, "k")
        ok = valid and -1.3 <= fit.slope <= -0.7 and fit.r2 >= 0.9
        return self._done(
            5, "tree-merge scaling in k", ok,
            f"slope {fit.slope:.3f}, R^2 {fit.r2:.3f}",
        )

    def crit_6_pagerank_scaling(self):
        rows = []
        valid = True
        for i in range(5):
            res = self._cell("pagerank", {"model": "gnp", "n": 4096, "p": 0.02},
                             _seed(self.seed, "prscale", i), [2, 4, 8, 16, 32],
                             gamma=0.15)
            valid &= res.valid
            rows.extend(rows_from_result(res))
        fit = fit_scaling(rows, "k")
        halves = []
        for i in range(5):
            res = self._cell("pagerank", {"model": "gnp", "n": 4096, "p": 0.02},
                             _seed(self.seed, "prscale", i), [8], gamma=0.075)
            valid &= res.valid
            halves.append(res.reports[8].km_rounds)
        base = [r["km_rounds"] for r in rows if r["k"] == 8]
        ratio = statistics.median(halves) / max(1, statistics.median(base))
        ok = valid and -1.3 <= fit.slope <= -0.7 and ratio >= 1.5
        return self._done(
            6, "walk scaling in k and gamma", ok,
            f"slope {fit.slope:.3f}, R^2 {fit.r2:.3f}, gamma-halving ratio {ratio:.2f}",
        )

    def crit_7_gadget_growth(self):
        rows = []
        valid = True
        for b in (512, 1024, 2048, 4096):
            for i in range(5):
                res = self._cell("mst", {"gadget": "st_lower", "b": b},
                                 _seed(self.seed, "stlower", b, i), [8])
                valid &= res.valid
                rows.extend(rows_from_result(res))
        fit = fit_scaling(rows, "n")
        ok = valid and 0.7 <= fit.slope <= 1.3
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
        worst_l1 = worst_sum = 0.0
        ok = True
        for i in range(20):
            res = self._cell("pagerank", {"model": "gnp", "n": n, "p": 0.2},
                             _seed(self.seed, "pracc", i), [4],
                             gamma=0.15, tokens_per_node=tokens)
            ok &= res.valid
            worst_l1 = max(worst_l1, res.details["l1"])
            worst_sum = max(worst_sum, abs(res.details["sum"] - 1.0))
        return self._done(
            9, "walk estimates near the power-iteration fixpoint", ok,
            f"worst L1 {worst_l1:.4f} (cap 0.1), worst |sum-1| {worst_sum:.5f}",
        )

    def crit_10_hmis_rounds(self):
        ok = True
        worst = 0.0
        for k in (4, 8, 16):
            for i in range(10):
                res = self._cell("hmis", {"hyper": True, "n": 1024,
                                          "hyperedges": 2048, "arity": 3},
                                 _seed(self.seed, "hmisbig", k, i), [k])
                rep = res.reports[k]
                ok &= res.valid and rep.bound_ok
                worst = max(worst, rep.km_rounds / rep.bound_rounds)
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
