"""Experiment running: instances, oracle validation, CSV rows, scaling fits.

A run is (algorithm, instance, seed, k, W, mode).  The clique execution for
a seed is shared across all machine counts, since pricing a recorded trace
is a pure function of the partition; per-vertex outputs are oracle-checked
once per seed and the verdict lands in the `success` column of every row
derived from that execution.
"""

import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .clique import CliqueMetrics, run_clique
from .graphs import (
    Graph,
    gadget_feasible,
    generate,
    generate_gadget,
    label_bits,
    load_edge_list,
    random_gadget_spec,
    random_uniform_hypergraph,
)
from .machines import BCAST, P2P, price, random_vertex_partition
from .programs import (
    CLIQUE_ALGORITHMS,
    AlgoConfig,
    default_tokens_per_node,
    hmis_kmachine,
    logapprox_shortest_paths,
)
from .programs.config import is_int, is_real

CSV_HEADER = (
    "n,m,k,W,mode,algorithm,seed,T_C,M,B,Dprime,km_rounds,"
    "max_link_bits,max_machine_bits,success"
)


class HarnessError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    algorithm: str
    graph: dict
    k: list
    seeds: list
    W: int = None  # None -> ceil(log2 n)
    mode: str = None  # None -> the algorithm's natural mode
    algo: AlgoConfig = field(default_factory=AlgoConfig)
    out: str = None

    def validate(self):
        from .programs import ALGORITHM_NAMES

        if self.algorithm not in ALGORITHM_NAMES:
            raise HarnessError(f"unknown algorithm {self.algorithm!r}")
        if not self.seeds:
            raise HarnessError("need at least one seed")
        for seed in self.seeds:
            if not (is_int(seed) and -2**63 <= seed < 2**63):
                raise HarnessError(f"every seed must be an int64, got {seed!r}")
        for key in ("n", "b", "wmax", "hyperedges", "arity"):
            value = self.graph.get(key, 0)  # an absent key passes here
            sizes = key in ("n", "b") and isinstance(value, (list, tuple))  # sweep n
            values = value if sizes else [value]
            if not all(is_int(x) for x in values):
                raise HarnessError(f"graph {key} must be an int, got {value!r}")
        if self.graph.get("p") is not None and not is_real(self.graph["p"]):
            raise HarnessError(f"graph p must be a real number, got {self.graph['p']!r}")
        if not self.k:
            raise HarnessError("need at least one machine count")
        for k in self.k:
            if not _positive_int(k):
                raise HarnessError(f"every k must be a positive int, got {k!r}")
        if self.W is not None and not _positive_int(self.W):
            raise HarnessError(f"W must be a positive int, got {self.W!r}")
        if self.mode not in (None, P2P, BCAST):
            raise HarnessError(f"mode must be {P2P!r} or {BCAST!r}, got {self.mode!r}")
        if self.mode is not None and self.algorithm in ("hmis", "logsp"):
            raise HarnessError(
                f"{self.algorithm} runs at machine level and prices itself; "
                f"it takes no mode, got {self.mode!r}"
            )
        if self.algorithm == "hmis" and min(self.k) < 2:
            raise HarnessError(f"hmis needs at least 2 machines, got k={min(self.k)}")
        if self.mode == BCAST and natural_mode(self.algorithm) == P2P:
            raise HarnessError(
                f"{self.algorithm} sends unicasts, which broadcast pricing cannot take"
            )
        self.algo.validate()
        return self


def _positive_int(x) -> bool:
    return is_int(x) and x >= 1


_FLAT_ALGO_KEYS = ("source", "gamma", "tokens_per_node", "eps", "delta", "mis_max_phases")
_FLAT_GRAPH_KEYS = ("model", "file", "gadget", "n", "p", "wmax", "b", "feasible",
                    "hyperedges", "arity")


def config_from_mapping(doc: dict) -> ExperimentConfig:
    """Build a config from a flat key-value document (JSON file or CLI)."""
    doc = dict(doc)
    graph = {k: doc.pop(k) for k in list(doc) if k in _FLAT_GRAPH_KEYS}
    algo_kwargs = {k: doc.pop(k) for k in list(doc) if k in _FLAT_ALGO_KEYS}
    k = doc.pop("k", [2])
    seeds = doc.pop("seeds", [0])
    if isinstance(k, int):
        k = [k]
    if isinstance(seeds, int):
        seeds = [seeds]
    cfg = ExperimentConfig(
        algorithm=doc.pop("algorithm"),
        graph=graph,
        k=list(k),
        seeds=list(seeds),
        W=doc.pop("W", None),
        mode=doc.pop("mode", None),
        algo=AlgoConfig(**algo_kwargs),
        out=doc.pop("out", None),
    )
    if doc:
        raise HarnessError(f"unknown config keys: {sorted(doc)}")
    return cfg.validate()


def load_config(path: str, overrides: dict = None) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(doc)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    graph: object  # Graph or Hypergraph
    candidate: tuple = None  # edge indices for stverify
    expect: object = None  # known ground truth, when the generator implies one


def build_instance(spec: dict, seed: int, algorithm: str = None) -> Instance:
    if "file" in spec:
        with open(spec["file"]) as fh:
            return Instance(graph=load_edge_list(fh.read()))
    if "gadget" in spec:
        kind = {"st_lower": "ST_LOWER", "stverify": "STVERIFY", "conn": "CONN"}[
            spec["gadget"].lower()
        ]
        gs = random_gadget_spec(kind, spec["b"], seed, feasible=spec.get("feasible"))
        g = generate_gadget(gs)
        cand = tuple(range(g.m)) if kind == "STVERIFY" else None
        return Instance(graph=g, candidate=cand, expect=gadget_feasible(gs))
    if spec.get("hyper") or algorithm == "hmis":
        n = spec["n"]
        return Instance(
            graph=random_uniform_hypergraph(
                n, spec.get("hyperedges", 2 * n), spec.get("arity", 3), seed
            )
        )
    g = generate(spec["model"], spec["n"], seed, p=spec.get("p"), wmax=spec.get("wmax"))
    cand = None
    if algorithm == "stverify":
        cand = default_stverify_candidate(g, seed)
    return Instance(graph=g, candidate=cand)


def default_stverify_candidate(g: Graph, seed: int):
    """Even seeds propose a real spanning structure, odd seeds a broken one."""
    forest = oracles.minimum_spanning_forest(g)[1]
    pairs = {(min(u, v), max(u, v)): i for i, (u, v, _) in enumerate(g.edges)}
    tree_idx = sorted(pairs[e] for e in forest)
    if seed % 2 == 0 or g.m <= len(tree_idx):
        return tuple(tree_idx)
    spare = next(i for i in range(g.m) if i not in set(tree_idx))
    return tuple(sorted(set(tree_idx[1:]) | {spare}))


# ---------------------------------------------------------------------------
# per-algorithm oracle validation
# ---------------------------------------------------------------------------


def _validate_bfs(inst, cfg, outputs, metrics):
    g = inst.graph
    want = oracles.bfs_distances(g, cfg.source)
    got = [d for d, _ in outputs]
    ok = got == want
    ok &= metrics.broadcasts <= g.n + 1
    return ok, {"kind": "bfs"}


def _validate_bf(inst, cfg, outputs, metrics):
    g = inst.graph
    want, hops = oracles.single_source_distances(g, cfg.source)
    got = [d for d, _ in outputs]
    ok = got == want
    # an estimate improves only up to its fewest-hop minimum-weight path
    ok &= metrics.broadcasts <= g.n * max(1, max(hops)) + g.n
    return ok, {"kind": "bf_sssp"}


def _validate_mst(inst, cfg, outputs, metrics):
    g = inst.graph
    union = set()
    for edges, _flag in outputs:
        union.update(edges)
    spanning_flags = {flag for _, flag in outputs}
    weight_oracle, forest_oracle = oracles.minimum_spanning_forest(g)
    ok = union == forest_oracle
    # a spanning forest has n - c edges, so it is a tree iff g is connected
    ok &= spanning_flags == {len(forest_oracle) == g.n - 1}
    L = label_bits(g.n)
    ok &= metrics.broadcasts <= 2 * g.n * L + g.n
    return ok, {"kind": "mst", "weight": weight_oracle}


def _validate_conn(inst, cfg, outputs, metrics):
    g = inst.graph
    want_cc = oracles.component_count(g)
    ok = all(out == (want_cc, want_cc == 1) for out in outputs)
    if inst.expect is not None:
        ok &= (want_cc == 1) == inst.expect
    return ok, {"kind": "conn"}


def _validate_stverify(inst, cfg, outputs, metrics):
    g = inst.graph
    want = oracles.is_spanning_tree(g, inst.candidate)
    ok = all(out[0] == want for out in outputs)
    if inst.expect is not None:
        ok &= want == inst.expect
    return ok, {"kind": "stverify", "answer": want}


def _validate_pagerank(inst, cfg, outputs, metrics):
    g = inst.graph
    per_node = cfg.tokens_per_node or default_tokens_per_node(g.n)
    total = per_node * g.n
    est = np.asarray(outputs)
    ok = abs(est.sum() - 1.0) <= 3.0 / math.sqrt(total)
    l1 = None
    if g.n <= 512:
        want = oracles.exact_pagerank(g, cfg.gamma)
        l1 = float(np.abs(est - want).sum())
        if per_node >= 100 * math.log2(max(2, g.n)):
            ok &= l1 <= 0.1
    return ok, {"kind": "pagerank", "l1": l1, "sum": float(est.sum())}


def _validate_mis(inst, cfg, outputs, metrics):
    g = inst.graph
    failed = any(f for _, f in outputs)
    members = [v for v, (m, _) in enumerate(outputs) if m]
    ok = not failed and oracles.validate_mis(g, members)
    phases = -(-metrics.rounds // 3)
    return ok, {"kind": "mis", "phases": phases}


def _validate_spanner(inst, cfg, outputs, metrics):
    from .programs import spanner_union

    g = inst.graph
    edges = spanner_union(outputs)
    u, v, _ = g.edge_arrays()
    got = np.array(edges, dtype=np.int64).reshape(-1, 2)
    ok = bool(np.isin(got[:, 0] * g.n + got[:, 1], u * g.n + v).all())
    ok &= metrics.broadcasts <= g.n * cfg.delta * cfg.delta
    stretch = None
    if g.n <= 256:
        dist, _ = oracles.all_pairs_distances(g)
        sg = Graph(g.n, [(a, b, 1) for a, b in edges])
        sdist, _ = oracles.all_pairs_distances(sg)
        within = sdist <= (2 * cfg.delta - 1) * dist
        ok &= bool(within.all())
        kept = within & (0 < dist) & (dist < np.inf)
        stretch = float((sdist[kept] / dist[kept]).max(initial=1.0))
    return ok, {"kind": "spanner", "size": len(edges), "stretch": stretch}


def _validate_densest(inst, cfg, outputs, metrics):
    g = inst.graph
    densities = {round(d, 12) for d, _ in outputs}
    ok = len(densities) == 1
    density = outputs[0][0]
    inside = np.array([bool(m) for _, m in outputs])
    u, v, _ = g.edge_arrays()
    internal = np.count_nonzero(inside[u] & inside[v])
    size = np.count_nonzero(inside)
    ok &= bool(size) and abs(internal / size - density) < 1e-9
    if g.n <= oracles.BRUTE_DENSEST_MAX_N and g.n <= 14:
        opt, _ = oracles.brute_densest(g)
        ok &= density >= float(opt) / (2.0 + 2.0 * cfg.eps) - 1e-9
    return ok, {"kind": "densest", "density": density}


def _validate_triangle(inst, cfg, outputs, metrics):
    g = inst.graph
    want = oracles.triangle_exists(g)
    ok = all(out == want for out in outputs)
    return ok, {"kind": "triangle", "answer": want}


VALIDATORS = {
    "bfs": _validate_bfs,
    "bf_sssp": _validate_bf,
    "mst": _validate_mst,
    "conn": _validate_conn,
    "stverify": _validate_stverify,
    "pagerank": _validate_pagerank,
    "mis": _validate_mis,
    "spanner": _validate_spanner,
    "densest": _validate_densest,
    "triangle": _validate_triangle,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def make_program(algorithm: str, inst: Instance, cfg: AlgoConfig):
    return CLIQUE_ALGORITHMS[algorithm][0](inst, cfg)


def natural_mode(algorithm: str) -> str:
    """The mode a clique algorithm is priced in: "bcast" for the programs
    that never send a unicast, "p2p" otherwise."""
    return CLIQUE_ALGORITHMS[algorithm][1]


def _engine_budget(algorithm: str, inst: Instance, cfg: AlgoConfig):
    from .programs import default_phase_budget, walk_shape

    n = inst.graph.n
    if algorithm == "pagerank":
        return walk_shape(n, cfg).budget + 2
    if algorithm == "mis":
        return 3 * (cfg.mis_max_phases or default_phase_budget(n)) + 6
    return None


@dataclass
class RunResult:
    """One clique execution plus its oracle verdict and per-k reports."""

    algorithm: str
    seed: int
    instance: Instance
    outputs: list
    metrics: CliqueMetrics
    valid: bool
    details: dict
    reports: dict  # k -> SimReport


def run_cell(config: ExperimentConfig, seed: int, inst: Instance = None) -> RunResult:
    """Execute one (algorithm, seed) cell and price it at every k.  The
    instance comes from the config's graph spec unless one is given."""
    config.validate()
    algorithm = config.algorithm
    if inst is None:
        inst = build_instance(config.graph, seed, algorithm)
    g = inst.graph
    if algorithm == "hmis":
        reports = {}
        for k in config.k:
            flags, rep, _ = hmis_kmachine(g, k, config.W, seed)
            members = [v for v, f in enumerate(flags) if f]
            rep.success = oracles.validate_mis(g, members) and rep.bound_ok
            reports[k] = rep
        valid = all(rep.success for rep in reports.values())
        return RunResult(
            algorithm, seed, inst, flags, _empty_metrics(), valid,
            {"kind": "hmis"}, reports,
        )
    if algorithm == "logsp":
        res = logapprox_shortest_paths(g, config.k, config.W, seed, config.algo)
        dist, _ = oracles.all_pairs_distances(g)
        est = np.array(res.estimates, dtype=float)
        bound = 2 * max(1, math.ceil(math.log2(max(2, g.n)))) - 1
        # an unreachable pair passes only with an infinite estimate
        valid = bool(((dist <= est) & (est <= bound * dist)).all())
        for rep in res.reports.values():
            rep.success = valid
        return RunResult(
            algorithm, seed, inst, res.estimates, _empty_metrics(), valid,
            {"kind": "logsp"}, res.reports,
        )

    config.algo.validate(g.n)
    parts = [random_vertex_partition(g, k, seed) for k in config.k]
    program = make_program(algorithm, inst, config.algo)
    outputs, trace, metrics = run_clique(
        g, program, seed, max_rounds=_engine_budget(algorithm, inst, config.algo)
    )
    valid, details = VALIDATORS[algorithm](inst, config.algo, outputs, metrics)
    if natural_mode(algorithm) == BCAST and metrics.unicasts:
        valid = False
    mode = config.mode or natural_mode(algorithm)
    reports = {p.k: price(trace, p, config.W, mode=mode) for p in parts}
    for rep in reports.values():
        rep.success = valid and rep.bound_ok
    return RunResult(algorithm, seed, inst, outputs, metrics, valid, details, reports)


def _empty_metrics():
    return CliqueMetrics(0, 0, 0, 0, 0, 0)


def _instance_m(inst: Instance) -> int:
    g = inst.graph
    return g.m if isinstance(g, Graph) else len(g.hyperedges)


def rows_from_result(res: RunResult) -> list:
    rows = []
    for k in sorted(res.reports):
        rep = res.reports[k]
        rows.append(
            {
                "n": res.instance.graph.n,
                "m": _instance_m(res.instance),
                "k": k,
                "W": rep.W,
                "mode": rep.mode,
                "algorithm": res.algorithm,
                "seed": res.seed,
                "T_C": res.metrics.rounds,
                "M": res.metrics.messages,
                "B": res.metrics.broadcasts,
                "Dprime": res.metrics.comm_degree,
                "km_rounds": rep.km_rounds,
                "max_link_bits": rep.max_link_bits,
                "max_machine_bits": rep.max_machine_bits,
                "success": rep.success,
            }
        )
    return rows


def run_experiment(config: ExperimentConfig):
    """All (seed, k) cells of a config, as CSV-ready row dicts sorted by
    (k, seed).  Raises nothing on validation failure; the caller inspects
    the success column (the CLI exits nonzero)."""
    config.validate()
    rows = []
    for seed in config.seeds:
        rows.extend(rows_from_result(run_cell(config, seed)))
    rows.sort(key=lambda r: (r["k"], r["seed"]))
    return rows


def run_sweep(config: ExperimentConfig, sweep: str = "k"):
    """Rows for a sweep: over the config's k list, or over a list of
    instance sizes given as `n` (or `b` for the bit-vector families)."""
    if sweep == "k":
        return run_experiment(config)
    if sweep != "n":
        raise HarnessError("sweep must be 'k' or 'n'")
    key = "b" if "b" in config.graph else "n"
    values = config.graph.get(key)
    if not isinstance(values, (list, tuple)):
        raise HarnessError(f"sweeping n needs a list under {key!r} in the graph spec")
    rows = []
    for val in values:
        spec = dict(config.graph)
        spec[key] = val
        sub = ExperimentConfig(
            algorithm=config.algorithm, graph=spec, k=config.k,
            seeds=config.seeds, W=config.W, mode=config.mode, algo=config.algo,
        )
        rows.extend(run_experiment(sub))
    rows.sort(key=lambda r: (r["n"], r["k"], r["seed"]))
    return rows


def format_csv(rows) -> str:
    cols = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                ("true" if r[c] else "false") if c == "success" else str(r[c])
                for c in cols
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


@dataclass
class ScalingFit:
    variable: str
    slope: float
    intercept: float
    r2: float
    points: list
    residuals: list


def fit_scaling(rows, sweep: str = "k") -> ScalingFit:
    """Least squares on log2(swept value) vs log2(median km_rounds)."""
    if sweep not in ("k", "n"):
        raise HarnessError("sweep must be 'k' or 'n'")
    groups = {}
    for r in rows:
        groups.setdefault(r[sweep], []).append(r["km_rounds"])
    if len(groups) < 3:
        raise HarnessError("need at least 3 distinct swept values")
    points = [(val, statistics.median(v)) for val, v in sorted(groups.items())]
    xs = np.log2([p[0] for p in points])
    ys = np.log2([max(1e-12, p[1]) for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        variable=sweep,
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        points=points,
        residuals=[float(y - p) for y, p in zip(ys, pred)],
    )
