"""Experiment running: instances, oracle validation, CSV rows, scaling fits.

A run is (algorithm, instance, seed, k, W); the algorithm fixes the mode
its trace is priced in.  The clique execution for a seed is shared across
all machine counts, since pricing a recorded trace is a pure function of
the partition; per-vertex outputs are oracle-checked once per seed and the
verdict lands in the `success` column of every row derived from that
execution.
"""

import json
import math
import statistics
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import oracles
from .clique import CliqueMetrics
from .graphs import (
    GADGET_KINDS,
    MODEL_PARAMS,
    Graph,
    gadget_feasible,
    generate,
    generate_gadget,
    is_int,
    is_real,
    label_bits,
    load_edge_list,
    random_gadget_spec,
    random_uniform_hypergraph,
)
from .programs import ALGORITHMS, AlgoConfig, default_tokens_per_node

CSV_HEADER = (
    "n,m,k,W,mode,algorithm,seed,T_C,M,B,Dprime,km_rounds,"
    "max_link_bits,max_machine_bits,success"
)


class HarnessError(ValueError):
    pass


# (keys it needs, keys it may take) of each instance family: a graph spec names
# its family by `file`, `gadget` or `model`, a `hyper` algorithm builds "hyper"
GRAPH_FAMILIES = {
    **{model: (("model", "n", *params), ()) for model, params in MODEL_PARAMS.items()},
    "file": (("file",), ()),
    "gadget": (("gadget", "b"), ("feasible",)),
    "hyper": (("n",), ("hyper", "hyperedges", "arity")),
}


@dataclass
class ExperimentConfig:
    algorithm: str
    graph: dict
    k: list
    seeds: list
    W: int = None  # None -> ceil(log2 n)
    algo: AlgoConfig = field(default_factory=AlgoConfig)
    out: str = None

    def validate(self):
        if not (isinstance(self.algorithm, str) and self.algorithm in ALGORITHMS):
            raise HarnessError(f"unknown algorithm {self.algorithm!r}")
        entry = ALGORITHMS[self.algorithm]
        for seed in self.seeds:
            if not (is_int(seed) and -2**63 <= seed < 2**63):
                raise HarnessError(f"every seed must be an int64, got {seed!r}")
        _check_axis(self.seeds, "seed")
        for key in ("n", "b", "wmax", "hyperedges", "arity"):
            value = self.graph.get(key, 0)  # an absent key passes here
            sizes = key in ("n", "b") and isinstance(value, (list, tuple))
            if not all(is_int(x) for x in (value if sizes else [value])):
                raise HarnessError(f"graph {key} must be an int, got {value!r}")
            if sizes:
                _check_axis(value, f"graph {key}")
        if self.graph.get("p") is not None and not is_real(self.graph["p"]):
            raise HarnessError(f"graph p must be a real number, got {self.graph['p']!r}")
        if not isinstance(self.graph.get("feasible", False), bool):
            raise HarnessError(f"graph feasible must be a bool, got {self.graph['feasible']!r}")
        for key in ("model", "file"):
            if not isinstance(self.graph.get(key, ""), str):
                raise HarnessError(f"graph {key} must be a string, got {self.graph[key]!r}")
        for k in self.k:
            if not _positive_int(k):
                raise HarnessError(f"every k must be a positive int, got {k!r}")
        _check_axis(self.k, "machine count k")
        if self.W is not None and not _positive_int(self.W):
            raise HarnessError(f"W must be a positive int, got {self.W!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise HarnessError(f"out must be a string, got {self.out!r}")
        if min(self.k) < entry.min_k:
            raise HarnessError(f"{self.algorithm} needs at least {entry.min_k} "
                               f"machines, got k={min(self.k)}")
        # refused in turn: an unknown model, unread graph keys, missing ones, an
        # unknown gadget; a spec that names no family reads like a model's
        family = ("hyper" if entry.hyper else "file" if "file" in self.graph
                  else "gadget" if "gadget" in self.graph else "model")
        if family == "model":  # the model names the family
            family = self.graph.get("model")
            if family is not None and family not in MODEL_PARAMS:
                raise HarnessError(f"unknown model {family!r}")
        need, may = GRAPH_FAMILIES[family] if family else (("model", "n"), ("p", "wmax"))
        unread = sorted(set(self.graph) - {*need, *may})
        if unread:
            builds = ("builds a random hypergraph from n, hyperedges and arity"
                      if entry.hyper else "runs on a graph")
            raise HarnessError(f"{self.algorithm} {builds} and reads no graph "
                               f"{', '.join(unread)}")
        missing = [key for key in need if key not in self.graph]
        if missing:
            raise HarnessError(f"the graph spec needs {', '.join(missing)}")
        if family == "gadget" and str(self.graph["gadget"]).upper() not in GADGET_KINDS:
            raise HarnessError(f"unknown gadget {self.graph['gadget']!r}")
        if self.graph.get("hyper", True) is not True:
            raise HarnessError(f"graph hyper marks a hypergraph and can only be true, "
                               f"got {self.graph['hyper']!r}")
        # refused like unread graph keys: a parameter the algorithm never reads
        unread = [name for name in _FLAT_ALGO_KEYS - set(entry.reads)
                  if getattr(self.algo, name) != getattr(_DEFAULT_ALGO, name)]
        if unread:
            reads = f" (it reads {', '.join(entry.reads)})" if entry.reads else ""
            raise HarnessError(f"{self.algorithm} reads no {', '.join(sorted(unread))}"
                               f"{reads}")
        self.algo.validate()
        return self


def _positive_int(x) -> bool:
    return is_int(x) and x >= 1


def _check_axis(values, name):
    """An axis of cells (k, seeds, a size list) needs a value, and each once."""
    if not values:
        raise HarnessError(f"need at least one {name}")
    for i, x in enumerate(values):
        if x in values[:i]:
            raise HarnessError(f"{name}={x} is listed twice")


_FLAT_ALGO_KEYS = {f.name for f in fields(AlgoConfig)}
_DEFAULT_ALGO = AlgoConfig()
_FLAT_GRAPH_KEYS = {key for need, may in GRAPH_FAMILIES.values() for key in (*need, *may)}
# every key of a flat config document, each also a command-line flag
CONFIG_KEYS = (*(f.name for f in fields(ExperimentConfig) if f.name not in ("graph", "algo")),
               *sorted(_FLAT_GRAPH_KEYS), *(f.name for f in fields(AlgoConfig)))


def _axis(value) -> list:
    """An axis's values; one that is not a list is an axis of one value."""
    return list(value) if isinstance(value, (list, tuple)) else [value]


def config_from_mapping(doc: dict) -> ExperimentConfig:
    """Build a config from a flat key-value document (JSON file or CLI)."""
    if "algorithm" not in doc:
        raise HarnessError("the config names no algorithm")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise HarnessError(f"unknown config keys: {unknown}")
    return ExperimentConfig(
        algorithm=doc["algorithm"],
        graph={k: v for k, v in doc.items() if k in _FLAT_GRAPH_KEYS},
        k=_axis(doc.get("k", [2])),
        seeds=_axis(doc.get("seeds", [0])),
        W=doc.get("W"),
        algo=AlgoConfig(**{k: v for k, v in doc.items() if k in _FLAT_ALGO_KEYS}),
        out=doc.get("out"),
    ).validate()


def load_config(path: str, overrides: dict = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise HarnessError(f"cannot read config file {path!r}: {exc.strerror}")
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise HarnessError(f"config file {path!r} is not JSON: {exc}")
    if not isinstance(doc, dict):
        raise HarnessError(f"config file {path!r} holds a JSON {type(doc).__name__}, "
                           "not an object")
    doc.update(overrides or {})
    return config_from_mapping(doc)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    graph: object  # Graph or Hypergraph
    candidate: tuple = None  # edge indices for stverify
    expect: object = None  # the answer a gadget's bits give this cell's algorithm


# the algorithm whose answer a gadget's bits decide (gadget_feasible)
_GADGET_DECIDES = {"ST_LOWER": "conn", "CONN": "conn", "STVERIFY": "stverify"}


def build_instance(spec: dict, seed: int, algorithm: str) -> Instance:
    if ALGORITHMS[algorithm].hyper:
        n = spec["n"]
        m, arity = spec.get("hyperedges", 2 * n), spec.get("arity", 3)
        return Instance(graph=random_uniform_hypergraph(n, m, arity, seed))
    if "file" in spec:
        try:
            with open(spec["file"]) as fh:
                g = load_edge_list(fh.read())
        except OSError as exc:
            raise HarnessError(f"cannot read graph file {spec['file']!r}: {exc.strerror}")
    elif "gadget" in spec:
        kind = spec["gadget"].upper()
        gs = random_gadget_spec(kind, spec["b"], seed, feasible=spec.get("feasible"))
        g = generate_gadget(gs)
        if algorithm == _GADGET_DECIDES[kind]:
            # the bits give the answer; a STVERIFY gadget's candidate is all its edges
            cand = tuple(range(g.m)) if kind == "STVERIFY" else None
            return Instance(graph=g, candidate=cand, expect=gadget_feasible(gs))
    else:
        g = generate(spec["model"], spec["n"], seed, p=spec.get("p"), wmax=spec.get("wmax"))
    cand = default_stverify_candidate(g, seed) if algorithm == "stverify" else None
    return Instance(graph=g, candidate=cand)


def default_stverify_candidate(g: Graph, seed: int):
    """Even seeds propose a real spanning structure, odd seeds a broken one."""
    forest = oracles.minimum_spanning_forest(g)[1]
    pairs = {(min(u, v), max(u, v)): i for i, (u, v, _) in enumerate(g.edges)}
    tree_idx = sorted(pairs[e] for e in forest)
    if seed % 2 == 0 or g.m <= len(tree_idx):
        return tuple(tree_idx)
    tree = set(tree_idx)
    spare = next(i for i in range(g.m) if i not in tree)
    return tuple(sorted([*tree_idx[1:], spare]))


# ---------------------------------------------------------------------------
# per-algorithm oracle validation
# ---------------------------------------------------------------------------

# Each validator returns (ok, details); details holds only what is read off a
# cell later: mis "phases" (criterion 8) and pagerank "l1" and "sum"
# (criterion 9).


def _validate_bfs(inst, cfg, outputs, metrics):
    g = inst.graph
    dist, parent = oracles.bfs_tree(g, cfg.source)
    ok = list(outputs) == list(zip(dist, parent))
    ok &= metrics.broadcasts <= g.n + 1
    return ok, {}


def _validate_bf(inst, cfg, outputs, metrics):
    g = inst.graph
    want, hops = oracles.single_source_distances(g, cfg.source)
    got = [d for d, _ in outputs]
    ok = got == want and _sssp_parents_ok(g, cfg.source, want, outputs)
    # an estimate improves only up to its fewest-hop minimum-weight path
    ok &= metrics.broadcasts <= g.n * max(1, max(hops)) + g.n
    return ok, {}


def _sssp_parents_ok(g, source, dist, outputs):
    """Whether the source and every unreached vertex have parent None,
    every other vertex v a neighbour p with dist[p] + w(p, v) == dist[v],
    and every parent chain reaches the source (zero weights could close a
    cycle of locally valid parents)."""
    indptr, nbr, eidx = g.csr()
    cuts, nbrs = indptr.tolist(), nbr.tolist()
    weights = g.edge_arrays()[2][eidx].tolist()
    for v, (d, parent) in enumerate(outputs):
        if v == source or d == math.inf:
            if parent is not None:
                return False
            continue
        try:
            slot = nbrs.index(parent, cuts[v], cuts[v + 1])
        except ValueError:  # not a neighbour of v
            return False
        if dist[parent] + weights[slot] != d:
            return False
    rooted = {source}  # vertices whose parent chain reaches the source
    for v, (d, _) in enumerate(outputs):
        if d == math.inf:
            continue
        chain = set()
        while v not in rooted:
            if v in chain:
                return False
            chain.add(v)
            v = outputs[v][1]
        rooted |= chain
    return True


def _validate_mst(inst, cfg, outputs, metrics):
    g = inst.graph
    union = set()
    for edges, _flag in outputs:
        union.update(edges)
    spanning_flags = {flag for _, flag in outputs}
    forest_oracle = oracles.minimum_spanning_forest(g)[1]
    ok = union == forest_oracle
    # a spanning forest has n - c edges, so it is a tree iff g is connected
    ok &= spanning_flags == {len(forest_oracle) == g.n - 1}
    L = label_bits(g.n)
    ok &= metrics.broadcasts <= 2 * g.n * L + g.n
    return ok, {}


def _validate_conn(inst, cfg, outputs, metrics):
    g = inst.graph
    want_cc = oracles.component_count(g)
    ok = all(out == (want_cc, want_cc == 1) for out in outputs)
    if inst.expect is not None:
        ok &= (want_cc == 1) == inst.expect
    return ok, {}


def _validate_stverify(inst, cfg, outputs, metrics):
    g = inst.graph
    want = oracles.is_spanning_tree(g, inst.candidate)
    ok = all(out[0] == want for out in outputs)
    if inst.expect is not None:
        ok &= want == inst.expect
    return ok, {}


def _validate_pagerank(inst, cfg, outputs, metrics):
    g = inst.graph
    per_node = cfg.tokens_per_node or default_tokens_per_node(g.n)
    total = per_node * g.n
    est = np.asarray(outputs)
    # a token on an isolated vertex dies after its first visit: the
    # estimates sum to 1 - (1 - gamma) s / n over the s isolated vertices
    s = np.count_nonzero(np.diff(g.adjacency()[0]) == 0)
    ok = abs(est.sum() - 1.0 + (1.0 - cfg.gamma) * s / g.n) <= 3.0 / math.sqrt(total)
    l1 = None
    if g.n <= 512:
        want = oracles.exact_pagerank(g, cfg.gamma)
        l1 = float(np.abs(est - want).sum())
        if per_node >= 100 * math.log2(max(2, g.n)):
            ok &= l1 <= 0.1
    return ok, {"l1": l1, "sum": float(est.sum())}


def _validate_mis(inst, cfg, outputs, metrics):
    g = inst.graph
    failed = any(f for _, f in outputs)
    members = [v for v, (m, _) in enumerate(outputs) if m]
    ok = not failed and oracles.validate_mis(g, members)
    phases = -(-metrics.rounds // 3)
    return ok, {"phases": phases}


def _validate_spanner(inst, cfg, outputs, metrics):
    from .programs import spanner_union

    g = inst.graph
    edges = spanner_union(outputs)
    u, v, _ = g.edge_arrays()
    got = np.array(edges, dtype=np.int64).reshape(-1, 2)
    ok = bool(np.isin(got[:, 0] * g.n + got[:, 1], u * g.n + v).all())
    ok &= metrics.broadcasts <= g.n * cfg.delta * cfg.delta
    if g.n <= 256:
        sdist, _ = oracles.all_pairs_distances(Graph(g.n, [(a, b, 1) for a, b in edges]))
        # the program ignores weights, so its stretch is in hops; each pair's
        # is at most t iff each edge's is: sum along a fewest-hop path of g
        ok &= bool((sdist[u, v] <= 2 * cfg.delta - 1).all())
    return ok, {}


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
    return ok, {}


def _validate_triangle(inst, cfg, outputs, metrics):
    g = inst.graph
    want = oracles.triangle_exists(g)
    ok = all(out == want for out in outputs)
    return ok, {}


def _validate_hmis(inst, cfg, outputs, metrics):
    # the outputs are the membership flags at every k
    ok = all(oracles.validate_mis(inst.graph, [v for v, f in enumerate(flags) if f])
             for flags in outputs.values())
    return ok, {}


def _validate_logsp(inst, cfg, outputs, metrics):
    g = inst.graph
    dist, _ = oracles.all_pairs_distances(g)
    est = np.array(outputs, dtype=float)
    bound = 2 * label_bits(g.n) - 1
    # an unreachable pair passes only with an infinite estimate
    ok = bool(((dist <= est) & (est <= bound * dist)).all())
    return ok, {}


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
    "hmis": _validate_hmis,
    "logsp": _validate_logsp,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """One clique execution plus its oracle verdict and per-k reports."""

    algorithm: str
    seed: int
    instance: Instance
    metrics: CliqueMetrics
    valid: bool
    details: dict
    reports: dict  # k -> SimReport


def run_cell(config: ExperimentConfig, seed: int, inst: Instance = None) -> RunResult:
    """Execute one (algorithm, seed) cell and price it at every k.  The
    instance comes from the config's graph spec unless one is given."""
    config.validate()
    for key in ("n", "b"):
        if isinstance(config.graph.get(key), (list, tuple)):
            raise HarnessError(f"graph {key} is a list of sizes; a cell runs one")
    algorithm = config.algorithm
    entry = ALGORITHMS[algorithm]
    if inst is None:
        inst = build_instance(config.graph, seed, algorithm)
    config.algo.validate(inst.graph.n)
    outputs, metrics, reports = entry.run(inst, config.k, config.W, seed, config.algo)
    valid, details = VALIDATORS[algorithm](inst, config.algo, outputs, metrics)
    return RunResult(algorithm, seed, inst, metrics, valid, details, reports)


def rows_from_result(res: RunResult) -> list:
    rows = []
    for k in sorted(res.reports):
        rep = res.reports[k]
        rows.append(
            {
                "n": res.instance.graph.n,
                "m": res.instance.graph.m,
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
                "success": res.valid and rep.bound_ok,
            }
        )
    return rows


def run_experiment(config: ExperimentConfig):
    """All cells of a config, as CSV-ready row dicts sorted by (n, k, seed):
    the lists under k, seeds and n (or b) are its axes.  Sizes run smallest
    first, so a refusal that a smaller instance also hits (source >= n,
    k > n, arity > n, a walk count over payload_cap(n)) comes before any
    engine runs.  Raises nothing on validation failure; the caller inspects
    the success column (the CLI exits nonzero)."""
    config.validate()
    key = "b" if "b" in config.graph else "n"
    sizes = config.graph.get(key)
    specs = ([{**config.graph, key: size} for size in sorted(sizes)]
             if isinstance(sizes, (list, tuple)) else [config.graph])
    rows = []
    for spec in specs:
        cell = replace(config, graph=spec)
        for seed in config.seeds:
            rows.extend(rows_from_result(run_cell(cell, seed)))
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
    """The model c * n**a * k**b fitted to median km_rounds: `slope` is the
    swept variable's exponent, `other` the other variable's when it varies
    too (else None), `intercept` is log2 c, and `points` holds each (n, k)
    cell's (swept value, median km_rounds), ascending."""
    variable: str
    slope: float
    intercept: float
    r2: float
    points: list
    other: float = None


def fit_scaling(rows, sweep: str = "k") -> ScalingFit:
    """Least squares of log2(median km_rounds) per (n, k) cell on
    [log2 swept, log2 other, 1].  The other variable's column is dropped
    when it never varies (rows may also omit it), and the fit is then the
    straight line through the swept value's medians.  Columns are scaled
    to unit norm before the solve, as np.polyfit does."""
    if sweep not in ("k", "n"):
        raise HarnessError("sweep must be 'k' or 'n'")
    other = "n" if sweep == "k" else "k"
    groups = {}
    for r in rows:
        groups.setdefault((r[sweep], r.get(other)), []).append(r["km_rounds"])
    cells = sorted(groups)
    if len({val for val, _ in cells}) < 3:
        raise HarnessError("need at least 3 distinct swept values")
    joint = len({o for _, o in cells}) > 1
    costs = [statistics.median(groups[c]) for c in cells]
    for (val, o), cost in zip(cells, costs):
        if cost == 0:
            at = f"{sweep}={val}" + (f", {other}={o}" if joint else "")
            raise HarnessError(f"the median km_rounds at {at} is 0; "
                               "a log-log fit needs positive costs")
    xs = np.log2([c[:1 + joint] for c in cells]).T
    ys = np.log2(costs)
    lhs = np.column_stack([*xs, np.ones(len(cells))])
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    coef, _, rank, _ = np.linalg.lstsq(lhs / scale, ys, len(ys) * np.finfo(float).eps)
    if rank < lhs.shape[1]:
        raise HarnessError(f"{sweep} and {other} vary together; "
                           "a fit cannot tell their exponents apart")
    *exps, intercept = coef / scale
    pred = intercept
    for e, x in zip(exps, xs):
        pred = e * x + pred
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        variable=sweep,
        slope=float(exps[0]),
        intercept=float(intercept),
        r2=r2,
        points=[(val, cost) for (val, _), cost in zip(cells, costs)],
        other=float(exps[1]) if joint else None,
    )
