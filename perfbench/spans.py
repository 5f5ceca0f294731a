"""Traced mode: spans around the public entry points of each kmachine module.

The benchmark wraps the functions from its own code; nothing under `src/`
knows about tracing.  A wrapper records one span per call: name, start,
end, parent span and cell id.  Spans live in flat arrays in memory and are
written out as JSON at the end.  A span's self time is its duration minus
the time its child spans cover; because children nest inside their
parents, the self times of one repetition add up to the time its root spans
cover, and the rest of the body's wall time is the residual.
"""

import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("harness", "graphs", "clique", "rng", "oracles", "machines", "programs")


def _count_graph(counts, args, out):
    g = args[0]  # the instance under construction
    counts["graphs.calls"] += 1
    counts["graphs.edges"] += len(g.edges) if hasattr(g, "edges") else len(g.hyperedges)


def _count_clique(counts, args, out):
    metrics = out[2]
    counts["clique.rounds"] += metrics.rounds
    counts["clique.unicasts"] += metrics.unicasts
    counts["clique.broadcasts"] += metrics.broadcasts


def _count_conversion(counts, args, out):
    counts["machines.conversions"] += 1
    counts["machines.km_rounds"] += out.km_rounds
    counts["machines.total_bits"] += out.total_bits


def _oracle_functions():
    from kmachine import oracles

    return [name for name, obj in vars(oracles).items()
            if callable(obj) and not name.startswith("_") and not isinstance(obj, type)
            and obj.__module__ == oracles.__name__]


# (layer, "module:attribute", where to rebind, counter).  "all" rebinds every
# kmachine module that imported the function by name; "own" rebinds only the
# named one, so `make_np_rng` is traced as the engine calls it and not as the
# graph generators do.  A span is named after its attribute (or its class,
# for a constructor).
def _targets():
    t = [
        ("harness", "kmachine.harness:run_cell", "all", None),
        ("graphs", "kmachine.graphs:generate", "all", None),
        ("graphs", "kmachine.graphs:generate_gadget", "all", None),
        ("graphs", "kmachine.graphs:random_uniform_hypergraph", "all", None),
        ("graphs", "kmachine.graphs:Graph.__init__", "own", _count_graph),
        ("graphs", "kmachine.graphs:Hypergraph.__init__", "own", _count_graph),
        ("clique", "kmachine.clique:run_clique", "all", _count_clique),
        ("rng", "kmachine.clique:make_np_rng", "own", None),
        ("rng", "kmachine.clique:make_random", "own", None),
        ("rng", "kmachine.rng:derive", "all", None),
        ("machines", "kmachine.machines:random_vertex_partition", "all", None),
        ("machines", "kmachine.machines:convert_p2p", "all", _count_conversion),
        ("machines", "kmachine.machines:convert_broadcast", "all", _count_conversion),
        ("machines", "kmachine.machines:check_mapping_bounds", "all", None),
        ("programs", "kmachine.programs.hypergraph_mis:hmis_kmachine", "all", None),
        ("programs", "kmachine.programs.spanner:logapprox_shortest_paths", "all", None),
    ]
    return t + [("oracles", f"kmachine.oracles:{name}", "all", None)
                for name in _oracle_functions()]


# per-layer metrics: (name, unit); times are medians over repetitions, counts
# come from the first repetition, whose inputs are fixed by the seed
LAYER_METRICS = [
    ("clique.run_s", "s"), ("clique.self_s", "s"), ("clique.rounds", "count"),
    ("clique.unicasts", "count"), ("clique.broadcasts", "count"),
    ("rng.np_rng_calls", "count"), ("rng.np_rng_s", "s"),
    ("rng.derive_calls", "count"), ("rng.derive_s", "s"),
    ("rng.random_calls", "count"), ("rng.random_s", "s"), ("rng.self_s", "s"),
    ("graphs.build_s", "s"), ("graphs.self_s", "s"),
    ("graphs.calls", "count"), ("graphs.edges", "count"),
    ("oracles.validate_s", "s"), ("oracles.self_s", "s"), ("oracles.calls", "count"),
    ("machines.partition_s", "s"), ("machines.price_s", "s"),
    ("machines.mapping_s", "s"), ("machines.self_s", "s"),
    ("machines.conversions", "count"), ("machines.km_rounds", "count"),
    ("machines.total_bits", "bits"),
    ("programs.machine_level_s", "s"), ("programs.self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.residual_s", "s"),
]
COUNT_METRICS = {name for name, unit in LAYER_METRICS if unit != "s"}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.names = []  # span name per name id
        self.layer_of = []  # layer index per name id
        self.name = array("h")
        self.parent = array("q")
        self.cell = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.cell_id = -1
        self.counts = Counter()
        self._undo = []

    def wrap(self, layer, span_name, fn, count=None):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(LAYERS.index(layer))
        name, parent, cell = self.name, self.parent, self.cell
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            cell.append(self.cell_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self):
        from kmachine import harness

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kmachine" or name.startswith("kmachine.")]
        for layer, where, scope, count in _targets():
            mod_name, attr = where.split(":")
            owner = importlib.import_module(mod_name)
            if "." in attr:  # a method: Class.attribute
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            span_name = owner.__name__ if attr == "__init__" else attr
            wrapped = self.wrap(layer, span_name, fn, count)
            owners = [owner] if scope == "own" else [
                m for m in modules if getattr(m, attr, None) is fn]
            for o in owners:
                self._set(o, attr, wrapped)
        for key, fn in list(harness.VALIDATORS.items()):
            self._set(harness.VALIDATORS, key,
                      self.wrap("oracles", "VALIDATORS." + key, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def mark(self):
        """Position to pass to `metrics` and `truncate` after a repetition."""
        return len(self.name)

    def truncate(self, mark):
        for arr in (self.name, self.parent, self.cell, self.start, self.end):
            del arr[mark:]

    def arrays(self, lo=0):
        """Copies of the span columns from position `lo` on, with parents
        renumbered from there."""
        name = np.array(self.name, dtype=np.int64)[lo:]
        parent = np.array(self.parent, dtype=np.int64)[lo:] - lo
        parent[parent < -1] = -1
        start = np.array(self.start, dtype=np.int64)[lo:]
        end = np.array(self.end, dtype=np.int64)[lo:]
        cell = np.array(self.cell, dtype=np.int64)[lo:]
        return name, parent, start, end, cell

    def metrics(self, lo, body_wall_s):
        """Time metrics of the spans recorded since position `lo`."""
        name, parent, start, end, _ = self.arrays(lo)
        dur = (end - start).astype(np.float64) / 1e9
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        top = parent_layer != layer  # outermost span of its own layer

        def ids(*span_names):
            return [i for i, n in enumerate(self.names) if n in span_names]

        def by_name(*span_names):
            sel = np.isin(name, ids(*span_names))
            return float(dur[sel].sum()), int(sel.sum())

        out = {f"{lay}.self_s": float(self_t[layer == i].sum())
               for i, lay in enumerate(LAYERS)}
        out["clique.run_s"] = by_name("run_clique")[0]
        out["rng.np_rng_s"], out["rng.np_rng_calls"] = by_name("make_np_rng")
        out["rng.derive_s"], out["rng.derive_calls"] = by_name("derive")
        out["rng.random_s"], out["rng.random_calls"] = by_name("make_random")
        g = LAYERS.index("graphs")
        out["graphs.build_s"] = float(dur[(layer == g) & top].sum())
        o = LAYERS.index("oracles")
        out["oracles.validate_s"] = float(dur[(layer == o) & top].sum())
        out["oracles.calls"] = int(((layer == o) & top).sum())
        out["machines.partition_s"] = by_name("random_vertex_partition")[0]
        out["machines.price_s"] = by_name("convert_p2p", "convert_broadcast")[0]
        out["machines.mapping_s"] = by_name("check_mapping_bounds")[0]
        p = LAYERS.index("programs")
        out["programs.machine_level_s"] = float(dur[(layer == p) & top].sum())
        out["trace.wall_s"] = body_wall_s
        out["trace.residual_s"] = body_wall_s - float(dur[~has_parent].sum())
        return out

    def dump(self, path, hi):
        """Write the spans before position `hi` as columnar JSON."""
        name, parent, start, end, cell = self.arrays()
        t0 = int(start[0]) if len(start) else 0
        doc = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "name": name[:hi].tolist(),
            "parent": parent[:hi].tolist(),
            "cell": cell[:hi].tolist(),
            "start_ns": (start[:hi] - t0).tolist(),
            "end_ns": (end[:hi] - t0).tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
