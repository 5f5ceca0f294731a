"""Graph and hypergraph instances, generators and edge-list I/O.

Vertices are dense integer labels 0..n-1.  Graphs are undirected, carry
nonnegative integer edge weights, and are immutable after construction so
they can be shared freely between concurrent executions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import make_np_rng

WEIGHT_POLY_C = 4  # weights fit in WEIGHT_POLY_C * ceil(log2 n) bits


def label_bits(n: int) -> int:
    """Bits needed for a vertex label, i.e. ceil(log2 n), at least 1."""
    return max(1, (n - 1).bit_length())


def inf_weight(n: int, c: int = WEIGHT_POLY_C) -> int:
    """Reserved sentinel for 'infinite weight'; never stored in a graph."""
    return (1 << (c * label_bits(n))) - 1


class GraphError(ValueError):
    pass


class Graph:
    """Immutable undirected weighted graph on vertices 0..n-1.

    Held as read-only int64 (u, v, w) edge arrays, normalised so u < v and
    kept in input order.  The CSR and the Python views `edges` and
    `neighbors` are built from them on first use and cached.
    """

    __slots__ = ("n", "_arrays", "_csr", "_edges", "_nbrs")

    def __init__(self, n: int, edges):
        """edges: an iterable of (u, v, w) triples or an (m, 3) int array."""
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            arr = np.array(edges, dtype=np.int64)
        except OverflowError:
            raise GraphError("edge field outside the int64 range")
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise GraphError("edges must be (u, v, w) triples")
        u, v, w = arr.T
        a, b, w = np.minimum(u, v), np.maximum(u, v), w.copy()
        bad = (u == v) | (a < 0) | (b >= n) | (w < 0) | (w >= inf_weight(n))
        key = a * n + b
        if np.count_nonzero(bad):
            _reject(n, u, v, w, key, int(bad.argmax()))
        ordered = np.sort(key)
        if np.count_nonzero(ordered[1:] == ordered[:-1]):
            _reject(n, u, v, w, key, len(a))
        self.n = n
        self._arrays = _frozen(a, b, w)
        self._csr = None
        self._edges = None
        self._nbrs = None

    @property
    def m(self) -> int:
        return len(self._arrays[0])

    @property
    def edges(self):
        """(u, v, w) tuples of Python ints, u < v, in input order."""
        if self._edges is None:
            self._edges = tuple(zip(*(x.tolist() for x in self._arrays)))
        return self._edges

    def degree(self, v: int) -> int:
        indptr = self.csr()[0]
        return int(indptr[v + 1] - indptr[v])

    def neighbors(self, v: int):
        """(neighbor, weight, edge index) triples incident to v, ascending."""
        if self._nbrs is None:
            indptr, nbr, eidx = self.csr()
            # one int object per label, shared by every slot that names it;
            # fresh ints from tolist() would add 28 bytes per field per slot
            ids = list(range(max(self.n, self.m)))
            eis = list(map(ids.__getitem__, eidx.tolist()))
            ws = map(self._arrays[2].tolist().__getitem__, eis)
            flat = tuple(zip(map(ids.__getitem__, nbr.tolist()), ws, eis))
            cuts = indptr.tolist()
            self._nbrs = tuple(flat[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
        return self._nbrs[v]

    def csr(self):
        """(indptr, nbr, eidx) as read-only int64 arrays: vertex v's
        neighbors fill nbr[indptr[v]:indptr[v+1]] in ascending order, the
        order of neighbors(v), and eidx holds each slot's edge index."""
        if self._csr is None:
            a, b, _ = self._arrays
            n, m = self.n, len(a)
            others = np.concatenate([b, a])
            slot_key = np.concatenate([a, b]) * n + others
            order = slot_key.argsort()
            # vertex x's slots are those whose keys lie in [x*n, (x+1)*n)
            indptr = slot_key[order].searchsorted(np.arange(0, (n + 1) * n, n))
            self._csr = _frozen(indptr, others[order], order % max(m, 1))
        return self._csr

    def edge_arrays(self):
        """(u, v, w) as read-only int64 numpy arrays."""
        return self._arrays

    def max_degree(self) -> int:
        u, v, _ = self._arrays
        return int(np.bincount(np.concatenate([u, v]), minlength=self.n).max())

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and sorted(self.edges) == sorted(other.edges)
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.edges))))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _frozen(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _reject(n, u, v, w, key, stop):
    """Raise the error of the first faulty edge in input order: a duplicate
    of an earlier edge among the valid first `stop`, else edge `stop`."""
    head = key[:stop]
    order = np.argsort(head, kind="stable")
    later = order[1:][head[order][1:] == head[order][:-1]]
    if len(later):
        a, b = divmod(int(head[later.min()]), n)
        raise GraphError(f"duplicate edge ({a},{b})")
    uu, vv, ww = int(u[stop]), int(v[stop]), int(w[stop])
    if uu == vv:
        raise GraphError(f"self-loop at vertex {uu}")
    if not (0 <= uu < n and 0 <= vv < n):
        raise GraphError(f"edge ({uu},{vv}) out of range for n={n}")
    raise GraphError(f"weight {ww} outside [0, {inf_weight(n)}) for n={n}")


class Hypergraph:
    """Immutable hypergraph: vertex set 0..n-1 plus hyperedges of size >= 2."""

    __slots__ = ("n", "hyperedges", "incident")

    def __init__(self, n: int, hyperedges):
        if n < 1:
            raise GraphError("hypergraph needs at least one vertex")
        incident = [[] for _ in range(n)]
        cleaned = []
        for h in hyperedges:
            members = tuple(sorted(set(h)))
            if len(members) < 2:
                raise GraphError(f"hyperedge {h!r} has fewer than 2 vertices")
            if members[0] < 0 or members[-1] >= n:
                raise GraphError(f"hyperedge {h!r} out of range for n={n}")
            idx = len(cleaned)
            cleaned.append(members)
            for v in members:
                incident[v].append(idx)
        self.n = n
        self.hyperedges = tuple(cleaned)
        self.incident = tuple(tuple(ix) for ix in incident)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, edges={len(self.hyperedges)})"


# ---------------------------------------------------------------------------
# edge-list file format:  "n <count>" header, then "u v [w]" lines, '#' comments
# ---------------------------------------------------------------------------


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Raises GraphError with the offending line number on malformed lines,
    out-of-range vertices, duplicate edges or self-loops.
    """
    n = None
    edges = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise GraphError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 1:
                raise GraphError(f"line {lineno}: vertex count must be positive")
            continue
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'u v' or 'u v w'")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer field")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: vertex id out of range (n={n})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(
                f"line {lineno}: duplicate edge {key} (first at line {seen[key]})"
            )
        seen[key] = lineno
        edges.append((u, v, w))
    if n is None:
        raise GraphError("missing 'n <count>' header")
    return Graph(n, edges)


def dump_edge_list(g: Graph) -> str:
    """Serialize: header line then one 'u v w' line per edge sorted by (u, v)."""
    lines = [f"n {g.n}"]
    for u, v, w in sorted(g.edges):
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _pairs_from_indices(idx: np.ndarray, n: int):
    # pair i of the lexicographic order (0,1),(0,2),..,(0,n-1),(1,2),..
    u = np.floor(n - 0.5 - np.sqrt((n - 0.5) ** 2 - 2.0 * idx)).astype(np.int64)
    u = np.clip(u, 0, n - 2)

    def offset(uu):
        return uu * n - (uu * (uu + 1)) // 2

    # the float guess can be off by one either way
    for _ in range(2):
        u = np.where((u > 0) & (offset(u) > idx), u - 1, u)
        u = np.where(offset(u + 1) <= idx, u + 1, u)
    v = idx - offset(u) + u + 1
    return u, v


def _gnp_edges(n: int, p: float, rng):
    """(u, v) int64 arrays of a G(n, p) sample, in lexicographic order."""
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return _pairs_from_indices(np.zeros(0, dtype=np.int64), n)
    if p >= 1.0:
        return _pairs_from_indices(np.arange(total), n)
    picked = []
    pos = -1
    while pos < total:
        want = int((total - pos) * p * 1.1) + 64
        gaps = rng.geometric(p, size=want)
        idx = pos + np.cumsum(gaps)
        inside = idx[idx < total]
        picked.append(inside)
        if len(inside) < len(idx):
            break
        pos = int(idx[-1])
    return _pairs_from_indices(np.concatenate(picked), n)


def generate(model: str, n: int, seed: int, p: float = None, wmax: int = None) -> Graph:
    """Deterministic graph generator.

    model is one of cycle | path | star | clique | grid | gnp | random_weighted.
    gnp needs p; random_weighted needs p and wmax.  Identical arguments always
    produce the identical edge sequence.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if model in ("gnp", "random_weighted"):
        if p is None or not (0.0 <= p <= 1.0):
            raise GraphError(f"model {model} needs edge probability p in [0,1]")
    edges = []
    if model == "path":
        edges = [(i, i + 1, 1) for i in range(n - 1)]
    elif model == "cycle":
        edges = [(i, i + 1, 1) for i in range(n - 1)]
        if n >= 3:
            edges.append((n - 1, 0, 1))
    elif model == "star":
        edges = [(0, i, 1) for i in range(1, n)]
    elif model == "clique":
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    elif model == "grid":
        cols = max(1, math.isqrt(n))
        for i in range(n):
            if (i + 1) % cols != 0 and i + 1 < n:
                edges.append((i, i + 1, 1))
            if i + cols < n:
                edges.append((i, i + cols, 1))
    elif model == "gnp":
        u, v = _gnp_edges(n, p, make_np_rng(seed, "gen-gnp", n))
        edges = np.column_stack([u, v, np.ones_like(u)])
    elif model == "random_weighted":
        if wmax is None or wmax < 1:
            raise GraphError("random_weighted needs wmax >= 1")
        if wmax >= inf_weight(n):
            raise GraphError(f"wmax {wmax} too large for n={n}")
        rng = make_np_rng(seed, "gen-rw", n)
        u, v = _gnp_edges(n, p, rng)
        edges = np.column_stack([u, v, rng.integers(1, wmax + 1, size=len(u))])
    else:
        raise GraphError(f"unknown model {model!r}")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# two-hub and ladder instances used for communication-hardness experiments
# ---------------------------------------------------------------------------

GADGET_KINDS = ("ST_LOWER", "STVERIFY", "CONN")


@dataclass(frozen=True)
class GadgetSpec:
    """Bit-vector-driven instance family.

    ST_LOWER: hubs u, w plus spokes v_1..v_b; u-v_i iff X_i, v_i-w iff Y_i;
    requires X_i + Y_i >= 1 for every i.  STVERIFY / CONN: two stars on
    u_0..u_b and v_0..v_b joined by rungs u_j-v_j; star edges keyed off the
    bit vectors (X_i for the u side in STVERIFY, 1-X_i in CONN, 1-Y_i for
    the v side in both).
    """

    kind: str
    b: int
    x: tuple = field(default=())
    y: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in GADGET_KINDS:
            raise GraphError(f"unknown gadget kind {self.kind!r}")
        if self.b < 1:
            raise GraphError("gadget needs b >= 1")
        if len(self.x) != self.b or len(self.y) != self.b:
            raise GraphError("bit vectors must have length b")
        if any(bit not in (0, 1) for bit in self.x + self.y):
            raise GraphError("bit vectors must be 0/1")
        if self.kind == "ST_LOWER" and any(
            xi + yi < 1 for xi, yi in zip(self.x, self.y)
        ):
            raise GraphError("ST_LOWER needs X_i + Y_i >= 1 for all i")


def generate_gadget(spec: GadgetSpec) -> Graph:
    """Materialize a gadget spec as an unweighted graph.

    ST_LOWER vertex layout: u=0, w=1, v_i=i+1 (i in 1..b).
    STVERIFY/CONN layout: u_j=j (j in 0..b), v_j=b+1+j.
    """
    b, x, y = spec.b, spec.x, spec.y
    edges = []
    if spec.kind == "ST_LOWER":
        n = b + 2
        for i in range(1, b + 1):
            if x[i - 1]:
                edges.append((0, i + 1, 1))
            if y[i - 1]:
                edges.append((i + 1, 1, 1))
    else:
        n = 2 * (b + 1)
        for j in range(b + 1):
            edges.append((j, b + 1 + j, 1))
        for i in range(1, b + 1):
            xi, yi = x[i - 1], y[i - 1]
            u_edge = xi == 1 if spec.kind == "STVERIFY" else xi == 0
            if u_edge:
                edges.append((0, i, 1))
            if yi == 0:
                edges.append((b + 1, b + 1 + i, 1))
    return Graph(n, edges)


def gadget_feasible(spec: GadgetSpec) -> bool:
    """Ground-truth predicate implied by the bit vectors.

    STVERIFY: graph is a spanning tree iff x == y.
    CONN: graph is connected iff x and y share no 1 (an index with both bits
    set strands the rung pair).  ST_LOWER: connected iff x and y do share a 1
    (that is the only way the two hubs link up).
    """
    if spec.kind == "STVERIFY":
        return spec.x == spec.y
    if spec.kind == "CONN":
        return not any(xi and yi for xi, yi in zip(spec.x, spec.y))
    return any(xi and yi for xi, yi in zip(spec.x, spec.y))


def random_gadget_spec(kind: str, b: int, seed: int, feasible: bool = None) -> GadgetSpec:
    """Sample bit vectors for a gadget; optionally force the predicate value."""
    rng = make_np_rng(seed, "gadget", b, 1 if feasible else 0 if feasible is not None else 2)
    if kind == "ST_LOWER":
        # uniform over the 3 admissible combinations per position
        choice = rng.integers(0, 3, size=b)
        x = tuple(1 if c in (0, 2) else 0 for c in choice)
        y = tuple(1 if c in (1, 2) else 0 for c in choice)
    else:
        x = tuple(int(v) for v in rng.integers(0, 2, size=b))
        y = tuple(int(v) for v in rng.integers(0, 2, size=b))
    spec = GadgetSpec(kind, b, x, y)
    if feasible is None or gadget_feasible(spec) == feasible:
        return spec
    i = int(rng.integers(0, b))
    if kind == "STVERIFY":
        x, y = (x, x) if feasible else ((x[:i] + (1 - x[i],) + x[i + 1 :], x))
    elif kind == "CONN":
        if feasible:
            y = tuple(0 if xi else yi for xi, yi in zip(x, y))
        else:
            x = x[:i] + (1,) + x[i + 1 :]
            y = y[:i] + (1,) + y[i + 1 :]
    else:  # ST_LOWER
        if feasible:
            x = x[:i] + (1,) + x[i + 1 :]
            y = y[:i] + (1,) + y[i + 1 :]
        else:
            y = tuple(0 if xi else 1 for xi in x)
    return GadgetSpec(kind, b, x, y)


def random_uniform_hypergraph(n: int, num_edges: int, arity: int, seed: int) -> Hypergraph:
    """Random hypergraph with num_edges distinct arity-subsets of 0..n-1."""
    if arity < 2 or arity > n:
        raise GraphError("arity must be in [2, n]")
    if num_edges < 0:
        raise GraphError(f"num_edges must be >= 0, got {num_edges}")
    rng = make_np_rng(seed, "hypergen", n, num_edges, arity)
    chosen = set()
    limit = math.comb(n, arity)
    target = min(num_edges, limit)
    while len(chosen) < target:
        h = tuple(sorted(rng.choice(n, size=arity, replace=False).tolist()))
        chosen.add(h)
    return Hypergraph(n, sorted(chosen))
