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


def id_dtype(n: int):
    """int32 when every vertex id below n, and n itself, fits it, else
    int64: the dtype of stored id columns."""
    return np.int32 if n < np.iinfo(np.int32).max else np.int64


def inf_weight(n: int) -> int:
    """Reserved sentinel for 'infinite weight'; never stored in a graph."""
    return (1 << (WEIGHT_POLY_C * label_bits(n))) - 1


class GraphError(ValueError):
    row = None  # the index of the faulty input edge, when one edge is at fault


class Graph:
    """Immutable undirected weighted graph on vertices 0..n-1.

    Held as one read-only (3, m) int64 block whose rows are the (u, v, w)
    edge arrays, normalised so u < v and kept in input order.  The CSR
    (`adjacency`, and `csr` with its edge-index column) and the Python views
    `edges` and `neighbors` are built from them on first use and cached.
    """

    __slots__ = ("n", "_arrays", "_ascending", "_adj", "_csr", "_edges", "_nbrs")

    def __init__(self, n: int, edges):
        """edges: an iterable of (u, v, w) integer triples or an (m, 3)
        integer array.  Float, string and other non-integer fields are
        rejected, not cast."""
        rows = _integer_rows(edges)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise GraphError("edges must be (u, v, w) triples")
        # the public constructor's one copy of its input, a row per field
        self._adopt(n, np.array(rows.T, dtype=np.int64, order="C"), rows)

    def _adopt(self, n, block, rows):
        """Every graph's one check path: orient the fresh (3, m) int64
        `block` in place so u < v, check it, and keep it, frozen, as the
        graph's edges.  Errors name the faulty row of `rows`, the edges as
        given.

        A valid block passes on whole-column tests (u.min, v.max, u < v
        everywhere, w.min and w.max); only a block that fails one builds
        the per-edge masks that find its first faulty row."""
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        u, v, w = block
        swap = u > v
        if swap.any():
            u[swap], v[swap] = v[swap], u[swap]
        del swap
        cap = inf_weight(n)
        if len(u) and not (u.min() >= 0 and v.max() < n and (u < v).all()
                           and w.min() >= 0 and w.max() < cap):
            bad = (u == v) | (u < 0) | (v >= n) | (w < 0) | (w >= cap)
            _reject(n, rows, int(bad.argmax()))
        key = u * n
        key += v
        ascending = bool((key[1:] > key[:-1]).all())
        if not ascending:  # strictly ascending keys are distinct
            key.sort()
            if (key[1:] == key[:-1]).any():
                _reject(n, rows, len(rows))
        block.setflags(write=False)
        self.n = n
        self._arrays = tuple(block)
        self._ascending = ascending
        self._adj = None
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

    def adjacency(self):
        """(indptr, nbr) as read-only int64 arrays: vertex v's neighbors fill
        nbr[indptr[v]:indptr[v+1]] in ascending order, the order of
        neighbors(v).  The first two arrays of csr(), built without its
        edge-index column unless csr() ran first."""
        if self._adj is None:
            a, b, _ = self._arrays
            self._adj = _frozen(*_build_csr(self.n, a, b, self._ascending, False)[:2])
        return self._adj

    def csr(self):
        """(indptr, nbr, eidx) as read-only int64 arrays: adjacency()'s two,
        shared with it, and eidx, which holds each slot's edge index.  Only
        callers that map slots to edges (weights, edge flags, neighbors)
        need it; the rest read adjacency()."""
        if self._csr is None:
            a, b, _ = self._arrays
            indptr, nbr, eidx = _frozen(*_build_csr(self.n, a, b, self._ascending, True))
            if self._adj is None:
                self._adj = indptr, nbr
            self._csr = (*self._adj, eidx)
        return self._csr

    def edge_arrays(self):
        """(u, v, w) as read-only int64 numpy arrays."""
        return self._arrays

    def max_degree(self) -> int:
        u, v, _ = self._arrays
        degree = np.bincount(u, minlength=self.n)
        degree += np.bincount(v, minlength=self.n)
        return int(degree.max())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _frozen(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _integer_rows(edges) -> np.ndarray:
    """edges as an integer numpy array, without casting other fields."""
    if isinstance(edges, np.ndarray):
        rows = edges
    else:
        edges = list(edges)
        try:
            rows = np.array(edges)
        except ValueError:  # ragged rows
            raise GraphError("edges must be (u, v, w) triples")
    if rows.dtype.kind in "biu":
        if rows.dtype.kind == "u" and rows.size and rows.max() > np.iinfo(np.int64).max:
            raise GraphError("edge field outside the int64 range")
        return rows
    # not an integer dtype: a non-integer field, or an int numpy could not fit
    for x in np.array(edges, dtype=object).ravel().tolist():
        if not isinstance(x, (int, np.integer)):
            raise GraphError(f"edge field {x!r} is not an integer")
    try:
        return np.array(edges, dtype=np.int64)
    except OverflowError:
        raise GraphError("edge field outside the int64 range")


def _reject(n, rows, stop):
    """Raise the error of the first faulty edge in input order, its index as
    the error's `row`: a duplicate of an earlier edge among the valid first
    `stop` rows, else row `stop`."""
    u, v, w = np.asarray(rows, dtype=np.int64).T
    head = np.minimum(u[:stop], v[:stop]) * n + np.maximum(u[:stop], v[:stop])
    order = np.argsort(head, kind="stable")
    later = order[1:][head[order][1:] == head[order][:-1]]
    if len(later):
        stop = int(later.min())
        error = GraphError("duplicate edge (%d,%d)" % divmod(int(head[stop]), n))
    else:
        uu, vv, ww = int(u[stop]), int(v[stop]), int(w[stop])
        if uu == vv:
            error = GraphError(f"self-loop at vertex {uu}")
        elif not (0 <= uu < n and 0 <= vv < n):
            error = GraphError(f"edge ({uu},{vv}) out of range for n={n}")
        else:
            error = GraphError(f"weight {ww} outside [0, {inf_weight(n)}) for n={n}")
    error.row = stop
    raise error


def _build_csr(n, a, b, ascending, with_eidx):
    """(indptr, nbr, eidx) of the edges (a, b), a < b, ascending by (a, b)
    if `ascending`; eidx is None unless `with_eidx`.

    Vertex x's row holds its reverse neighbours (edges (a, x)), then its
    forward ones (edges (x, b)); both parts ascend, since a < x < b.  For
    edges ascending by (a, b), the forward slots take b and the edge index
    in edge order, and the reverse slots take a and the edge index in the
    stable order of b.  Other input is put in key order by one argsort of
    its m keys.  The peak is 5.25 words per edge above the graph, the four
    kept words included (6.25 for input out of key order); an argsort of
    2m slot keys took 6.  Without eidx the peak is 4.25 words per edge,
    and 2 are kept.
    """
    m = len(a)
    deg_fwd = np.bincount(a, minlength=n)
    deg_rev = np.bincount(b, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg_fwd + deg_rev, out=indptr[1:])
    is_fwd = np.repeat(np.tile([False, True], n), np.column_stack([deg_rev, deg_fwd]).ravel())
    del deg_fwd, deg_rev
    narrow = b.astype(np.uint16) if n <= 1 << 16 else b  # uint16 sorts by radix
    if ascending:
        order = None
        rev = np.argsort(narrow, kind="stable")
    else:
        order = (a * n + b).argsort()
        rev = order[np.argsort(narrow[order], kind="stable")]
    del narrow
    nbr = np.empty(2 * m, dtype=np.int64)
    nbr[is_fwd] = b if order is None else b[order]
    rev_slots = np.logical_not(is_fwd, out=is_fwd)
    nbr[rev_slots] = a[rev]
    if not with_eidx:
        return indptr, nbr, None
    eidx = np.empty(2 * m, dtype=np.int64)
    eidx[rev_slots] = rev
    del rev
    is_fwd = np.logical_not(rev_slots, out=rev_slots)
    eidx[is_fwd] = np.arange(m) if order is None else order
    return indptr, nbr, eidx


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

    Raises GraphError with the offending line number on malformed lines and
    on every edge `Graph` refuses: self-loops, out-of-range vertices or
    weights, and duplicate edges.
    """
    n = None
    edges = []
    lines = []  # the line of each edge
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
            edge = (int(parts[0]), int(parts[1]), int(parts[2]) if len(parts) == 3 else 1)
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer field")
        if not all(-2**63 <= x < 2**63 for x in edge):
            raise GraphError(f"line {lineno}: edge field outside the int64 range")
        edges.append(edge)
        lines.append(lineno)
    if n is None:
        raise GraphError("missing 'n <count>' header")
    try:
        return Graph(n, edges)
    except GraphError as exc:  # every field fits int64, so exc.row is set
        raise GraphError(f"line {lines[exc.row]}: {exc}") from None


def dump_edge_list(g: Graph) -> str:
    """Serialize: header line then one 'u v w' line per edge sorted by (u, v)."""
    lines = [f"n {g.n}"]
    for u, v, w in sorted(g.edges):
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _pairs_from_indices(block: np.ndarray, n: int):
    """Decode the ascending pair indices in block[1], in the lexicographic
    order (0,1),(0,2),..,(0,n-1),(1,2),.., into u in block[0] and v in
    block[1], in place; block[2] is scratch.

    Row u's pairs start at index start[u]; one search of the row starts in
    the indices finds where each row's pairs begin, u is the cumulative
    count of those beginnings, and v = idx - start[u] + u + 1.
    """
    u, idx, scratch = block
    rows = np.arange(n - 1, dtype=np.int64)
    start = rows * n - rows * (rows + 1) // 2  # index of the pair (u, u+1)
    first = idx.searchsorted(start[1:])
    u.fill(0)
    np.add.at(u, first[first < len(u)], 1)
    np.cumsum(u, out=u)
    start -= rows + 1
    np.take(start, u, out=scratch, mode="clip")  # "raise" would buffer a copy
    idx -= scratch


_GEOMETRIC_SEARCH_P = 1 / 3  # numpy's Generator.geometric searches from here up
_INT64_CEIL = 9.223372036854776e18  # the least double above INT64_MAX
# above any standard exponential drawn from doubles: -log of the least
# positive double is 744.4 (numpy's ziggurat stays below 45)
_EXP_BOUND = 1024.0
_GAP_CHUNK = 1 << 13  # gaps drawn and converted per step


@np.errstate(over="ignore")  # p below ~1e-307 divides to inf, which is clamped
def _geometric_gaps(rng, p, want):
    """`want` draws of rng.geometric(p), the same values from the same
    stream.  For p < 1/3 numpy draws each gap by inversion, ceil(E /
    -log1p(-p)) from one standard exponential E, clamping values at or
    above 2^63 to INT64_MAX; this does that a chunk at a time.  Each
    chunk's exponentials land in the int64 result's own buffer and are
    converted there, so no second batch-sized array is made.  From p = 1/3
    up numpy searches the CDF from a uniform instead, so those gaps come
    from rng.geometric itself.  (Drawing E from a counter-based stream in
    place of rng would change only the line that fills a chunk.)"""
    if p >= _GEOMETRIC_SEARCH_P:
        return rng.geometric(p, size=want)
    gaps = np.empty(want, dtype=np.int64)
    z = gaps.view(np.float64)
    scale = -math.log1p(-p)
    clamp = _EXP_BOUND / scale >= _INT64_CEIL  # only p below ~1e-16 reaches 2^63
    for lo in range(0, want, _GAP_CHUNK):
        zc, out = z[lo:lo + _GAP_CHUNK], gaps[lo:lo + _GAP_CHUNK]
        rng.standard_exponential(out=zc)
        zc /= scale  # a division, as numpy's: a reciprocal's product may round apart
        np.ceil(zc, out=zc)
        if clamp:
            big = zc >= _INT64_CEIL
            zc[big] = 0  # casting these to int64 is undefined
        out[...] = zc  # out shares zc's memory: numpy copies the chunk first
        if clamp:
            out[big] = np.iinfo(np.int64).max
    return gaps


def _gnp_block(n: int, p: float, rng):
    """A fresh (3, m) int64 block holding the (u, v) of a G(n, p) sample in
    lexicographic order in rows 0 and 1; row 2 is left for the weights.

    The sample skips from one picked pair to the next by geometric gaps
    (Batagelj and Brandes, Phys. Rev. E 71, 2005), drawn in batches by
    _geometric_gaps: for p < 1/3 one vectorized inversion pass over rng's
    standard exponentials, byte-identical to rng.geometric, and from 1/3
    up rng.geometric itself, since numpy draws those gaps by a CDF search
    that no exponential stream reproduces."""
    total = n * (n - 1) // 2
    picked = []
    if total and p >= 1.0:
        picked.append(np.arange(total))
    elif total and p > 0.0:
        pos = -1
        while pos < total:
            want = int((total - pos) * p * 1.1) + 64
            idx = _geometric_gaps(rng, p, want)
            # a gap past the last pair ends the sample whatever its length;
            # clipped, a batch of gaps cannot wrap int64 in the cumsum
            np.minimum(idx, total - pos, out=idx)
            np.cumsum(idx, out=idx)
            idx += pos
            cut = idx.searchsorted(total)
            picked.append(idx[:cut])
            if cut < want:
                break
            pos = int(idx[-1])
        del idx
    block = np.empty((3, sum(map(len, picked))), dtype=np.int64)
    if picked:
        np.concatenate(picked, out=block[1])
    del picked  # the draws go before the graph's checks run
    _pairs_from_indices(block, n)
    return block


def _generated(n, block):
    """The graph that keeps the generator's fresh block: no second copy."""
    g = Graph.__new__(Graph)
    g._adopt(n, block, block.T)
    return g


MODELS = ("cycle", "path", "star", "clique", "grid", "gnp", "random_weighted")


def generate(model: str, n: int, seed: int, p: float = None, wmax: int = None) -> Graph:
    """Deterministic graph generator.

    model is one of MODELS.
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
        block = _gnp_block(n, p, make_np_rng(seed, "gen-gnp", n))
        block[2] = 1
        return _generated(n, block)
    elif model == "random_weighted":
        if wmax is None or wmax < 1:
            raise GraphError("random_weighted needs wmax >= 1")
        if wmax >= inf_weight(n):
            raise GraphError(f"wmax {wmax} too large for n={n}")
        rng = make_np_rng(seed, "gen-rw", n)
        block = _gnp_block(n, p, rng)
        block[2] = rng.integers(1, wmax + 1, size=block.shape[1])
        return _generated(n, block)
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
