"""Parallel fragment merging and the checks built on top of it.

Every vertex broadcasts its fragment label each phase, then vertices owning
an edge that leaves their fragment broadcast the cheapest such edge.  Since
broadcasts reach everyone, every vertex replays the identical merge history
locally, each in its own _MergeHistory.

MST runs on the edge weights with the tie-break key (w, min(u,v), max(u,v))
so the optimum is unique; the connectivity variant forces unit weights and
only reports the surviving fragment count.

The engine runs the round kernel `_merge_rounds`, which advances every
vertex of a round at once over narrow slot columns: source and neighbour
ids in int32, plus a weight column only where the edge weights differ.  It
sorts the slots once by (source, weight), which the CSR's ascending
neighbours make (source, merge_key) order, and skips the sort when every
edge weighs the same; each candidate round takes every vertex's first slot,
and each merge then drops the slots inside a fragment.  What it yields and
returns is int64, a constant bits column as clique.uniform_bits; the
engine's round check keeps the yielded columns without a copy.  The
per-vertex `_FragmentNode` stays as its reference.
"""

import numpy as np

from ..clique import HALT, NONE, SILENT, Broadcast, NodeProgram, Program, uniform_bits
from ..graphs import id_dtype, label_bits
from .slots import bit_lengths, edge_outputs


def merge_key(u, v, w):
    """Total order making every edge weight distinct, on ints or on arrays."""
    return (w, np.minimum(u, v), np.maximum(u, v))


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, v):
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class _MergeHistory:
    """The merge history one vertex replays from the broadcasts it hears."""

    def __init__(self, n, weighted):
        self.n = n
        self.weighted = weighted
        self.frag = list(range(n))
        self.count = n
        self.done = False
        self.spanning = None
        self.chosen = []

    def apply(self, phase_round, candidate_msgs):
        """Advance by one phase worth of delivered candidate broadcasts.

        phase_round is the odd effective round at which the candidates from
        the previous even round are visible.
        """
        if phase_round == 1:
            if self.count == 1:
                self._finish(True)
            return
        cands = []
        for src, payload in candidate_msgs:
            if self.weighted:
                endpoint, w = payload
            else:
                endpoint, w = payload[0], 1
            cands.append((merge_key(src, endpoint, w), src, endpoint, w))
        if not cands:
            self._finish(self.count == 1)
            return
        best = {}
        for key, a, b, w in cands:
            fa = self.frag[a]
            cur = best.get(fa)
            if cur is None or key < cur[0]:
                best[fa] = (key, a, b, w)
        dsu = _DSU(self.n)
        new_edges = {}
        for key, a, b, w in best.values():
            dsu.union(self.frag[a], self.frag[b])
            e = (min(a, b), max(a, b))
            new_edges[e] = w
        for e, w in sorted(new_edges.items()):
            self.chosen.append((e[0], e[1], w))
        roots = {}
        labels = [0] * self.n
        for v in range(self.n):
            r = dsu.find(self.frag[v])
            if r not in roots:
                roots[r] = v  # first vertex seen = smallest, vertices scanned in order
            labels[v] = roots[r]
        self.frag = labels
        self.count = len(roots)
        if self.count == 1:
            self._finish(True)

    def _finish(self, spanning):
        self.done = True
        self.spanning = spanning


class _FragmentNode(NodeProgram):
    """One vertex of the merging protocol.

    Odd effective rounds: fold in last phase's candidates, halt if the
    process is over, otherwise broadcast the fragment label.  Even rounds:
    broadcast the cheapest incident edge leaving the fragment, if any.
    """

    def __init__(self, kind, flags=None):
        self.kind = kind  # "mst" | "conn" | "stverify"
        self.flags = flags
        self.count_total = None

    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.history = _MergeHistory(ctx.n, weighted=self.kind == "mst")
        inc = ctx.incident
        if self.flags is not None:
            inc = tuple(e for e in inc if e[2] in self.flags)
        self.edges = tuple(
            (u, w if self.history.weighted else 1) for u, w, _ in inc
        )
        self.offset = 1 if self.kind == "stverify" else 0

    def step(self, rnd, inbox):
        if self.kind == "stverify":
            if rnd == 1:
                return Broadcast((len(self.edges),), self.L)
            if rnd == 2:
                self.count_total = sum(c for _, (c,) in inbox.broadcasts)
        eff = rnd - self.offset
        if eff % 2 == 1:
            self.history.apply(eff, inbox.broadcasts if eff > 1 else ())
            if self.history.done:
                return HALT
            return Broadcast((self.history.frag[self.ctx.node],), self.L)
        cand = self._own_candidate()
        if cand is None:
            return SILENT
        endpoint, w = cand
        if self.history.weighted:
            return Broadcast((endpoint, w), self.L + max(1, w.bit_length()))
        return Broadcast((endpoint,), self.L)

    def _own_candidate(self):
        me = self.ctx.node
        frag = self.history.frag
        mine = frag[me]
        best = None
        for u, w in self.edges:
            if frag[u] != mine:
                key = merge_key(me, u, w)
                if best is None or key < best[0]:
                    best = (key, u, w)
        if best is None:
            return None
        return best[1], best[2]

    def output(self):
        me = self.ctx.node
        history = self.history
        if self.kind == "mst":
            mine = sorted((a, b) for a, b, _ in history.chosen if me in (a, b))
            return (tuple(mine), bool(history.spanning))
        if self.kind == "conn":
            return (history.count, history.count == 1)
        ok = history.count == 1 and self.count_total == 2 * (self.ctx.n - 1)
        return (ok, self.count_total // 2, history.count == 1)


# slots per block in _merge_rounds's weight sort and compaction.  They work
# on blocks so that the kernel's slot-length arrays are the narrow columns it
# keeps for the whole run: slot-length temporaries, made and freed every
# round, fragment the malloc heap and fault in fresh pages, and a run's peak
# memory then varies by megabytes with the graph.
_BLOCK = 1 << 13


def _merge_rounds(g, kind, flags):
    """Round kernel of _FragmentNode: the same broadcasts, in the same rounds
    and source order, and the same outputs.  `flags` is the stverify
    candidate's edge-index set, else None."""
    n, L = g.n, label_bits(g.n)
    weights = g.edge_arrays()[2] if kind == "mst" else NONE
    varied = len(weights) and weights.min() < weights.max()
    # only flags and varied weights are read through the slots' edge indices
    if flags is not None or varied:
        indptr, nbr, eidx = g.csr()
    else:
        indptr, nbr = g.adjacency()
    # vertex ids in int32 where every id, and n itself, fits, as the trace
    # stores them; slot_sources stays int64 for the kernels that multiply
    # its ids by n
    ids = id_dtype(n)
    cols = [np.repeat(np.arange(n, dtype=ids), np.diff(indptr)),  # source
            nbr.astype(ids)]  # neighbour
    if flags is not None:
        f = np.fromiter(flags, np.int64, len(flags))
        flagged = np.zeros(g.m, dtype=bool)
        flagged[f[(f >= 0) & (f < g.m)]] = True
        keep = flagged[eidx]
        cols = [a[keep] for a in cols]
    ends = len(cols[0])  # flagged edge endpoints, which stverify counts
    if varied:
        cols.append(_weight_sorted(n, *cols, eidx, weights))
        const_bits = None
    else:
        # one weight for every edge (unit for conn and stverify): the CSR
        # order already is (source, merge_key) order
        w = int(weights[0]) if len(weights) else 1
        const_bits = L + max(1, w.bit_length()) if kind == "mst" else L
    everyone, l_bits = np.arange(n), uniform_bits(L, n)
    bounds = np.arange(n + 1, dtype=ids)  # int32 needles: no int64 copy of src
    if kind == "stverify":
        yield everyone, l_bits, NONE, NONE, NONE  # edge counts
    frag = np.arange(n)  # a fragment's label is its smallest vertex
    count = n
    chosen = [(NONE, NONE)]  # (owner, other end) arrays, both ends of each pair
    while count > 1:
        yield everyone, l_bits, NONE, NONE, NONE
        # each source's first slot; all cross, as no edge is a loop and each
        # merge drops the slots inside a fragment
        cuts = np.searchsorted(cols[0], bounds)
        first = cuts[:-1][cuts[:-1] < cuts[1:]]
        cs, cn = (a[first].astype(np.int64) for a in cols[:2])
        if const_bits is None:
            cw = cols[2][first]
            bits = L + np.maximum(1, bit_lengths(cw))
        else:
            cw, bits = None, uniform_bits(const_bits, len(cs))
        yield cs, bits, NONE, NONE, NONE
        if not len(cs):
            break
        frag, best = _merge(frag, cs, cn, cw)
        chosen += [(cs[best], cn[best]), (cn[best], cs[best])]
        count = int(np.count_nonzero(frag == everyone))
        if count > 1:
            live = _keep_crossing(frag, cols)
            cols = [a[:live] for a in cols]
    yield NONE, NONE, NONE, NONE, NONE  # every vertex halts
    del cols  # free the slots before the outputs are built
    spanning = count == 1
    if kind == "conn":
        return [(count, spanning)] * n
    if kind == "stverify":
        return [(spanning and ends == 2 * (n - 1), ends // 2, spanning)] * n
    return [(pairs, spanning) for pairs in edge_outputs(n, chosen)]


def _weight_sorted(n, src, nbr, eidx, weights):
    """Sort the slots into (source, merge_key) order, nbr in place, and
    return their weight column.

    One source's slots ascend by neighbour, and for neighbours u1 < u2 of s,
    (min(s,u1), max(s,u1)) < (min(s,u2), max(s,u2)) wherever s lies, so a
    sort by (source, weight, neighbour) does it.  src is sorted, so each
    block of whole sources sorts on its own: by one argsort of the distinct
    key (source * (wmax + 1) + weight) * n + neighbour where that fits int64,
    else by a stable lexsort on (source, weight)."""
    w = np.empty(len(src), dtype=np.int64)
    wmax = int(weights.max())
    packed = n * (wmax + 1) * n <= np.iinfo(np.int64).max
    cuts = np.append(np.searchsorted(src, src[::_BLOCK]), len(src)).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        wb = weights[eidx[lo:hi]]
        if packed:
            key = src[lo:hi].astype(np.int64)
            key *= wmax + 1
            key += wb
            key *= n
            key += nbr[lo:hi]
            order = key.argsort()
        else:
            order = np.lexsort((wb, src[lo:hi]))
        nbr[lo:hi] = nbr[lo:hi][order]
        w[lo:hi] = wb[order]
    return w


def _keep_crossing(frag, cols):
    """Move the slots whose two ends lie in different fragments, in order,
    to the front of every column of cols (source, neighbour and maybe
    weight), in place and a block at a time; return how many there are."""
    src, nbr = cols[:2]
    kept = 0
    for lo in range(0, len(src), _BLOCK):
        b = slice(lo, lo + _BLOCK)
        # fancy indexing with int32 ids is 2-3x slower than np.take
        cross = np.take(frag, src[b]) != np.take(frag, nbr[b])
        k = int(np.count_nonzero(cross))
        for a in cols:
            a[kept:kept + k] = a[b][cross]  # kept <= lo: nothing unread is overwritten
        kept += k
    return kept


def _merge(frag, cs, cn, cw):
    """One merge phase from the candidates (cs, cn, cw), as
    _MergeHistory.apply does it: the new labels, and the indices of the
    candidates chosen as their fragments' cheapest.  cw is None when every
    edge weighs the same: the endpoints alone then order the candidates."""
    fa = frag[cs]
    key = merge_key(cs, cn, cw)
    if cw is None:
        key = key[1:]
    order = np.lexsort((*key[::-1], fa))
    best = order[np.flatnonzero(np.diff(fa[order], prepend=-1))]
    x, y = frag[cs[best]], frag[cn[best]]
    # hook each root under the smallest root it meets, then compress, until
    # every chosen edge joins equal roots: a component's root is its minimum
    root = np.arange(len(frag))
    while True:
        rx, ry = root[x], root[y]
        if np.array_equal(rx, ry):
            break
        np.minimum.at(root, np.maximum(rx, ry), np.minimum(rx, ry))
        while not np.array_equal(root[root], root):
            root = root[root]
    return root[frag], best


def mst_program() -> Program:
    return Program("mst", lambda: _FragmentNode("mst"),
                   kernel=lambda g, _seed: _merge_rounds(g, "mst", None))


def conn_program() -> Program:
    return Program("conn", lambda: _FragmentNode("conn"),
                   kernel=lambda g, _seed: _merge_rounds(g, "conn", None))


def st_verify_program(candidate_edges) -> Program:
    """Verify that the flagged edge indices form a spanning tree.

    Runs the connectivity merge on the flagged subgraph while each vertex
    contributes one count broadcast (half an edge per flagged endpoint);
    the answer is YES iff connected and the count equals n-1.
    """
    flags = frozenset(candidate_edges)
    return Program("stverify", lambda: _FragmentNode("stverify", flags=flags),
                   kernel=lambda g, _seed: _merge_rounds(g, "stverify", flags))
