"""Distance computations that only ever broadcast.

Both programs exploit the complete communication graph: every announcement
reaches every vertex, so a vertex halts either once its own answer is fixed
or once a globally visible silent round shows that no announcements remain.

The engine runs a round kernel for each, over the CSR slots of the graph:
BFS reads g.adjacency(), and Bellman-Ford g.csr() for each slot's weight.
`_bfs_rounds` is level-synchronous: in round r the vertices at distance r-1
announce, and an unreached vertex with a CSR slot to an announcer is
reached, its parent the least such neighbour.  `_bellman_ford_rounds`
relaxes, in each round, the slots to the vertices that announced in the
last one; per vertex the least (distance + weight, neighbour) wins, a
strictly smaller distance is announced in L + max(1, bit length) bits,
and a tie only moves an already set parent to a lower-id announcer that
is strictly closer (over an edge of positive weight), so parents form a
tree even where edges weigh 0.  Distances are int64 while n times the
largest weight fits, else Python ints in the same arrays, and bit
lengths are exact either way.  Both kernels end with one empty round
after the first round in which nobody announces, since every vertex
still running then halts at once.  The per-vertex `_BfsNode` and
`_BellmanFordNode` stay as their references.
"""

import math

import numpy as np

from ..clique import HALT, NONE, SILENT, Broadcast, NodeProgram, Program
from ..graphs import label_bits
from .config import AlgoConfig
from .slots import bit_lengths, broadcasts, slot_sources


class _BfsNode(NodeProgram):
    """Announce (id, hop distance, parent) once, the round after first being
    reached; unreached vertices stop after a silent round."""

    def __init__(self, cfg):
        self.cfg = cfg

    def start(self, ctx):
        self.source = self.cfg.validate(ctx.n).source
        self.ctx = ctx
        self.nbr_set = {u for u, _, _ in ctx.incident}
        self.bits = 3 * label_bits(ctx.n)
        self.dist = math.inf
        self.parent = None

    def step(self, rnd, inbox):
        if rnd == 1:
            if self.ctx.node == self.source:
                self.dist = 0
                return Broadcast((self.ctx.node, 0, self.ctx.node), self.bits, halt=True)
            return SILENT
        best = None
        for src, (vid, d, _parent) in inbox.broadcasts:
            if vid in self.nbr_set and (best is None or (d, vid) < best):
                best = (d, vid)
        if best is not None:
            self.dist = best[0] + 1
            self.parent = best[1]
            return Broadcast(
                (self.ctx.node, self.dist, self.parent), self.bits, halt=True
            )
        if not inbox.broadcasts:
            return HALT  # nobody announced last round: search is over
        return SILENT

    def output(self):
        return (self.dist, self.parent)


def _bfs_rounds(g, source):
    """Round kernel of _BfsNode: the same announcements in the same rounds
    and order, and the same outputs."""
    n, bits = g.n, 3 * label_bits(g.n)
    indptr, nbr = g.adjacency()
    src = slot_sources(indptr)
    dist = np.full(n, -1)  # -1: not reached
    parent = np.full(n, -1)  # -1: None
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)  # the vertices that announced last round
    frontier[source] = True
    live = ~frontier  # the vertices not yet reached, which are still running
    yield broadcasts(frontier, bits)
    level = 0
    while live.any():
        if not frontier.any():
            yield NONE, NONE, NONE, NONE, NONE  # nobody announced: all halt
            break
        # a live vertex's parent is its least neighbour that announced
        hit = frontier[nbr] & live[src]
        via = np.full(n, n)
        np.minimum.at(via, src[hit], nbr[hit])
        frontier = via < n
        level += 1
        dist[frontier] = level
        parent[frontier] = via[frontier]
        live &= ~frontier
        yield broadcasts(frontier, bits)
    return [(math.inf if d < 0 else d, None if p < 0 else p)
            for d, p in zip(dist.tolist(), parent.tolist())]


def bfs_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("bfs", lambda: _BfsNode(cfg),
                   kernel=lambda g, _seed: _bfs_rounds(g, cfg.validate(g.n).source))


class _BellmanFordNode(NodeProgram):
    """Broadcast (id, tentative distance) whenever the distance improves."""

    def __init__(self, cfg):
        self.cfg = cfg

    def start(self, ctx):
        self.source = self.cfg.validate(ctx.n).source
        self.ctx = ctx
        self.weight_to = {u: w for u, w, _ in ctx.incident}
        self.L = label_bits(ctx.n)
        self.dist = math.inf
        self.parent = None
        self.sent_last = False

    def step(self, rnd, inbox):
        improved = False
        if rnd == 1 and self.ctx.node == self.source:
            self.dist = 0
            improved = True
        for src, (vid, d) in inbox.broadcasts:
            w = self.weight_to.get(vid)
            if w is None:
                continue
            cand = d + w
            if cand < self.dist:
                improved = True
                self.dist = cand
                self.parent = vid
            elif cand == self.dist and w > 0 and vid < self.parent:
                # a tie moves the parent only to a strictly closer announcer,
                # so zero-weight edges close no cycle of parents
                self.parent = vid
        if improved:
            self.sent_last = True
            bits = self.L + max(1, int(self.dist).bit_length())
            return Broadcast((self.ctx.node, self.dist), bits)
        prev_sent, self.sent_last = self.sent_last, False
        if rnd >= 2 and not inbox.broadcasts and not prev_sent:
            return HALT
        return SILENT

    def output(self):
        return (self.dist, self.parent)


def _bellman_ford_rounds(g, source):
    """Round kernel of _BellmanFordNode: the same announcements in the same
    rounds and order, and the same outputs."""
    n, L = g.n, label_bits(g.n)
    indptr, nbr, eidx = g.csr()
    src = slot_sources(indptr)
    weight = g.edge_arrays()[2][eidx]
    # a tentative distance is the length of a simple path, at most
    # (n - 1) * max weight, so `far` stands above every distance and every
    # candidate; past int64 the same arithmetic runs on Python ints
    far = n * int(weight.max(initial=0)) + 1
    exact = np.int64 if far < 2**63 else object
    weight = weight.astype(exact)
    dist = np.full(n, far, dtype=exact)  # far: not reached
    parent = np.full(n, -1)  # -1: None
    dist[source] = 0
    sent = np.zeros(n, dtype=bool)  # the vertices that announced last round
    sent[source] = True
    yield _announce(sent, dist, L)
    while sent.any():
        hit = sent[nbr]
        v, u = src[hit], nbr[hit]
        cand = dist[u] + weight[hit]
        # per vertex the least (cand, u) over the slots to the announcers
        least = np.full(n, far, dtype=exact)
        np.minimum.at(least, v, cand)
        sent = least < dist
        # the least announcer giving `least`; on a tie only a strictly
        # closer one (w > 0), and a tie moves a set parent to a lower id
        # (-1, None, is below them all)
        at = (cand == least[v]) & (sent[v] | (weight[hit] > 0))
        via = np.full(n, n)
        np.minimum.at(via, v[at], u[at])
        moved = sent | (least == dist) & (via < parent)
        parent[moved] = via[moved]
        dist[sent] = least[sent]
        yield _announce(sent, dist, L)
    yield NONE, NONE, NONE, NONE, NONE  # nobody announced: all halt
    return [(math.inf if d == far else d, None if p < 0 else p)
            for d, p in zip(dist.tolist(), parent.tolist())]


def _announce(sent, dist, L):
    """The round in which the vertices of the mask `sent` broadcast their
    distance d in L + max(1, d.bit_length()) bits."""
    bs = np.flatnonzero(sent)
    d = dist[bs]
    if d.dtype == object:
        size = np.array([x.bit_length() for x in d.tolist()], dtype=np.int64)
    else:
        size = bit_lengths(d)
    return bs, L + np.maximum(size, 1), NONE, NONE, NONE


def bellman_ford_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("bf_sssp", lambda: _BellmanFordNode(cfg),
                   kernel=lambda g, _seed: _bellman_ford_rounds(g, cfg.validate(g.n).source))
