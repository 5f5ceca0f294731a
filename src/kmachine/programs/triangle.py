"""Triangle detection from 2-neighborhood exchange.

Every vertex streams its neighbor list to each neighbor, one id per round
per edge, tagging the last one.  Once a vertex has the full lists of all
its neighbors it tests for a triangle through itself and broadcasts one
boolean; everyone halts after hearing all n verdict bits and outputs their
disjunction.

The engine runs the round kernel `_triangle_rounds`.  Every message is fixed
by the CSR: in round r each vertex of degree at least r sends its r-th
neighbor to all its neighbors, and a vertex sends its verdict the round
after it and all its neighbors have sent their last id.  The disjunction of
the verdicts is whether the graph has a triangle, which the kernel finds as
one wedge whose closing edge is a CSR slot.  The per-vertex `_TriangleNode`
stays as its reference.
"""

import numpy as np

from ..clique import HALT, NONE, SILENT, Broadcast, NodeProgram, Program, Unicast, uniform_bits
from ..graphs import label_bits
from .slots import slot_sources


class _TriangleNode(NodeProgram):
    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.nbrs = [u for u, _, _ in ctx.incident]
        self.nbr_set = set(self.nbrs)
        self.pending = len(self.nbrs)  # neighbors whose list is incomplete
        self.lists = {u: [] for u in self.nbrs}
        self.sent_verdict = False
        self.heard = 0
        self.any_triangle = False

    def step(self, rnd, inbox):
        for src, (vid, last) in inbox.unicasts:
            self.lists[src].append(vid)
            if last:
                self.pending -= 1
        for _src, payload in inbox.broadcasts:
            self.heard += 1
            self.any_triangle |= payload[1]
        deg = len(self.nbrs)
        if rnd <= deg:
            vid = self.nbrs[rnd - 1]
            last = rnd == deg
            return Unicast([(u, (vid, last), self.L + 1) for u in self.nbrs])
        if not self.sent_verdict and self.pending == 0:
            self.sent_verdict = True
            mine = self._local_triangle()
            self.any_triangle |= mine
            return Broadcast(("tri", mine), 1)
        if self.sent_verdict and self.heard >= self.ctx.n:
            return HALT
        return SILENT

    def _local_triangle(self):
        for u in self.nbrs:
            for v in self.lists[u]:
                if v in self.nbr_set and v != u:
                    return True
        return False

    def output(self):
        return self.any_triangle


def _triangle_rounds(g):
    """Round kernel of _TriangleNode: the same messages in the same rounds
    and order (unicasts by source, then destination), and the same
    outputs."""
    n, L = g.n, label_bits(g.n)
    indptr, nbr = g.adjacency()
    src = slot_sources(indptr)
    deg = np.diff(indptr)
    # vertex v's verdict round: after its own last id and its neighbors' last
    top = deg.copy()
    np.maximum.at(top, src, deg[nbr])
    verdict = top + 1
    slots = np.arange(len(nbr))
    for rnd in range(1, int(verdict.max()) + 1):
        slots = slots[deg[src[slots]] >= rnd]
        bs = np.flatnonzero(verdict == rnd)
        yield (bs, uniform_bits(1, len(bs)), src[slots], nbr[slots],
               uniform_bits(L + 1, len(slots)))
    yield NONE, NONE, NONE, NONE, NONE  # every verdict heard: all halt
    return [_has_triangle(n, indptr, src, nbr)] * n


def _has_triangle(n, indptr, src, nbr):
    """Whether some wedge v < u < w, over slots v -> u and u -> w, closes:
    whether v -> w is a slot too."""
    up = src < nbr
    lo = indptr[1:] - np.bincount(src[up], minlength=n)  # first upward slot
    v, u = src[up], nbr[up]
    # u's upward slots lo[u]..indptr[u+1], one run per slot v -> u, end to end
    count = indptr[u + 1] - lo[u]
    shift = np.repeat(lo[u] - (np.cumsum(count) - count), count)
    key = np.repeat(v, count) * n + nbr[shift + np.arange(len(shift))]
    slot_key = src * n + nbr  # ascending
    at = np.minimum(np.searchsorted(slot_key, key), len(slot_key) - 1)
    return bool(np.any(slot_key[at] == key))


def triangle_program() -> Program:
    return Program("triangle", _TriangleNode,
                   kernel=lambda g, _seed: _triangle_rounds(g))
