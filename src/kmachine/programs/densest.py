"""Densest-subgraph approximation by threshold peeling.

Iterations take two broadcast rounds: still-active vertices announce their
degree inside the active set, then every vertex below (1+eps) times the
active average degree announces that it leaves.  Each vertex sums the
degrees it heard and tracks for itself which iteration had the densest
active set; once the active set has no edges the process stops and every
vertex reports the best density and whether it belonged to that best
iterate.

The engine runs the round kernel `_peel_rounds`, which advances every vertex
of a round at once.  It keeps one active flag per vertex and the CSR slots
whose two ends are both active: a vertex's active degree is its count of
such slots, and twice the active edge count is their number.  The cut round
compares each active degree with the same float threshold the reference
computes, and updates the best iterate by integer cross-multiplication.  The
per-vertex `_PeelNode` stays as its reference.
"""

import numpy as np

from ..clique import HALT, NONE, SILENT, Broadcast, NodeProgram, Program
from ..graphs import label_bits
from .config import AlgoConfig
from .slots import broadcasts, slot_sources


class _PeelNode(NodeProgram):
    def __init__(self, eps):
        self.eps = eps

    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.active_nbrs = {u for u, _, _ in ctx.incident}
        self.active = True
        self.left_at = None  # iteration whose cut removed this vertex
        # the densest active set heard so far, as (twice its edge count,
        # size, iteration); the placeholder has density 0 and iteration 1
        self.best = (0, 1, 1)

    def step(self, rnd, inbox):
        iteration = (rnd + 1) // 2
        if rnd % 2 == 1:  # degree round
            if rnd > 1:
                for src, payload in inbox.broadcasts:
                    if payload[0] == "out":
                        self.active_nbrs.discard(src)
            if self.active:
                return Broadcast(("deg", len(self.active_nbrs)), self.L)
            return SILENT
        # cut round: every vertex heard all active degrees
        degrees = [payload[1] for _, payload in inbox.broadcasts]
        if not degrees:
            return HALT
        m2, size = sum(degrees), len(degrees)
        # maximize m2/size exactly; earlier iteration wins ties
        if m2 * self.best[1] > self.best[0] * size:
            self.best = (m2, size, iteration)
        if m2 == 0:
            return HALT
        if self.active and len(self.active_nbrs) < (1.0 + self.eps) * (m2 / size):
            self.active = False
            self.left_at = iteration
            return Broadcast(("out",), 1)
        return SILENT

    def output(self):
        m2, size, best_iter = self.best
        member = self.left_at is None or self.left_at >= best_iter
        return (m2 / (2.0 * size), member)


def _peel_rounds(g, eps):
    """Round kernel of _PeelNode: the same broadcasts in the same rounds and
    order, and the same outputs."""
    n, L = g.n, label_bits(g.n)
    indptr, nbr = g.adjacency()
    src = slot_sources(indptr)
    active = np.ones(n, dtype=bool)
    left_at = np.zeros(n, dtype=np.int64)  # 0: still active
    best = (0, 1, 1)  # (m2, size, iteration), as each vertex keeps it
    iteration = 0
    while True:
        iteration += 1
        # degree round: the slots between active vertices are the active edges
        keep = active[src] & active[nbr]
        src, nbr = src[keep], nbr[keep]
        yield broadcasts(active, L)
        # cut round
        m2, size = len(src), int(np.count_nonzero(active))
        if not size:
            break
        if m2 * best[1] > best[0] * size:
            best = (m2, size, iteration)
        if not m2:
            break
        degree = np.bincount(src, minlength=n)
        out = active & (degree < (1.0 + eps) * (m2 / size))
        left_at[out] = iteration
        active &= ~out
        yield broadcasts(out, 1)
    yield NONE, NONE, NONE, NONE, NONE  # the cut round in which all halt
    m2, size, best_iter = best
    density = m2 / (2.0 * size)
    member = (left_at == 0) | (left_at >= best_iter)
    return [(density, x) for x in member.tolist()]


def densest_subgraph_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("densest", lambda: _PeelNode(cfg.eps),
                   kernel=lambda g, _seed: _peel_rounds(g, cfg.eps))
