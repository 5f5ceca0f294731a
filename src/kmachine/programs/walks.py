"""PageRank by terminating random-walk tokens.

Each vertex launches a batch of tokens.  Per round a token either dies
(probability gamma) or hops to a uniform random neighbor; tokens crossing
the same edge travel as one message carrying a multiplicity count.  The
visit tallies, scaled by gamma over the global token count, estimate the
stationary distribution of the restart walk.

There is no cheap way for a vertex to observe that no tokens survive
anywhere, so every vertex runs a fixed round budget chosen to make global
survival beyond it vanishingly unlikely, then stops.  A vertex holding no
tokens stays silent until the budget is reached.

Each token's fate comes from its own two uniforms (rng.token_uniforms),
keyed by (seed, round, vertex, token index): it dies if u1 < gamma, else it
hops to CSR slot indptr[v] + floor(u2 * degree); a token on an isolated
vertex dies.  The engine runs the round kernel `_pagerank_rounds`, which
moves every token of a round at once and draws the same uniforms fused
(rng.token_bases, rng.token_hops): one splitmix64 state per vertex and
round, the death test on u1's integer bits, and u2 only for the tokens that
hop.  The distinct CSR slots its tokens crossed, in ascending order, are
the round's messages.  A round with fewer tokens than slots draws all of
them in one pass, sorts its hop slots and keeps the first of each run; as
tokens are numbered vertex by vertex, the hop vertices in token order are
the sorted slots' sources.  A round with at least as many tokens as slots
draws them in chunks of _CHUNK and marks its hop slots in one boolean mask
over the 2m slots instead.  Once no token is left to move, the kernel
yields the empty rounds left up to the budget without drawing or touching
a per-vertex or per-slot array.  The per-vertex `_PageRankNode` draws
rng.token_uniforms for its own tokens and stays as its reference.
"""

import math
from typing import NamedTuple

import numpy as np

from ..clique import HALT, NONE, SILENT, NodeProgram, Program, Unicast, payload_cap
from ..graphs import label_bits
from ..rng import (token_bases, token_hops, token_layout_fits, token_uniforms,
                   unit_threshold)
from .config import AlgoConfig, ConfigError


def default_tokens_per_node(n: int) -> int:
    return label_bits(n)


class WalkShape(NamedTuple):
    per_node: int  # tokens each vertex launches
    total: int  # tokens over all vertices
    bits: int  # bits of a multiplicity count
    budget: int  # round in which every vertex halts: Program.budget


def walk_shape(n: int, cfg: AlgoConfig) -> WalkShape:
    """The walk run's sizes on n vertices.  Raises ConfigError if its token
    counters could alias (see rng.token_layout_fits) or a multiplicity count
    could pass clique.payload_cap(n)."""
    per_node = cfg.tokens_per_node or default_tokens_per_node(n)
    total = per_node * n
    if not token_layout_fits(n, total):
        raise ConfigError(
            f"{total} walk tokens on {n} vertices overflow the token counters"
        )
    if total.bit_length() > payload_cap(n):
        raise ConfigError(f"{total} walk tokens on {n} vertices need counts "
                          f"wider than the {payload_cap(n)}-bit payload cap")
    # a token survives the budget with probability at most 1/(n * total)
    budget = math.ceil(math.log(max(2, total) * max(2, n)) / cfg.gamma) + 1
    return WalkShape(per_node, total, max(1, total.bit_length()), budget)


class _PageRankNode(NodeProgram):
    def __init__(self, cfg):
        self.cfg = cfg

    def start(self, ctx):
        self.ctx = ctx
        self.nbrs = [u for u, _, _ in ctx.incident]
        self.shape = walk_shape(ctx.n, self.cfg)
        self.here = self.shape.per_node
        self.visits = 0

    def step(self, rnd, inbox):
        for _, (mult,) in inbox.unicasts:
            self.here += mult
        self.visits += self.here
        if rnd >= self.shape.budget:
            return HALT
        d = len(self.nbrs)
        tokens, self.here = self.here, 0
        if not (tokens and d):
            return SILENT
        u1, u2 = token_uniforms(self.ctx.seed, rnd, np.full(tokens, self.ctx.node),
                                np.arange(tokens))
        hop = (u2[u1 >= self.cfg.gamma] * d).astype(np.int64)
        counts = np.bincount(hop, minlength=d)
        hops = counts.nonzero()[0]
        nbrs, bits = self.nbrs, self.shape.bits
        return Unicast([
            (nbrs[i], (c,), bits)
            for i, c in zip(hops.tolist(), counts[hops].tolist())
        ])

    def output(self):
        return self.cfg.gamma * self.visits / self.shape.total


# tokens a round with at least as many tokens as CSR slots draws at once,
# which keeps its scratch arrays O(m + _CHUNK) however many tokens it holds
_CHUNK = 1 << 12


def _pagerank_rounds(g, cfg, shape, seed):
    """Round kernel of _PageRankNode: the same uniforms for the same tokens
    give the same messages in the same order (by source, then destination)
    and the same outputs.  Tokens are numbered vertex by vertex."""
    n = g.n
    indptr, nbr = g.adjacency()
    deg = np.diff(indptr)
    fdeg = deg.astype(np.float64)  # u2 * deg as the reference computes it
    threshold = unit_threshold(cfg.gamma)

    def hop_slots(bases, v, t):
        """The CSR slots crossed by the tokens numbered t (on vertices v)
        that hop, and those tokens' vertices."""
        hops, u2 = token_hops(bases[v], t, threshold)
        v = v[hops]
        return indptr[v] + (u2 * fdeg[v]).astype(np.int64), v

    here = np.full(n, shape.per_node, dtype=np.int64)
    visits = np.zeros(n, dtype=np.int64)
    rnd = 1
    while rnd < shape.budget:
        visits += here
        held = np.where(deg > 0, here, 0)  # tokens on isolated vertices die
        ends = np.cumsum(held)
        firsts, count = ends - held, int(ends[-1])
        if not count:
            break  # no token moves again: the rest are empty rounds
        bases = token_bases(seed, rnd, firsts)
        if count < len(nbr):  # fewer tokens than slots: all in one pass
            slot, src = hop_slots(bases, np.repeat(np.arange(n), held), np.arange(count))
            here = np.bincount(nbr[slot], minlength=n)
            # the hop vertices ascend in token order and each vertex's slots
            # are one ascending range, so they are the sorted slots' sources
            slot.sort()
            first = np.ones(len(slot), dtype=bool)
            first[1:] = slot[1:] != slot[:-1]
            slot, src = slot[first], src[first]
        else:
            here = np.zeros(n, dtype=np.int64)
            crossed = np.zeros(len(nbr), dtype=bool)  # per CSR slot: a token crossed it
            for lo in range(0, count, _CHUNK):
                t = np.arange(lo, min(lo + _CHUNK, count))
                slot, _ = hop_slots(bases, np.searchsorted(ends, t, side="right"), t)
                here += np.bincount(nbr[slot], minlength=n)
                crossed[slot] = True
            slot = np.flatnonzero(crossed)  # ascending: by source, then destination
            src = np.searchsorted(indptr, slot, side="right") - 1
        yield NONE, NONE, src, nbr[slot], np.full(len(slot), shape.bits)
        rnd += 1
    else:
        visits += here
    for _ in range(rnd, shape.budget + 1):  # the last is the budget round: all halt
        yield NONE, NONE, NONE, NONE, NONE
    return (cfg.gamma * visits / shape.total).tolist()


def pagerank_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program(
        "pagerank",
        lambda: _PageRankNode(cfg),
        kernel=lambda g, seed: _pagerank_rounds(g, cfg, walk_shape(g.n, cfg), seed),
        # run_clique reads the budget first, so a bad size fails before any round
        budget=lambda n: walk_shape(n, cfg).budget,
    )
