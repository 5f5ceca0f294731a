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
hop.  It keeps the live vertices, those holding tokens, with their counts:
a round draws states for the live vertices only and numbers their tokens
in a cumsum over them, so its work follows its tokens; only the count of
the next holdings (one bincount) and the list of their vertices span all
n.  The distinct CSR slots its tokens crossed, in ascending order, are the
round's messages, and the tokens that reach each destination are its next
holdings.  A round
with fewer tokens than slots draws all of them in one pass and sorts its
hop slots; as tokens are numbered vertex by vertex, the hop vertices in
token order are the sorted slots' sources, and one gather of the sorted
slots gives every token's destination.  A round with at least as many
tokens as slots draws them in chunks of _CHUNK, each chunk's vertices found
by two searches in the running token counts, and tallies the tokens per
slot; the slots with tallies are its messages.  Once no token is left to
move, the kernel yields the empty rounds left up to the budget without
drawing or touching a per-vertex or per-slot array.  The per-vertex
`_PageRankNode` draws rng.token_uniforms for its own tokens and stays as its
reference.
"""

import math
from typing import NamedTuple

import numpy as np

from ..clique import (HALT, NONE, SILENT, NodeProgram, Program, Unicast, payload_cap,
                      uniform_bits)
from ..graphs import id_dtype, label_bits
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
# which keeps its scratch arrays O(m + _CHUNK) however many tokens it holds;
# 2^14 spreads each chunk's ~30 numpy calls over enough tokens (2^12 took
# ~15% longer on 600 tokens per vertex of gnp(64, 0.2))
_CHUNK = 1 << 14


def _pagerank_rounds(g, cfg, shape, seed):
    """Round kernel of _PageRankNode: the same uniforms for the same tokens
    give the same messages in the same order (by source, then destination)
    and the same outputs.  Tokens are numbered vertex by vertex over the
    live vertices, those that hold tokens, ascending."""
    n = g.n
    indptr, nbr = g.adjacency()
    deg = np.diff(indptr)
    fdeg = deg.astype(np.float64)  # u2 * deg as the reference computes it
    # slots as int32 while 2m fits it: they sort twice as fast as int64
    starts = indptr.astype(id_dtype(len(nbr)))
    threshold = unit_threshold(cfg.gamma)
    hits = None  # per CSR slot: tokens that crossed it in a chunked round

    def hop_slots(u2, d, start):
        """Each hopping token's CSR slot, start + floor(u2 * d), from its u2
        and its vertex's degree d (float) and first slot."""
        u2 *= d
        slot = u2.astype(starts.dtype)
        slot += start
        return slot

    visits = np.full(n, shape.per_node, dtype=np.int64)  # round 1's tokens
    live = np.flatnonzero(deg)  # tokens on isolated vertices die in round 1
    held = np.full(len(live), shape.per_node, dtype=np.int64)
    rnd = 1
    while rnd < shape.budget and len(live):
        ends = np.cumsum(held)
        firsts, count = ends - held, int(ends[-1])
        bases = token_bases(seed, rnd, live, firsts)
        if count < len(nbr):  # fewer tokens than slots: all in one pass
            hops, u2 = token_hops(np.repeat(bases, held), np.arange(count), threshold)
            src = np.repeat(live, held)[hops]
            slot = hop_slots(u2, fdeg[src], starts[src])
            # the hop vertices ascend in token order and each vertex's slots
            # are one ascending range, so they are the sorted slots' sources
            slot.sort()
            dst = nbr[slot]
            here = np.bincount(dst, minlength=n)
            first = np.ones(len(slot), dtype=bool)
            first[1:] = slot[1:] != slot[:-1]
            src, dst = src[first], dst[first]
        else:
            if hits is None:  # a hit count never passes the token total
                hits = np.zeros(len(nbr), dtype=np.min_scalar_type(shape.total))
                one = hits.dtype.type(1)  # np.add.at is fast on matching dtypes
            for lo in range(0, count, _CHUNK):
                hi = min(lo + _CHUNK, count)
                # the chunk's vertices, live[a:b], and their tokens in it
                a, b = ends.searchsorted([lo, hi - 1], side="right")
                b += 1
                run = held[a:b].copy()
                run[0] -= lo - firsts[a]
                run[-1] -= ends[b - 1] - hi
                hops, u2 = token_hops(np.repeat(bases[a:b], run), np.arange(lo, hi),
                                      threshold)
                # a chunked round holds a degree's worth of tokens per vertex
                # or so: repeat per vertex rather than gather per token
                hopped = np.add.reduceat(hops, np.cumsum(run) - run, dtype=np.int64)
                slot = hop_slots(u2, np.repeat(fdeg[live[a:b]], hopped),
                                 np.repeat(starts[live[a:b]], hopped))
                np.add.at(hits, slot, one)
            slot = np.flatnonzero(hits)  # ascending: by source, then destination
            src = np.searchsorted(indptr, slot, side="right") - 1
            dst = nbr[slot]
            here = np.zeros(n, dtype=np.int64)
            np.add.at(here, dst, hits[slot].astype(np.int64))
            hits[slot] = 0
        live = np.flatnonzero(here)
        held = here[live]
        visits[live] += held  # the tokens each vertex holds in round rnd + 1
        yield NONE, NONE, src, dst, uniform_bits(shape.bits, len(dst))
        rnd += 1
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
