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
moves every token of a round at once.  The per-vertex `_PageRankNode`
draws the same uniforms for its own tokens and stays as its reference.
"""

import math
from typing import NamedTuple

import numpy as np

from ..clique import HALT, SILENT, NodeProgram, Program, Unicast
from ..rng import token_layout_fits, token_uniforms
from .config import AlgoConfig, ConfigError


def default_tokens_per_node(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


def walk_round_budget(n: int, total_tokens: int, gamma: float) -> int:
    # survival prob past the budget is at most 1/(n * total_tokens)
    return math.ceil(math.log(max(2, total_tokens) * max(2, n)) / gamma) + 1


class WalkShape(NamedTuple):
    per_node: int  # tokens each vertex launches
    total: int  # tokens over all vertices
    bits: int  # bits of a multiplicity count
    budget: int  # round in which every vertex halts


def walk_shape(n: int, cfg: AlgoConfig) -> WalkShape:
    """The walk run's sizes on n vertices.  Raises ConfigError if its token
    counters could alias (see rng.token_layout_fits)."""
    per_node = cfg.tokens_per_node or default_tokens_per_node(n)
    total = per_node * n
    if not token_layout_fits(n, total):
        raise ConfigError(
            f"{total} walk tokens on {n} vertices overflow the token counters"
        )
    return WalkShape(per_node, total, max(1, total.bit_length()),
                     walk_round_budget(n, total, cfg.gamma))


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


# tokens the kernel draws at once, which keeps its scratch arrays small
_CHUNK = 1 << 12


def _pagerank_rounds(g, cfg, shape, seed):
    """Round kernel of _PageRankNode: the same uniforms for the same tokens
    give the same messages in the same order (by source, then destination)
    and the same outputs.  Tokens are numbered vertex by vertex."""
    n = g.n
    none = np.zeros(0, dtype=np.int64)
    indptr, nbr, _ = g.csr()
    deg = np.diff(indptr)
    here = np.full(n, shape.per_node, dtype=np.int64)
    visits = np.zeros(n, dtype=np.int64)
    for rnd in range(1, shape.budget):
        visits += here
        held = np.where(deg > 0, here, 0)  # tokens on isolated vertices die
        ends = np.cumsum(held)
        firsts, count = ends - held, int(ends[-1])
        here = np.zeros(n, dtype=np.int64)
        hit = [np.zeros(0, dtype=np.int64)]  # the CSR slots some token crossed
        for lo in range(0, count, _CHUNK):
            t = np.arange(lo, min(lo + _CHUNK, count))
            v = np.searchsorted(ends, t, side="right")  # the token's vertex
            u1, u2 = token_uniforms(seed, rnd, v, t - firsts[v])
            v, u2 = v[u1 >= cfg.gamma], u2[u1 >= cfg.gamma]
            slot = indptr[v] + (u2 * deg[v]).astype(np.int64)
            here += np.bincount(nbr[slot], minlength=n)
            hit.append(np.unique(slot))
        slot = np.unique(np.concatenate(hit))
        src = np.searchsorted(indptr, slot, side="right") - 1
        yield none, none, src, nbr[slot], np.full(len(slot), shape.bits)
    visits += here
    yield none, none, none, none, none  # the budget round: all halt in silence
    return (cfg.gamma * visits / shape.total).tolist()


def pagerank_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program(
        "pagerank",
        lambda n: [_PageRankNode(cfg) for _ in range(n)],
        # walk_shape runs before the kernel's first round, to reject a bad size
        kernel=lambda g, seed: _pagerank_rounds(g, cfg, walk_shape(g.n, cfg), seed),
    )
