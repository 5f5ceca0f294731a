"""PageRank by terminating random-walk tokens.

Each vertex launches a batch of tokens.  Per round a token either dies
(probability gamma) or hops to a uniform random neighbor; tokens crossing
the same edge travel as one message carrying a multiplicity count.  The
visit tallies, scaled by gamma over the global token count, estimate the
stationary distribution of the restart walk.

There is no cheap way for a vertex to observe that no tokens survive
anywhere, so every vertex runs a fixed round budget chosen to make global
survival beyond it vanishingly unlikely, then stops.  A vertex holding no
tokens idles until tokens arrive or the budget is reached.
"""

import math

import numpy as np

from ..clique import HALT, Idle, NodeProgram, Program, Unicast
from .config import AlgoConfig


def default_tokens_per_node(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


def walk_round_budget(n: int, total_tokens: int, gamma: float) -> int:
    # survival prob past the budget is at most 1/(n * total_tokens)
    return math.ceil(math.log(max(2, total_tokens) * max(2, n)) / gamma) + 1


class _PageRankNode(NodeProgram):
    def __init__(self, gamma, tokens_per_node, uniform):
        self.gamma = gamma
        self.tokens_per_node = tokens_per_node
        self.uniform = uniform  # degree -> hop probabilities, shared per run

    def start(self, ctx):
        self.ctx = ctx
        self.nbrs = [u for u, _, _ in ctx.incident]
        d = len(self.nbrs)
        if d and d not in self.uniform:
            self.uniform[d] = np.full(d, 1.0 / d)
        per_node = self.tokens_per_node or default_tokens_per_node(ctx.n)
        self.total = per_node * ctx.n
        self.here = per_node
        self.visits = 0
        self.mult_bits = max(1, self.total.bit_length())
        self.budget = walk_round_budget(ctx.n, self.total, self.gamma)

    def step(self, rnd, inbox):
        for _, (mult,) in inbox.unicasts:
            self.here += mult
        self.visits += self.here
        if rnd >= self.budget:
            return HALT
        if self.here == 0:
            return Idle(self.budget)
        rng = self.ctx.np_rand(rnd)
        dead = int(rng.binomial(self.here, self.gamma))
        movers = self.here - dead
        self.here = 0
        if movers == 0 or not self.nbrs:
            return Idle(self.budget)
        counts = rng.multinomial(movers, self.uniform[len(self.nbrs)])
        hops = counts.nonzero()[0]
        nbrs, bits = self.nbrs, self.mult_bits
        return Unicast([
            (nbrs[i], (c,), bits)
            for i, c in zip(hops.tolist(), counts[hops].tolist())
        ])

    def output(self):
        return self.gamma * self.visits / self.total


def _pagerank_nodes(n, cfg):
    uniform = {}
    return [_PageRankNode(cfg.gamma, cfg.tokens_per_node, uniform) for _ in range(n)]


def pagerank_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program(
        "pagerank",
        lambda n: _pagerank_nodes(n, cfg),
        "p2p",
    )
