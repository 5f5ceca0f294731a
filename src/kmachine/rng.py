"""Deterministic randomness derivation.

Every random draw in the simulator is keyed by (seed, domain tag, integers),
so executions are reproducible regardless of scheduling or call order.  Each
program draws its own from the run seed (ctx.seed, or kernel(g, seed)).
"""

import hashlib
import random
import struct

import numpy as np


def _prefix(seed: int, tag: str):
    h = hashlib.blake2b(digest_size=8)
    h.update(tag.encode("utf-8"))
    h.update(b"\x00")
    h.update(struct.pack(">q", seed))
    return h


def derive(seed: int, tag: str, *parts: int) -> int:
    """Derive a 64-bit integer from a seed, a domain tag and integer parts."""
    h = _prefix(seed, tag)
    for p in parts:
        h.update(struct.pack(">q", p))
    return int.from_bytes(h.digest(), "big")


def derive_each(seed: int, tag: str, xs, *parts: int) -> list:
    """[derive(seed, tag, x, *parts) for x in xs], hashing the shared prefix
    once."""
    base = _prefix(seed, tag)
    fmt = struct.Struct(f">{1 + len(parts)}q")
    out = []
    for x in xs:
        h = base.copy()
        h.update(fmt.pack(x, *parts))
        out.append(int.from_bytes(h.digest(), "big"))
    return out


def uniform(seed: int, tag: str, *parts: int) -> float:
    """A uniform in [0, 1): the top 53 bits of derive(seed, tag, *parts)."""
    return (derive(seed, tag, *parts) >> 11) * 2.0 ** -53


def make_random(seed: int, tag: str, *parts: int) -> random.Random:
    return random.Random(derive(seed, tag, *parts))


def make_np_rng(seed: int, tag: str, *parts: int) -> np.random.Generator:
    return np.random.default_rng(derive(seed, tag, *parts))


# Counter-based token draws, in the style of Salmon et al., "Parallel Random
# Numbers: As Easy as 1, 2, 3" (SC 2011): a token's uniforms are a fixed
# function of (seed, round, vertex, token index), so any subset of tokens
# can be drawn at once, in any order.  The mixer is splitmix64 (Steele, Lea
# and Flood, OOPSLA 2014): its k-th output from state s is its finalizer
# applied to s + k * golden gamma, mod 2**64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S = {b: np.uint64(b) for b in (1, 11, 27, 30, 31)}
_UNIT = 2.0 ** -53

# A token's counter is (vertex << TOKEN_BITS) | token index, and it takes
# outputs 2c+1 and 2c+2 of the round's stream; counters below 2**63 keep
# every output position distinct mod 2**64.
TOKEN_BITS = 32
MAX_TOKEN_VERTICES = 1 << (63 - TOKEN_BITS)
MAX_TOKENS = 1 << TOKEN_BITS


def splitmix64(state: int, steps) -> np.ndarray:
    """Outputs number `steps` (a uint64 array) of splitmix64's stream from
    `state`, in wrapping uint64 array arithmetic."""
    z = np.uint64(state) + np.array(steps, dtype=np.uint64, ndmin=1) * _GOLDEN
    z = (z ^ (z >> _S[30])) * _MIX1
    z = (z ^ (z >> _S[27])) * _MIX2
    return z ^ (z >> _S[31])


def token_layout_fits(n: int, tokens: int) -> bool:
    """Whether vertices below n and token indices below `tokens` all get
    distinct counters."""
    return n <= MAX_TOKEN_VERTICES and tokens <= MAX_TOKENS


def token_counters(v, i) -> np.ndarray:
    """The counter of each (vertex, token index) pair, as uint64."""
    v = np.asarray(v, dtype=np.uint64)
    return (v << np.uint64(TOKEN_BITS)) | np.asarray(i, dtype=np.uint64)


def token_uniforms(seed: int, rnd: int, v, i):
    """Two uniforms in [0, 1) for each (vertex, token index) pair of round
    `rnd`, as float64 arrays (u1, u2): the top 53 bits of outputs 2c+1 and
    2c+2 of splitmix64's stream keyed by derive(seed, "token", rnd)."""
    key = derive(seed, "token", rnd)
    first = (token_counters(v, i) << _S[1]) + _S[1]
    u1 = (splitmix64(key, first) >> _S[11]) * _UNIT
    u2 = (splitmix64(key, first + _S[1]) >> _S[11]) * _UNIT
    return u1, u2
