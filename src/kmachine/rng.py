"""Deterministic randomness derivation.

Every random draw in the simulator is keyed by (seed, domain tag, integers),
so executions are reproducible regardless of scheduling or call order.  Each
program draws its own from the run seed (ctx.seed, or kernel(g, seed)).
A per-element draw (a vertex's home or coin, a walk token's uniforms) is
splitmix64's output at the element's counter in the stream keyed by
`derive`, as in Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
(SC 2011): any subset of elements can be drawn at once, in any order.
"""

import hashlib
import random
import struct

import numpy as np


def derive(seed: int, tag: str, *parts: int) -> int:
    """Derive a 64-bit integer from a seed, a domain tag and integer parts."""
    h = hashlib.blake2b(tag.encode("utf-8") + b"\x00", digest_size=8)
    try:
        h.update(struct.pack(f">{1 + len(parts)}q", seed, *parts))
    except struct.error:
        raise ValueError(f"seed and parts must be int64s, got {(seed, *parts)}") from None
    return int.from_bytes(h.digest(), "big")


def make_random(seed: int, tag: str, *parts: int) -> random.Random:
    return random.Random(derive(seed, tag, *parts))


def make_np_rng(seed: int, tag: str, *parts: int) -> np.random.Generator:
    return np.random.default_rng(derive(seed, tag, *parts))


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014): its k-th output from
# state s is its finalizer applied to s + k * golden gamma, mod 2**64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN2 = np.uint64(2 * 0x9E3779B97F4A7C15 % 2**64)  # two steps
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S = {b: np.uint64(b) for b in (1, 2, 11, 27, 30, 31)}

# A token's counter is (vertex << TOKEN_BITS) | token index, and it takes
# outputs 2c+1 and 2c+2 of the round's stream; counters below 2**63 keep
# every output position distinct mod 2**64.
TOKEN_BITS = 32
MAX_TOKEN_VERTICES = 1 << (63 - TOKEN_BITS)
MAX_TOKENS = 1 << TOKEN_BITS


def splitmix64(state: int, steps) -> np.ndarray:
    """Outputs number `steps` (a uint64 array) of splitmix64's stream from
    `state`, in wrapping uint64 array arithmetic."""
    z = np.array(steps, dtype=np.uint64, ndmin=1)  # a fresh copy
    z *= _GOLDEN
    z += np.uint64(state)
    return _mix(z)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of each uint64 state, as a fresh array: its
    first step, z ^ (z >> 30), makes that array and the rest run in place
    on it, with one scratch array for the later shifts.  z itself is not
    modified."""
    x = z >> _S[30]
    x ^= z
    x *= _MIX1
    shifted = np.right_shift(x, _S[27])
    x ^= shifted
    x *= _MIX2
    x ^= np.right_shift(x, _S[31], out=shifted)
    return x


def _unit(keys: np.ndarray) -> np.ndarray:
    """The top 53 bits of each uint64 key, scaled to [0, 1).  The explicit
    cast is exact and much faster than the mixed-type multiply's own."""
    u = (keys >> _S[11]).astype(np.float64)
    u *= 2.0 ** -53
    return u


def derive_each(seed: int, tag: str, xs, *parts: int) -> np.ndarray:
    """Output number x of splitmix64's stream keyed by derive(seed, tag,
    *parts), for each x in xs (int64 counters, taken mod 2**64), as a uint64
    array.  The gamma is odd and every finalizer step is invertible, so the
    output is a bijection of the counter: distinct xs get distinct keys."""
    steps = np.asarray(xs, dtype=np.int64).astype(np.uint64)
    return splitmix64(derive(seed, tag, *parts), steps)


def uniform_each(seed: int, tag: str, xs, *parts: int) -> np.ndarray:
    """derive_each(seed, tag, xs, *parts) scaled to uniforms in [0, 1)."""
    return _unit(derive_each(seed, tag, xs, *parts))


def uniform(seed: int, tag: str, x: int, *parts: int) -> float:
    """uniform_each(seed, tag, [x], *parts)[0]."""
    return float(uniform_each(seed, tag, [x], *parts)[0])


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
    return _unit(splitmix64(key, first)), _unit(splitmix64(key, first + _S[1]))


def unit_threshold(x) -> int:
    """ceil(x * 2**53) for a real x (a float, a numpy float or a Fraction),
    exactly: a uniform of this module, b * 2**-53 for the 53-bit integer b,
    is >= x iff b >= unit_threshold(x)."""
    num, den = x.as_integer_ratio()
    return -((-num << 53) // den)


def token_bases(seed: int, rnd: int, v, firsts) -> np.ndarray:
    """Per vertex v[j], the uint64 state from which token_hops draws round
    `rnd` for the tokens numbered t = firsts[j] + i, i its token index:
    base[j] + 2t * golden gamma is the state of output 2c+1 of
    token_uniforms' stream for the token's counter c."""
    steps = np.asarray(v, dtype=np.int64).astype(np.uint64)  # a fresh copy
    steps <<= np.uint64(TOKEN_BITS + 1)
    steps += _S[1]
    steps -= np.asarray(firsts, dtype=np.int64).astype(np.uint64) * _S[2]
    steps *= _GOLDEN
    steps += np.uint64(derive(seed, "token", rnd))
    return steps


def token_hops(bases, t, threshold: int):
    """token_uniforms fused for the tokens numbered t (int64), each with its
    vertex's token_bases entry in `bases`.  Returns (hops, u2): the mask of
    tokens with u1 >= gamma, tested on u1's 64-bit key against threshold =
    unit_threshold(gamma) scaled by 2**11 (a Python int, which may be
    2**64), and u2 of the hopping tokens only."""
    z = t.astype(np.uint64)
    z *= _GOLDEN2
    z += bases
    hops = _mix(z) >= threshold << 11
    z = z[hops]
    z += _GOLDEN
    return hops, _unit(_mix(z))
