"""Deterministic randomness derivation.

Every random draw in the simulator is keyed by (seed, domain tag, integers),
so executions are reproducible regardless of scheduling or call order.
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


def derive_each(seed: int, tag: str, xs, rnd: int) -> list:
    """[derive(seed, tag, x, rnd) for x in xs], hashing the shared prefix once."""
    base = _prefix(seed, tag)
    out = []
    for x in xs:
        h = base.copy()
        h.update(struct.pack(">qq", x, rnd))
        out.append(int.from_bytes(h.digest(), "big"))
    return out


def make_random(seed: int, tag: str, *parts: int) -> random.Random:
    return random.Random(derive(seed, tag, *parts))


def make_np_rng(seed: int, tag: str, *parts: int) -> np.random.Generator:
    return np.random.default_rng(derive(seed, tag, *parts))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) for one integer of at
# most 64 bits: its entropy is two uint32 words, low first, and a missing
# high word hashes exactly like a zero one.  Constants are numpy's.
_POOL = 4
_M32 = 0xFFFFFFFF
_S16 = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init, mult, count):
    """The xor and multiply constants of `count` successive hashmix calls,
    as (count, 1) uint32 columns; they do not depend on the data."""
    xs = []
    for _ in range(count + 1):
        xs.append(init)
        init = (init * mult) & _M32
    col = np.array(xs, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


_MIX_X, _MIX_M = _hash_consts(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_OUT_X, _OUT_M = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
# PCG64's default 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128 = (1 << 128) - 1


def _hashmix(value, x, m):
    value = (value ^ x) * m
    return value ^ (value >> _S16)


def _seed_words(keys):
    """SeedSequence(key).generate_state(4, uint64) for every key, as a
    (4, len(keys)) uint64 array, in vectorized uint32 arithmetic."""
    keys = np.asarray(keys, dtype=np.uint64)
    pool = np.zeros((_POOL, len(keys)), dtype=np.uint32)
    pool[0] = keys & np.uint64(_M32)
    pool[1] = keys >> np.uint64(32)
    pool = _hashmix(pool, _MIX_X[:_POOL], _MIX_M[:_POOL])
    c = _POOL
    for src in range(_POOL):
        # the source row stays fixed while it is mixed into the other three
        dst = [d for d in range(_POOL) if d != src]
        h = _hashmix(pool[src], _MIX_X[c:c + 3], _MIX_M[c:c + 3])
        c += 3
        mixed = _MIX_L * pool[dst] - _MIX_R * h
        pool[dst] = mixed ^ (mixed >> _S16)
    words = _hashmix(np.tile(pool, (2, 1)), _OUT_X, _OUT_M).astype(np.uint64)
    return words[0::2] | (words[1::2] << np.uint64(32))


def _pcg64_states(keys):
    """(state, inc) of np.random.PCG64(key) for every key: PCG64 seeds its
    128-bit state and increment from the four words above."""
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in _seed_words(keys))):
        # pcg64_set_seed: inc = seq*2+1; state 0, one LCG step, add the
        # seed, one more step
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _M128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128
        out.append((state, inc))
    return out


def _reseeded(keys):
    """Yield, for each key in order, a Generator in the state of
    np.random.default_rng(key).  It is one Generator, re-seeded in place
    before each yield, so draw from it before advancing the iterator;
    re-seeding costs a fraction of building a Generator."""
    states = _pcg64_states(keys)
    if not states:
        return
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    state = bitgen.state  # has_uint32 = uinteger = 0, as after seeding
    for st, inc in states:
        state["state"] = {"state": st, "inc": inc}
        bitgen.state = state
        yield gen


def make_np_rngs(seed: int, tag: str, xs, rnd: int):
    """Yield, for each x in xs in order, a Generator in the state of
    make_np_rng(seed, tag, x, rnd): the batch form of make_np_rng for one
    round.  The Generator is shared between yields (see _reseeded)."""
    return _reseeded(derive_each(seed, tag, xs, rnd))
