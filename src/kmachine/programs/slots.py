"""Helpers the round kernels share: CSR slot arrays, broadcast rounds and
edge outputs.

A kernel holds a vertex's view of its edges as the CSR slots of
g.adjacency(), or of g.csr() if it also reads each slot's edge index:
slot i is the directed edge src[i] -> nbr[i], and the slots ascend by
(source, neighbor), the order in which every NodeProgram scans its
incident tuple.
"""

import numpy as np

from ..clique import NONE, uniform_bits

_POW2 = np.left_shift(1, np.arange(63, dtype=np.int64))  # 1, 2, ..., 2**62


def bit_lengths(x):
    """The exact bit length of each non-negative int64 of x: the count of
    powers of two below 2**63 that are at most it."""
    return np.searchsorted(_POW2, x, side="right")


def slot_sources(indptr):
    """The source vertex of every CSR slot, ascending."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def first_per_key(key):
    """The index of the first occurrence of each distinct value of `key`,
    in ascending order of the values."""
    return np.unique(key, return_index=True)[1]


def broadcasts(senders, bits):
    """The round in which every vertex of the mask `senders` broadcasts
    `bits` bits."""
    bs = np.flatnonzero(senders)
    return bs, uniform_bits(bits, len(bs)), NONE, NONE, NONE


def edge_outputs(n, kept):
    """Per vertex, the sorted tuple of distinct (min, max) pairs it owns,
    from a list of (owner, other end) arrays that may repeat an edge."""
    owner = np.concatenate([o for o, _ in kept])
    other = np.concatenate([x for _, x in kept])
    key = np.minimum(owner, other) * n + np.maximum(owner, other)
    order = np.lexsort((key, owner))
    owner, key = owner[order], key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (key[1:] != key[:-1])
    owner, key = owner[new], key[new]
    pairs = list(zip((key // n).tolist(), (key % n).tolist()))
    cuts = np.searchsorted(owner, np.arange(n + 1)).tolist()
    return [tuple(pairs[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
