"""CSR slot arrays the round kernels share.

A kernel holds a vertex's view of its edges as the CSR slots of g.csr():
slot i is the directed edge src[i] -> nbr[i], and the slots ascend by
(source, neighbor), the order in which every NodeProgram scans its
incident tuple.
"""

import numpy as np

NONE = np.zeros(0, dtype=np.int64)  # an empty round column
NONE.flags.writeable = False


def slot_sources(indptr):
    """The source vertex of every CSR slot, ascending."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def first_per_key(key):
    """The index of the first occurrence of each distinct value of `key`,
    in ascending order of the values."""
    return np.unique(key, return_index=True)[1]
