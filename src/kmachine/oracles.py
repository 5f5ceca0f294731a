"""Sequential reference implementations used to check every simulated run.

These share no code with the per-vertex programs; each one is a direct
textbook computation with explicit instance-size caps so tests never rely
on an unexercised regime.
"""

import heapq
import math
from fractions import Fraction

import numpy as np

from .graphs import Graph, Hypergraph

BRUTE_DENSEST_MAX_N = 22
ALL_PAIRS_MAX_N = 2048
_NO_PATH = 1 << 61  # the all-pairs key of an unreachable pair


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# connectivity and spanning structure
# ---------------------------------------------------------------------------


def component_count(g: Graph) -> int:
    return g.n - len(_forest(g, np.arange(g.m)))


def is_connected(g: Graph) -> bool:
    return component_count(g) == 1


def is_spanning_tree(g: Graph, edge_indices=None) -> bool:
    """Whether the chosen edges (default: all of them) form a spanning tree."""
    idx = np.arange(g.m) if edge_indices is None else np.asarray(edge_indices, dtype=np.int64)
    return len(idx) == g.n - 1 and len(_forest(g, idx)) == g.n - 1


def _kruskal_batch(n):
    """Edges per batch: n or more, so that the O(n) root refresh stays a
    fraction of the batch's union loop, and small graphs, whose first batch
    is unfiltered, send few more than n edges through that loop."""
    return max(64, n)


def _forest(g: Graph, order):
    """Kruskal's scan of the edge indices `order`, in that order: the ones
    that join two components of the edges picked before them.  An index
    repeated is picked at most once.  The scan stops once n - 1 are picked,
    as no later edge can join two components.

    Filter-Kruskal (Osipov, Sanders and Singler, ALENEX 2009): the edges go
    in batches, and before each batch the edges whose ends already share a
    component are dropped, so the union loop sees mostly edges it picks.
    """
    u, v, _ = g.edge_arrays()
    parent = list(range(g.n))
    picked = []
    step = _kruskal_batch(g.n)
    for lo in range(0, len(order), step):
        batch = order[lo:lo + step]
        # every vertex's root, by pointer jumping on the parents
        root = np.array(parent)
        while not np.array_equal(root[root], root):
            root = root[root]
        batch = batch[root[u[batch]] != root[v[batch]]]
        for ei, a, b in zip(batch.tolist(), u[batch].tolist(), v[batch].tolist()):
            # both finds inline, by path halving: method calls were most of the loop
            x = a
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            y = b
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[y] = x
                picked.append(ei)
        if len(picked) == g.n - 1:
            break
    return picked


# ---------------------------------------------------------------------------
# minimum spanning tree
# ---------------------------------------------------------------------------


def minimum_spanning_forest(g: Graph):
    """Kruskal's minimum spanning forest, one tree per component: (total
    weight, set of (u, v) edge pairs), under the total edge order (weight,
    then endpoint pair).  The graph is connected iff it has n - 1 edges."""
    u, v, w = g.edge_arrays()
    # u < v, so (w, u * n + v) is the edge order; u * n + v < n**2 < 2**63
    picked = np.fromiter(_forest(g, np.lexsort((u * g.n + v, w))), dtype=np.int64)
    # the weights summed as Python ints, exact past int64
    return sum(w[picked].tolist()), set(zip(u[picked].tolist(), v[picked].tolist()))


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


def single_source_distances(g: Graph, src: int):
    """Dijkstra with (weight, hop) keys: exact distances plus the fewest
    edges used by any minimum-weight path."""
    indptr, nbr, eidx = g.csr()
    cuts, nbrs = indptr.tolist(), nbr.tolist()
    weights = g.edge_arrays()[2][eidx].tolist()
    inf = math.inf
    dist = [inf] * g.n
    hops = [0] * g.n
    dist[src] = 0
    done = [False] * g.n
    heap = [(0, 0, src)]
    while heap:
        d, h, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        dist[v], hops[v] = d, h
        nh = h + 1
        lo, hi = cuts[v], cuts[v + 1]
        for u, w in zip(nbrs[lo:hi], weights[lo:hi]):
            nd = d + w
            # (nd, nh) < (dist[u], hops[u]), without building the tuples
            if not done[u] and (nd < dist[u] or nd == dist[u] and nh < hops[u]):
                dist[u], hops[u] = nd, nh
                heapq.heappush(heap, (nd, nh, u))
    return dist, hops


def bfs_tree(g: Graph, src: int):
    """Hop distances from src (inf when unreachable) and parents: a reached
    vertex's smallest-id neighbour one hop closer, None at src and at
    unreachable vertices."""
    indptr, nbr = g.adjacency()
    cuts, nbrs = indptr.tolist(), nbr.tolist()
    dist = [math.inf] * g.n
    parent = [None] * g.n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:  # ascending: the first to reach u is its least
            for u in nbrs[cuts[v]:cuts[v + 1]]:
                if dist[u] == math.inf:
                    dist[u] = d
                    parent[u] = v
                    nxt.append(u)
        frontier = sorted(nxt)
    return dist, parent


def _closure(g: Graph):
    """Floyd-Warshall over (n, n) int64 path keys.  An edge's key is w*n + 1,
    and a minimum-key path is simple (h < n), so its key d*n + h gives the
    minimum weight d and the fewest edges h among minimum-weight paths.
    Cost is n^3 whatever the graph."""
    n = g.n
    if n > ALL_PAIRS_MAX_N:
        raise OracleError(f"all-pairs distances capped at n={ALL_PAIRS_MAX_N}")
    u, v, w = g.edge_arrays()
    top = int(w.max(initial=0)) * n + 1
    if (n - 1) * top >= _NO_PATH:
        raise OracleError("path keys overflow: weights too large for all-pairs")
    K = np.full((n, n), _NO_PATH, dtype=np.int64)
    K[u, v] = K[v, u] = w * n + 1
    np.fill_diagonal(K, 0)
    via = np.empty_like(K)
    for x in range(n):
        np.add(K[:, x, None], K[x], out=via)
        np.minimum(K, via, out=K)
    return K


def all_pairs_distances(g: Graph):
    """(weighted distance matrix, hop-minimal matrix) as numpy float arrays."""
    K = _closure(g)
    dist, hops = np.divmod(K, g.n)
    cut = K == _NO_PATH
    return np.where(cut, np.inf, dist), np.where(cut, np.inf, hops)


# ---------------------------------------------------------------------------
# PageRank by power iteration
# ---------------------------------------------------------------------------


PAGERANK_TOL = 1e-10  # stop once an iteration moves pi by at most this in L1
PAGERANK_MAX_ITERS = 100000


def exact_pagerank(g: Graph, gamma: float):
    """Fixpoint of pi = gamma/n + (1-gamma) P^T pi for the uniform-restart
    walk; entries sum to 1 when no vertex is isolated (walk mass at an
    isolated vertex simply dies, matching the token semantics)."""
    if not (0.0 < gamma < 1.0):
        raise OracleError("gamma must be in (0, 1)")
    n = g.n
    u, v, _ = g.edge_arrays()
    deg = np.zeros(n)
    np.add.at(deg, u, 1.0)
    np.add.at(deg, v, 1.0)
    safe_deg = np.where(deg > 0, deg, 1.0)
    pi = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITERS):
        share = pi / safe_deg
        nxt = np.full(n, gamma / n)
        if g.m:
            flow = np.zeros(n)
            np.add.at(flow, v, share[u])
            np.add.at(flow, u, share[v])
            nxt += (1.0 - gamma) * flow
        if np.abs(nxt - pi).sum() <= PAGERANK_TOL:
            return nxt
        pi = nxt
    return pi


# ---------------------------------------------------------------------------
# densest subgraph
# ---------------------------------------------------------------------------


def brute_densest(g: Graph):
    """Exhaustive max of internal-edges/size over nonempty vertex subsets.
    The first best subset, in bitmask order, wins a tie ({0} on a graph
    without edges)."""
    if g.n > BRUTE_DENSEST_MAX_N:
        raise OracleError(f"brute_densest capped at n={BRUTE_DENSEST_MAX_N}")
    n = g.n
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    edges_in = np.zeros(len(subsets), dtype=np.int64)
    u, v, _ = g.edge_arrays()
    for ends in ((1 << u) | (1 << v)).tolist():
        edges_in += (subsets & ends) == ends
    size = np.zeros(len(subsets), dtype=np.int64)
    for i in range(n):
        size += (subsets >> i) & 1
    # edges_in / size times lcm(1..n) is an exact integer
    best = int((edges_in * (math.lcm(*range(1, n + 1)) // size)).argmax())
    s = best + 1
    return (Fraction(int(edges_in[best]), int(size[best])),
            frozenset(i for i in range(n) if s >> i & 1))


# ---------------------------------------------------------------------------
# independent sets and triangles
# ---------------------------------------------------------------------------


def validate_mis(instance, members) -> bool:
    """Maximal-independence check for graphs and hypergraphs.

    Graphs: no edge inside the set and every outside vertex has a neighbor
    inside.  Hypergraphs: no hyperedge fully inside, and adding any outside
    vertex would put some hyperedge fully inside.
    """
    if isinstance(instance, Graph):
        n = instance.n
        chosen = np.zeros(n, dtype=bool)
        chosen[np.fromiter(members, dtype=np.int64)] = True
        u, v, _ = instance.edge_arrays()
        if (chosen[u] & chosen[v]).any():
            return False
        covered = chosen.copy()  # chosen, or next to a chosen vertex
        covered[u[chosen[v]]] = True
        covered[v[chosen[u]]] = True
        return bool(covered.all())
    chosen = set(members)
    if isinstance(instance, Hypergraph):
        for h in instance.hyperedges:
            if all(x in chosen for x in h):
                return False
        for v in range(instance.n):
            if v in chosen:
                continue
            addable = True
            for hi in instance.incident[v]:
                h = instance.hyperedges[hi]
                if all(x in chosen or x == v for x in h):
                    addable = False
                    break
            if addable:
                return False
        return True
    raise OracleError(f"unsupported instance {instance!r}")


def triangle_exists(g: Graph) -> bool:
    adj_mask = [0] * g.n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    for u, v, _ in g.edges:
        if adj_mask[u] & adj_mask[v]:
            return True
    return False
