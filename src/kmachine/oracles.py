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


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# connectivity and spanning structure
# ---------------------------------------------------------------------------


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.count = n

    def find(self, v):
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.count -= 1
        return True


def component_count(g: Graph) -> int:
    dsu = _DSU(g.n)
    for u, v, _ in g.edges:
        dsu.union(u, v)
    return dsu.count


def is_connected(g: Graph) -> bool:
    return component_count(g) == 1


def is_spanning_tree(g: Graph, edge_indices=None) -> bool:
    """Whether the chosen edges (default: all of them) form a spanning tree."""
    idxs = range(g.m) if edge_indices is None else edge_indices
    dsu = _DSU(g.n)
    count = 0
    for ei in idxs:
        u, v, _ = g.edges[ei]
        if not dsu.union(u, v):
            return False
        count += 1
    return count == g.n - 1


# ---------------------------------------------------------------------------
# minimum spanning tree (two independent implementations)
# ---------------------------------------------------------------------------


def _mst_key(u, v, w):
    # total order on edges: weight, then endpoint pair
    return (w, min(u, v), max(u, v))


def kruskal_mst(g: Graph):
    """Exact MST under the distinct-key order; (total weight, edge pair set)."""
    weight, chosen = minimum_spanning_forest(g)
    if len(chosen) != g.n - 1:
        raise OracleError("kruskal_mst: graph is disconnected")
    return weight, chosen


def minimum_spanning_forest(g: Graph):
    """Kruskal without the connectivity requirement; spans each component."""
    u, v, w = g.edge_arrays()  # u < v, so (w, u, v) is _mst_key's order
    order = np.lexsort((v, u, w))
    dsu = _DSU(g.n)
    weight = 0
    chosen = set()
    for a, b, wt in zip(u[order].tolist(), v[order].tolist(), w[order].tolist()):
        if dsu.union(a, b):
            weight += wt
            chosen.add((a, b))
    return weight, chosen


def prim_mst(g: Graph):
    """Prim's algorithm under the same key order, for cross-checking."""
    if g.n == 1:
        return 0, set()
    in_tree = [False] * g.n
    heap = []
    weight = 0
    chosen = set()
    in_tree[0] = True
    for u, w, _ in g.neighbors(0):
        heapq.heappush(heap, (_mst_key(0, u, w), 0, u, w))
    added = 1
    while heap and added < g.n:
        _, u, v, w = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = True
        added += 1
        weight += w
        chosen.add((min(u, v), max(u, v)))
        for x, wx, _ in g.neighbors(v):
            if not in_tree[x]:
                heapq.heappush(heap, (_mst_key(v, x, wx), v, x, wx))
    if added != g.n:
        raise OracleError("prim_mst: graph is disconnected")
    return weight, chosen


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


def single_source_distances(g: Graph, src: int):
    """Dijkstra with (weight, hop) keys: exact distances plus the fewest
    edges used by any minimum-weight path."""
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
        for u, w, _ in g.neighbors(v):
            nd = d + w
            # (nd, nh) < (dist[u], hops[u]), without building the tuples
            if not done[u] and (nd < dist[u] or nd == dist[u] and nh < hops[u]):
                dist[u], hops[u] = nd, nh
                heapq.heappush(heap, (nd, nh, u))
    return dist, hops


def bfs_distances(g: Graph, src: int):
    """Hop distances from src; unreachable vertices get inf."""
    dist = [math.inf] * g.n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u, _, _ in g.neighbors(v):
                if dist[u] == math.inf:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def all_pairs_distances(g: Graph):
    """(weighted distance matrix, hop-minimal matrix) as numpy float arrays."""
    if g.n > ALL_PAIRS_MAX_N:
        raise OracleError(f"all_pairs_distances capped at n={ALL_PAIRS_MAX_N}")
    dist = np.full((g.n, g.n), np.inf)
    hops = np.full((g.n, g.n), np.inf)
    for src in range(g.n):
        d, h = single_source_distances(g, src)
        dist[src] = d
        for v in range(g.n):
            if d[v] != math.inf:
                hops[src, v] = h[v]
    return dist, hops


def shortest_path_diameter(g: Graph) -> int:
    spd = 0
    for src in range(g.n):
        d, h = single_source_distances(g, src)
        spd = max(spd, max((hv for dv, hv in zip(d, h) if dv != math.inf), default=0))
    return spd


def graph_stats(g: Graph):
    """(m, max degree, hop diameter, shortest-path diameter).

    Hop diameter is inf for disconnected graphs.  The shortest-path diameter
    is the largest, over connected pairs, of the fewest edges on any
    minimum-weight path.  Cost is n BFS and n Dijkstra passes; intended for
    n up to a couple thousand.
    """
    diam = max(max(bfs_distances(g, src)) for src in range(g.n))
    return g.m, g.max_degree(), diam, shortest_path_diameter(g)


# ---------------------------------------------------------------------------
# PageRank by power iteration
# ---------------------------------------------------------------------------


def exact_pagerank(g: Graph, gamma: float, tol: float = 1e-10, max_iters: int = 100000):
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
    for _ in range(max_iters):
        share = pi / safe_deg
        nxt = np.full(n, gamma / n)
        if g.m:
            flow = np.zeros(n)
            np.add.at(flow, v, share[u])
            np.add.at(flow, u, share[v])
            nxt += (1.0 - gamma) * flow
        if np.abs(nxt - pi).sum() <= tol:
            return nxt
        pi = nxt
    return pi


# ---------------------------------------------------------------------------
# densest subgraph
# ---------------------------------------------------------------------------


def brute_densest(g: Graph):
    """Exhaustive max of internal-edges/size over nonempty vertex subsets."""
    if g.n > BRUTE_DENSEST_MAX_N:
        raise OracleError(f"brute_densest capped at n={BRUTE_DENSEST_MAX_N}")
    adj_mask = [0] * g.n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = Fraction(0)
    best_set = frozenset([0])
    # incremental internal edge counts over the subset lattice
    edges_in = [0]
    for s in range(1, 1 << g.n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        cnt = edges_in[rest] + bin(adj_mask[low] & rest).count("1")
        edges_in.append(cnt)
        size = bin(s).count("1")
        dens = Fraction(cnt, size)
        if dens > best:
            best = dens
            best_set = frozenset(i for i in range(g.n) if s >> i & 1)
    return best, best_set


def densest_via_flow(g: Graph):
    """Exact maximum density via min-cut tests, independent of brute_densest."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    if g.m == 0:
        return Fraction(0)
    m = g.m
    deg = [g.degree(v) for v in range(g.n)]
    candidates = sorted(
        {Fraction(p, q) for q in range(1, g.n + 1) for p in range(0, m + 1)}
    )

    def denser_than(lam: Fraction) -> bool:
        num, den = lam.numerator, lam.denominator
        n = g.n
        s, t = n, n + 1
        rows, cols, caps = [], [], []
        for v in range(n):
            rows.append(s)
            cols.append(v)
            caps.append(m * den)
            rows.append(v)
            cols.append(t)
            caps.append(m * den + 2 * num - deg[v] * den)
        for u, v, _ in g.edges:
            rows += [u, v]
            cols += [v, u]
            caps += [den, den]
        mat = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2), dtype=np.int32)
        flow = maximum_flow(mat, s, t).flow_value
        return flow < m * den * n

    lo, hi = 0, len(candidates) - 1
    # find the largest candidate strictly below which density still exceeds
    ans = Fraction(0)
    while lo <= hi:
        mid = (lo + hi) // 2
        if denser_than(candidates[mid]):
            ans = candidates[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    # density exceeds `ans`, does not exceed the next candidate: OPT is the
    # smallest candidate > ans
    idx = candidates.index(ans)
    return candidates[idx + 1] if idx + 1 < len(candidates) else ans


# ---------------------------------------------------------------------------
# independent sets and triangles
# ---------------------------------------------------------------------------


def validate_mis(instance, members) -> bool:
    """Maximal-independence check for graphs and hypergraphs.

    Graphs: no edge inside the set and every outside vertex has a neighbor
    inside.  Hypergraphs: no hyperedge fully inside, and adding any outside
    vertex would put some hyperedge fully inside.
    """
    chosen = set(members)
    if isinstance(instance, Graph):
        for u, v, _ in instance.edges:
            if u in chosen and v in chosen:
                return False
        for v in range(instance.n):
            if v in chosen:
                continue
            if all(u not in chosen for u, _, _ in instance.neighbors(v)):
                return False
        return True
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
