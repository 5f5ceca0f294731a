import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmachine import oracles
from kmachine.graphs import Graph, generate, inf_weight, random_uniform_hypergraph
from kmachine.oracles import (
    OracleError,
    all_pairs_distances,
    bfs_tree,
    brute_densest,
    component_count,
    exact_pagerank,
    is_connected,
    is_spanning_tree,
    minimum_spanning_forest,
    single_source_distances,
    triangle_exists,
    validate_mis,
)


def test_kruskal_examples():
    g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    w, edges = minimum_spanning_forest(g)
    assert w == 3 and edges == {(0, 1), (1, 2)}
    g2 = Graph(3, [(0, 1, 5), (1, 2, 7)])
    assert minimum_spanning_forest(g2)[0] == 12
    # disconnected: a forest, short of a tree's n - 1 edges
    assert minimum_spanning_forest(Graph(3, [(0, 1, 1)])) == (1, {(0, 1)})


def _mst_key(u, v, w):
    # total order on edges: weight, then endpoint pair
    return (w, min(u, v), max(u, v))


def _prim_mst(g: Graph):
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
        raise OracleError("graph is disconnected")
    return weight, chosen


def test_kruskal_agrees_with_prim():
    checked = 0
    sizes = [8, 12, 16, 24, 32, 48, 64, 96, 128, 256]
    for seed in range(1000):
        n = sizes[seed % len(sizes)]
        g = generate("random_weighted", n, seed, p=0.4, wmax=50)
        if not is_connected(g):
            continue
        assert minimum_spanning_forest(g) == _prim_mst(g)
        checked += 1
    assert checked > 800
    with pytest.raises(OracleError):
        _prim_mst(Graph(3, [(0, 1, 1)]))


def test_forest_on_disconnected():
    g = Graph(5, [(0, 1, 2), (2, 3, 4), (3, 4, 1), (2, 4, 9)])
    w, edges = minimum_spanning_forest(g)
    assert w == 7 and edges == {(0, 1), (2, 3), (3, 4)}


def test_forest_does_not_depend_on_the_batch_size(monkeypatch):
    graphs = [generate("random_weighted", 40, s, p=0.3, wmax=9) for s in range(4)]
    graphs += [generate("gnp", 64, 1, p=0.02), Graph(1, []), Graph(3, [(0, 1, 1)])]
    want = [_textbook_kruskal(g) for g in graphs]
    for batch in (lambda n: 1, lambda n: 2, lambda n: 7, oracles._kruskal_batch):
        monkeypatch.setattr(oracles, "_kruskal_batch", batch)
        assert [minimum_spanning_forest(g) for g in graphs] == want


def _textbook_kruskal(g):
    """Every edge in _mst_key order, kept while its ends carry two component
    labels, which it then merges: no batches, no filter, no union-find."""
    label = list(range(g.n))
    weight, chosen = 0, set()
    for u, v, w in sorted(g.edges, key=lambda e: _mst_key(*e)):
        if label[u] != label[v]:
            old = label[v]
            label = [label[u] if x == old else x for x in label]
            weight += w
            chosen.add((u, v))
    return weight, chosen


@st.composite
def _tied_graph(draw):
    """1..40 vertices, any edge set in any input order and orientation, and
    weights in [0, wmax] for wmax <= 3: many ties and zero weights, and the
    sparse draws have several components and isolated vertices."""
    n = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    wmax = draw(st.integers(0, 3))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in picked]
    return Graph(n, [(a, b, draw(st.integers(0, wmax))) for a, b in edges])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tied_graph())
def test_forest_matches_textbook_kruskal(g):
    want = _textbook_kruskal(g)
    for batch in (lambda n: 1, lambda n: 3, oracles._kruskal_batch):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_kruskal_batch", batch)
            assert minimum_spanning_forest(g) == want


def _labels(n, edges):
    """Each vertex's component, named by its least vertex: a depth-first
    search from each unlabelled vertex in turn."""
    nbrs = [[] for _ in range(n)]
    for u, v, _ in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    label = [None] * n
    for s in range(n):
        if label[s] is None:
            label[s], stack = s, [s]
            while stack:
                for y in nbrs[stack.pop()]:
                    if label[y] is None:
                        label[y] = s
                        stack.append(y)
    return label


def _is_tree(g, idx):
    """n - 1 distinct edges that connect the n vertices."""
    return (len(set(idx)) == len(idx) == g.n - 1
            and len(set(_labels(g.n, [g.edges[i] for i in idx]))) == 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_component_count_and_spanning_tree_match_a_labelling(data):
    g = data.draw(_tied_graph())
    if data.draw(st.booleans()):  # a path through the rest connects it, so trees exist
        have = {(u, v) for u, v, _ in g.edges}
        g = Graph(g.n, [*g.edges, *((v - 1, v, 0) for v in range(1, g.n)
                                    if (v - 1, v) not in have)])
    assert component_count(g) == len(set(_labels(g.n, g.edges)))
    assert is_spanning_tree(g) == _is_tree(g, range(g.m))
    # a candidate: a forest's edges in any order, maybe with one edge
    # replaced (by a repeat or another edge), dropped or added; or any list
    forest = _textbook_kruskal(g)[1]
    idx = data.draw(st.permutations([i for i, (u, v, _) in enumerate(g.edges)
                                     if (u, v) in forest]))
    if g.m:
        other = data.draw(st.integers(0, g.m - 1))
        edit = data.draw(st.sampled_from(["keep", "replace", "drop", "add", "any"]))
        if edit == "replace" and idx:
            idx[0] = other
        elif edit == "drop" and idx:
            idx.pop()
        elif edit == "add":
            idx.append(other)
        elif edit == "any":
            size = max(0, g.n - 1 + data.draw(st.sampled_from([0, 0, -1, 1])))
            idx = data.draw(st.lists(st.integers(0, g.m - 1), min_size=size, max_size=size))
    assert is_spanning_tree(g, idx) == _is_tree(g, idx)


def test_pagerank_oracle():
    cyc = generate("cycle", 8, 0)
    pr = exact_pagerank(cyc, 0.2)
    assert np.allclose(pr, 1 / 8, atol=1e-9)
    two = Graph(2, [(0, 1, 1)])
    assert np.allclose(exact_pagerank(two, 0.3), 0.5, atol=1e-9)
    star = generate("star", 5, 0)
    pr5 = exact_pagerank(star, 0.15)
    assert pr5[0] > pr5[1:].max()
    assert abs(pr5.sum() - 1.0) < 1e-8


def test_brute_densest_examples():
    assert brute_densest(generate("clique", 4, 0))[0] == Fraction(3, 2)
    assert brute_densest(Graph(2, [(0, 1, 1)]))[0] == Fraction(1, 2)
    with pytest.raises(OracleError):
        brute_densest(generate("cycle", 23, 0))


def _brute_densest_loop(g):
    """brute_densest as a loop over the subset lattice, which keeps the
    first subset strictly denser than every one before it."""
    adj_mask = [0] * g.n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best_cnt, best_size = 0, 1
    best_set = frozenset([0])
    edges_in = [0]
    for s in range(1, 1 << g.n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        cnt = edges_in[rest] + bin(adj_mask[low] & rest).count("1")
        edges_in.append(cnt)
        size = bin(s).count("1")
        if cnt * best_size > best_cnt * size:
            best_cnt, best_size = cnt, size
            best_set = frozenset(i for i in range(g.n) if s >> i & 1)
    return Fraction(best_cnt, best_size), best_set


def test_brute_densest_matches_the_subset_loop():
    graphs = [Graph(1, []), Graph(5, []), generate("clique", 6, 0), generate("star", 7, 0)]
    graphs += [generate("gnp", n, seed, p=p) for n in range(1, 11) for seed in range(3)
               for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        assert brute_densest(g) == _brute_densest_loop(g)


def _densest_via_flow(g):
    """Exact maximum density via min-cut tests, independent of brute_densest."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    if g.m == 0:
        return Fraction(0)
    m = g.m
    deg = np.diff(g.csr()[0]).tolist()
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


def test_brute_densest_agrees_with_flow():
    for seed in range(6):
        g = generate("gnp", 10, seed, p=0.4)
        opt, _ = brute_densest(g)
        if g.m:
            assert _densest_via_flow(g) == opt


def test_validate_mis_examples():
    k4 = generate("clique", 4, 0)
    assert validate_mis(k4, {0})
    assert not validate_mis(k4, {0, 1})
    assert not validate_mis(Graph(3, []), {0})  # not maximal
    h = random_uniform_hypergraph(3, 1, 3, 0)
    assert validate_mis(h, {0, 1})
    assert not validate_mis(h, {0, 1, 2})


@st.composite
def _graph_and_members(draw):
    """A graph on 1..9 vertices (edgeless, a clique, or any edge set, where
    isolated vertices are common), its adjacency sets, and a vertex set:
    a greedy maximal independent set in a random order, that set with one
    vertex flipped in or out (never maximal independent), or any set."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shape = draw(st.sampled_from(["edgeless", "clique", "any"]))
    if shape == "edgeless":
        pairs = []
    elif shape == "any" and pairs:
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    g = Graph(n, [(u, v, 1) for u, v in pairs])
    adj = {v: set() for v in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    kind = draw(st.sampled_from(["greedy", "flipped", "any"]))
    if kind == "any":
        return g, adj, set(draw(st.lists(st.integers(0, n - 1))))
    members = set()
    for v in draw(st.permutations(range(n))):
        if not adj[v] & members:
            members.add(v)
    if kind == "flipped":
        members ^= {draw(st.integers(0, n - 1))}
    return g, adj, members


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graph_and_members())
def test_validate_mis_matches_brute_force(case):
    g, adj, members = case
    independent = all(not adj[v] & members for v in members)
    maximal = all(v in members or adj[v] & members for v in adj)
    assert validate_mis(g, members) == (independent and maximal)
    assert validate_mis(g, sorted(members)) == (independent and maximal)


def test_all_pairs():
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    d, h = all_pairs_distances(path)
    assert d[0, 2] == 2 and h[0, 2] == 2
    disc = Graph(3, [(0, 1, 4)])
    d2, _ = all_pairs_distances(disc)
    assert math.isinf(d2[0, 2])


def _shortest_path_instances():
    """random_weighted shapes re-weighted into [0, 3], so that zero-weight
    edges tie minimum-weight paths of different hop counts; sparse ones are
    disconnected."""
    rng = np.random.default_rng(5)
    graphs = [Graph(1, []), Graph(4, [(0, 1, 0), (2, 3, 7)])]
    for seed in range(12):
        n, p = [(6, 0.5), (24, 0.08), (48, 0.15)][seed % 3]
        g = generate("random_weighted", n, seed, p=p, wmax=9)
        u, v, _ = g.edge_arrays()
        graphs.append(Graph(n, np.column_stack([u, v, rng.integers(0, 4, g.m)])))
    return graphs


def test_all_pairs_rows_match_single_source():
    disconnected = 0
    for g in _shortest_path_instances():
        dist, hops = all_pairs_distances(g)
        for src in range(g.n):
            d, h = single_source_distances(g, src)
            reach = np.isfinite(d)
            assert dist[src].tolist() == d
            assert hops[src, reach].tolist() == np.asarray(h)[reach].tolist()
            assert np.isinf(hops[src, ~reach]).all()
        hop_diam = max(max(bfs_tree(g, src)[0]) for src in range(g.n))
        unit = Graph(g.n, [(u, v, 1) for u, v, _ in g.edges])
        assert all_pairs_distances(unit)[1].max() == hop_diam
        disconnected += math.isinf(hop_diam)
    assert disconnected >= 3


def test_closure_rejects_key_overflow_before_allocating():
    import tracemalloc

    n = oracles.ALL_PAIRS_MAX_N
    g = Graph(n, [(0, 1, inf_weight(n) - 1)])
    tracemalloc.start()
    try:
        with pytest.raises(OracleError):
            oracles._closure(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n  # the key matrix alone would be 8 n^2 bytes


def test_distances_cross_check_scipy():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    g = generate("random_weighted", 64, 3, p=0.15, wmax=30)
    u, v, w = g.edge_arrays()
    mat = csr_matrix((np.concatenate([w, w]),
                      (np.concatenate([u, v]), np.concatenate([v, u]))),
                     shape=(g.n, g.n))
    want = dijkstra(mat, indices=0)
    got, _ = single_source_distances(g, 0)
    assert np.allclose(np.asarray(got, dtype=float), want)


def test_bfs_tree_parents_are_the_least_closer_neighbours():
    for seed in range(6):
        g = generate("gnp", 40, seed, p=0.06)  # sparse: some unreachable
        dist, parent = bfs_tree(g, 3)
        for v in range(g.n):
            closer = [u for u, _, _ in g.neighbors(v) if dist[u] == dist[v] - 1]
            reached = v != 3 and dist[v] < math.inf
            assert parent[v] == (min(closer) if reached else None)


def test_bfs_and_structure_helpers():
    g = generate("cycle", 6, 0)
    # 3 is three hops away through 2 and through 4: its parent is 2
    assert bfs_tree(g, 0) == ([0, 1, 2, 3, 2, 1], [None, 0, 1, 2, 5, 0])
    assert is_connected(g)
    assert not is_spanning_tree(g)  # n edges, has a cycle
    assert is_spanning_tree(generate("path", 6, 0))
    with pytest.raises(IndexError):
        is_spanning_tree(generate("path", 6, 0), [0, 1, 2, 3, 5])  # m = 5
    assert triangle_exists(generate("clique", 3, 0))
    assert not triangle_exists(generate("star", 9, 0))
