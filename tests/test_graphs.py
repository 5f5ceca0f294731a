import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmachine.clique import run_clique
from kmachine.graphs import (
    GadgetSpec,
    Graph,
    GraphError,
    dump_edge_list,
    gadget_feasible,
    generate,
    generate_gadget,
    inf_weight,
    label_bits,
    load_edge_list,
    random_gadget_spec,
    random_uniform_hypergraph,
)
from kmachine.graphs import _geometric_gaps, _pairs_from_indices
from kmachine.oracles import all_pairs_distances, is_connected, is_spanning_tree
from kmachine.programs import conn_program, mst_program


def test_load_basic():
    g = load_edge_list("n 3\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert all(w == 1 for _, _, w in g.edges)


def test_load_self_loop_reports_line():
    with pytest.raises(GraphError, match="line 2"):
        load_edge_list("n 2\n0 0\n")


def test_load_weights():
    g = load_edge_list("n 4\n0 1 7\n2 3 9\n")
    assert sorted(w for _, _, w in g.edges) == [7, 9]
    assert g.max_degree() == 1


def test_load_errors():
    with pytest.raises(GraphError, match="line 2"):
        load_edge_list("n 2\n0 5\n")
    with pytest.raises(GraphError, match="duplicate"):
        load_edge_list("n 3\n0 1\n1 0\n")
    with pytest.raises(GraphError, match="line 1"):
        load_edge_list("0 1\n")
    with pytest.raises(GraphError, match="non-integer"):
        load_edge_list("n 3\n0 x\n")
    # faults Graph finds name their line too
    with pytest.raises(GraphError, match=r"^line 2: weight 99 outside \[0, 15\)"):
        load_edge_list("n 2\n0 1 99\n")
    with pytest.raises(GraphError, match=r"^line 4: weight -1 outside"):
        load_edge_list("n 3\n0 1\n# c\n1 2 -1\n")
    with pytest.raises(GraphError, match=r"^line 3: edge field outside the int64 range"):
        load_edge_list("n 3\n0 1\n1 2 %d\n" % 2**64)
    with pytest.raises(GraphError, match=r"^line 5: duplicate edge \(0,1\)$"):
        load_edge_list("n 3\n0 1\n\n1 2\n1 0\n")


def test_comments_and_blank_lines():
    g = load_edge_list("# c\n\nn 2\n# mid\n0 1 3\n")
    assert g.edges == ((0, 1, 3),)


def test_round_trip():
    for model, n, kw in [
        ("cycle", 9, {}),
        ("grid", 13, {}),
        ("gnp", 40, {"p": 0.2}),
        ("random_weighted", 32, {"p": 0.3, "wmax": 100}),
        ("star", 7, {}),
    ]:
        g = generate(model, n, 5, **kw)
        h = load_edge_list(dump_edge_list(g))
        assert (h.n, sorted(h.edges)) == (g.n, sorted(g.edges))


def test_generate_pure():
    a = generate("gnp", 64, 11, p=0.3)
    b = generate("gnp", 64, 11, p=0.3)
    assert a.edges == b.edges
    c = generate("random_weighted", 64, 4, p=0.3, wmax=50)
    d = generate("random_weighted", 64, 4, p=0.3, wmax=50)
    assert c.edges == d.edges
    assert c.edges != generate("random_weighted", 64, 5, p=0.3, wmax=50).edges


def test_generate_shapes():
    g = generate("clique", 4, 0)
    assert g.m == 6 and g.max_degree() == 3
    cyc = generate("cycle", 5, 0)
    assert cyc.m == 5 and cyc.max_degree() == 2
    assert all_pairs_distances(cyc)[1].max() == 2  # the hop diameter
    assert np.diff(cyc.csr()[0]).tolist() == [2] * 5
    with pytest.raises(GraphError):
        generate("cycle", 0, 0)
    with pytest.raises(GraphError):
        generate("gnp", 4, 0, p=1.5)


def test_gnp_mean_edge_count():
    ms = [generate("gnp", 64, s, p=0.5).m for s in range(200)]
    mean = sum(ms) / len(ms)
    assert abs(mean - 1008) <= 0.1 * 1008


class _DrawSpy:
    """A numpy Generator that records the name of each method called on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_gap_inversion_equals_generator_geometric_draw_for_draw():
    # below p = 1/3 the gaps are numpy's inversion done a chunk at a time:
    # the same values, the stream left at the same place, and only
    # standard_exponential draws; 1e-300 clamps every gap to INT64_MAX, and
    # 1e-17 takes the clamp's check without reaching it
    for p in (1e-300, 1e-17, 1e-6, 1e-3, 0.02, 0.1, 0.25, np.nextafter(1 / 3, 0)):
        for seed in range(50):
            want = (1, 100, 8192, 8193, 20000)[seed % 5]  # chunk edges too
            spy = _DrawSpy(seed)
            gaps = _geometric_gaps(spy, p, want)
            ref = np.random.default_rng(seed)
            assert gaps.dtype == np.int64
            assert np.array_equal(gaps, ref.geometric(p, size=want)), (p, seed)
            assert set(spy.calls) == {"standard_exponential"}
            assert spy.rng.random() == ref.random()
    # from 1/3 up numpy searches the CDF, and the gaps are its own draws
    for p in (1 / 3, 0.5):
        for seed in range(50):
            spy = _DrawSpy(seed)
            gaps = _geometric_gaps(spy, p, 1000)
            assert spy.calls == ["geometric"]
            assert np.array_equal(gaps, np.random.default_rng(seed).geometric(p, 1000))


@pytest.mark.parametrize("p", [1e-18, 1e-300, 5e-324])
def test_gnp_at_tiny_p_ends_its_sample_without_warnings(p):
    # gaps up to INT64_MAX are clipped at the pairs left, so no cumsum wraps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (64, 4096):
            assert generate("gnp", n, 1, p=p).m == 0
            assert generate("random_weighted", n, 1, p=p, wmax=5).m == 0


def test_weight_bounds():
    limit = inf_weight(4)
    with pytest.raises(GraphError):
        Graph(4, [(0, 1, limit)])
    Graph(4, [(0, 1, limit - 1)])  # largest legal weight
    assert label_bits(16) == 4 and label_bits(1) == 1 and label_bits(17) == 5


def _stats(g):
    """(m, max degree, hop diameter, shortest-path diameter): the diameters
    are the largest entries of the hop matrices of a unit-weight copy and of
    g itself, inf on a disconnected graph, and the shortest-path diameter
    counts the fewest edges on any minimum-weight path of a connected pair."""
    unit = Graph(g.n, [(u, v, 1) for u, v, _ in g.edges])
    hops = all_pairs_distances(g)[1]
    return (g.m, g.max_degree(), all_pairs_distances(unit)[1].max(),
            int(hops[np.isfinite(hops)].max()))


def test_graph_stats_examples():
    assert _stats(generate("cycle", 6, 0)) == (6, 2, 3, 3)
    assert _stats(generate("star", 5, 0)) == (4, 4, 2, 2)
    disc = Graph(3, [(0, 1, 1)])
    _, _, diam, _ = _stats(disc)
    assert math.isinf(diam)


def _floyd_hops(g):
    """Independent check for the fewest-edges-among-cheapest-paths matrix."""
    inf = math.inf
    n = g.n
    dist = [[(inf, inf)] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = (0, 0)
    for u, v, w in g.edges:
        dist[u][v] = min(dist[u][v], (w, 1))
        dist[v][u] = min(dist[v][u], (w, 1))
    for m in range(n):
        for i in range(n):
            for j in range(n):
                cand = (dist[i][m][0] + dist[m][j][0], dist[i][m][1] + dist[m][j][1])
                if cand < dist[i][j]:
                    dist[i][j] = cand
    return max(
        (d[1] for row in dist for d in row if d[0] != inf),
        default=0,
    )


def test_shortest_path_diameter_matches_floyd():
    for seed in range(5):
        g = generate("random_weighted", 12, seed, p=0.3, wmax=10)
        _, _, _, spd = _stats(g)
        assert spd == _floyd_hops(g)


def test_gadget_examples():
    g = generate_gadget(GadgetSpec("STVERIFY", 2, (1, 0), (1, 0)))
    assert is_spanning_tree(g)
    g2 = generate_gadget(GadgetSpec("CONN", 1, (1,), (1,)))
    assert not is_connected(g2)
    g3 = generate_gadget(GadgetSpec("ST_LOWER", 3, (1, 1, 1), (1, 1, 1)))
    assert g3.n == 5 and g3.m == 6
    with pytest.raises(GraphError):
        GadgetSpec("ST_LOWER", 2, (1, 0), (0, 0))  # support condition
    with pytest.raises(GraphError):
        GadgetSpec("STVERIFY", 2, (1,), (0, 1))


def test_gadget_predicates_exhaustive():
    # every bit pattern up to b=8: the built graph's structural predicate
    # must match the one implied by the vectors
    for b in range(1, 9):
        for xm in range(1 << b):
            x = tuple((xm >> i) & 1 for i in range(b))
            for ym in range(1 << b):
                y = tuple((ym >> i) & 1 for i in range(b))
                st = GadgetSpec("STVERIFY", b, x, y)
                assert is_spanning_tree(generate_gadget(st)) == gadget_feasible(st)
                cn = GadgetSpec("CONN", b, x, y)
                assert is_connected(generate_gadget(cn)) == gadget_feasible(cn)
                if all(xi + yi >= 1 for xi, yi in zip(x, y)):
                    sl = GadgetSpec("ST_LOWER", b, x, y)
                    assert is_connected(generate_gadget(sl)) == gadget_feasible(sl)


def test_random_gadget_spec_forcing():
    for kind in ("STVERIFY", "CONN", "ST_LOWER"):
        for want in (True, False):
            for seed in range(10):
                spec = random_gadget_spec(kind, 16, seed, feasible=want)
                assert gadget_feasible(spec) == want
        a = random_gadget_spec(kind, 16, 3)
        b = random_gadget_spec(kind, 16, 3)
        assert (a.x, a.y) == (b.x, b.y)


def test_hypergraph():
    h = random_uniform_hypergraph(20, 15, 3, 2)
    assert len(h.hyperedges) == 15
    assert all(len(e) == 3 for e in h.hyperedges)
    h2 = random_uniform_hypergraph(20, 15, 3, 2)
    assert h.hyperedges == h2.hyperedges
    with pytest.raises(GraphError):
        random_uniform_hypergraph(20, 5, 1, 0)


def _order_digest(g):
    """sha256 prefix of the ordered edges and every vertex's neighbor triples."""
    h = hashlib.sha256(f"n {g.n}\n".encode())
    for u, v, w in g.edges:
        h.update(f"{u} {v} {w}\n".encode())
    for v in range(g.n):
        h.update(" ".join(f"{u},{w},{ei}" for u, w, ei in g.neighbors(v)).encode() + b"\n")
    return h.hexdigest()[:16]


# Pinned before Graph became array-native; the two m > 10000 cases went
# through the old vectorized constructor, the rest through the scalar one.
GOLDEN_MODELS = {
    ("path", 7, ()): ("4a4d89f76af46f26", 6),
    ("cycle", 9, ()): ("56751e31183b05b2", 9),
    ("star", 6, ()): ("1d618fd8380e2ea4", 5),
    ("clique", 7, ()): ("14252164eed6ea54", 21),
    ("grid", 13, ()): ("3f48f9f265f380ab", 18),
    ("gnp", 40, (("p", 0.2),)): ("3ae6a23558e7b4ce", 179),
    ("gnp", 12, (("p", 1.0),)): ("8c28b6225168357b", 66),
    ("gnp", 12, (("p", 0.0),)): ("e681bfa49c571ccd", 0),
    ("gnp", 220, (("p", 0.5),)): ("c76916b78291419b", 12142),
    ("random_weighted", 32, (("p", 0.3), ("wmax", 100))): ("a24ad9f2c4933b35", 163),
    ("random_weighted", 160, (("p", 0.9), ("wmax", 1000))): ("f3044491a1e45aba", 11466),
}
GOLDEN_GADGETS = {
    "ST_LOWER": ("85814e561a6c95a1", 16),
    "STVERIFY": ("f84cf881181bb8ba", 25),
    "CONN": ("2797c676ca97377b", 21),
}
GOLDEN_DOC = "n 6\n# reversed pairs keep their input slot\n3 1 7\n0 5\n4 2 9\n2 0 3\n5 4\n"


def test_generators_pin_edge_and_neighbor_order():
    for (model, n, kw), want in GOLDEN_MODELS.items():
        g = generate(model, n, 9, **dict(kw))
        assert (_order_digest(g), g.m) == want, (model, n, kw)
        h = load_edge_list(dump_edge_list(g))
        assert (h.n, sorted(h.edges)) == (g.n, sorted(g.edges))
    for kind, want in GOLDEN_GADGETS.items():
        g = generate_gadget(random_gadget_spec(kind, 12, 3))
        assert (_order_digest(g), g.m) == want, kind
    g = load_edge_list(GOLDEN_DOC)
    assert g.edges == ((1, 3, 7), (0, 5, 1), (2, 4, 9), (0, 2, 3), (4, 5, 1))
    assert _order_digest(g) == "a87e21f92ab496ef"


@pytest.mark.parametrize("m", [20, 12000])  # both sides of the old 10000-edge split
def test_constructor_errors_name_the_first_faulty_edge(m):
    n = 200
    good = [(u, v, 1) for u in range(n) for v in range(u + 1, n)][: m - 1]
    assert Graph(n, good).m == len(good)
    wmax = inf_weight(n)
    for bad, text in [
        ((7, 7, 1), "self-loop at vertex 7"),
        ((3, n, 1), f"edge (3,{n}) out of range for n={n}"),
        ((-1, 4, 1), f"edge (-1,4) out of range for n={n}"),
        ((2, 9, wmax), f"weight {wmax} outside [0, {wmax}) for n={n}"),
        ((5, 1, -3), f"weight -3 outside [0, {wmax}) for n={n}"),
        (good[3][1::-1] + (1,), f"duplicate edge ({good[3][0]},{good[3][1]})"),
        (good[-1], f"duplicate edge ({good[-1][0]},{good[-1][1]})"),  # sorted input
    ]:
        with pytest.raises(GraphError, match=f"^{re.escape(text)}$"):
            Graph(n, good + [bad])
        with pytest.raises(GraphError, match=f"^{re.escape(text)}$"):
            Graph(n, np.array(good + [bad]))
    # the earliest fault in input order wins, as in a per-edge scan
    dup_first = good[:5] + [good[2], (7, 7, 1)]
    with pytest.raises(GraphError, match=r"duplicate edge"):
        Graph(n, dup_first)
    loop_first = good[:5] + [(7, 7, 1), good[2]]
    with pytest.raises(GraphError, match=r"self-loop"):
        Graph(n, loop_first)
    with pytest.raises(GraphError):
        Graph(n, [(0, 1)])


def test_array_and_list_inputs_build_the_same_graph():
    g = generate("random_weighted", 300, 2, p=0.2, wmax=50)
    edges = [(v, u, w) if i % 3 else (u, v, w) for i, (u, v, w) in enumerate(g.edges)]
    for h in (Graph(g.n, edges), Graph(g.n, np.array(edges)), Graph(g.n, iter(edges))):
        assert h.edges == g.edges
        for x, y in zip(h.csr(), g.csr()):
            assert np.array_equal(x, y)
        assert all(h.neighbors(v) == g.neighbors(v) for v in range(g.n))
    src = np.array(edges)
    h = Graph(g.n, src)
    src[:] = 0  # the graph keeps no view of its input
    assert h.edges == g.edges


def _pair_index(u, v, n):
    return u * n - u * (u + 1) // 2 + v - u - 1


def _decode(idx, n):
    """(u, v) of the ascending pair indices idx, through the generators'
    in-place decoder on a (3, m) block; rows 0 and 2 start as garbage."""
    block = np.full((3, len(idx)), -7, dtype=np.int64)
    block[1] = idx
    _pairs_from_indices(block, n)
    return block[0], block[1]


def _check_pairs(pairs, n):
    """Decode the ascending indices of `pairs` and compare, pair for pair."""
    pairs = sorted(pairs)
    idx = np.array([_pair_index(u, v, n) for u, v in pairs], dtype=np.int64)
    assert (np.diff(idx) > 0).all()
    u, v = _decode(idx, n)
    assert u.dtype == v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == pairs


def test_pair_indices_decode_exactly():
    for n in range(1, 65):
        u, v = _decode(np.arange(n * (n - 1) // 2), n)
        assert list(zip(u.tolist(), v.tolist())) == list(itertools.combinations(range(n), 2))
    for n in (2**16, 2**20):
        total = n * (n - 1) // 2
        pairs = [(n - 2, n - 1)]
        for r in (1, 2, 3, n // 3, n // 2, n - 3, n - 2):
            start = r * n - r * (r + 1) // 2
            assert _pair_index(r - 1, n - 1, n) == start - 1 and _pair_index(r, r + 1, n) == start
            pairs += [(r - 1, n - 1), (r, r + 1)]
        assert _pair_index(n - 2, n - 1, n) == total - 1
        _check_pairs(set(pairs), n)
        # rows without pairs first, in the middle and last
        mid = n // 2
        _check_pairs([(1, 2), (1, n - 1), (mid - 1, n - 1), (mid + 1, mid + 2), (n - 4, n - 3)], n)
    rng = np.random.default_rng(5)
    for n in range(2, 40):
        every = list(itertools.combinations(range(n), 2))
        for size in (0, 1, len(every) // 7, len(every) // 2):
            picked = rng.choice(len(every), size=size, replace=False)
            _check_pairs([every[i] for i in picked], n)
        _check_pairs([p for p in every if p[0] not in (0, n // 2, n - 2)], n)


def test_csr_matches_neighbors():
    from kmachine.acceptance import fidelity_instances

    graphs = [inst.graph for _, inst, _ in fidelity_instances(7)]
    graphs.append(generate("random_weighted", 600, 4, p=0.1, wmax=1000))  # m > 10000
    graphs.append(Graph(5, [(3, 1, 7), (0, 3, 2)]))  # isolated vertices
    graphs.append(Graph(3, []))
    graphs.append(Graph(1, np.zeros((0, 3), dtype=np.int64)))
    for g in graphs:
        indptr, nbr, eidx = g.csr()
        assert g.csr() is g.csr()
        for x in g.csr() + g.edge_arrays():
            assert x.dtype == np.int64 and not x.flags.writeable
            with pytest.raises(ValueError):
                x[:1] = 0
        w = g.edge_arrays()[2]
        for v in range(g.n):
            nb = g.neighbors(v)
            assert isinstance(nb, tuple) and nb is g.neighbors(v)
            assert nb == tuple(sorted(nb))
            lo, hi = indptr[v], indptr[v + 1]
            assert list(nb) == list(zip(nbr[lo:hi].tolist(), w[eidx[lo:hi]].tolist(),
                                        eidx[lo:hi].tolist()))
            assert all(v in g.edges[ei][:2] for _, _, ei in nb)
        degree = np.diff(indptr)
        assert g.max_degree() == degree.max()
        assert degree.sum() == 2 * g.m == 2 * len(g.edges)


def test_adjacency_is_the_csr_without_its_edge_index():
    import tracemalloc

    for model, extra in (("gnp", {}), ("random_weighted", {"wmax": 1000})):
        g = generate(model, 2048, 1, p=0.1, **extra)
        tracemalloc.start()
        try:
            adj = g.adjacency()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * g.m  # 5.25 words per edge with the edge index
        assert g._csr is None and g.adjacency() is adj
        for x in adj:
            assert x.dtype == np.int64 and not x.flags.writeable
        # csr() after adjacency() keeps the arrays adjacency() handed out
        csr = g.csr()
        assert csr[0] is adj[0] and csr[1] is adj[1] and g.adjacency() is adj
    # and adjacency() after csr() hands out csr()'s first two arrays, on
    # input in and out of key order
    for g in (Graph(5, [(3, 1, 7), (0, 3, 2), (2, 4, 1)]), Graph(3, []),
              generate("gnp", 300, 2, p=0.1)):
        first = Graph(g.n, np.stack(g.edge_arrays(), axis=1))
        indptr, nbr = first.adjacency()
        csr = g.csr()
        assert g.adjacency() == csr[:2]
        assert np.array_equal(indptr, csr[0]) and np.array_equal(nbr, csr[1])


def _reference_csr(n, rows):
    """The 2m-slot-key CSR and the min/max orientation, as built before the
    merge construction: the reference for csr() and edge_arrays()."""
    u, v, w = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    a, b = np.minimum(u, v), np.maximum(u, v)
    others = np.concatenate([b, a])
    order = (np.concatenate([a, b]) * n + others).argsort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n) + np.bincount(b, minlength=n), out=indptr[1:])
    return (indptr, others[order], order % max(len(a), 1)), (a, b, w)


def _assert_matches_reference(n, rows):
    g = Graph(n, rows)
    want_csr, want_arrays = _reference_csr(n, rows)
    for got, want in zip(g.csr() + g.edge_arrays(), want_csr + want_arrays):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert g.max_degree() == int(np.diff(want_csr[0]).max())


@st.composite
def _edge_cases(draw):
    n = draw(st.integers(1, 40))
    every = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(every), unique=True, max_size=150)) if every else []
    if draw(st.booleans()):
        chosen.sort()  # ascending keys, the generators' order
    rows = []
    for u, v in chosen:
        flip = draw(st.booleans())
        rows.append((v, u) if flip else (u, v))
    weights = draw(st.lists(st.integers(0, inf_weight(n) - 1), min_size=len(rows),
                            max_size=len(rows)))
    return n, [(u, v, w) for (u, v), w in zip(rows, weights)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_edge_cases())
def test_csr_matches_the_slot_key_reference(case):
    n, rows = case
    _assert_matches_reference(n, rows)
    _assert_matches_reference(n, np.array(rows, dtype=np.int64).reshape(-1, 3))


def test_csr_matches_the_slot_key_reference_on_large_labels():
    n = 70000  # labels past the uint16 sort keys
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, n * (n - 1) // 2, size=3000))
    a, b = _decode(keys, n)
    rows = np.column_stack([a, b, rng.integers(0, 100, size=len(a))])
    assert b.max() > 1 << 16 and a.min() < 1 << 16
    _assert_matches_reference(n, rows)  # ascending
    shuffled = rows[rng.permutation(len(rows))]
    flip = rng.random(len(rows)) < 0.5
    shuffled[flip, :2] = shuffled[flip, 1::-1]
    _assert_matches_reference(n, shuffled)
    _assert_matches_reference(n, np.zeros((0, 3), dtype=np.int64))
    _assert_matches_reference(1, [])


def test_generation_and_csr_memory_per_edge():
    import tracemalloc

    for model, extra in (("gnp", {}), ("random_weighted", {"wmax": 1000})):
        tracemalloc.start()
        try:
            g = generate(model, 2048, 1, p=0.1, **extra)
            generate_peak = tracemalloc.get_traced_memory()[1]
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g.csr()
            csr_peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        word_per_edge = 8 * g.m
        # 7.38 when Graph copied a generated (3, m) block; 12.3 with column_stack
        assert generate_peak <= 4.5 * word_per_edge, (model, generate_peak / word_per_edge)
        assert csr_peak <= 6.5 * word_per_edge  # 6.0 with the 2m-key argsort


@pytest.mark.parametrize("model", ["gnp", "random_weighted"])
def test_generated_graphs_take_the_constructor_check_path(model):
    # a generated graph keeps the block it filled; it must equal the graph
    # the public constructor builds from a copy of its edges
    for n in (1, 2, 3, 5, 64, 300, 2048):
        for p in (0, 0.01, 0.1, 0.5, 1):
            g = generate(model, n, 3, p=p, wmax=min(1000, inf_weight(n) - 1))
            # np.array(g.edges), without building up to 2.1M Python tuples
            h = Graph(n, np.stack(g.edge_arrays(), axis=1))
            assert g.m == h.m and g._ascending is h._ascending is True
            for x, y in zip(g.edge_arrays() + g.csr(), h.edge_arrays() + h.csr()):
                assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
            for x in g.edge_arrays() + h.edge_arrays():
                assert not x.flags.writeable and not x.base.flags.writeable
                with pytest.raises(ValueError):
                    x.base[:, :1] = 0
            del g, h


@pytest.mark.parametrize("model, extra, limit", [("gnp", {}, 12),
                                                 ("random_weighted", {"wmax": 1000}, 20)])
def test_fragment_kernel_memory_per_slot(model, extra, limit):
    import tracemalloc

    g = generate(model, 4096, 1, p=0.02, **extra)
    g.csr()
    for prog in (mst_program(), conn_program()):
        tracemalloc.start()
        try:
            run_clique(g, prog, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 40.0 with five int64 slot columns; int32 ids and no weight column
        # where every edge weighs the same take 10.2, an int64 weight column 18.9
        assert peak <= limit * 2 * g.m, (prog.name, peak / (2 * g.m))


def test_constructor_rejects_non_integer_fields():
    for edges in ([(0, 1, 2.7), (1, 2.9, 1)], [(0, 1, 1.0)], np.array([[0.0, 1.0, 0.5]]),
                  [(0, 1, "5")], np.array([["0", "1", "1"]]), [(0, 1, None)],
                  np.array([[0, 1, 1]], dtype=object) * 1.5):
        with pytest.raises(GraphError, match="is not an integer$"):
            Graph(3, edges)
    want = ((0, 1, 2), (1, 2, 1))
    for edges in ([(0, 1, 2), (2, 1, 1)], [(np.int64(1), 0, 2), (2, 1, True)],
                  np.array([[0, 1, 2], [2, 1, 1]], dtype=np.int32),
                  np.array([[1, 0, 2], [1, 2, 1]], dtype=np.uint64),
                  np.array([[0, 1, 2], [2, 1, 1]], dtype=object)):
        assert Graph(3, edges).edges == want
    for edges in ([(0, 1, 2**63)], [(0, 1, 2**64)], np.array([[0, 1, 2**63]], dtype=np.uint64),
                  np.array([[0, 1, 2**70]], dtype=object)):
        with pytest.raises(GraphError, match="^edge field outside the int64 range$"):
            Graph(3, edges)
    for edges in ([(0, 1, 1), (1, 2)], [(0, 1)], np.zeros((2, 4), dtype=np.int64)):
        with pytest.raises(GraphError, match="^edges must be"):
            Graph(3, edges)
