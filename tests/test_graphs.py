import math

import pytest

from kmachine.graphs import (
    GadgetSpec,
    Graph,
    GraphError,
    dump_edge_list,
    gadget_feasible,
    generate,
    generate_gadget,
    graph_stats,
    inf_weight,
    label_bits,
    load_edge_list,
    random_gadget_spec,
    random_uniform_hypergraph,
)
from kmachine.oracles import is_connected, is_spanning_tree


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
        assert load_edge_list(dump_edge_list(g)) == g


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
    _, delta, diam, _ = graph_stats(cyc)
    assert cyc.m == 5 and delta == 2 and diam == 2
    assert all(cyc.degree(v) == 2 for v in range(5))
    with pytest.raises(GraphError):
        generate("cycle", 0, 0)
    with pytest.raises(GraphError):
        generate("gnp", 4, 0, p=1.5)


def test_gnp_mean_edge_count():
    ms = [generate("gnp", 64, s, p=0.5).m for s in range(200)]
    mean = sum(ms) / len(ms)
    assert abs(mean - 1008) <= 0.1 * 1008


def test_weight_bounds():
    limit = inf_weight(4)
    with pytest.raises(GraphError):
        Graph(4, [(0, 1, limit)])
    Graph(4, [(0, 1, limit - 1)])  # largest legal weight
    assert label_bits(16) == 4 and label_bits(1) == 1 and label_bits(17) == 5


def test_graph_stats_examples():
    assert graph_stats(generate("cycle", 6, 0)) == (6, 2, 3, 3)
    assert graph_stats(generate("star", 5, 0)) == (4, 4, 2, 2)
    disc = Graph(3, [(0, 1, 1)])
    _, _, diam, _ = graph_stats(disc)
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
        _, _, _, spd = graph_stats(g)
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


def test_bulk_graph_path_matches_scalar():
    base = generate("gnp", 220, 9, p=0.5)  # m > 10000 triggers the bulk path
    assert base.m >= 10000
    # the scalar path on a sub-threshold prefix agrees edge for edge
    rebuilt = Graph(220, list(base.edges)[:9999])
    assert rebuilt.edges == base.edges[:9999]
    assert load_edge_list(dump_edge_list(base)) == base


def test_csr_matches_neighbors():
    from kmachine.acceptance import fidelity_instances

    graphs = [inst.graph for _, inst, _ in fidelity_instances(7)]
    graphs.append(generate("random_weighted", 600, 4, p=0.1, wmax=1000))  # bulk path
    graphs.append(Graph(5, [(3, 1, 7), (0, 3, 2)]))  # isolated vertices
    graphs.append(Graph(3, []))
    for g in graphs:
        indptr, nbr = g.csr()
        assert g.csr() is g.csr()
        for v in range(g.n):
            got = nbr[indptr[v]:indptr[v + 1]].tolist()
            assert got == [u for u, _, _ in g.neighbors(v)]
