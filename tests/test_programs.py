import math
from unittest import mock

import numpy as np
import pytest

from kmachine import clique, oracles
from kmachine.acceptance import fidelity_instances, per_vertex_reference
from kmachine.clique import Broadcast, Program, Unicast, run_clique
from kmachine.graphs import Graph, generate, inf_weight, label_bits, random_uniform_hypergraph
from kmachine.programs import (
    ALGORITHMS,
    AlgoConfig,
    ConfigError,
    bellman_ford_program,
    bfs_program,
    conn_program,
    densest_subgraph_program,
    hmis_kmachine,
    logapprox_shortest_paths,
    luby_mis_program,
    mst_program,
    pagerank_program,
    spanner_program,
    spanner_union,
    st_verify_program,
    triangle_program,
)
from kmachine.machines import convert_broadcast, random_vertex_partition
from kmachine.programs import mis
from kmachine.programs.spanner import _SpannerNode


def _run(g, prog, seed=0):
    return run_clique(g, prog, seed)


# -- breadth-first layers ----------------------------------------------------


def test_bfs_path():
    g = generate("path", 3, 0)
    out, _, _ = _run(g, bfs_program(AlgoConfig(source=0)))
    assert out == [(0, None), (1, 0), (2, 1)]


def test_bfs_unreachable():
    g = Graph(2, [])
    out, _, _ = _run(g, bfs_program(AlgoConfig(source=0)))
    assert out[0] == (0, None)
    assert math.isinf(out[1][0])


def test_bfs_matches_oracle():
    for seed in range(8):
        g = generate("gnp", 128, seed, p=0.1)
        out, _, met = _run(g, bfs_program(AlgoConfig(source=0)), seed=seed)
        assert out == list(zip(*oracles.bfs_tree(g, 0)))  # parents too
        assert met.broadcasts <= g.n + 1
        assert met.unicasts == 0


# -- fragment merging ---------------------------------------------------------


def test_mst_triangle():
    g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    out, _, _ = _run(g, mst_program())
    union = set()
    for edges, spanning in out:
        union.update(edges)
        assert spanning
    assert union == {(0, 1), (1, 2)}


def test_mst_star_unit_weights():
    g = generate("star", 5, 0)
    out, _, _ = _run(g, mst_program())
    union = set()
    for edges, _ in out:
        union.update(edges)
    assert union == {(0, 1), (0, 2), (0, 3), (0, 4)}


def test_mst_matches_kruskal():
    for seed in range(10):
        g = generate("random_weighted", 96, seed, p=0.3, wmax=1000)
        if not oracles.is_connected(g):
            continue
        out, _, met = _run(g, mst_program(), seed=seed)
        union = set()
        for edges, spanning in out:
            union.update(edges)
            assert spanning
        _, want = oracles.minimum_spanning_forest(g)
        assert union == want
        assert met.broadcasts <= 2 * g.n * label_bits(g.n) + g.n


def test_mst_disconnected_flags():
    g = Graph(4, [(0, 1, 5), (2, 3, 7)])
    out, _, _ = _run(g, mst_program())
    assert all(not spanning for _, spanning in out)
    union = set()
    for edges, _ in out:
        union.update(edges)
    assert union == {(0, 1), (2, 3)}


def test_conn_examples():
    g = Graph(4, [(0, 1, 1), (2, 3, 1)])
    out, _, _ = _run(g, conn_program())
    assert out[0] == (2, False)
    g2 = generate("cycle", 7, 0)
    out2, _, _ = _run(g2, conn_program())
    assert out2[0] == (1, True)


def test_stverify_path_yes():
    g = generate("path", 4, 0)
    out, _, _ = _run(g, st_verify_program(range(g.m)))
    assert all(o[0] for o in out)


def test_stverify_cycle_plus_isolated_no():
    # n-1 edges but a cycle and an isolated vertex: count right, not spanning
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    out, _, _ = _run(g, st_verify_program(range(3)))
    assert all(not o[0] for o in out)
    assert out[0][1] == 3  # candidate size was counted correctly


def test_stverify_rejects_wrong_count():
    g = generate("cycle", 5, 0)
    out, _, _ = _run(g, st_verify_program(range(5)))  # connected, n edges
    assert all(not o[0] for o in out)


# -- random walks -------------------------------------------------------------


def test_pagerank_symmetric_instances():
    g = generate("cycle", 8, 1)
    cfg = AlgoConfig(gamma=0.2, tokens_per_node=4096)
    out, _, met = _run(g, pagerank_program(cfg), seed=5)
    assert met.broadcasts == 0
    assert all(abs(x - 0.125) <= 0.02 for x in out)
    # at n = 2 the 6-bit payload cap admits 31 tokens a vertex: too few for
    # each estimate to sit near 0.5, but the two shares of the sum stay even
    g2 = Graph(2, [(0, 1, 1)])
    out2, _, _ = _run(
        g2, pagerank_program(AlgoConfig(gamma=0.2, tokens_per_node=31)), seed=3
    )
    assert abs(out2[0] - out2[1]) <= 0.05 * sum(out2)


def test_pagerank_matches_power_iteration():
    g = generate("gnp", 64, 3, p=0.2)
    tokens = math.ceil(100 * math.log2(64))
    out, _, _ = _run(
        g, pagerank_program(AlgoConfig(gamma=0.15, tokens_per_node=tokens)), seed=3
    )
    want = oracles.exact_pagerank(g, 0.15)
    assert np.abs(np.asarray(out) - want).sum() <= 0.1
    total = tokens * g.n
    assert abs(sum(out) - 1.0) <= 3.0 / math.sqrt(total)


def test_pagerank_isolated_vertex():
    g = Graph(3, [(0, 1, 1)])
    out, _, _ = _run(g, pagerank_program(AlgoConfig(tokens_per_node=64)), seed=1)
    # vertex 2's tokens die immediately: estimate is gamma/n
    assert out[2] == pytest.approx(0.15 / 3, rel=0.2)


# -- independent sets ----------------------------------------------------------


def test_mis_edgeless():
    g = Graph(5, [])
    out, _, _ = _run(g, luby_mis_program())
    assert all(m for m, _ in out)


def test_mis_clique():
    g = generate("clique", 6, 0)
    out, _, _ = _run(g, luby_mis_program(), seed=2)
    assert sum(m for m, _ in out) == 1


def test_mis_valid_on_random():
    for seed in range(10):
        g = generate("gnp", 64, seed, p=0.1)
        out, _, met = _run(g, luby_mis_program(), seed=seed)
        assert not any(f for _, f in out)
        members = [v for v, (m, _) in enumerate(out) if m]
        assert oracles.validate_mis(g, members)


def test_hmis_examples():
    h = random_uniform_hypergraph(6, 3, 2, 0)
    h_empty = type(h)(6, [])
    flags, _ = hmis_kmachine(h_empty, random_vertex_partition(h_empty, 2, 0))
    assert all(flags)
    h1 = type(h)(3, [(0, 1, 2)])
    flags1, _ = hmis_kmachine(h1, random_vertex_partition(h1, 2, 1))
    assert sum(flags1) == 2
    with pytest.raises(ValueError):
        hmis_kmachine(h1, random_vertex_partition(h1, 1, 1))
    for seed in range(8):
        hh = random_uniform_hypergraph(64, 128, 3, seed)
        flags2, rep = hmis_kmachine(hh, random_vertex_partition(hh, 4, seed))
        members = [v for v, f in enumerate(flags2) if f]
        assert oracles.validate_mis(hh, members)
        assert rep.bound_ok


# -- shortest paths ------------------------------------------------------------


def test_bellman_ford_path():
    g = Graph(3, [(0, 1, 5), (1, 2, 7)])
    out, _, _ = _run(g, bellman_ford_program(AlgoConfig(source=0)))
    assert [d for d, _ in out] == [0, 5, 12]
    assert [p for _, p in out] == [None, 0, 1]


def test_bellman_ford_relaxation():
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    out, _, _ = _run(g, bellman_ford_program(AlgoConfig(source=0)))
    assert out[2][0] == 2


def test_bellman_ford_matches_dijkstra():
    for seed in range(8):
        g = generate("random_weighted", 96, seed, p=0.3, wmax=100)
        out, _, met = _run(g, bellman_ford_program(AlgoConfig(source=0)), seed=seed)
        want, _ = oracles.single_source_distances(g, 0)
        got = [d for d, _ in out]
        assert all(
            (math.isinf(a) and math.isinf(b)) or a == b for a, b in zip(got, want)
        )
        hops = oracles.all_pairs_distances(g)[1]
        s = int(hops[np.isfinite(hops)].max())  # the shortest-path diameter
        assert met.broadcasts <= g.n * max(1, s) + g.n


@pytest.mark.parametrize("make", [bfs_program, bellman_ford_program])
@pytest.mark.parametrize("source", [-1, 6])
@pytest.mark.parametrize("reference", [False, True])
def test_a_source_off_the_graph_is_refused_on_both_paths(make, source, reference):
    # a negative source would index from the end in the kernel alone
    g = generate("path", 6, 0)
    with pytest.raises(ConfigError, match="source"):
        prog = make(AlgoConfig(source=source))
        _run(g, per_vertex_reference(prog) if reference else prog)


# -- spanners ------------------------------------------------------------------


def test_spanner_tree_is_kept_whole():
    g = generate("path", 16, 0)
    for delta in (1, 2, 4):
        out, _, _ = _run(g, spanner_program(AlgoConfig(delta=delta)), seed=delta)
        edges = spanner_union(out)
        assert set(edges) == {(u, v) for u, v, _ in g.edges}


def test_spanner_stretch_on_clique():
    g = generate("clique", 32, 0)
    out, _, _ = _run(g, spanner_program(AlgoConfig(delta=2)), seed=7)
    edges = spanner_union(out)
    sg = Graph(32, [(a, b, 1) for a, b in edges])
    d_sp, _ = oracles.all_pairs_distances(sg)
    assert d_sp.max() <= 3  # every input distance is 1, stretch cap 2*2-1


def test_spanner_subgraph_and_size():
    sizes = []
    for seed in range(50):
        g = generate("gnp", 128, seed, p=0.3)
        delta = 7  # ceil(log2 128)
        out, _, met = _run(g, spanner_program(AlgoConfig(delta=delta)), seed=seed)
        edges = spanner_union(out)
        gset = {(u, v) for u, v, _ in g.edges}
        assert set(edges) <= gset
        assert met.broadcasts <= g.n * delta * delta
        sizes.append(len(edges))
    mean = sum(sizes) / len(sizes)
    assert mean <= 4 * 7 * 128 ** (1 + 1 / 7)


def test_spanner_stretch_random():
    for seed in range(5):
        g = generate("gnp", 64, seed, p=0.15)
        delta = 3
        out, _, _ = _run(g, spanner_program(AlgoConfig(delta=delta)), seed=seed)
        sg = Graph(64, [(a, b, 1) for a, b in spanner_union(out)])
        d_in, _ = oracles.all_pairs_distances(g)
        d_sp, _ = oracles.all_pairs_distances(sg)
        finite = ~np.isinf(d_in)
        assert (d_sp[finite] <= (2 * delta - 1) * d_in[finite]).all()


def test_spanner_membership_fields_fit_their_bits():
    # each "m" broadcast declares 2L bits for (cluster, via); a stay that
    # sent via = -1 needed n + 1 values, one bit more when n is a power of two
    sent = []

    class _Recorded(_SpannerNode):
        def step(self, rnd, inbox):
            out = super().step(rnd, inbox)
            if isinstance(out, Broadcast) and out.payload[0] == "m":
                sent.append((self.ctx.node, out.payload[1:]))
            return out

    for n in (32, 64, 128):
        for delta in (2, math.ceil(math.log2(n))):
            sent.clear()
            g = generate("gnp", n, delta, p=0.15)
            _run(g, Program("spanner", lambda: _Recorded(delta)), seed=n + delta)
            assert all(0 <= x < n for _, fields in sent for x in fields)
            assert any(via == me for me, (_, via) in sent)  # some vertex stays


def _field(x, width):
    """x as a width-bit binary field; it must fit."""
    assert 0 <= x < 1 << width, (x, width)
    return format(x, f"0{width}b")


# a wire format per program: encode(round, payload, bits, L) -> bit string,
# decode(round, bit string, L) -> payload.  No tag bits: a receiver tells
# message kinds apart by round and length only.
_L_FIELDS = (lambda rnd, p, bits, L: "".join(_field(x, L) for x in p),
             lambda rnd, s, L: tuple(int(s[i:i + L], 2) for i in range(0, len(s), L)))
_CODECS = {
    # (id, dist, parent), L bits each
    "bfs": _L_FIELDS,
    # (id, dist): L bits of id, the rest of the message is dist
    "bf_sssp": (lambda rnd, p, bits, L: _field(p[0], L) + _field(p[1], bits - L),
                lambda rnd, s, L: (int(s[:L], 2), int(s[L:], 2))),
    # an odd round carries degrees in L bits, an even one 1-bit leaves
    "densest": (lambda rnd, p, bits, L: _field(p[1], L) if rnd % 2 else "1",
                lambda rnd, s, L: ("deg", int(s, 2)) if rnd % 2 else ("out",)),
    # an odd round carries a fragment label in L bits, an even one the
    # candidate (endpoint, w): L bits of endpoint, the rest of the message w
    "mst": (lambda rnd, p, bits, L:
            _field(p[0], L) + ("" if rnd % 2 else _field(p[1], bits - L)),
            lambda rnd, s, L:
            (int(s[:L], 2),) + (() if rnd % 2 else (int(s[L:], 2),))),
    # a mark round (rnd % 3 == 1) carries the active degree in L bits, a
    # resolve round a 1-bit win and a deactivate round a 1-bit out
    "mis": (lambda rnd, p, bits, L: _field(p[1], L) if rnd % 3 == 1 else "1",
            lambda rnd, s, L: (("mark", int(s, 2)), ("win",), ("out",))[(rnd - 1) % 3]),
    # labels, candidate endpoints and stverify's round-1 edge count: each
    # message is one L-bit field, whatever its round
    "conn": _L_FIELDS,
    "stverify": _L_FIELDS,
    # an (L+1)-bit unicast (vid, last): L bits of neighbour id and the last
    # flag; the 1-bit verdict broadcast ("tri", found)
    "triangle": (lambda rnd, p, bits, L: str(int(p[1])) if p[0] == "tri"
                 else _field(p[0], L) + str(int(p[1])),
                 lambda rnd, s, L: ("tri", s == "1") if len(s) == 1
                 else (int(s[:L], 2), s[L] == "1")),
    # one token multiplicity, in all of its declared bits
    "pagerank": (lambda rnd, p, bits, L: _field(p[0], bits),
                 lambda rnd, s, L: (int(s, 2),)),
    # an odd round carries the 1-bit coin, an even one the 1-bit drop or a
    # 2L-bit membership (cluster, via)
    "spanner": (lambda rnd, p, bits, L:
                "1" if p[0] != "m" else _field(p[1], L) + _field(p[2], L),
                lambda rnd, s, L: (("c",) if rnd % 2 else ("d",)) if len(s) == 1
                else ("m", int(s[:L], 2), int(s[L:], 2))),
}


@pytest.mark.parametrize("algorithm", sorted(_CODECS))
def test_reference_payload_fields_fit_their_bits(algorithm):
    encode, decode = _CODECS[algorithm]
    runs = [(inst, s) for a, inst, s in fidelity_instances(7) if a == algorithm]
    assert len(runs) == 20
    for inst, seed in runs:
        prog = ALGORITHMS[algorithm].program(inst, AlgoConfig())
        sent = []

        def node():
            vertex = prog.node()
            step = vertex.step

            def recorded(rnd, inbox):
                act = step(rnd, inbox)
                if isinstance(act, Broadcast):
                    sent.append((rnd, act.payload, act.bits))
                elif isinstance(act, Unicast):
                    sent.extend((rnd, payload, bits) for _, payload, bits in act.sends)
                return act

            vertex.step = recorded
            return vertex

        _run(inst.graph, Program(prog.name, node, budget=prog.budget), seed)
        assert sent
        L = label_bits(inst.graph.n)
        for rnd, payload, bits in sent:
            wire = encode(rnd, payload, bits, L)
            assert len(wire) <= bits
            assert decode(rnd, wire, L) == payload


def test_logapprox_paths():
    tree = generate("path", 24, 0)
    est, _, _ = logapprox_shortest_paths(tree, [random_vertex_partition(tree, 4, 1)], seed=1)
    d, _ = oracles.all_pairs_distances(tree)
    assert (np.asarray(est) == d).all()
    cyc = generate("cycle", 64, 0)
    est2, _, _ = logapprox_shortest_paths(cyc, [random_vertex_partition(cyc, 4, 2)], seed=2)
    d2, _ = oracles.all_pairs_distances(cyc)
    assert (np.asarray(est2) >= d2 - 1e-9).all()
    clique = generate("clique", 64, 0)
    part = random_vertex_partition(clique, 8, 3)
    est3, _, reports = logapprox_shortest_paths(clique, [part], seed=3)
    est3 = np.asarray(est3)
    d3, _ = oracles.all_pairs_distances(clique)
    bound = 2 * math.ceil(math.log2(64)) - 1
    off = ~np.eye(64, dtype=bool)
    assert (est3[off] <= bound * d3[off]).all()
    # shipping is charged: the whole run costs more than the spanner alone
    _, trace, _ = _run(clique, spanner_program(AlgoConfig(delta=6)), seed=3)
    spanner_only = convert_broadcast(trace, part, None)
    assert reports[8].km_rounds > spanner_only.km_rounds


# -- densest subgraph ----------------------------------------------------------


def test_densest_k4():
    g = generate("clique", 4, 0)
    out, _, _ = _run(g, densest_subgraph_program(AlgoConfig(eps=0.5)))
    density, member = out[0]
    opt, _ = oracles.brute_densest(g)
    assert density >= float(opt) / 3.0 - 1e-9
    assert density == 1.5  # peeling never cuts K4 below its own density


def test_densest_star():
    g = generate("star", 9, 0)
    out, _, _ = _run(g, densest_subgraph_program(AlgoConfig(eps=0.5)))
    opt, _ = oracles.brute_densest(g)
    assert out[0][0] >= float(opt) / 3.0 - 1e-9


def test_densest_random_guarantee():
    eps = 0.5
    for seed in range(20):
        g = generate("gnp", 6 + seed % 7, seed, p=0.5)
        out, _, met = _run(g, densest_subgraph_program(AlgoConfig(eps=eps)), seed=seed)
        opt, _ = oracles.brute_densest(g)
        assert out[0][0] >= float(opt) / (2 + 2 * eps) - 1e-9
        n = g.n
        assert met.broadcasts <= 2 * n * math.ceil(math.log(max(2, n), 1 + eps)) + n


def test_densest_edgeless():
    g = Graph(5, [])
    out, _, _ = _run(g, densest_subgraph_program(AlgoConfig()))
    assert all(o == (0.0, True) for o in out)


# -- triangles -----------------------------------------------------------------


def test_triangle_examples():
    assert _run(generate("clique", 3, 0), triangle_program())[0] == [True] * 3
    assert _run(generate("star", 6, 0), triangle_program())[0] == [False] * 6


def test_triangle_matches_oracle():
    for seed in range(10):
        g = generate("gnp", 64, seed, p=0.2)
        out, _, met = _run(g, triangle_program(), seed=seed)
        want = oracles.triangle_exists(g)
        assert all(o == want for o in out)
        assert met.comm_degree <= 2 * (g.n - 1)


# -- degenerate sizes ------------------------------------------------------------


def test_single_vertex_everything():
    g = Graph(1, [])
    assert _run(g, bfs_program(AlgoConfig()))[0] == [(0, None)]
    out, _, met = _run(g, mst_program())
    assert out == [((), True)] and met.rounds == 1
    assert _run(g, conn_program())[0] == [(1, True)]
    assert _run(g, st_verify_program(()))[0][0] == (True, 0, True)
    assert _run(g, triangle_program())[0] == [False]
    assert _run(g, densest_subgraph_program(AlgoConfig()))[0] == [(0.0, True)]
    pr = _run(g, pagerank_program(AlgoConfig(tokens_per_node=16)))[0]
    assert pr[0] == pytest.approx(0.15, rel=1e-9)  # gamma * 1/gamma * 16/16
    assert _run(g, luby_mis_program())[0] == [(True, False)]


def test_two_vertices_one_edge():
    g = Graph(2, [(0, 1, 7)])
    assert _run(g, triangle_program())[0] == [False, False]
    out, _, _ = _run(g, mst_program())
    assert all(edges == ((0, 1),) and sp for edges, sp in out)
    sp_out, _, _ = _run(g, spanner_program(AlgoConfig(delta=1)))
    assert spanner_union(sp_out) == [(0, 1)]


def test_mst_takes_the_widest_legal_weight_at_tiny_n():
    # at n = 2 weights reach inf_weight(2) - 1 = 14: an endpoint id and the
    # weight take 5 bits, within the cap of 6
    g = Graph(2, [(0, 1, inf_weight(2) - 1)])
    for prog in (mst_program(), per_vertex_reference(mst_program())):
        out, trace, _ = _run(g, prog)
        assert all(edges == ((0, 1),) and sp for edges, sp in out)
        assert max(int(bits.max()) for _, bits, *_ in trace.round_arrays()
                   if len(bits)) == 5 <= clique.payload_cap(2)


def test_stverify_empty_candidate():
    g = generate("path", 3, 0)
    out, _, _ = _run(g, st_verify_program(()))
    assert all(not o[0] for o in out)


def test_spanner_delta_above_log_n():
    g = generate("gnp", 16, 1, p=0.4)
    out, _, _ = _run(g, spanner_program(AlgoConfig(delta=10)), seed=4)
    edges = spanner_union(out)
    sg = Graph(16, [(a, b, 1) for a, b in edges]) if edges else Graph(16, [])
    d_in, _ = oracles.all_pairs_distances(g)
    d_sp, _ = oracles.all_pairs_distances(sg)
    finite = ~np.isinf(d_in)
    assert (d_sp[finite] <= 19 * d_in[finite]).all()


def test_mis_phase_budget_failure_flag():
    g = generate("clique", 12, 0)
    with mock.patch.object(mis, "default_phase_budget", return_value=1):
        out, _, _ = _run(g, luby_mis_program(), seed=1)
    # either phase 1 settled everyone or some vertex reports failure;
    # with one clique phase at least the losers must have given up
    assert any(f for _, f in out) or sum(m for m, _ in out) == 1


def test_zero_weight_edges():
    rng = np.random.default_rng(5)
    base = generate("gnp", 24, 77, p=0.25)
    g = Graph(24, [(u, v, int(rng.integers(0, 5))) for u, v, _ in base.edges])
    out, _, _ = _run(g, bellman_ford_program(AlgoConfig(source=0)), seed=1)
    want, _ = oracles.single_source_distances(g, 0)
    got = [d for d, _ in out]
    assert all(
        (math.isinf(a) and math.isinf(b)) or a == b for a, b in zip(got, want)
    )
    outm, _, _ = _run(g, mst_program(), seed=1)
    union = set()
    for e, _ in outm:
        union.update(e)
    assert union == oracles.minimum_spanning_forest(g)[1]


def test_hmis_arity_two_matches_graph_mis():
    for seed in range(5):
        h = random_uniform_hypergraph(40, 80, 2, 700 + seed)
        flags, _ = hmis_kmachine(h, random_vertex_partition(h, 5, seed))
        members = [v for v, f in enumerate(flags) if f]
        g = Graph(40, [(a, b, 1) for a, b in h.hyperedges])
        assert oracles.validate_mis(g, members)
