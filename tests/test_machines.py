import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmachine.clique import NONE, CliqueTrace, run_clique
from kmachine.graphs import Graph, generate, label_bits, random_uniform_hypergraph
from kmachine.machines import (
    ConversionError,
    Partition,
    broadcast_bound,
    check_mapping_bounds,
    convert_broadcast,
    convert_p2p,
    point_to_point_bound,
    price,
    random_vertex_partition,
    random_vertex_partitions,
    sim_report,
)
from kmachine.oracles import bfs_tree
from kmachine.programs import (
    AlgoConfig,
    bfs_program,
    hmis_kmachine,
    mst_program,
    pagerank_program,
)


def test_rvp_basics():
    g = Graph(1, [])
    part = random_vertex_partition(g, 1, 0)
    assert part.home.tolist() == [0]
    g2 = generate("cycle", 10, 0)
    a = random_vertex_partition(g2, 4, 3)
    b = random_vertex_partition(g2, 4, 3)
    assert (a.home == b.home).all()
    with pytest.raises(ConversionError):
        random_vertex_partition(g2, 0, 0)
    with pytest.raises(ConversionError):
        random_vertex_partition(g2, 11, 0)


def test_rvp_golden_digest():
    # homes re-pinned when a vertex's key became output v of the seed's
    # splitmix64 stream, in place of one hash per vertex
    h = hashlib.sha256()
    g = Graph(300, [])
    for k in (1, 2, 3, 7, 32, 300):
        for seed in (0, 11, -5, 2**40):
            h.update(random_vertex_partition(g, k, seed).home.astype("<i8").tobytes())
    assert h.hexdigest() == (
        "c2ec47e9aaf47c25a78788b9cc353d62c418905541fa0331529e46743430c975"
    )


def test_rvp_batch_equals_one_at_a_time():
    g = generate("gnp", 200, 1, p=0.05)
    for ks, seed in [((1,), 0), ((2, 4, 8, 16, 32), 9), ((7, 3, 7, 200), -4)]:
        parts = random_vertex_partitions(g, ks, seed)
        assert len(parts) == len(ks)
        for k, part in zip(ks, parts):
            one = random_vertex_partition(g, k, seed)
            assert part.k == one.k == k
            assert part.home.dtype == one.home.dtype == np.int64
            assert (part.home == one.home).all()


def test_rvp_nested_machine_counts_share_homes():
    # for k | K, machine p of k is the union of K's machines p' = p (mod k)
    g = Graph(500, [])
    for seed in (0, 7, -3):
        parts = random_vertex_partitions(g, (1, 2, 3, 4, 6, 8, 12, 24, 32), seed)
        for small in parts:
            for big in parts:
                if big.k % small.k == 0:
                    assert (small.home == big.home % small.k).all()


def test_rvp_batch_rejects_a_bad_k_before_hashing(monkeypatch):
    def no_hashing(*args):
        raise AssertionError("keys derived before every k was checked")

    monkeypatch.setattr("kmachine.machines.derive_each", no_hashing)
    g = Graph(10, [])
    for ks in ([0], [2, 11], [4, 2, -1, 3]):
        with pytest.raises(ConversionError):
            random_vertex_partitions(g, ks, 0)


@pytest.mark.parametrize("k", [2.5, True, np.int64(2), "2", None])
def test_rvp_refuses_a_machine_count_that_is_not_an_int(k):
    with pytest.raises(ConversionError, match="machine count must be an int"):
        random_vertex_partitions(Graph(8, []), [2, k], 1)


def test_rvp_refuses_a_seed_outside_int64():
    for seed in (2**63, -2**63 - 1):
        with pytest.raises(ValueError, match=str(seed)):
            random_vertex_partitions(Graph(8, []), [2], seed)


def test_rvp_concentration():
    # 100 partitions of 10000 vertices over 10 machines: every machine count
    # stays within 1000 +- 5*sqrt(1000)
    g = Graph(10000, [])
    slack = 5 * math.sqrt(1000)
    for seed in range(100):
        counts = random_vertex_partition(g, 10, seed).machine_counts()
        assert counts.sum() == 10000
        assert (np.abs(counts - 1000) <= slack).all()


def test_mapping_two_vertices():
    g = Graph(2, [(0, 1, 1)])
    part = Partition(k=2, home=np.array([0, 1]))
    assert check_mapping_bounds(g, part) == (1, 1)


def test_mapping_monte_carlo_small():
    n, k = 256, 4
    for seed in range(10):
        g = generate("gnp", n, seed, p=0.1)
        part = random_vertex_partition(g, k, seed)
        mv, me = check_mapping_bounds(g, part)
        assert mv <= 4 * n / k
        assert me <= 8 * math.log2(n) * (g.m / k**2 + g.max_degree() / k)


@st.composite
def _placed_graph(draw):
    """(graph, partition) on 1..40 vertices, any edge set and any homes."""
    n = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(v, u, 1) if draw(st.booleans()) else (u, v, 1) for u, v in picked]
    k = draw(st.integers(1, n))
    home = draw(st.one_of(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
        st.integers(0, k - 1).map(lambda p: [p] * n),  # every vertex on one machine
    ))
    return Graph(n, edges), Partition(k=k, home=np.array(home, dtype=np.int64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_placed_graph())
def test_mapping_bounds_match_a_per_edge_count(case):
    g, part = case
    home = part.home.tolist()
    links = Counter()
    for u, v, _ in g.edges:
        if home[u] != home[v]:
            links[frozenset((home[u], home[v]))] += 1
    want = (max(Counter(home).values()), max(links.values(), default=0))
    assert check_mapping_bounds(g, part) == want


def test_mapping_bounds_golden():
    # pinned before the link count moved to one bincount over every edge;
    # re-pinned when the homes became splitmix64 stream outputs
    got = []
    for seed in (0, 1, 2):
        g = generate("gnp", 2048, seed, p=0.1)
        for part in random_vertex_partitions(g, (4, 8, 16), seed):
            got.append(check_mapping_bounds(g, part))
    assert got == [
        (545, 28105), (282, 7627), (145, 2037),
        (553, 28431), (278, 7593), (148, 2079),
        (549, 28837), (289, 8040), (155, 2319),
    ]


def _single_unicast_trace(n, bits):
    tr = CliqueTrace(n)
    tr.append_arrays(NONE, NONE, np.array([0]), np.array([1]), np.array([bits]))
    return tr


def test_p2p_charging_rule():
    tr = _single_unicast_trace(16, 8)
    cross = Partition(k=4, home=np.array([0, 1] + [2] * 14))
    assert convert_p2p(tr, cross, 16).km_rounds == 1  # ceil((8+8)/16)
    assert convert_p2p(tr, cross, 15).km_rounds == 2
    local = Partition(k=4, home=np.zeros(16, dtype=np.int64))
    assert convert_p2p(tr, local, 16).km_rounds == 0


def test_broadcast_charging_rule():
    tr = CliqueTrace(16)
    tr.append_arrays(np.array([0]), np.array([8]), NONE, NONE, NONE)
    part = Partition(k=4, home=np.arange(16) % 4)
    rep = convert_broadcast(tr, part, 16)
    assert rep.km_rounds == 1
    assert rep.max_link_bits == 12  # 8 payload + 4 source id bits
    empty = CliqueTrace(16)
    for _ in range(5):
        empty.append_arrays(NONE, NONE, NONE, NONE, NONE)
    assert convert_broadcast(empty, part, 16).km_rounds == 0
    with pytest.raises(ConversionError):
        convert_broadcast(_single_unicast_trace(16, 8), part, 16)


def test_broadcast_charges_only_machines_with_vertices():
    # one 8-bit broadcast plus a 2-bit source id: no copy goes to a machine
    # that hosts no vertex, so with every vertex on machine 0 nothing is paid
    tr = CliqueTrace(4)
    tr.append_arrays(np.array([0]), np.array([8]), NONE, NONE, NONE)
    alone = Partition(k=4, home=np.zeros(4, dtype=np.int64))
    rep = convert_broadcast(tr, alone, 4)
    assert (rep.km_rounds, rep.total_bits) == (0, 0)
    two = Partition(k=4, home=np.array([0, 0, 1, 1]))
    rep = convert_broadcast(tr, two, 4)
    assert (rep.km_rounds, rep.total_bits) == (3, 10)  # ceil(10/4), link 0->1 only
    assert rep.per_link_bits[0].tolist() == [0, 10, 0, 0]


def _load(k, bits_by_link):
    load = np.zeros((k, k), dtype=np.int64)
    for (p, q), bits in bits_by_link.items():
        load[p, q] = bits
    return load


ALL_TO_ALL = {(p, q): 3 for p in range(4) for q in range(4) if p != q}


# (k, W, per-round loads, km_rounds, per_link_bits, per_machine_bits); a
# round costs ceil(max link / W) km_rounds
SIM_REPORT_TABLE = [
    (2, 5, [], 0, [[0, 0], [0, 0]], [0, 0]),
    (1, 5, [_load(1, {})], 0, [[0]], [0]),
    # all-to-all exchange: 3 bits per link, 18 bits per machine
    (4, 6, [_load(4, ALL_TO_ALL)], 1,
     [[0, 6, 6, 6], [6, 0, 6, 6], [6, 6, 0, 6], [6, 6, 6, 0]], [18] * 4),
    # forwarding step with a single receiver: machine 1 sends 7 bits on
    # each of three links
    (4, 6, [_load(4, {(1, 0): 7, (1, 2): 7, (1, 3): 7})], 2,
     [[0, 7, 0, 0], [7, 0, 7, 7], [0, 7, 0, 0], [0, 7, 0, 0]], [7, 21, 7, 7]),
    # two rounds: 50 bits on one link, then 10 and 13 bits on two others
    (4, 6, [_load(4, {(0, 1): 50}), _load(4, {(1, 0): 10, (2, 3): 13})], 9 + 3,
     [[0, 60, 0, 0], [60, 0, 0, 0], [0, 0, 0, 13], [0, 0, 13, 0]], [60, 60, 13, 13]),
]


@pytest.mark.parametrize(
    "k, W, loads, km, links, machines", SIM_REPORT_TABLE,
    ids=["no-rounds", "one-machine", "all-to-all", "one-receiver-forward", "two-rounds"])
def test_sim_report_charges_each_round_by_its_worst_link(k, W, loads, km, links, machines):
    part = Partition(k=k, home=np.arange(k))
    rep = sim_report(k, part, W, "direct", iter(loads), 10.0)
    assert rep.km_rounds == km
    assert rep.per_link_bits.tolist() == links
    assert rep.per_machine_bits.tolist() == machines
    assert rep.total_bits == sum(machines) // 2
    assert rep.bound_ok == (km <= 10)


def test_sim_report_charges_a_block_round_by_round():
    # one (R, k, k) block costs what its rounds cost one by one; a W past
    # int64 still prices, every loaded round at one round
    part = Partition(k=4, home=np.arange(4))
    loads = [_load(4, {(0, 1): 50}), _load(4, {}), _load(4, {(1, 0): 10, (2, 3): 13})]
    for W, km in [(6, 12), (2**70, 2)]:
        reports = [sim_report(4, part, W, "direct", blocks, 10.0)
                   for blocks in (iter(loads), iter([np.stack(loads)]))]
        for rep in reports:
            assert rep.km_rounds == km
            assert rep.per_link_bits.tolist() == reports[0].per_link_bits.tolist()


def test_ledger_conservation():
    g = generate("gnp", 64, 2, p=0.2)
    _, trace, _ = run_clique(g, pagerank_program(AlgoConfig()), seed=2)
    part = random_vertex_partition(g, 4, 2)
    rep = convert_p2p(trace, part, 8)
    # independent total: every cross-machine unicast pays bits + header
    hdr = 2 * label_bits(g.n)
    want = 0
    for _, _, us, ud, ub in trace.round_arrays():
        for src, dst, bits in zip(us.tolist(), ud.tolist(), ub.tolist()):
            if part.home[src] != part.home[dst]:
                want += bits + hdr
    assert rep.total_bits == want
    assert rep.per_link_bits.sum() == 2 * want  # symmetric ledger
    assert (np.diag(rep.per_link_bits) == 0).all()
    assert rep.per_machine_bits.sum() == 2 * want


def test_identity_partition_matches_per_node_loads():
    g = generate("gnp", 24, 5, p=0.25)
    _, trace, _ = run_clique(g, pagerank_program(AlgoConfig()), seed=5)
    n = g.n
    part = Partition(k=n, home=np.arange(n))
    rep = convert_p2p(trace, part, 8)
    hdr = 2 * label_bits(n)
    want = np.zeros((n, n), dtype=np.int64)
    for _, _, us, ud, ub in trace.round_arrays():
        for src, dst, bits in zip(us.tolist(), ud.tolist(), ub.tolist()):
            want[src, dst] += bits + hdr
    assert (rep.per_link_bits == want + want.T).all()


def test_w_monotonicity():
    g = generate("gnp", 48, 1, p=0.2)
    _, trace, _ = run_clique(g, mst_program(), seed=1)
    part = random_vertex_partition(g, 4, 1)
    rounds = [convert_broadcast(trace, part, W).km_rounds for W in (1, 2, 4, 8, 16, 32)]
    assert rounds == sorted(rounds, reverse=True)


def test_explicit_bounds_hold():
    g = generate("gnp", 64, 7, p=0.15)
    for prog, mode in ((mst_program(), "bcast"), (pagerank_program(AlgoConfig()), "p2p")):
        _, trace, met = run_clique(g, prog, seed=7)
        part = random_vertex_partition(g, 8, 7)
        if mode == "bcast":
            rep = convert_broadcast(trace, part, 6)
            assert rep.km_rounds <= broadcast_bound(g.n, 8, 6, met)
        else:
            rep = convert_p2p(trace, part, 6)
            assert rep.km_rounds <= point_to_point_bound(g.n, 8, 6, met)
        assert rep.bound_ok


def test_bfs_distances_match_bfs_tree():
    g = generate("cycle", 32, 0)
    out, _, _ = run_clique(g, bfs_program(AlgoConfig()), seed=6)
    assert [d for d, _ in out] == bfs_tree(g, 0)[0]


def test_mst_rounds_decrease_with_k():
    g = generate("gnp", 256, 3, p=0.1)
    _, trace, _ = run_clique(g, mst_program(), seed=3)
    rounds = []
    for k in (2, 4, 8, 16):
        part = random_vertex_partition(g, k, 3)
        rounds.append(convert_broadcast(trace, part, label_bits(g.n)).km_rounds)
    assert rounds == sorted(rounds, reverse=True)
    assert rounds[0] > rounds[-1]


def test_dedup_never_beats_expansion():
    # pricing a broadcast-only trace with per-machine deduplication can
    # never cost more rounds than expanding the broadcasts to unicasts
    for seed in range(5):
        g = generate("gnp", 64, 100 + seed, p=0.15)
        _, trace, _ = run_clique(g, mst_program(), seed=seed)
        part = random_vertex_partition(g, 6, seed)
        assert (
            convert_broadcast(trace, part, 6).km_rounds
            <= convert_p2p(trace, part, 6).km_rounds
        )


def test_one_machine_costs_nothing_in_either_mode():
    # a single machine has no links: nothing crosses one, whatever the mode
    g = generate("gnp", 32, 1, p=0.2)
    _, trace, _ = run_clique(g, bfs_program(AlgoConfig()), seed=1)
    part = random_vertex_partition(g, 1, 1)
    for convert in (convert_p2p, convert_broadcast):
        rep = convert(trace, part, 5)
        assert (rep.km_rounds, rep.total_bits) == (0, 0)
        assert rep.max_link_bits == rep.max_machine_bits == 0


def test_price_dispatches_and_defaults_bandwidth():
    g = generate("gnp", 48, 1, p=0.2)
    _, trace, _ = run_clique(g, mst_program(), seed=1)
    part = random_vertex_partition(g, 4, 1)
    for mode, convert in (("p2p", convert_p2p), ("bcast", convert_broadcast)):
        rep = price(trace, part, mode=mode)
        want = convert(trace, part, label_bits(g.n))
        assert rep.mode == mode and rep.W == label_bits(g.n)
        assert (rep.km_rounds, rep.total_bits) == (want.km_rounds, want.total_bits)
        assert (rep.per_link_bits == want.per_link_bits).all()
    with pytest.raises(ConversionError):
        price(trace, part, mode="direct")
    with pytest.raises(ConversionError):
        price(trace, part, 0, mode="bcast")


def _bad_homes():
    """(name, trace, mode, home) on generate("gnp", 16, 1, p=0.4) at k = 2,
    each home one that used to raise a raw numpy error from the pricer."""
    g = generate("gnp", 16, 1, p=0.4)
    _, bfs, _ = run_clique(g, bfs_program(AlgoConfig()), 1)
    _, walk, _ = run_clique(g, pagerank_program(AlgoConfig()), 1)
    home = random_vertex_partition(g, 2, 1).home
    off = home.copy()
    off[0] = 2
    negative = home.copy()
    negative[3] = -1
    return [
        *((f"machine_2_{mode}", bfs, mode, off) for mode in ("p2p", "bcast")),
        ("pagerank_on_machine_3", walk, "p2p", np.array([0, 3] * 8)),
        *((f"negative_{mode}", bfs, mode, negative) for mode in ("p2p", "bcast")),
        ("short", bfs, "p2p", home[:15]),
        ("float", bfs, "bcast", home.astype(float)),
        ("list", bfs, "p2p", home.tolist()),
    ]


@pytest.mark.parametrize("case", _bad_homes(), ids=lambda case: case[0])
def test_price_refuses_a_bad_home_before_reading_a_message(case, monkeypatch):
    _, trace, mode, home = case

    def unread(self):
        raise AssertionError("a message was read")

    monkeypatch.setattr(CliqueTrace, "round_arrays", unread)
    with pytest.raises(ConversionError, match="home"):
        price(trace, Partition(k=2, home=home), mode=mode)


PLACED = {
    "check_mapping_bounds": lambda part: check_mapping_bounds(
        generate("gnp", 16, 1, p=0.4), part),
    "hmis_kmachine": lambda part: hmis_kmachine(random_uniform_hypergraph(16, 20, 3, 1), part),
}


@pytest.mark.parametrize("case", _bad_homes(), ids=lambda case: case[0])
@pytest.mark.parametrize("place", PLACED.values(), ids=PLACED)
def test_placements_refuse_a_bad_home(place, case):
    # the pricer's bad homes, each of which the placement statistics and
    # hmis also met with a raw numpy error
    *_, home = case
    with pytest.raises(ConversionError, match="home"):
        place(Partition(k=2, home=home))


def test_hmis_refuses_one_machine_before_reading_a_home():
    h = random_uniform_hypergraph(16, 20, 3, 1)
    with pytest.raises(ValueError, match="at least 2 machines") as error:
        hmis_kmachine(h, Partition(k=1, home=np.array([0, 2] * 8)))
    assert not isinstance(error.value, ConversionError)
