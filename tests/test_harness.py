import json
import subprocess
import sys

import numpy as np
import pytest

from kmachine.cli import main as cli_main
from kmachine.graphs import GraphError
from kmachine.harness import (
    CSV_HEADER,
    VALIDATORS,
    ExperimentConfig,
    HarnessError,
    Instance,
    config_from_mapping,
    fit_scaling,
    format_csv,
    rows_from_result,
    run_cell,
    run_experiment,
)
from kmachine.machines import ConversionError
from kmachine.programs import AlgoConfig, ConfigError


def test_csv_header_exact():
    assert CSV_HEADER == (
        "n,m,k,W,mode,algorithm,seed,T_C,M,B,Dprime,km_rounds,"
        "max_link_bits,max_machine_bits,success"
    )


def test_row_counting_and_success():
    cfg = ExperimentConfig(
        algorithm="mst", graph={"model": "cycle", "n": 64}, k=[2, 4], seeds=[1, 2]
    )
    rows = run_experiment(cfg)
    assert len(rows) == 4
    assert all(r["success"] for r in rows)
    assert [(r["k"], r["seed"]) for r in rows] == [(2, 1), (2, 2), (4, 1), (4, 2)]
    text = format_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER
    assert text.count("true") == 4


def test_bfs_disconnected_is_a_valid_output():
    cfg = ExperimentConfig(
        algorithm="bfs", graph={"model": "gnp", "n": 32, "p": 0.02}, k=[2], seeds=[5]
    )
    rows = run_experiment(cfg)
    assert all(r["success"] for r in rows)


def test_gamma_zero_rejected_before_running():
    with pytest.raises(ConfigError):
        config_from_mapping(
            {"algorithm": "pagerank", "model": "cycle", "n": 16, "gamma": 0.0}
        )


_GNP = {"algorithm": "mis", "model": "gnp", "n": 16, "p": 0.3}
_GADGET = {"algorithm": "mst", "gadget": "st_lower", "b": 8}
_HYPER = {"algorithm": "hmis", "n": 16}
_RW = {"algorithm": "mst", "model": "random_weighted", "n": 16, "p": 0.3, "wmax": 5}
_PR = {"algorithm": "pagerank", "model": "gnp", "n": 16, "p": 0.3}
_DENSE = {"algorithm": "densest", "model": "gnp", "n": 16, "p": 0.3}


@pytest.mark.parametrize("base, bad, error", [
    (_GNP, {"seeds": [1.5]}, HarnessError),
    (_GNP, {"seeds": ["3"]}, HarnessError),
    (_GNP, {"seeds": [2**63]}, HarnessError),
    (_GNP, {"seeds": [True]}, HarnessError),
    (_GNP, {"n": 16.0}, HarnessError),
    (_GADGET, {"b": 2.5}, HarnessError),
    (_HYPER, {"arity": 2.5}, HarnessError),
    (_HYPER, {"hyperedges": 2.5}, HarnessError),
    (_RW, {"wmax": 2.5}, HarnessError),
    (_GNP, {"p": "0.3"}, HarnessError),
    (_PR, {"gamma": None}, ConfigError),
    (_PR, {"gamma": "x"}, ConfigError),
    (_DENSE, {"eps": "x"}, ConfigError),
    (_DENSE, {"eps": True}, ConfigError),
    (_DENSE, {"eps": float("nan")}, ConfigError),
    (_HYPER, {"hyperedges": -3}, GraphError),
])
def test_bad_config_values_fail_as_config_errors(base, bad, error, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran on a bad config")

    monkeypatch.setattr("kmachine.harness.run_clique", no_engine)
    monkeypatch.setattr("kmachine.harness.hmis_kmachine", no_engine)
    with pytest.raises(error):
        run_experiment(config_from_mapping({**base, "k": [2], "seeds": [1], **bad}))


def test_seeds_at_the_ends_of_the_int64_range_are_accepted():
    config_from_mapping({**_GNP, "seeds": [-2**63, 2**63 - 1]})


def test_unknown_keys_rejected():
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "zap": 1})


def test_unknown_mode_rejected():
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "mode": "foo"})


@pytest.mark.parametrize("mode", ["p2p", "bcast"])
def test_hmis_rejects_a_mode(mode):
    doc = {"algorithm": "hmis", "n": 16, "hyperedges": 20, "arity": 3}
    config_from_mapping(doc)
    with pytest.raises(HarnessError):
        config_from_mapping({**doc, "mode": mode})


@pytest.mark.parametrize("k", [[1], [4, 1]])
def test_hmis_needs_two_machines_before_building(k, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("the instance was built")

    monkeypatch.setattr("kmachine.harness.build_instance", build)
    graph = {"n": 16, "hyperedges": 20, "arity": 3}
    with pytest.raises(HarnessError, match="at least 2 machines"):
        config_from_mapping({"algorithm": "hmis", **graph, "k": k})
    cfg = ExperimentConfig(algorithm="hmis", graph=graph, k=k, seeds=[0])
    with pytest.raises(HarnessError):
        run_cell(cfg, 0)


@pytest.mark.parametrize("mode", ["p2p", "bcast"])
def test_logsp_rejects_a_mode(mode):
    doc = {"algorithm": "logsp", "model": "gnp", "n": 16, "p": 0.3}
    config_from_mapping(doc)
    with pytest.raises(HarnessError):
        config_from_mapping({**doc, "mode": mode})


@pytest.mark.parametrize("W", [0, -3, 2.5, "8", True])
def test_bandwidth_must_be_a_positive_int(W):
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "W": W})


@pytest.mark.parametrize("k", [[2.5], [True], ["4"], [0], [2, -1]])
def test_machine_counts_must_be_positive_ints(k):
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "k": k})


def test_more_machines_than_vertices_rejected_before_running(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("kmachine.harness.run_clique", engine)
    cfg = ExperimentConfig(
        algorithm="bfs", graph={"model": "gnp", "n": 32, "p": 0.2}, k=[4, 40],
        seeds=[1],
    )
    with pytest.raises(ConversionError):
        run_cell(cfg, 1)


def test_bcast_pricing_of_a_unicast_algorithm_rejected_before_running(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("kmachine.harness.run_clique", engine)
    with pytest.raises(HarnessError):
        config_from_mapping(
            {"algorithm": "pagerank", "model": "cycle", "n": 16, "mode": "bcast"}
        )
    cfg = ExperimentConfig(
        algorithm="pagerank", graph={"model": "cycle", "n": 16}, k=[2], seeds=[0],
        mode="bcast",
    )
    with pytest.raises(HarnessError):
        run_cell(cfg, 0)


@pytest.mark.parametrize("algorithm, key, value", [
    ("bfs", "source", 1.5),
    ("bf_sssp", "source", True),
    ("pagerank", "tokens_per_node", 2.5),
    ("pagerank", "tokens_per_node", True),
    ("spanner", "delta", 2.5),
    ("mis", "mis_max_phases", 2.5),
])
def test_non_integer_algo_values_rejected_before_running(algorithm, key, value,
                                                         monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("kmachine.harness.run_clique", engine)
    cfg = ExperimentConfig(
        algorithm=algorithm, graph={"model": "gnp", "n": 32, "p": 0.2}, k=[2],
        seeds=[1], algo=AlgoConfig(**{key: value}),
    )
    with pytest.raises(ConfigError, match=f"{key} must be an int"):
        run_cell(cfg, 1)


def test_fit_exact_power_law():
    rows = [{"k": k, "km_rounds": 1000 // k} for k in (2, 4, 8) for _ in range(3)]
    fit = fit_scaling(rows, "k")
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_constant():
    rows = [{"k": k, "km_rounds": 77} for k in (2, 4, 8, 16)]
    fit = fit_scaling(rows, "k")
    assert fit.slope == pytest.approx(0.0, abs=1e-9)
    assert fit.r2 == 1.0


def test_fit_needs_three_points():
    rows = [{"k": k, "km_rounds": 5} for k in (2, 4)]
    with pytest.raises(HarnessError):
        fit_scaling(rows, "k")


def test_corrupted_tie_break_is_caught(monkeypatch):
    # break the program's edge ordering while the oracle keeps the true one;
    # ties on an unweighted cycle then pick a different tree
    import kmachine.programs.fragments as frag

    monkeypatch.setattr(
        frag, "merge_key",
        lambda u, v, w: (w, -np.minimum(u, v), -np.maximum(u, v)),
    )
    cfg = ExperimentConfig(
        algorithm="mst", graph={"model": "cycle", "n": 16}, k=[2], seeds=[3]
    )
    rows = run_experiment(cfg)
    assert not all(r["success"] for r in rows)


def test_run_experiment_deterministic():
    cfg = {"algorithm": "pagerank", "model": "gnp", "n": 48, "p": 0.2,
           "k": [2, 4], "seeds": [1, 2, 3]}
    a = format_csv(run_experiment(config_from_mapping(dict(cfg))))
    b = format_csv(run_experiment(config_from_mapping(dict(cfg))))
    assert a == b


def test_cli_run_and_overrides(tmp_path):
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({
        "algorithm": "mst", "model": "cycle", "n": 32, "k": [2], "seeds": [1],
    }))
    out = tmp_path / "rows.csv"
    rc = cli_main(["run", "--config", str(conf), "--k", "2,4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # override widened k to two values


def test_cli_sweep(tmp_path, capsys):
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({
        "algorithm": "mst", "model": "gnp", "n": 256, "p": 0.1,
        "k": [2, 4, 8], "seeds": [1, 2],
    }))
    out = tmp_path / "rows.csv"
    rc = cli_main(["sweep", "--config", str(conf), "--sweep", "k",
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "slope" in captured.err
    assert len(out.read_text().splitlines()) == 7


def test_cli_gen_roundtrip(tmp_path):
    out = tmp_path / "g.edges"
    rc = cli_main(["gen", "--model", "gnp", "--n", "40", "--seed", "3",
                   "--p", "0.2", "--out", str(out)])
    assert rc == 0
    from kmachine.graphs import generate, load_edge_list

    assert load_edge_list(out.read_text()) == generate("gnp", 40, 3, p=0.2)


def test_stverify_candidate_paths():
    yes = ExperimentConfig(
        algorithm="stverify", graph={"model": "gnp", "n": 40, "p": 0.2},
        k=[2], seeds=[2],  # even seed: real spanning forest candidate
    )
    rows = run_experiment(yes)
    assert all(r["success"] for r in rows)
    no = ExperimentConfig(
        algorithm="stverify", graph={"model": "gnp", "n": 40, "p": 0.2},
        k=[2], seeds=[3],  # odd seed: broken candidate
    )
    rows2 = run_experiment(no)
    assert all(r["success"] for r in rows2)  # oracle agrees it is not a tree


def test_run_sweep_over_sizes():
    from kmachine.harness import run_sweep

    cfg = config_from_mapping({
        "algorithm": "mst", "model": "gnp", "n": [64, 128, 256], "p": 0.1,
        "k": [4], "seeds": [1, 2],
    })
    rows = run_sweep(cfg, "n")
    assert sorted({r["n"] for r in rows}) == [64, 128, 256]
    fit = fit_scaling(rows, "n")
    assert fit.slope > 0  # bigger instances cost more rounds
    with pytest.raises(HarnessError):
        run_sweep(config_from_mapping({
            "algorithm": "mst", "model": "cycle", "n": 32, "k": [2], "seeds": [1],
        }), "n")


def test_cli_sweep_over_n(tmp_path, capsys):
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({
        "algorithm": "mst", "gadget": "st_lower", "b": [64, 128, 256],
        "k": [4], "seeds": [1],
    }))
    rc = cli_main(["sweep", "--config", str(conf), "--sweep", "n",
                   "--out", str(tmp_path / "rows.csv")])
    assert rc == 0
    assert "slope" in capsys.readouterr().err


# rows of a logsp cell and one hmis ledger, pinned before the pricing code
# was shared between the harness, the spanner pipeline and hmis; the logsp
# rows were re-pinned when the spanner's cluster coins became
# rng.uniform(seed, "coin", vertex, round)
LOGSP_ROWS = (
    "n,m,k,W,mode,algorithm,seed,T_C,M,B,Dprime,km_rounds,max_link_bits,"
    "max_machine_bits,success\n"
    "48,214,2,7,bcast,logsp,3,0,0,0,0,528,4699,4699,true\n"
    "48,214,4,7,bcast,logsp,3,0,0,0,0,295,2675,7693,true\n"
    "48,214,8,7,bcast,logsp,3,0,0,0,0,174,1795,10105,true\n"
)


def test_logsp_cell_runs_the_spanner_once(monkeypatch):
    import kmachine.clique as clique

    calls = []
    engine = clique.run_clique

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("seed"))
        return engine(*args, **kwargs)

    monkeypatch.setattr(clique, "run_clique", counted)
    monkeypatch.setattr("kmachine.programs.spanner.run_clique", counted, raising=False)
    cfg = ExperimentConfig(
        algorithm="logsp", graph={"model": "gnp", "n": 48, "p": 0.2},
        k=[4, 2, 8], seeds=[3], W=7,
    )
    res = run_cell(cfg, 3)
    assert calls == [3]
    assert format_csv(rows_from_result(res)) == LOGSP_ROWS


def test_hmis_ledger_matches_pinned_values():
    from kmachine.graphs import random_uniform_hypergraph
    from kmachine.programs import hmis_kmachine

    h = random_uniform_hypergraph(48, 96, 3, 5)
    flags, rep, part = hmis_kmachine(h, 4, seed=5)
    assert sum(flags) == 24
    assert (rep.n, rep.k, rep.W, rep.mode) == (48, 4, 6, "direct")
    assert (rep.km_rounds, rep.machine_rounds, rep.total_bits) == (73, 53, 1416)
    assert rep.per_link_bits.tolist() == [
        [0, 250, 250, 250], [250, 0, 222, 222], [250, 222, 0, 222], [250, 222, 222, 0]]
    assert rep.per_machine_bits.tolist() == [750, 694, 694, 694]
    assert rep.bound_rounds == 7985.102370422146
    assert rep.bound_ok and rep.success
    assert part.home.tolist()[:12] == [0, 1, 0, 0, 1, 0, 3, 0, 2, 2, 0, 0]


def _source_texts():
    from pathlib import Path

    import kmachine

    src = Path(kmachine.__file__).parent
    return {p: p.read_text() for p in src.rglob("*.py")}


def test_one_partition_derivation_and_one_report_builder():
    text = _source_texts()
    assert sum(t.count('"rvp"') for t in text.values()) == 1
    assert sum(t.count("SimReport(") for t in text.values()) == 1
    assert sum(t.count("machine_rounds +=") for t in text.values()) == 1
    assert not any("_cell_graph" in t for t in text.values())


def test_one_engine_driver_and_one_algorithm_table():
    text = _source_texts()
    assert sum(t.count("two messages to") for t in text.values()) == 1
    assert sum(t.count("raise RoundLimitExceeded(") for t in text.values()) == 1
    assert not any("BROADCAST_ONLY" in t or "_run_kernel" in t for t in text.values())
    # programs draw their own randomness: the engine builds no Random, and
    # no program reads one from its context
    (rng_text,) = [t for t in text.values() if "make_random(" in t]
    assert rng_text.count("make_random(") == rng_text.count("def make_random(") == 1
    assert not any(".rand(" in t for t in text.values())


def test_bellman_ford_broadcast_bound_holds_above_512():
    from kmachine.clique import CliqueMetrics
    from kmachine.graphs import generate

    g = generate("path", 600, 0)  # from vertex 0 the farthest is 599 hops
    outputs = [(d, None) for d in range(g.n)]
    bound = 600 * 599 + 600
    check = VALIDATORS["bf_sssp"]
    for broadcasts, want in ((bound, True), (bound + 1, False)):
        metrics = CliqueMetrics(1, 0, broadcasts, 0, 0, 0)
        ok, _ = check(Instance(graph=g), AlgoConfig(source=0), outputs, metrics)
        assert ok == want


def test_distance_checks_do_not_import_scipy_sparse(child_env):
    # csgraph costs ~25 MB of resident memory on first import, which the
    # oracles and the checks of the shortest-path cells avoid
    code = """
import sys
from kmachine import oracles
from kmachine.graphs import generate
from kmachine.harness import ExperimentConfig, run_cell
g = generate("random_weighted", 24, 1, p=0.3, wmax=9)
oracles.all_pairs_distances(g)
oracles.graph_stats(g)
for algorithm, spec in (
    ("bf_sssp", {"model": "random_weighted", "n": 24, "p": 0.3, "wmax": 9}),
    ("spanner", {"model": "gnp", "n": 32, "p": 0.3}),
    ("logsp", {"model": "gnp", "n": 32, "p": 0.3}),
):
    cfg = ExperimentConfig(algorithm=algorithm, graph=spec, k=[2], seeds=[1])
    assert run_cell(cfg, 1).valid, algorithm
assert "scipy.sparse" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=child_env)
    assert proc.returncode == 0, proc.stderr
