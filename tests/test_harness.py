import ast
import inspect
import json
import math
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from kmachine.cli import main as cli_main
from kmachine.clique import run_clique
from kmachine.graphs import Graph, GraphError, inf_weight
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
from kmachine.programs import ALGORITHMS, AlgoConfig, ConfigError


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


@pytest.mark.parametrize("algorithm", ["mst", "conn", "stverify"])
@pytest.mark.parametrize("gadget", ["st_lower", "stverify", "conn"])
@pytest.mark.parametrize("feasible", [True, False, None])
def test_gadget_bits_are_checked_only_against_the_algorithm_they_decide(
        algorithm, gadget, feasible):
    graph = {"gadget": gadget, "b": 4}
    if feasible is not None:
        graph["feasible"] = feasible
    cfg = ExperimentConfig(algorithm=algorithm, graph=graph, k=[2], seeds=[0, 1, 2, 3])
    assert all(r["success"] for r in run_experiment(cfg))


def test_stverify_on_a_file_graph_checks_a_proposed_candidate(tmp_path):
    path = tmp_path / "path.edges"
    path.write_text("n 4\n0 1 1\n1 2 1\n2 3 1\n")  # a spanning tree
    cfg = ExperimentConfig(algorithm="stverify", graph={"file": str(path)}, k=[2],
                           seeds=[0, 1, 2, 3])
    assert all(r["success"] for r in run_experiment(cfg))


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
_LOGSP_RW = {"algorithm": "logsp", "model": "random_weighted", "n": 16, "p": 0.3, "wmax": 5}
_FILE = {"algorithm": "mst", "file": "g.edges"}
# graph specs refused before anything runs, each with the start of its message
_BAD_GRAPH_SPECS = [
    ({"algorithm": "mst", "model": "cycle"}, "the graph spec needs n"),
    ({"algorithm": "conn", "gadget": "conn"}, "the graph spec needs b"),
    ({"algorithm": "mst", "n": 16}, "the graph spec needs model"),
    ({**_GADGET, "gadget": "ladder"}, "unknown gadget 'ladder'"),
    ({**_FILE, "file": "missing.edges"}, "cannot read graph file 'missing.edges'"),
    ({**_GNP, "b": 8}, "mis runs on a graph and reads no graph b"),
    ({**_GNP, "wmax": 5}, "mis runs on a graph and reads no graph wmax"),
    ({**_GNP, "feasible": True}, "mis runs on a graph and reads no graph feasible"),
    ({"algorithm": "mst", "model": "path", "n": 16, "p": 0.3},
     "mst runs on a graph and reads no graph p"),
    ({**_GADGET, "n": 16}, "mst runs on a graph and reads no graph n"),
    ({**_FILE, "model": "gnp", "n": 16}, "mst runs on a graph and reads no graph model, n"),
    ({**_GADGET, "feasible": "yes"}, "graph feasible must be a bool"),
    ({"algorithm": "mst", "model": "hyper", "n": 16}, "unknown model 'hyper'"),
    ({"algorithm": "mst", "model": "gadget", "n": 16}, "unknown model 'gadget'"),
    ({"algorithm": "mst", "model": "gnpx", "n": 16, "p": 0.3}, "unknown model 'gnpx'"),
    ({**_FILE, "file": 0}, "graph file must be a string, got 0"),
]
# parameters no cell of the algorithm reads, and hyper values other than true
_UNREAD_PARAMS = [
    ({**_GNP, "algorithm": "mst", "gamma": 0.9, "delta": 9}, "mst reads no delta, gamma"),
    ({**_GNP, "algorithm": "logsp", "delta": 3}, "logsp reads no delta"),
    ({**_PR, "source": 3}, "pagerank reads no source (it reads gamma, tokens_per_node)"),
    ({**_GNP, "eps": 0.25}, "mis reads no eps"),
    ({**_HYPER, "delta": 4}, "hmis reads no delta"),
    ({**_HYPER, "hyper": "no"}, "graph hyper marks a hypergraph and can only be true"),
    ({**_HYPER, "hyper": False}, "graph hyper marks a hypergraph and can only be true"),
    ({**_HYPER, "hyper": 1}, "graph hyper marks a hypergraph and can only be true"),
]


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
    (_GADGET, {"b": -3}, GraphError),
    # hmis builds its own hypergraph: a graph key it would not read is refused
    (_HYPER, {"file": "g.edges"}, HarnessError),
    (_HYPER, {"gadget": "conn", "b": 8}, HarnessError),
    (_HYPER, {"model": "gnp", "p": 0.3}, HarnessError),
    (_HYPER, {"wmax": 5}, HarnessError),
    (_HYPER, {"feasible": True}, HarnessError),
    (_LOGSP_RW, {}, ConfigError),
    # a graph algorithm reads no hypergraph key
    ({**_RW, "algorithm": "mst"}, {"arity": 3, "hyperedges": 40}, HarnessError),
    ({**_GNP, "algorithm": "logsp"}, {"arity": 3}, HarnessError),
    *[(doc, {}, HarnessError) for doc, _ in _BAD_GRAPH_SPECS + _UNREAD_PARAMS],
])
def test_bad_config_values_fail_as_config_errors(base, bad, error, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran on a bad config")

    monkeypatch.setattr("kmachine.programs.run_clique", no_engine)
    monkeypatch.setattr("kmachine.programs.hmis_kmachine", no_engine)
    monkeypatch.setattr("kmachine.programs.spanner.run_clique", no_engine)
    with pytest.raises(error):
        run_experiment(config_from_mapping({**base, "k": [2], "seeds": [1], **bad}))


@pytest.mark.parametrize("graph", [
    {"hyper": True, "n": 16},
    {"model": "gnp", "n": 16, "p": 0.3, "hyper": False},
    {"model": "gnp", "n": 16, "p": 0.3, "hyperedges": 40},
])
def test_hypergraph_keys_on_a_graph_algorithm_fail_before_running(graph, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran on a bad config")

    monkeypatch.setattr("kmachine.programs.run_clique", no_engine)
    monkeypatch.setattr("kmachine.harness.random_uniform_hypergraph", no_engine)
    cfg = ExperimentConfig(algorithm="mst", graph=graph, k=[2], seeds=[1])
    with pytest.raises(HarnessError, match="mst runs on a graph and reads no graph hyper"):
        run_cell(cfg, 1)


@pytest.mark.parametrize("doc", [
    {**_GNP, "n": [16, 32]},
    {**_HYPER, "n": [16, 32]},
    {"algorithm": "conn", "gadget": "conn", "b": [8, 16]},
])
def test_a_list_of_sizes_is_refused_by_run_cell(doc):
    cfg = config_from_mapping({**doc, "k": [2], "seeds": [1]})
    key = "b" if "b" in doc else "n"
    with pytest.raises(HarnessError, match=f"^graph {key} is a list of sizes; a cell runs one$"):
        run_cell(cfg, 1)
    assert len(run_experiment(cfg)) == 2  # one row for each size


_AXIS_REFUSALS = [
    pytest.param({**_GNP, "seeds": [1, 1]}, "seed=1 is listed twice", id="seeds_repeated"),
    pytest.param({**_GNP, "n": [32, 32, 64, 128]}, "graph n=32 is listed twice",
                 id="n_repeated"),
    pytest.param({**_GNP, "n": []}, "need at least one graph n", id="n_empty"),
    pytest.param({"algorithm": "conn", "gadget": "conn", "b": [8, 16, 8]},
                 "graph b=8 is listed twice", id="b_repeated"),
    pytest.param({**_GNP, "k": []}, "need at least one machine count k", id="k_empty"),
    pytest.param({**_GNP, "seeds": []}, "need at least one seed", id="seeds_empty"),
]


@pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "n"]])
@pytest.mark.parametrize("doc, message", _AXIS_REFUSALS)
def test_a_missing_or_repeated_axis_value_is_refused_before_the_engine(
        command, doc, message, tmp_path, capsys, monkeypatch):
    # each value of k, seeds and n (or b) gives its cells once: a repeat
    # would write rows twice and bias a fit's medians
    def build(*args, **kwargs):
        raise AssertionError("the instance was built")

    monkeypatch.setattr("kmachine.harness.build_instance", build)
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    rc = cli_main([*command, "--config", str(conf), "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out, out.exists()) == (2, "", False)
    assert captured.err == f"kmachine: error: {message}\n"


@pytest.mark.parametrize("command", [["run"], ["sweep", "--sweep", "n"]])
def test_a_size_list_hits_a_refusal_of_its_smallest_size_before_the_engine(
        command, tmp_path, capsys, monkeypatch):
    # sizes run smallest first, so a source past n = 16 is refused before
    # the n = 64 and n = 128 cells run
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("kmachine.programs.run_clique", no_engine)
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({"algorithm": "bfs", "model": "gnp", "n": [64, 128, 16],
                                "p": 0.2, "k": [2], "seeds": [1], "source": 40}))
    rc = cli_main([*command, "--config", str(conf)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == "kmachine: error: source 40 out of range for n=16\n"


_PARAM_SHAPES = {"hmis": {"n": 16}, "stverify": {"gadget": "stverify", "b": 8}}
_OTHER_PARAMS = {"source": 1, "gamma": 0.3, "tokens_per_node": 5, "eps": 0.25,
                 "delta": 3}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_an_algorithm_takes_exactly_the_parameters_it_reads(algorithm):
    graph = _PARAM_SHAPES.get(algorithm, {"model": "gnp", "n": 16, "p": 0.3})
    reads = {
        "bfs": ["source"], "bf_sssp": ["source"], "pagerank": ["gamma", "tokens_per_node"],
        "spanner": ["delta"], "densest": ["eps"],
    }.get(algorithm, [])
    assert list(ALGORITHMS[algorithm].reads) == reads
    for name, value in _OTHER_PARAMS.items():
        cfg = ExperimentConfig(algorithm=algorithm, graph=graph, k=[2], seeds=[1],
                               algo=AlgoConfig(**{name: value}))
        if name in reads:
            cfg.validate()
        else:
            with pytest.raises(HarnessError, match=f"{algorithm} reads no {name}"):
                cfg.validate()
        # a default value, even if given, is what every cell reads
        default = AlgoConfig(**{name: getattr(AlgoConfig(), name)})
        replace(cfg, algo=default).validate()


def test_every_algo_config_field_has_a_reader():
    read = {name for entry in ALGORITHMS.values() for name in entry.reads}
    assert read == {f.name for f in fields(AlgoConfig)}


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
    assert config_from_mapping({**doc, "hyper": True}).graph["hyper"] is True
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


@pytest.mark.parametrize("doc", [
    pytest.param({"algorithm": "mst", "model": "gnp", "n": 32, "p": 0.2}, id="mst"),
    pytest.param({"algorithm": "hmis", "n": 16, "hyperedges": 20, "arity": 3}, id="hmis"),
    pytest.param({"algorithm": "logsp", "model": "gnp", "n": 16, "p": 0.3}, id="logsp"),
])
def test_a_repeated_machine_count_is_refused_before_the_engine(doc, tmp_path, capsys,
                                                               monkeypatch):
    # a cell keys its reports by k, so a repeated k would price one row twice
    # and write it once
    def build(*args, **kwargs):
        raise AssertionError("the instance was built")

    monkeypatch.setattr("kmachine.harness.build_instance", build)
    with pytest.raises(HarnessError, match="^machine count k=4 is listed twice$"):
        config_from_mapping({**doc, "k": [4, 4, 2]})
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({**doc, "k": [2, 4, 2]}))
    rc = cli_main(["run", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "kmachine: error: machine count k=2 is listed twice\n"


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


@pytest.mark.parametrize("algorithm, graph", [
    ("bfs", {"model": "gnp", "n": 32, "p": 0.2}),
    ("hmis", {"n": 32}),
])
def test_more_machines_than_vertices_rejected_before_running(algorithm, graph,
                                                             monkeypatch):
    import kmachine.programs as programs

    calls = []

    def spy(real):
        def run(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return run

    for name in ("run_clique", "hmis_kmachine"):
        monkeypatch.setattr(programs, name, spy(getattr(programs, name)))
    cfg = ExperimentConfig(algorithm=algorithm, graph=graph, k=[4, 40], seeds=[1])
    with pytest.raises(ConversionError):
        run_cell(cfg, 1)
    assert calls == []  # every k is placed before anything runs


def test_bcast_pricing_of_a_unicast_algorithm_rejected_before_running(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("kmachine.programs.run_clique", engine)
    # an algorithm fixes its own pricing mode: a config cannot name one
    with pytest.raises(HarnessError, match=re.escape("unknown config keys: ['mode']")):
        config_from_mapping(
            {"algorithm": "pagerank", "model": "cycle", "n": 16, "mode": "bcast"}
        )


@pytest.mark.parametrize("algorithm, key, value", [
    ("bfs", "source", 1.5),
    ("bf_sssp", "source", True),
    ("pagerank", "tokens_per_node", 2.5),
    ("pagerank", "tokens_per_node", True),
    ("spanner", "delta", 2.5),
])
def test_non_integer_algo_values_rejected_before_running(algorithm, key, value,
                                                         monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("kmachine.programs.run_clique", engine)
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


def test_fit_refuses_a_zero_cost():
    rows = [{"k": k, "km_rounds": c} for k, c in ((1, 0), (1, 3), (1, 0), (2, 8), (4, 4))]
    with pytest.raises(HarnessError, match="the median km_rounds at k=1 is 0; "
                                           "a log-log fit needs positive costs"):
        fit_scaling(rows, "k")
    rows[2]["km_rounds"] = 1  # a positive median fits
    assert fit_scaling(rows, "k").points[0] == (1, 1)


def test_fit_recovers_both_exponents_of_a_power_law():
    rows = [{"n": n, "k": k, "km_rounds": 3 * n**1.5 * k**-0.75}
            for n in (64, 128, 256, 512) for k in (2, 4, 8) for _ in range(2)]
    for sweep, a, b in (("n", 1.5, -0.75), ("k", -0.75, 1.5)):
        fit = fit_scaling(rows, sweep)
        assert (fit.slope, fit.other) == (pytest.approx(a), pytest.approx(b))
        assert fit.intercept == pytest.approx(math.log2(3))
        assert fit.r2 == pytest.approx(1.0)
        assert len(fit.points) == 12
    # one k: its column is dropped, as is a column the rows leave out
    fit = fit_scaling([r for r in rows if r["k"] == 4], "n")
    assert fit.other is None and fit.slope == pytest.approx(1.5)
    assert fit.points == [(n, 3 * n**1.5 * 4**-0.75) for n in (64, 128, 256, 512)]


def test_fit_refuses_n_and_k_that_vary_together():
    rows = [{"n": 32 * k, "k": k, "km_rounds": 100} for k in (2, 4, 8)]
    with pytest.raises(HarnessError, match="n and k vary together"):
        fit_scaling(rows, "n")


def test_cli_sweep_fits_each_n_and_k_cell(tmp_path, capsys):
    # mst on gnp n = 128, 256, 512, p = 0.1, seed 1: the n-slope is 1.0113 at
    # k = 2 and 0.7010 at k = 32; with both ks the fit is joint, and its
    # n-exponent is their mean (one median per n, pooled over k, gave 0.9764)
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({
        "algorithm": "mst", "model": "gnp", "n": [128, 256, 512], "p": 0.1,
        "k": [2, 32], "seeds": [1],
    }))
    out = tmp_path / "rows.csv"
    rc = cli_main(["sweep", "--config", str(conf), "--sweep", "n", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ("# sweep n: slope 0.8562, k exponent -0.7665, "
                                       "intercept 3.9978, R^2 0.9922\n")
    header, *lines = out.read_text().splitlines()
    rows = [{c: int(x) for c, x in zip(header.split(","), line.split(","))
             if c in ("n", "k", "km_rounds")} for line in lines]
    for k, slope in ((2, 1.0113), (32, 0.7010)):
        fit = fit_scaling([r for r in rows if r["k"] == k], "n")
        assert (round(fit.slope, 4), fit.other) == (slope, None)


def test_cli_sweep_through_a_free_k_keeps_its_rows(tmp_path, capsys):
    # one machine holds every vertex, so k = 1 costs no round
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({
        "algorithm": "mst", "model": "gnp", "n": 64, "p": 0.1,
        "k": [1, 2, 4, 8], "seeds": [1, 2],
    }))
    out = tmp_path / "rows.csv"
    rc = cli_main(["sweep", "--config", str(conf), "--sweep", "k", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("kmachine: error: the median km_rounds at k=1 is 0; "
                            "a log-log fit needs positive costs\n")
    assert len(out.read_text().splitlines()) == 9


def test_corrupted_tie_break_is_caught(monkeypatch):
    # hand the program each vertex's neighbours in descending order, the
    # order its tie-break reads, while the oracle keeps the true one; ties
    # on an unweighted cycle then pick a different tree (the kernel reads
    # the slots through adjacency(), as no edge index is needed)
    adjacency = Graph.adjacency

    def descending(g):
        indptr, nbr = adjacency(g)
        order = np.lexsort((-nbr, np.repeat(np.arange(g.n), np.diff(indptr))))
        return indptr, nbr[order]

    monkeypatch.setattr(Graph, "adjacency", descending)
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


def _cli_rows(doc, tmp_path, capsys):
    """Runs the config doc through `kmachine run`: (exit code, stderr, rows)."""
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps(doc))
    rc = cli_main(["run", "--config", str(conf)])
    captured = capsys.readouterr()
    rows = [dict(zip(CSV_HEADER.split(","), line.split(",")))
            for line in captured.out.splitlines()[1:]]
    return rc, captured.err, rows


def test_cli_run_spanner_past_the_engine_default_budget(tmp_path, capsys):
    # 2 delta - 1 = 199 rounds, past the engine's 8n + 64 = 192
    rc, err, (row,) = _cli_rows({"algorithm": "spanner", "model": "gnp", "n": 16,
                                 "p": 0.3, "delta": 100}, tmp_path, capsys)
    assert rc == 0 and err == ""
    assert (row["T_C"], row["success"]) == ("199", "true")


@pytest.mark.parametrize("algorithm", ["mst", "bf_sssp"])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_cli_run_takes_the_widest_legal_weights(algorithm, n, tmp_path, capsys):
    # a distance below (n - 1) * 2^(4L) beside an id fits the 6L-bit cap
    rc, err, rows = _cli_rows({"algorithm": algorithm, "model": "random_weighted",
                               "n": n, "p": 0.5, "wmax": inf_weight(n) - 1,
                               "k": [2], "seeds": [1, 2]}, tmp_path, capsys)
    assert rc == 0 and err == ""
    assert [r["success"] for r in rows] == ["true", "true"]


def test_cli_run_walk_token_counts_within_and_over_the_cap(tmp_path, capsys):
    # 80,000 tokens on 16 vertices take 17-bit counts, within 6 * 4 bits
    rc, err, rows = _cli_rows({"algorithm": "pagerank", "model": "gnp", "n": 16,
                               "p": 0.5, "tokens_per_node": 5000, "k": [2]},
                              tmp_path, capsys)
    assert rc == 0 and err == "" and [r["success"] for r in rows] == ["true"]
    # 80 tokens on 2 vertices take 7 bits, over 6: refused before any round
    rc, err, rows = _cli_rows({"algorithm": "pagerank", "model": "gnp", "n": 2,
                               "p": 1.0, "tokens_per_node": 40, "k": [2]},
                              tmp_path, capsys)
    assert (rc, rows) == (2, [])
    assert err == ("kmachine: error: 80 walk tokens on 2 vertices need counts "
                   "wider than the 6-bit payload cap\n")


def test_cli_run_refuses_a_peeling_slack_that_rounds_away(tmp_path, capsys):
    # 1 + 1e-20 == 1.0: no vertex of a regular graph would ever be peeled
    rc, err, rows = _cli_rows({"algorithm": "densest", "model": "cycle", "n": 12,
                               "eps": 1e-20}, tmp_path, capsys)
    assert (rc, rows) == (2, [])
    assert err == "kmachine: error: eps must be > 0 with 1 + eps > 1, got 1e-20\n"
    AlgoConfig(eps=1e-15).validate()


def test_cli_run_spanner_check_counts_hops_not_weights(tmp_path, capsys):
    # two zero-weight edges: a weighted stretch bound refuses every run,
    # although each keeps every edge within 2 delta - 1 = 3 hops
    graph = tmp_path / "g.txt"
    graph.write_text("n 6\n0 1 0\n3 4 0\n1 2 1\n2 3 1\n4 5 1\n0 5 1\n0 2 1\n1 3 1\n")
    rc, err, rows = _cli_rows({"algorithm": "spanner", "file": str(graph), "delta": 2,
                               "k": [2], "seeds": list(range(8))}, tmp_path, capsys)
    assert rc == 0 and err == ""
    assert [r["success"] for r in rows] == ["true"] * 8


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


@pytest.mark.parametrize("doc, message", [
    pytest.param(_LOGSP_RW, "approximate shortest paths expects a unit-weight graph",
                 id="logsp_weighted"),
    pytest.param({"algorithm": "hmis", "file": "g.edges"},
                 "hmis builds a random hypergraph", id="hmis_file"),
    pytest.param({"algorithm": "hmis", "n": 16, "model": "gnp", "p": 0.3},
                 "hmis builds a random hypergraph", id="hmis_model"),
    *_BAD_GRAPH_SPECS,
    *_UNREAD_PARAMS,
    # each algorithm fixes its pricing mode, and mis its phase budget
    pytest.param({"algorithm": "mst", "model": "cycle", "n": 8, "mode": "bcast"},
                 "unknown config keys: ['mode']\n", id="mode_key"),
    pytest.param({**_GNP, "mis_max_phases": 4}, "unknown config keys: ['mis_max_phases']\n",
                 id="mis_max_phases_key"),
    # refused before any bits are drawn
    pytest.param({"algorithm": "conn", "gadget": "conn", "b": -3},
                 "gadget needs b >= 1\n", id="negative_b"),
])
def test_cli_bad_config_is_one_line_and_exit_2(doc, message, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text("n 3\n0 1 1\n1 2 1\n")
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps(doc))
    rc = cli_main(["run", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"kmachine: error: {message}")
    assert captured.err.count("\n") == 1


def test_cli_oracle_size_cap_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch):
    from kmachine import oracles

    monkeypatch.setattr(oracles, "ALL_PAIRS_MAX_N", 16)
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({"algorithm": "logsp", "model": "gnp", "n": 32, "p": 0.2}))
    rc = cli_main(["run", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "kmachine: error: all-pairs distances capped at n=16\n"


@pytest.mark.parametrize("text, message", [
    pytest.param(None, "cannot read config file", id="missing_file"),
    pytest.param('{"algorithm": "mst",', "is not JSON", id="malformed_json"),
    pytest.param(b'{"algorithm": "\xff"}', "is not JSON", id="not_utf8"),
    pytest.param('["mst"]', "holds a JSON list, not an object", id="top_level_list"),
    pytest.param('{"model": "cycle", "n": 8}', "the config names no algorithm",
                 id="no_algorithm"),
])
def test_cli_bad_config_file_is_one_line_and_exit_2(text, message, tmp_path, capsys):
    conf = tmp_path / "exp.json"
    if isinstance(text, str):
        conf.write_text(text)
    elif text is not None:
        conf.write_bytes(text)
    rc = cli_main(["run", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("kmachine: error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_cli_override_flags_all_reach_the_config(tmp_path, monkeypatch):
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({"algorithm": "mis", "model": "cycle", "n": 8}))
    seen = []
    # no spec takes every flag at once, so only the parsing is under test
    monkeypatch.setattr(ExperimentConfig, "validate", lambda self: self)
    monkeypatch.setattr("kmachine.cli.run_experiment", lambda cfg: seen.append(cfg) or [])
    out = tmp_path / "rows.csv"
    rc = cli_main(["run", "--config", str(conf), "--algorithm", "pagerank",
                   "--n", "20", "--p", "0.4", "--wmax", "9", "--model", "gnp",
                   "--b", "6", "--k", "2,4", "--seeds", "3,5", "--w", "12",
                   "--gamma", "0.25", "--tokens-per-node", "7",
                   "--eps", "0.75", "--delta", "3", "--source", "1", "--out", str(out)])
    assert rc == 0
    (cfg,) = seen
    assert cfg.algorithm == "pagerank"
    assert cfg.graph == {"model": "gnp", "n": 20, "p": 0.4, "wmax": 9, "b": 6}
    assert (cfg.k, cfg.seeds, cfg.W, cfg.out) == ([2, 4], [3, 5], 12, str(out))
    assert cfg.algo == AlgoConfig(source=1, gamma=0.25, tokens_per_node=7, eps=0.75,
                                  delta=3)


def test_cli_validate_times_each_criterion(tmp_path, capsys, monkeypatch):
    from kmachine.acceptance import Battery

    def two_criteria(self):  # stands in for the full battery
        self._done(2, "second", True, "ok")
        self._done(1, "first", False, "no")
        self.results.sort(key=lambda r: r.cid)
        return self.results

    monkeypatch.setattr(Battery, "run", two_criteria)
    out = tmp_path / "rows.csv"
    rc = cli_main(["validate", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "[PASS]  2 second: ok\n[FAIL]  1 first: no\n1/2 criteria passed\n"
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"# \[PASS\]  2 second: \d+\.\d\d s", lines[0])
    assert re.fullmatch(r"# \[FAIL\]  1 first: \d+\.\d\d s", lines[1])
    assert out.read_text() == format_csv([])


def test_cli_gen_roundtrip(tmp_path):
    out = tmp_path / "g.edges"
    rc = cli_main(["gen", "--model", "gnp", "--n", "40", "--seed", "3",
                   "--p", "0.2", "--out", str(out)])
    assert rc == 0
    from kmachine.graphs import generate, load_edge_list

    h, g = load_edge_list(out.read_text()), generate("gnp", 40, 3, p=0.2)
    assert (h.n, sorted(h.edges)) == (g.n, sorted(g.edges))


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


def test_run_experiment_over_sizes():
    cfg = config_from_mapping({
        "algorithm": "mst", "model": "gnp", "n": [64, 128, 256], "p": 0.1,
        "k": [4], "seeds": [1, 2],
    })
    rows = run_experiment(cfg)
    assert sorted({r["n"] for r in rows}) == [64, 128, 256]
    fit = fit_scaling(rows, "n")
    assert fit.slope > 0  # bigger instances cost more rounds
    rows = run_experiment(config_from_mapping({
        "algorithm": "mst", "model": "cycle", "n": 32, "k": [2], "seeds": [1],
    }))
    with pytest.raises(HarnessError, match="^need at least 3 distinct swept values$"):
        fit_scaling(rows, "n")


def test_cli_run_writes_each_size_sorted(tmp_path, capsys):
    rc, err, rows = _cli_rows({"algorithm": "mst", "gadget": "st_lower", "b": [16, 4, 8],
                               "k": [4, 2], "seeds": [2, 1]}, tmp_path, capsys)
    assert rc == 0 and err == ""
    cells = [(int(r["n"]), int(r["k"]), int(r["seed"])) for r in rows]
    # a b-bit two-hub gadget has b + 2 vertices
    assert cells == [(n, k, seed) for n in (6, 10, 18) for k in (2, 4) for seed in (1, 2)]
    assert all(r["success"] == "true" for r in rows)


def test_cli_sweep_writes_rows_it_cannot_fit(tmp_path, capsys):
    # fit_scaling alone counts the swept values: one size runs, then exits 2
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({**_GNP, "k": [2, 4], "seeds": [1, 2]}))
    rc = cli_main(["sweep", "--config", str(conf), "--sweep", "n"])
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.out.splitlines()) == 5
    assert captured.err == "kmachine: error: need at least 3 distinct swept values\n"


@pytest.mark.parametrize("flags, unread", [
    (["--model", "grid", "--n", "9", "--p", "0.5"], "model grid reads no p"),
    (["--model", "path", "--n", "4", "--wmax", "7"], "model path reads no wmax"),
    (["--model", "gnp", "--n", "4", "--p", "0.5", "--wmax", "7"], "model gnp reads no wmax"),
])
def test_cli_gen_refuses_a_parameter_its_model_never_reads(flags, unread, tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = cli_main(["gen", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out, out.exists()) == (2, "", False)
    assert captured.err == f"kmachine: error: {unread}\n"


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
# rng.uniform(seed, "coin", vertex, round), and the logsp rows and the hmis
# ledger again when partitions and coins became splitmix64 stream outputs;
# the logsp rows once more when they took the spanner's clique metrics and
# its shipping became one priced step of direct sends to machine 0
LOGSP_ROWS = (
    "n,m,k,W,mode,algorithm,seed,T_C,M,B,Dprime,km_rounds,max_link_bits,"
    "max_machine_bits,success\n"
    "48,214,2,7,bcast,logsp,3,11,12408,264,94,382,4538,4538,true\n"
    "48,214,4,7,bcast,logsp,3,11,12408,264,94,273,2670,7100,true\n"
    "48,214,8,7,bcast,logsp,3,11,12408,264,94,194,1897,9308,true\n"
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


def test_logsp_ledger_is_the_spanner_and_one_ship_step():
    from kmachine.graphs import generate, label_bits
    from kmachine.machines import convert_broadcast, random_vertex_partitions
    from kmachine.programs import logapprox_shortest_paths, spanner_program, spanner_union

    g = generate("gnp", 32, 3, p=0.3)
    parts = random_vertex_partitions(g, [1, 2, 4, 8, 16], 3)
    _, got_metrics, reports = logapprox_shortest_paths(g, parts, seed=3)
    outputs, trace, metrics = run_clique(g, spanner_program(AlgoConfig(delta=5)), 3)
    edges = spanner_union(outputs)
    assert got_metrics == metrics and len(edges) == 92
    L = label_bits(g.n)
    for part in parts:
        rep, alone = reports[part.k], convert_broadcast(trace, part, None)
        # every edge with no endpoint on machine 0 goes straight there, 3L
        # bits from its smaller endpoint's home, in one extra step
        ship = np.zeros(part.k, dtype=np.int64)
        for a, b in edges:
            if part.home[a] and part.home[b]:
                ship[part.home[a]] += 3 * L
        assert rep.total_bits == alone.total_bits + int(ship.sum())
        assert rep.km_rounds == alone.km_rounds + -(-int(ship.max()) // rep.W)
        assert rep.per_link_bits[1:, 0].tolist() == (
            alone.per_link_bits[1:, 0] + ship[1:]).tolist()
        assert rep.bound_ok
    assert reports[1].km_rounds == reports[1].max_link_bits == 0


def test_logsp_bound_holds_on_the_battery_shape():
    cfg = ExperimentConfig(algorithm="logsp", graph={"model": "gnp", "n": 32, "p": 0.3},
                           k=[1, 2, 4, 8, 16], seeds=[0])
    for seed in range(5):
        res = run_cell(cfg, seed)
        assert res.valid and res.metrics.rounds > 0
        assert all(rep.bound_ok for rep in res.reports.values())
        assert res.reports[1].km_rounds == res.reports[1].total_bits == 0


def test_hmis_ledger_matches_pinned_values():
    from kmachine.graphs import random_uniform_hypergraph
    from kmachine.machines import random_vertex_partition
    from kmachine.programs import hmis_kmachine

    h = random_uniform_hypergraph(48, 96, 3, 5)
    part = random_vertex_partition(h, 4, 5)
    flags, rep = hmis_kmachine(h, part)
    assert sum(flags) == 26
    assert (rep.n, rep.k, rep.W, rep.mode) == (48, 4, 6, "direct")
    assert (rep.km_rounds, rep.total_bits) == (73, 1416)
    assert rep.per_link_bits.tolist() == [
        [0, 257, 250, 236], [257, 0, 236, 222], [250, 236, 0, 215], [236, 222, 215, 0]]
    assert rep.per_machine_bits.tolist() == [743, 715, 701, 673]
    assert rep.bound_rounds == 7985.102370422146
    assert rep.bound_ok
    assert part.home.tolist()[:12] == [1, 0, 2, 2, 0, 3, 3, 1, 2, 1, 1, 3]


def _source_texts():
    from pathlib import Path

    import kmachine

    src = Path(kmachine.__file__).parent
    return {p: p.read_text() for p in src.rglob("*.py")}


def test_one_partition_derivation_and_one_report_builder():
    text = _source_texts()
    assert sum(t.count('"rvp"') for t in text.values()) == 1
    assert sum(t.count("SimReport(") for t in text.values()) == 1
    assert sum(t.count("km_rounds +=") for t in text.values()) == 1
    assert not any("_cell_graph" in t for t in text.values())
    # one per-element draw scheme: derive's single blake2b keys splitmix64
    # streams, which run only in rng.py; no per-vertex hash loop is left
    (rng_text,) = [t for p, t in text.items() if p.name == "rng.py"]
    derive_body = rng_text.split("\ndef derive(")[1].split("\ndef ")[0]
    assert sum(t.count("blake2b(") for t in text.values()) == 1
    assert derive_body.count("blake2b(") == 1
    assert not any("struct.Struct(" in t for t in text.values())
    assert ".copy()" not in rng_text
    assert [p.name for p, t in text.items() if "splitmix64(" in t] == ["rng.py"]
    # one pass over the messages: only _machine_sums scatters message keys,
    # and only round_loads_each calls it, folding nested machine counts;
    # the cells and both converters price through round_loads_each, with
    # no one-k wrapper, lazy memo of the sums or second CSR mask builder
    (machines_text,) = [t for p, t in text.items() if p.name == "machines.py"]
    assert [fn.name for fn in ast.parse(machines_text).body
            if isinstance(fn, ast.FunctionDef) and ".add.at(" in ast.unparse(fn)] \
        == ["_machine_sums"]
    callers = {(p.name, fn.name): {c.func.id for c in ast.walk(fn) if isinstance(c, ast.Call)
                                   and isinstance(c.func, ast.Name)}
               for p, t in text.items() for fn in ast.walk(ast.parse(t))
               if isinstance(fn, ast.FunctionDef)}
    assert "round_loads_each" in callers[("__init__.py", "run")]
    assert "round_loads_each" in callers[("spanner.py", "logapprox_shortest_paths")]
    assert sorted(name for name, calls in callers.items() if "_machine_sums" in calls) \
        == [("machines.py", "round_loads_each")]
    assert "round_loads_each" in callers[("machines.py", "convert_p2p")]
    assert "round_loads_each" in callers[("machines.py", "convert_broadcast")]
    assert not any(name in t for t in text.values()
                   for name in ("round_loads(", "_kept", "_reverse_slots"))


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
    # one state machine per vertex: no shared mirror, no n-vertex builder
    assert not any(re.search(r"class _\w*Shared\b", t) for t in text.values())
    assert not any(".build(" in t or "wrong number of vertices" in t
                   for t in text.values())
    # one ledger: only sim_report adds to km_rounds
    (machines_text,) = [t for p, t in text.items() if p.name == "machines.py"]
    sim_report = machines_text.split("\ndef sim_report(")[1].split("\ndef ")[0]
    assert sum(t.count("km_rounds +=") for t in text.values()) == 1
    assert sim_report.count("km_rounds +=") == 1
    # one table of algorithms, which the harness reads without naming any
    tables = sorted((p.name, node.targets[0].id) for p, t in text.items()
                    for node in ast.parse(t).body
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and any(isinstance(key, ast.Constant) and key.value in ALGORITHMS
                            for key in node.value.keys))
    assert tables == [("__init__.py", "ALGORITHMS"), ("harness.py", "VALIDATORS")]
    assert set(VALIDATORS) == set(ALGORITHMS)
    assert not any(name in t for t in text.values() for name in (
        "CLIQUE_ALGORITHMS", "ALGORITHM_NAMES", "_engine_budget", "_empty_metrics",
        "ship_rounds", "ApproxPathsResult", "_run_logsp", "run_on_kmachines",
        "make_program", "_on_graph"))
    # a program sets its own round budget, which only the engine reads, and
    # one function of n sets the payload cap
    assert list(inspect.signature(run_clique).parameters) == ["g", "program", "seed"]
    assert not any("max_rounds" in t for t in text.values())
    assert [(p.name, t.count("def payload_cap(")) for p, t in text.items()
            if "def payload_cap(" in t] == [("clique.py", 1)]
    assert "budget" not in {f.name for f in fields(type(ALGORITHMS["mst"]))}
    # one placement per cell: under programs/ only Algorithm.run draws one
    placing = [(p.name, fn.name) for p, t in text.items() if p.parent.name == "programs"
               for fn in ast.walk(ast.parse(t)) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(name, ast.Name)
                       and name.id.startswith("random_vertex_partition")
                       for name in ast.walk(fn))]
    assert placing == [("__init__.py", "run")]
    (harness_text,) = [t for p, t in text.items() if p.name == "harness.py"]
    tree = ast.parse(harness_text)
    (config,) = [c for c in tree.body if isinstance(c, ast.ClassDef)
                 and c.name == "ExperimentConfig"]
    bodies = [fn for fn in [*tree.body, *config.body] if isinstance(fn, ast.FunctionDef)
              and fn.name in ("run_cell", "validate")]
    assert len(bodies) == 2
    assert not [node.value for fn in bodies for node in ast.walk(fn)
                if isinstance(node, ast.Constant) and node.value in ALGORITHMS]


def test_one_runner_for_run_and_sweep():
    text = _source_texts()
    # no runner of its own for sweeps: `sweep` is `run` plus a fit
    defs = [fn.name for t in text.values() for fn in ast.walk(ast.parse(t))
            if isinstance(fn, ast.FunctionDef)]
    assert [name for name in defs if "sweep" in name] == ["cmd_sweep"]
    # both commands take their rows from run_experiment and nothing else
    (cli_text,) = [t for p, t in text.items() if p.name == "cli.py"]
    commands = {fn.name: fn for fn in ast.parse(cli_text).body
                if isinstance(fn, ast.FunctionDef) and fn.name in ("cmd_run", "cmd_sweep")}
    assert len(commands) == 2
    for fn in commands.values():
        (rows,) = [node.value for node in ast.walk(fn) if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "rows" for t in node.targets)]
        assert isinstance(rows, ast.Call) and rows.func.id == "run_experiment"
    # one axis check for k, seeds and the sizes
    (harness_text,) = [t for p, t in text.items() if p.name == "harness.py"]
    assert harness_text.count("is listed twice") == 1


def test_src_keeps_no_code_that_only_tests_call():
    from kmachine import oracles

    text = _source_texts()
    # every public oracle has a caller in src outside oracles.py
    callers = "\n".join(t for p, t in text.items() if p.name != "oracles.py")
    public = [name for name, obj in vars(oracles).items()
              if inspect.isfunction(obj) and obj.__module__ == oracles.__name__
              and not name.startswith("_")]
    assert "minimum_spanning_forest" in public
    assert [name for name in public if not re.search(rf"\b{name}\(", callers)] == []
    # every public Graph method or property is used in src outside graphs.py
    users = "\n".join(t for p, t in text.items() if p.name != "graphs.py")
    members = [name for name, obj in vars(Graph).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or isinstance(obj, property))]
    assert "neighbors" in members and "m" in members
    assert [name for name in members if not re.search(rf"\.{name}\b", users)] == []


def test_oracles_run_one_union_find_scan():
    from kmachine import oracles

    # no union-find class: the one scan is _forest, whose finds halve paths inline
    classes = [obj for obj in vars(oracles).values()
               if inspect.isclass(obj) and obj.__module__ == oracles.__name__]
    assert classes == [oracles.OracleError]
    halving = "parent[parent["
    assert inspect.getsource(oracles._forest).count(halving) == 2
    assert inspect.getsource(oracles).count(halving) == 2


def test_one_round_format_and_one_edge_output_builder():
    text = _source_texts()
    # a trace is its round arrays: no record view, no list-based append
    (clique_text,) = [t for p, t in text.items() if p.name == "clique.py"]
    assert not any("RoundRecord" in t for t in text.values())
    assert not any(f"def {name}(" in clique_text
                   for name in ("append", "rounds", "_columns"))
    # the read-only empty column is defined once, where the round format is
    empty = re.compile(r"^\s*\w+ = np\.zeros\(0, dtype=np\.int64\)", re.M)
    assert [p.name for p, t in text.items() if empty.search(t)] == ["clique.py"]
    assert len(empty.findall(clique_text)) == 1
    # one builder of per-vertex edge tuples, shared by the MST and spanner
    assert not any("_mst_outputs" in t or "_edge_outputs" in t for t in text.values())
    assert sum(t.count("def edge_outputs(") for t in text.values()) == 1
    # one exact bit-length table, shared by the path and merge kernels
    pow2 = re.compile(r"^_POW2 = ", re.M)
    assert [p.name for p, t in text.items() if pow2.search(t)] == ["slots.py"]
    assert not any("searchsorted(_POW2" in t for p, t in text.items() if p.name != "slots.py")
    # the round totals are counted once, by the tally each stored round
    # passes through: no second pass over the trace
    second_pass = re.compile(r"\b_compute\(|\b_metrics\b")
    assert not any(second_pass.search(t) for t in text.values())
    assert _comm_degree_writers(text) == ["clique.py:_tally"]


def test_kernels_yield_constant_bits_through_one_helper():
    # a constant bits column is clique.uniform_bits, one value the round
    # check tests once and the trace keeps without a scan or a copy: no
    # kernel yields (or returns as a round) one made by np.full or np.ones
    text = _source_texts()
    kernels = {p: t for p, t in text.items() if p.parent.name == "programs"}
    assert len(kernels) > 5
    made = [f"{p.name}:{node.lineno}" for p, t in kernels.items()
            for node in _filled_bits_columns(ast.parse(t))]
    assert made == []
    users = sorted(p.name for p, t in kernels.items() if "uniform_bits(" in t)
    assert users == ["fragments.py", "slots.py", "spanner.py", "triangle.py", "walks.py"]


def _filled_bits_columns(tree):
    """The rounds, yielded or returned as five columns, whose bits column
    (the second or fifth) is an np.full or np.ones call or a name that its
    function binds to one."""
    def filled(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("full", "ones"))

    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    names.update(t.id for t, v in pairs
                                 if isinstance(t, ast.Name) and filled(v))
        for node in ast.walk(fn):
            if (isinstance(node, (ast.Yield, ast.Return)) and isinstance(node.value, ast.Tuple)
                    and len(node.value.elts) == 5):
                bits = [node.value.elts[1], node.value.elts[4]]
                if any(filled(b) or (isinstance(b, ast.Name) and b.id in names)
                       for b in bits):
                    yield node


def _comm_degree_writers(text):
    """The functions, as file:name, that give comm_degree a computed value:
    an assignment or keyword other than a constant or a copy of another
    object's comm_degree."""
    writers = set()
    for path, t in text.items():
        for fn in ast.walk(ast.parse(t)):
            if isinstance(fn, ast.FunctionDef):
                writers.update(f"{path.name}:{fn.name}" for node in ast.walk(fn)
                               if _writes_comm_degree(node))
    return sorted(writers)


def _writes_comm_degree(node):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        named = any(getattr(t, "attr", getattr(t, "id", None)) == "comm_degree"
                    for t in targets)
        value = node.value
    elif isinstance(node, ast.keyword):
        named, value = node.arg == "comm_degree", node.value
    else:
        return False
    if not named or value is None or isinstance(value, ast.Constant):
        return False
    return not (isinstance(value, ast.Attribute) and value.attr == "comm_degree")


@pytest.mark.parametrize("n, seed, isolated", [(5, 2, 5), (9, 1, 5)])
def test_pagerank_check_expects_the_mass_of_isolated_vertices(n, seed, isolated):
    # a token on an isolated vertex dies after its first visit, so over s
    # isolated vertices the estimates sum to 1 - (1 - gamma) s / n, not 1:
    # gamma = 0.15 on gnp(5, 0.05) at seed 2, which has no edge
    cfg = ExperimentConfig("pagerank", {"model": "gnp", "n": n, "p": 0.05}, [2], [seed])
    res = run_cell(cfg, seed)
    assert np.count_nonzero(np.diff(res.instance.graph.adjacency()[0]) == 0) == isolated
    if isolated == n:
        assert res.details["sum"] == pytest.approx(0.15)
    assert res.valid


def test_spanner_check_refuses_one_edge_stretched_too_far():
    from kmachine.clique import CliqueMetrics

    # a 5-cycle, with 0-1 weighing 2 in the weighted copy: dropping 0-4 or
    # 0-1 stretches it to 4 hops, which weight 2 does not excuse
    cycle = [(v, (v + 1) % 5) for v in range(5)]
    metrics = CliqueMetrics(1, 0, 0, 0, 0)
    check = VALIDATORS["spanner"]
    for weight, delta, drop, want in [(1, 2, (0, 4), False), (1, 3, (0, 4), True),
                                      (2, 2, (0, 1), False), (2, 2, (0, 4), False)]:
        g = Graph(5, [(a, b, weight if (a, b) == (0, 1) else 1) for a, b in cycle])
        kept = tuple(sorted((min(e), max(e)) for e in cycle if (min(e), max(e)) != drop))
        outputs = [kept] * 5
        assert check(Instance(graph=g), AlgoConfig(delta=delta), outputs, metrics)[0] == want


def test_bellman_ford_broadcast_bound_holds_above_512():
    from kmachine.clique import CliqueMetrics
    from kmachine.graphs import generate

    g = generate("path", 600, 0)  # from vertex 0 the farthest is 599 hops
    outputs = [(0, None)] + [(d, d - 1) for d in range(1, g.n)]
    bound = 600 * 599 + 600
    check = VALIDATORS["bf_sssp"]
    for broadcasts, want in ((bound, True), (bound + 1, False)):
        metrics = CliqueMetrics(1, 0, broadcasts, 0, 0)
        ok, _ = check(Instance(graph=g), AlgoConfig(source=0), outputs, metrics)
        assert ok == want


def _distance_cell(algorithm, g, source=0):
    cfg = AlgoConfig(source=source)
    prog = ALGORITHMS[algorithm].program(Instance(graph=g), cfg)
    outputs, _, metrics = run_clique(g, prog, 0)
    return cfg, outputs, metrics


@pytest.mark.parametrize("algorithm", ["bfs", "bf_sssp"])
def test_distance_checks_read_the_parents(algorithm):
    # 0-1-2-3 and 0-4-3: 3 is two hops away through 2 or 4; 5 is unreachable
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1), (4, 3, 2)])
    cfg, outputs, metrics = _distance_cell(algorithm, g)
    check = VALIDATORS[algorithm]
    assert check(Instance(graph=g), cfg, outputs, metrics)[0]
    assert outputs[0] == (0, None) and outputs[5][1] is None
    wrong = {
        "source has a parent": {0: (0, 1)},
        "unreached has a parent": {5: (math.inf, 4)},
        "reached has none": {1: (1, None)},
        "not a neighbour": {2: (2, 0)},
        "not one edge closer": {1: (1, 2)},
    }
    for why, change in wrong.items():
        bad = [change.get(v, out) for v, out in enumerate(outputs)]
        assert not check(Instance(graph=g), cfg, bad, metrics)[0], why


def test_zero_weight_edges_close_no_cycle_of_parents():
    # 2 is reached through 3, then 1 through 2 over a zero-weight edge; 1's
    # announcement then ties at 2, whose parent must not move to the lower
    # id 1, since 1 -> 2 -> 1 would never reach the source
    g = Graph(4, [(0, 3, 1), (2, 3, 0), (1, 2, 0)])
    cfg, outputs, metrics = _distance_cell("bf_sssp", g)
    assert outputs == [(0, None), (1, 2), (1, 3), (1, 0)]
    check = VALIDATORS["bf_sssp"]
    assert check(Instance(graph=g), cfg, outputs, metrics)[0]
    # each parent of the cycle is locally valid; the chain check refuses it
    cycle = [(0, None), (1, 2), (1, 1), (1, 0)]
    assert not check(Instance(graph=g), cfg, cycle, metrics)[0]


def test_bfs_check_wants_the_least_closer_neighbour():
    # 3 is two hops from 0 through both 1 and 2; its parent must be 1
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    cfg, outputs, metrics = _distance_cell("bfs", g)
    assert outputs[3] == (2, 1)
    check = VALIDATORS["bfs"]
    assert check(Instance(graph=g), cfg, outputs, metrics)[0]
    outputs[3] = (2, 2)
    assert not check(Instance(graph=g), cfg, outputs, metrics)[0]
    # shortest paths accept either: 2 lies on a minimum-weight path too
    cfg, sssp, metrics = _distance_cell("bf_sssp", g)
    sssp[3] = (2, 2)
    assert VALIDATORS["bf_sssp"](Instance(graph=g), cfg, sssp, metrics)[0]


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
