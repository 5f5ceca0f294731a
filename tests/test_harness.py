import json

import pytest

from kmachine.cli import main as cli_main
from kmachine.harness import (
    CSV_HEADER,
    ExperimentConfig,
    HarnessError,
    config_from_mapping,
    fit_scaling,
    format_csv,
    run_cell,
    run_experiment,
)
from kmachine.programs import ConfigError


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


def test_unknown_keys_rejected():
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "zap": 1})


def test_unknown_mode_rejected():
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "mode": "foo"})


@pytest.mark.parametrize("W", [0, -3, 2.5, "8", True])
def test_bandwidth_must_be_a_positive_int(W):
    with pytest.raises(HarnessError):
        config_from_mapping({"algorithm": "mst", "model": "cycle", "n": 8, "W": W})


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
        frag, "merge_key", lambda u, v, w: (w, -min(u, v), -max(u, v))
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
