"""Full validation battery, one test per criterion.

The battery runs once per session (several minutes); each test then asserts
its criterion verdict and prints the one-line summary.  The final test
checks command-level determinism by running `validate` twice in fresh
processes and comparing CSV bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmachine
from kmachine.acceptance import Battery

SEED = 7


@pytest.fixture(scope="session")
def battery():
    lines = []
    bat = Battery(seed=SEED, echo=lines.append)
    bat.run()
    for line in lines:
        print(line)
    return {r.cid: r for r in bat.results}


def _check(battery, cid):
    res = battery[cid]
    print(f"criterion {cid}: [{'PASS' if res.passed else 'FAIL'}] {res.summary}")
    assert res.passed, f"criterion {cid} ({res.name}): {res.summary}"


def test_criterion_01_simulation_fidelity(battery):
    _check(battery, 1)


def test_criterion_02_oracle_agreement(battery):
    _check(battery, 2)


def test_criterion_03_placement_concentration(battery):
    _check(battery, 3)


def test_criterion_04_pricing_bounds_every_run(battery):
    _check(battery, 4)


def test_criterion_05_tree_merge_scaling(battery):
    _check(battery, 5)


def test_criterion_06_walk_scaling(battery):
    _check(battery, 6)


def test_criterion_07_hard_instance_growth(battery):
    _check(battery, 7)


def test_criterion_08_mis_phase_budget(battery):
    _check(battery, 8)


def test_criterion_09_walk_accuracy(battery):
    _check(battery, 9)


def test_criterion_10_hypergraph_rounds(battery):
    _check(battery, 10)


def test_criterion_11_validate_byte_identical(tmp_path):
    # the child processes import the same kmachine as this one, also when
    # pytest put it on sys.path without setting PYTHONPATH
    env = dict(os.environ)
    src = str(Path(kmachine.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for i in range(2):
        path = tmp_path / f"rows{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "kmachine.cli", "validate",
             "--seed", str(SEED), "--out", str(path)],
            capture_output=True, text=True, timeout=3000, env=env,
        )
        assert path.exists(), proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
