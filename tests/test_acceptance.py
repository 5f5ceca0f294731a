"""Full validation battery, one test per criterion.

The battery runs once per session (several minutes); each test then asserts
its criterion verdict and prints the one-line summary.  The final test
checks command-level determinism by running `validate` in a fresh process
and comparing its CSV bytes with the session run's.
"""

import subprocess
import sys

import pytest

from kmachine import acceptance
from kmachine.acceptance import Battery, validate_all
from kmachine.programs import paths

SEED = 7


@pytest.fixture(scope="session")
def validated():
    """The battery's results by criterion and its CSV text, from one run."""
    lines = []
    results, csv_text, _ = validate_all(seed=SEED, echo=lines.append)
    for line in lines:
        print(line)
    return {r.cid: r for r in results}, csv_text


@pytest.fixture(scope="session")
def battery(validated):
    return validated[0]


def _check(battery, cid):
    res = battery[cid]
    print(f"criterion {cid}: [{'PASS' if res.passed else 'FAIL'}] {res.summary}")
    assert res.passed, f"criterion {cid} ({res.name}): {res.summary}"


def test_criterion_01_simulation_fidelity(battery):
    _check(battery, 1)


def test_criterion_01_catches_a_kernel_fault(monkeypatch):
    # the outputs stay right, so only a comparison of the traces sees this
    real = paths._bfs_rounds

    def one_bit_more(g, source):
        rounds = real(g, source)
        bs, bb, *unicasts = next(rounds)
        yield (bs, bb + 1, *unicasts)  # the source's announcement, still under the cap
        return (yield from rounds)

    monkeypatch.setattr(acceptance, "FIDELITY_ALGORITHMS", ("bfs",))
    monkeypatch.setattr(paths, "_bfs_rounds", one_bit_more)
    res = Battery(seed=SEED, echo=lambda line: None).crit_1_fidelity()
    assert not res.passed
    assert res.summary.startswith("0/20 "), res.summary


def test_criterion_01_counts_a_refused_kernel_run_as_a_mismatch(monkeypatch):
    # 7L-bit announcements break the engine's 6L cap: the bfs runs raise
    # ProgramViolation, which must read as mismatches, not abort the battery
    real = paths._bfs_rounds

    def seven_labels(g, source):
        rounds = real(g, source)
        try:
            while True:
                bs, bb, *unicasts = next(rounds)
                yield (bs, bb // 3 * 7, *unicasts)
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(acceptance, "FIDELITY_ALGORITHMS", ("bfs", "conn"))
    monkeypatch.setattr(paths, "_bfs_rounds", seven_labels)
    res = Battery(seed=SEED, echo=lambda line: None).crit_1_fidelity()
    assert not res.passed
    assert res.summary == "20/40 runs gave identical outputs on both paths", res.summary


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


def test_criterion_11_validate_byte_identical(validated, tmp_path, child_env):
    # a fresh process writes the bytes this session's run produced
    path = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kmachine.cli", "validate",
         "--seed", str(SEED), "--out", str(path)],
        capture_output=True, text=True, timeout=3000, env=child_env,
    )
    assert path.exists(), proc.stderr
    assert path.read_bytes() == validated[1].encode()
