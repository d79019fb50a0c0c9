"""Workload generation from the seed, and the cold start of a pass."""

import pytest

import workloads
from repro.service.store import clear_store


def _composition(spec):
    data = spec.to_dict()
    for key in ("seed", "init_seed"):
        data.pop(key, None)
    return data


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_composition(name):
    make = workloads.WORKLOADS[name].specs
    first, second, again = make(1), make(2), make(1)
    assert [s.to_dict() for s in first] == [s.to_dict() for s in again]
    assert [_composition(s) for s in first] == [_composition(s) for s in second]
    assert all(a.seed != b.seed for a, b in zip(first, second))
    if name != "table1":
        assert all(a.init_seed != b.init_seed for a, b in zip(first, second))


def test_fault_models_of_a_benchmark_share_inputs():
    specs = workloads.fault_matrix_specs(7)
    by_benchmark = {}
    for spec in specs:
        by_benchmark.setdefault(spec.benchmark, set()).add(spec.golden_digest())
    assert all(len(digests) == 1 for digests in by_benchmark.values())


def test_sample_indices_are_fixed_and_in_range():
    indices = workloads.sample_indices(3, 5, 8, 4)
    assert indices == workloads.sample_indices(3, 5, 8, 4)
    assert all(0 <= index < 8 for index in indices)


@pytest.fixture
def small_table1(monkeypatch):
    monkeypatch.setattr(workloads, "TABLE1_TRIALS", 5)
    monkeypatch.setattr(workloads, "TABLE1_SIZES", (100,))
    monkeypatch.setattr(workloads, "TABLE1_BITS", (2, 3))


def test_first_campaign_of_a_pass_has_no_store_hits(small_table1, tmp_path):
    clear_store()
    result = workloads.run_pass("table1", 1, str(tmp_path))
    assert result["cold_hits"] == {name: 0 for name in workloads.COLD_NAMESPACES}
    assert result["disk_hits"] == 0
    assert result["completed"] == result["attempted"] == 2 * 3 * 5
    assert result["failed"] == 0


def test_a_warm_process_shows_first_campaign_hits(small_table1, tmp_path):
    clear_store()
    workloads.run_pass("table1", 1, str(tmp_path / "cold"))
    warm = workloads.run_pass("table1", 1, str(tmp_path / "warm"))
    assert warm["cold_hits"]["golden"] > 0


def test_passes_of_one_seed_give_identical_records(small_table1, tmp_path):
    first = workloads.run_pass("table1", 4, str(tmp_path / "a"))
    second = workloads.run_pass("table1", 4, str(tmp_path / "b"))
    assert first["digests"] == second["digests"]
    assert None not in first["digests"]


def test_record_bytes_exclude_the_timing(tmp_path):
    short = '{"type": "trial", "elapsed": 0.5}\n'
    long = '{"type": "trial", "elapsed": 0.123456789}\n'
    assert workloads._record_bytes(short, 0.5) == workloads._record_bytes(
        long, 0.123456789
    )
