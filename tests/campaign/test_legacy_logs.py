"""Logs written by earlier versions of the campaign engine.

Older program-campaign headers carry a ``verify_vector`` field (a
self-check of the since-removed vector backend that never changed a
record), and may name that backend.  The headers below are written out
by hand, exactly as those versions serialised them: a ``compiled`` or
``interp`` log still reports and resumes to the records of a fresh run;
a ``vector`` log, or a malformed header, stops the CLI with a one-line
message instead of a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    ProgramCampaignSpec,
    read_log,
    resume_campaign,
    run_campaign,
)
from repro.campaign.spec import spec_from_dict
from repro.cli import main
from repro.runtime.faults import FAULT_MODELS

#: A pre-removal header of ``ProgramCampaignSpec(trials=6, seed=3,
#: benchmark="jacobi1d", scale="small")``.
OLD_HEADER = {
    "trials": 6,
    "seed": 3,
    "program_text": None,
    "benchmark": "jacobi1d",
    "scale": "small",
    "params": [],
    "init": [],
    "init_seed": 0,
    "bits": 2,
    "target_arrays": None,
    "instrument": True,
    "split": True,
    "hoist": True,
    "channels": 1,
    "backend": "compiled",
    "recover": False,
    "recover_retries": 3,
    "fault_model": "random_cell",
    "stuck_window": 0,
    "burst_cells": 4,
    "opt_level": 2,
    "batch": 1,
    "verify_vector": False,
    "prune": "none",
    "kind": "program",
}


def _old_log(path, header, records=()):
    """A log as an earlier version wrote it: its header, then trials."""
    with open(path, "w") as handle:
        handle.write(
            json.dumps({"type": "header", "version": 1, "spec": header}) + "\n"
        )
        for record in records:
            handle.write(json.dumps(record.to_json()) + "\n")
    return str(path)


def _canonical(records):
    return [record.canonical() for record in records]


def test_retired_field_is_dropped():
    spec = spec_from_dict(OLD_HEADER)
    assert spec == ProgramCampaignSpec(
        trials=6, seed=3, benchmark="jacobi1d", scale="small"
    )
    assert "verify_vector" not in spec.to_dict()


@pytest.mark.parametrize("backend", ("compiled", "interp"))
def test_old_log_resumes_to_fresh_records(tmp_path, backend, capsys):
    header = dict(OLD_HEADER, backend=backend)
    fresh = run_campaign(spec_from_dict(header))
    log = _old_log(tmp_path / "old.jsonl", header, fresh.records[:3])

    assert main(["campaign", "report", log]) == 0
    assert "3/6 trials" in capsys.readouterr().out

    assert main(["campaign", "resume", log]) == 0
    assert "3 recovered from log" in capsys.readouterr().out
    rewritten = read_log(log)
    assert _canonical(rewritten.records) == _canonical(fresh.records)
    assert "verify_vector" not in rewritten.spec_dict


@pytest.mark.parametrize("command", ("report", "resume"))
def test_vector_backend_log_exits_cleanly(tmp_path, command):
    log = _old_log(
        tmp_path / "vector.jsonl",
        dict(OLD_HEADER, backend="vector", verify_vector=True),
    )
    with pytest.raises(SystemExit, match="removed 'vector' backend"):
        main(["campaign", command, log])


@pytest.mark.parametrize(
    "header",
    (
        dict(OLD_HEADER, no_such_field=1),
        dict(OLD_HEADER, kind="nonsense"),
        {"trials": 6},
        ["not", "a", "mapping"],
    ),
)
@pytest.mark.parametrize("command", ("report", "resume"))
def test_malformed_header_exits_cleanly(tmp_path, command, header):
    log = _old_log(tmp_path / "bad.jsonl", header)
    with pytest.raises(SystemExit) as info:
        main(["campaign", command, log])
    assert isinstance(info.value.code, str)


@pytest.mark.parametrize("fault_model", FAULT_MODELS)
def test_old_log_of_each_fault_model_resumes(tmp_path, fault_model):
    """The normalised-header check holds for every fault model's fields."""
    header = dict(OLD_HEADER, fault_model=fault_model)
    fresh = run_campaign(spec_from_dict(header))
    log = _old_log(tmp_path / "old.jsonl", header, fresh.records[:2])

    resumed = resume_campaign(log)
    assert resumed.resumed_trials == 2
    assert _canonical(resumed.records) == _canonical(fresh.records)


@pytest.mark.parametrize(
    "overrides",
    ({"batch": 4}, {"recover": True}, {"prune": "static"}),
    ids=("batch", "recover", "prune"),
)
def test_old_log_of_each_execution_mode_resumes(tmp_path, overrides):
    header = dict(OLD_HEADER, **overrides)
    fresh = run_campaign(spec_from_dict(header))
    log = _old_log(tmp_path / "old.jsonl", header, fresh.records[:3])

    resumed = resume_campaign(log)
    assert resumed.resumed_trials == 3
    assert _canonical(resumed.records) == _canonical(fresh.records)


def test_old_log_resumes_under_a_spec_built_today(tmp_path):
    """``run_campaign(resume=True)`` with a spec the caller builds (not
    one read back from the header) accepts the pre-removal header."""
    spec = ProgramCampaignSpec(
        trials=6, seed=3, benchmark="jacobi1d", scale="small"
    )
    fresh = run_campaign(spec)
    log = _old_log(tmp_path / "old.jsonl", OLD_HEADER, fresh.records[:4])

    resumed = run_campaign(spec, log_path=log, resume=True)
    assert resumed.resumed_trials == 4
    assert _canonical(resumed.records) == _canonical(fresh.records)


def test_old_log_of_another_campaign_is_still_refused(tmp_path):
    """Dropping the retired field must not loosen the header check."""
    log = _old_log(tmp_path / "old.jsonl", dict(OLD_HEADER, seed=4))
    spec = ProgramCampaignSpec(
        trials=6, seed=3, benchmark="jacobi1d", scale="small"
    )
    with pytest.raises(ValueError, match="does not match"):
        run_campaign(spec, log_path=log, resume=True)


#: The stats trailer an earlier version appended to the log of
#: ``OLD_HEADER``'s campaign, with its ``vector`` counters.
OLD_STATS = {
    "type": "stats",
    "store": {
        "golden": {"hits": 0, "misses": 1, "evictions": 0, "disk_hits": 0,
                   "size": 1, "limit": 64},
        "instrument": {"hits": 0, "misses": 1, "evictions": 0,
                       "disk_hits": 0, "size": 1, "limit": 128},
        "kernel": {"hits": 0, "misses": 1, "evictions": 0, "disk_hits": 0,
                   "size": 1, "limit": 128},
    },
    "vector": {"runs": 0, "fallbacks": 0, "probes": 1, "engaged_keys": 0,
               "scalar_keys": 1},
}


def _complete_old_log(tmp_path):
    fresh = run_campaign(spec_from_dict(OLD_HEADER))
    log = _old_log(tmp_path / "old.jsonl", OLD_HEADER, fresh.records)
    with open(log, "a") as handle:
        handle.write(json.dumps(OLD_STATS) + "\n")
    return fresh, log


def test_old_stats_trailer_reports(tmp_path, capsys):
    _, log = _complete_old_log(tmp_path)
    assert main(["campaign", "report", log]) == 0
    out = capsys.readouterr().out
    assert "6/6 trials" in out
    assert "golden cache: hits=0 misses=1" in out
    assert "vector" not in out


def test_old_stats_trailer_is_replaced_on_resume(tmp_path):
    fresh, log = _complete_old_log(tmp_path)
    resumed = resume_campaign(log)
    assert resumed.resumed_trials == 6
    assert resumed.vector is None
    rewritten = read_log(log)
    assert _canonical(rewritten.records) == _canonical(fresh.records)
    assert rewritten.stats is not None
    assert "vector" not in rewritten.stats
