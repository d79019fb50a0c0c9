"""The reference check catches doctored records and passes honest ones."""

import json

import numpy as np
import pytest

import reference
from repro.campaign import ChecksumCampaignSpec, ProgramCampaignSpec, run_campaign
from repro.campaign.records import DETECTED, DETECTED_SECOND, UNDETECTED


def _doctor(path, index, **changes):
    lines = open(path).read().splitlines()
    for number, line in enumerate(lines):
        data = json.loads(line)
        if data.get("type") == "trial" and data["index"] == index:
            data.update(changes)
            lines[number] = json.dumps(data)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _other_verdict(verdict, choices):
    return next(choice for choice in choices if choice != verdict)


@pytest.mark.parametrize("pattern", ["all0", "all1", "random"])
def test_checksum_reference_agrees_with_the_campaign(tmp_path, pattern):
    spec = ChecksumCampaignSpec(size=64, bits=2, pattern=pattern, trials=40, seed=9)
    log = str(tmp_path / "cell.jsonl")
    run_campaign(spec, log_path=log)
    checked, problems = reference.check_log(log, list(range(40)))
    assert checked == 40
    assert problems == []


def test_checksum_reference_catches_a_doctored_verdict(tmp_path):
    spec = ChecksumCampaignSpec(size=64, bits=2, pattern="random", trials=6, seed=3)
    log = str(tmp_path / "cell.jsonl")
    result = run_campaign(spec, log_path=log)
    verdict = result.records[2].verdict
    choices = (DETECTED, DETECTED_SECOND, UNDETECTED)
    _doctor(log, 2, verdict=_other_verdict(verdict, choices))
    _, problems = reference.check_log(log, [1, 2, 3])
    assert len(problems) == 1 and "trial 2" in problems[0]


def test_checksum_reference_catches_doctored_positions(tmp_path):
    spec = ChecksumCampaignSpec(size=64, bits=3, pattern="all1", trials=4, seed=3)
    log = str(tmp_path / "cell.jsonl")
    run_campaign(spec, log_path=log)
    _doctor(log, 0, injection={"positions": [1, 1, 2]})
    _, problems = reference.check_log(log, [0])
    assert len(problems) == 1 and "bad flip positions" in problems[0]


def test_rotated_checksum_matches_a_loop():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**63, size=40, dtype=np.uint64) * np.uint64(2)
    base = 0x1000
    plain = rotated = 0
    for index, word in enumerate(int(w) for w in words):
        amount = ((base + 8 * index) >> 3) & 0x1F
        plain = (plain + word) % 2**64
        turned = ((word << amount) | (word >> (64 - amount))) % 2**64
        rotated = (rotated + (turned if amount else word)) % 2**64
    assert reference.checksums(words, base) == (plain, rotated)


def test_program_reference_catches_a_doctored_record(tmp_path):
    spec = ProgramCampaignSpec(
        trials=3, seed=5, benchmark="jacobi1d", scale="small", init_seed=2
    )
    log = str(tmp_path / "program.jsonl")
    result = run_campaign(spec, log_path=log)
    _, problems = reference.check_log(log, [0, 1])
    assert problems == []
    verdict = result.records[1].verdict
    _doctor(log, 1, verdict=_other_verdict(verdict, ("sdc", "benign", "detected")))
    _, problems = reference.check_log(log, [0, 1])
    assert len(problems) == 1 and "trial 1" in problems[0]


def test_a_missing_sampled_record_is_a_problem(tmp_path):
    spec = ChecksumCampaignSpec(size=64, bits=2, pattern="all0", trials=2, seed=1)
    log = str(tmp_path / "cell.jsonl")
    run_campaign(spec, log_path=log)
    _, problems = reference.check_log(log, [0, 5])
    assert problems == [f"{log}: trial 5 missing from the log"]
