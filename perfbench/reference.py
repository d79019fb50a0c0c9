"""Independent checks of a pass's outputs, and the exact counts.

* Program campaigns: a fixed sample of each campaign's trial indices is
  replayed with ``replay_trial`` on ``replace(spec, backend="interp",
  opt_level=0)`` — the interpreter is the reference semantics — and the
  replayed record must equal the logged one canonically.
* Table 1 campaigns: both checksums are recomputed from scratch over
  the data image, with and without each sampled record's flips, and
  the verdict is derived from the two sums.
* ``checksum_op_overhead``: geomean over the Table 2 benchmarks of the
  campaign build's dynamic operation count over the uninstrumented
  program's.

Every function here runs outside the timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from repro.campaign import read_log, spec_from_dict
from repro.campaign.engine import replay_trial
from repro.campaign.records import DETECTED, DETECTED_SECOND, UNDETECTED

MASK64 = (1 << 64) - 1
WORD_BITS = 64

PROGRAM_SAMPLES = 1
"""Trials replayed per program campaign (interpreter replays are slow)."""
CHECKSUM_SAMPLES = 4
"""Records recomputed per Table 1 cell."""


def _json_form(data: dict) -> dict:
    return json.loads(json.dumps(data, sort_keys=True))


def check_program_record(spec, record) -> str | None:
    """Replay ``record`` on the interpreter; a message on mismatch."""
    reference = replace(spec, backend="interp", opt_level=0)
    replayed = replay_trial(reference, record.index)
    if _json_form(replayed.canonical()) != _json_form(record.canonical()):
        return (
            f"trial {record.index} of {spec.benchmark}/{spec.fault_model}: "
            f"logged {record.canonical()} but the interpreter gives "
            f"{replayed.canonical()}"
        )
    return None


def image_words(spec) -> np.ndarray:
    """The cell's data image as uint64 words."""
    if spec.pattern == "all0":
        return np.zeros(spec.size, dtype=np.uint64)
    if spec.pattern == "all1":
        return np.full(spec.size, MASK64, dtype=np.uint64)
    return np.array(spec.prepare().words, dtype=np.uint64)


def checksums(words: np.ndarray, base_address: int) -> tuple[int, int]:
    """(plain, rotated) modulo-2^64 sums of ``words``, from scratch.

    The rotated sum rotates word ``i`` left by bits 3..7 of its byte
    address ``base_address + 8 i``.
    """
    plain = int(words.sum(dtype=np.uint64))
    addresses = base_address + 8 * np.arange(words.size, dtype=np.uint64)
    amounts = (addresses >> np.uint64(3)) & np.uint64(0x1F)
    left = words << amounts
    # A shift by 64 is undefined; rotating by 0 keeps ``left`` alone.
    spill = (np.uint64(WORD_BITS) - amounts) & np.uint64(63)
    right = np.where(amounts == 0, np.uint64(0), words >> spill)
    rotated = int((left | right).sum(dtype=np.uint64))
    return plain, rotated


def checksum_verdict(words, base_address, positions, clean=None) -> str:
    """The verdict the flips at ``positions`` earn against the sums."""
    clean = clean or checksums(words, base_address)
    flipped = words.copy()
    for position in positions:
        word, bit = divmod(position, WORD_BITS)
        flipped[word] ^= np.uint64(1 << bit)
    plain, rotated = checksums(flipped, base_address)
    if plain != clean[0]:
        return DETECTED
    if rotated != clean[1]:
        return DETECTED_SECOND
    return UNDETECTED


def check_checksum_records(spec, sampled) -> list[str]:
    words = image_words(spec)
    clean = checksums(words, spec.base_address)
    problems = []
    for record in sampled:
        positions = record.injection["positions"]
        if (
            len(set(positions)) != spec.bits
            or len(positions) != spec.bits
            or not all(0 <= p < spec.size * WORD_BITS for p in positions)
        ):
            problems.append(
                f"cell {spec.bits}/{spec.size}/{spec.pattern} trial "
                f"{record.index}: bad flip positions {positions}"
            )
            continue
        expected = checksum_verdict(words, spec.base_address, positions, clean)
        if expected != record.verdict:
            problems.append(
                f"cell {spec.bits}/{spec.size}/{spec.pattern} trial "
                f"{record.index}: logged {record.verdict}, recomputed {expected}"
            )
    return problems


def check_log(path: str, indices: list[int]) -> tuple[int, list[str]]:
    """Check the records at ``indices`` of one campaign log.

    Returns (records checked, mismatch messages); a sampled index with
    no record is a mismatch too.
    """
    contents = read_log(path)
    spec = spec_from_dict(contents.spec_dict)
    by_index = contents.by_index()
    problems = [
        f"{path}: trial {index} missing from the log"
        for index in indices
        if index not in by_index
    ]
    sampled = [by_index[index] for index in indices if index in by_index]
    if spec.kind == "checksum":
        problems += check_checksum_records(spec, sampled)
    else:
        for record in sampled:
            message = check_program_record(spec, record)
            if message is not None:
                problems.append(message)
    return len(indices), problems


def op_overhead(specs) -> float:
    """Geomean of campaign-build ÷ uninstrumented dynamic op counts.

    One spec per benchmark; each spec's own ``prepare()`` gives the
    campaign build (instrumented, split + hoist, compiled).
    """
    from repro.programs import ALL_BENCHMARKS
    from repro.runtime.compile import execute_program

    logs = []
    for spec in specs:
        prepared = spec.prepare()
        module = ALL_BENCHMARKS[spec.benchmark]
        counts = []
        for program in (prepared.program, module.program()):
            result = execute_program(
                program,
                prepared.params,
                backend="compiled",
                initial_values={k: v.copy() for k, v in prepared.values.items()},
            )
            counts.append(result.counts.total_ops())
        logs.append(math.log(counts[0] / counts[1]))
    return math.exp(sum(logs) / len(logs))
