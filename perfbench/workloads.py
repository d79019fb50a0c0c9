"""The benchmark's workloads and one timed pass over a workload.

A workload is a fixed list of campaign specs generated from the
workload seed.  Campaign seeds and ``init_seed`` are derived here, with
a hash of the benchmark's own, so the program only ever sees the
generated specs.  A *pass* runs every spec of a workload in a closed
loop, one campaign after the other:

    spec.prepare()                       # setup_s (cold: fresh process)
    run_campaign(spec, log_path=...)     # trial phase
    read_log(...); summarize(...)        # read back, as `campaign report`

``wall_s`` is the sum of those segments; the bookkeeping between them
(counter snapshots, record digests) is not timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.campaign import ChecksumCampaignSpec, ProgramCampaignSpec
from repro.campaign import engine, records, stats
from repro.programs import ALL_BENCHMARKS
from repro.runtime.faults import FAULT_MODELS
from repro.service.store import counters_add, counters_delta, counters_snapshot

TABLE1_BITS = (2, 3, 4, 5, 6)
TABLE1_SIZES = (100, 10_000, 1_000_000)
TABLE1_PATTERNS = ("all0", "all1", "random")
TABLE1_TRIALS = 2000

FAULT_MATRIX_TRIALS = 6

RECOVER_BENCHMARKS = ("cholesky", "lu", "jacobi1d", "seidel", "cg")
RECOVER_MODELS = ("random_cell", "stuck_bit")
RECOVER_TRIALS = 16
"""A trial costs about twice as much when its fault is detected and
replayed, and the fault sites follow the seed, so more trials per
campaign make a pass's work depend less on the seed."""

#: Store namespaces whose first lookup in a run must miss (cold start).
COLD_NAMESPACES = ("golden", "kernel", "instrument")


def derive(seed: int, *labels: object) -> int:
    """A child seed of the workload seed (SHA-256, stable everywhere)."""
    payload = ":".join(["perfbench", str(seed), *map(str, labels)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def table1_specs(seed: int) -> list:
    return [
        ChecksumCampaignSpec(
            size=size,
            bits=bits,
            pattern=pattern,
            trials=TABLE1_TRIALS,
            seed=derive(seed, "table1", bits, size, pattern),
        )
        for bits in TABLE1_BITS
        for size in TABLE1_SIZES
        for pattern in TABLE1_PATTERNS
    ]


def fault_matrix_specs(seed: int) -> list:
    # One init_seed per benchmark: the five fault models of a benchmark
    # share its golden run.
    return [
        ProgramCampaignSpec(
            trials=FAULT_MATRIX_TRIALS,
            seed=derive(seed, "fault-matrix", benchmark, model),
            benchmark=benchmark,
            scale="default",
            init_seed=derive(seed, "init", benchmark),
            fault_model=model,
        )
        for benchmark in sorted(ALL_BENCHMARKS)
        for model in FAULT_MODELS
    ]


def recover_specs(seed: int) -> list:
    return [
        ProgramCampaignSpec(
            trials=RECOVER_TRIALS,
            seed=derive(seed, "recover", benchmark, model),
            benchmark=benchmark,
            scale="default",
            init_seed=derive(seed, "init", benchmark),
            fault_model=model,
            recover=True,
        )
        for benchmark in RECOVER_BENCHMARKS
        for model in RECOVER_MODELS
    ]


@dataclass(frozen=True)
class Workload:
    """A named spec list and the worker count it runs with (why each
    workload exists is recorded in ``BENCHMARK.json``)."""

    name: str
    specs: Callable[[int], list]
    workers: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("table1", table1_specs, 1),
        Workload("fault-matrix", fault_matrix_specs, 2),
        Workload("recover", recover_specs, 1),
    )
}


def sample_indices(seed: int, position: int, trials: int, count: int) -> list[int]:
    """The fixed trial indices the reference check replays for the
    campaign at ``position`` of a workload."""
    return sorted(
        {derive(seed, "sample", position, k) % trials for k in range(count)}
    )


def _record_bytes(line: str, elapsed: float) -> int:
    """Bytes a record line takes, less the digits of its timing (which
    vary run to run) — an exact count."""
    return len(line.encode("utf-8")) - len(json.dumps(elapsed))


def log_record_bytes(path: str) -> tuple[int, int]:
    """(bytes, records) over the trial lines of a campaign log."""
    total = count = 0
    with open(path) as handle:
        for line in handle:
            data = json.loads(line)
            if data.get("type") == "trial":
                total += _record_bytes(line, data["elapsed"])
                count += 1
    return total, count


def _canonical_digest(contents) -> str:
    digest = hashlib.sha256()
    for record in contents.records:
        digest.update(json.dumps(record.canonical(), sort_keys=True).encode())
    return digest.hexdigest()


def run_pass(
    workload: str,
    seed: int,
    workdir: str,
    workers: int | None = None,
    recorder=None,
) -> dict:
    """Run every campaign of ``workload`` once; return the pass result.

    The result is plain JSON data: timings, the trial counts, per-campaign
    canonical record digests (the cross-pass determinism check), store
    and vector counters, and the peak RSS of this process and its
    largest worker.  With a trace ``recorder`` installed, spans are
    tagged with the campaign's position and the result also gives the
    bytes and count of the logged trial records.  A campaign that
    raises counts all its trials as failed and the pass goes on.
    """
    spec_list = WORKLOADS[workload].specs(seed)
    os.makedirs(workdir, exist_ok=True)
    if workers is None:
        workers = WORKLOADS[workload].workers
    wall = setup = trial_phase = busy = 0.0
    attempted = completed = failed = 0
    digests: list[str | None] = []
    counters: dict = {}
    first_prepare: dict | None = None
    errors: list[str] = []
    recovery = {"replays": 0, "targeted_restores": 0, "full_restores": 0}
    recovery_trials = 0
    for position, spec in enumerate(spec_list):
        log_path = os.path.join(workdir, f"{position:03d}.jsonl")
        attempted += spec.trials
        if recorder is not None:
            recorder.campaign = position
        before = counters_snapshot()
        try:
            start = time.perf_counter()
            spec.prepare()
            prepared_at = time.perf_counter()
            prepare_counters = counters_delta(counters_snapshot(), before)
            run_at = time.perf_counter()
            result = engine.run_campaign(
                spec, workers=workers, log_path=log_path, keep_records=False
            )
            ran_at = time.perf_counter()
            contents = records.read_log(log_path)
            stats.summarize(contents.records)
            end = time.perf_counter()
        except Exception:  # noqa: BLE001 - a failed campaign is a result
            failed += spec.trials
            digests.append(None)
            errors.append(f"campaign {position}: {traceback.format_exc()}")
            continue
        setup += prepared_at - start
        trial_phase += ran_at - run_at
        wall += (end - start) - (run_at - prepared_at)
        completed += len(contents.records)
        failed += spec.trials - len(contents.records)
        busy += sum(record.elapsed for record in contents.records)
        digests.append(_canonical_digest(contents))
        if first_prepare is None:
            first_prepare = prepare_counters
        counters_add(counters, prepare_counters)
        counters_add(
            counters, {"store": result.store or {}, "vector": result.vector or {}}
        )
        for record in contents.records:
            if "replays" in record.extra:
                recovery_trials += 1
                for key in recovery:
                    recovery[key] += record.extra[key]
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": workload,
        "workers": workers,
        "wall_s": wall,
        "setup_s": setup,
        "trial_phase_s": trial_phase,
        "trial_busy_s": busy,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "digests": digests,
        "errors": errors,
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
        "store": counters.get("store", {}),
        "vector": counters.get("vector", {}),
        "cold_hits": {
            name: (first_prepare or {}).get("store", {}).get(name, {}).get("hits", 0)
            for name in COLD_NAMESPACES
        },
        "disk_hits": sum(
            entry.get("disk_hits", 0) for entry in counters.get("store", {}).values()
        ),
        "recovery": recovery,
        "recovery_trials": recovery_trials,
    }
    if recorder is not None:
        # Only traced passes report bytes per record; untraced passes
        # skip the re-read so that more of them fit in a run.
        total = count = 0
        for position in range(len(spec_list)):
            path = os.path.join(workdir, f"{position:03d}.jsonl")
            if os.path.exists(path):
                size, records_in = log_record_bytes(path)
                total += size
                count += records_in
        result["record_bytes"] = total
        result["record_count"] = count
    return result

