"""The campaign driver: serial or multiprocessing, always bit-identical.

Because every trial is self-seeded (:func:`repro.campaign.spec.trial_seed`),
parallelism is pure fan-out: workers receive the spec once (pool
initializer) and then only chunks of trial indices.  Results are
collected unordered and sorted by index, so the record *set* — and
therefore every aggregate — is identical for any worker count; the
differential tests in ``tests/campaign/`` pin this contract.

Resume: with ``log_path`` set, each finished trial is appended to a
JSONL log as it completes.  A killed campaign leaves a valid prefix
(plus at most one torn line, which the reader drops); ``resume=True``
re-runs exactly the missing indices and rewrites a clean merged log.
:func:`resume_campaign` reconstructs the spec from the log header, so
a log file alone is enough to finish a campaign.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.campaign.records import (
    LogContents,
    TrialRecord,
    read_log,
    write_header,
    write_record,
    write_stats,
)
from repro.campaign.spec import CampaignSpec, spec_from_dict
from repro.campaign.stats import CampaignSummary, summarize_counts
from repro.service.store import (
    COUNTER_FIELDS,
    counters_add,
    counters_delta,
    counters_snapshot,
    store_stats,
)

# ----------------------------------------------------------------------
# Worker-side state.  The spec is shipped once via the pool initializer;
# the prepared context (golden run, data image) is built lazily on the
# first trial a worker executes and reused for all its later trials.
# ----------------------------------------------------------------------
_WORKER_SPEC: CampaignSpec | None = None
_WORKER_PREPARED = None
_WORKER_BATCH = None
_WORKER_COUNTERS = None


def _init_worker(spec: CampaignSpec) -> None:
    global _WORKER_SPEC, _WORKER_PREPARED, _WORKER_BATCH, _WORKER_COUNTERS
    _WORKER_SPEC = spec
    _WORKER_PREPARED = None
    _WORKER_BATCH = None
    # Snapshot before the lazy prepare so a fork-inherited cache state
    # is subtracted out and the prepare's own hits/misses are reported.
    _WORKER_COUNTERS = counters_snapshot()


def _batch_size(spec: CampaignSpec) -> int:
    return max(1, int(getattr(spec, "batch", 1)))


def _batch_groups(indices: Sequence[int], size: int) -> list[list[int]]:
    return [
        list(indices[start : start + size])
        for start in range(0, len(indices), size)
    ]


def _execute_trials(spec, prepared, indices, batch_context=None):
    """Yield the records for ``indices`` (batch-aware).

    The one trial loop shared by the serial path, the pool workers and
    the service dispatcher's workers — bit-identity across all three
    is this function being the only way trials run.
    """
    size = _batch_size(spec)
    if size > 1:
        from repro.campaign.batch import BatchContext

        context = batch_context or BatchContext(spec, prepared)
        for group in _batch_groups(indices, size):
            yield from context.run(group)
    else:
        for index in indices:
            yield spec.run_trial(index, prepared)


def _worker_counters_delta() -> dict:
    """Counter growth since the last call (or worker init), for the
    driver to aggregate."""
    global _WORKER_COUNTERS
    now = counters_snapshot()
    delta = counters_delta(now, _WORKER_COUNTERS)
    _WORKER_COUNTERS = now
    return delta


def _run_chunk(indices: Sequence[int]) -> dict:
    global _WORKER_PREPARED, _WORKER_BATCH
    assert _WORKER_SPEC is not None, "worker used before initialization"
    if _WORKER_PREPARED is None:
        _WORKER_PREPARED = _WORKER_SPEC.prepare()
    if _batch_size(_WORKER_SPEC) > 1 and _WORKER_BATCH is None:
        from repro.campaign.batch import BatchContext

        _WORKER_BATCH = BatchContext(_WORKER_SPEC, _WORKER_PREPARED)
    records = list(
        _execute_trials(
            _WORKER_SPEC, _WORKER_PREPARED, indices, _WORKER_BATCH
        )
    )
    return {"records": records, "counters": _worker_counters_delta()}


def _chunked(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Contiguous chunks, several per worker (load balancing without
    per-trial IPC overhead)."""
    if not indices:
        return []
    target_chunks = max(workers * 4, 1)
    chunk_size = max(1, (len(indices) + target_chunks - 1) // target_chunks)
    return [
        list(indices[start : start + chunk_size])
        for start in range(0, len(indices), chunk_size)
    ]


@dataclass
class CampaignResult:
    """What a campaign produced (records optional for huge runs)."""

    spec: CampaignSpec
    counts: dict[str, int]
    records: list[TrialRecord] | None = None
    elapsed: float = 0.0
    resumed_trials: int = 0
    """How many trials were recovered from the log instead of re-run."""
    log_path: str | None = None
    workers: int = 1
    golden_cache: dict[str, int] | None = None
    """Golden-run cache counters (hits/misses/evictions/size/limit),
    aggregated across the driving process *and* every worker (workers
    ship monotone counter deltas back with each chunk/shard)."""
    instrument_cache: dict[str, int] | None = None
    """Instrumentation-cache counters (hits/misses/disk_hits/...),
    aggregated like ``golden_cache`` (see
    :mod:`repro.instrument.cache`)."""
    pruned: int = 0
    """Trials short-circuited by the static oracle this run
    (``spec.prune='static'``): their records carry a *predicted*
    verdict (``extra.predicted``) instead of a measured one."""
    vector: dict[str, int] | None = None
    """Always ``None``: the vector backend is gone.  Kept for the
    benchmark harness, which still reads it."""
    store: dict[str, dict] | None = None
    """Per-namespace artifact-store stats (every namespace the run
    touched — golden, kernel, instrument, ISL memos), aggregated across
    driver and workers."""
    service: dict | None = None
    """Dispatcher metrics when the campaign ran through
    :func:`repro.service.run_service_campaign` (shards, reissues,
    per-shard throughput); ``None`` for plain engine runs."""

    def summary(self) -> CampaignSummary:
        return summarize_counts(self.counts)


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    log_path: str | None = None,
    resume: bool = False,
    keep_records: bool = True,
    mp_context: str | None = None,
) -> CampaignResult:
    """Run (or finish) a campaign.

    ``workers=1`` runs in-process; ``workers>1`` fans out over a
    ``multiprocessing`` pool.  With ``keep_records=False`` only verdict
    counts are retained in memory (the log, if any, still gets every
    record) — use this for 10^5-trial table sweeps.
    """
    if spec.trials < 0:
        raise ValueError("trials must be >= 0")
    start = time.perf_counter()
    driver_base = counters_snapshot()
    done = _load_done(spec, log_path, resume)
    pending = [i for i in range(spec.trials) if i not in done]
    handle = _open_log(log_path, spec, done)

    counts: Counter[str] = Counter(r.verdict for r in done.values())
    kept: list[TrialRecord] = list(done.values()) if keep_records else []

    def consume(record: TrialRecord) -> None:
        counts[record.verdict] += 1
        if keep_records:
            kept.append(record)
        if handle is not None:
            write_record(handle, record)

    pending, pruned = _prune_predicted(spec, pending, consume)

    worker_totals: dict = {}
    try:
        if workers <= 1 or len(pending) <= 1:
            prepared = spec.prepare() if pending else None
            for record in _execute_trials(spec, prepared, pending):
                consume(record)
        else:
            method = mp_context or (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            context = multiprocessing.get_context(method)
            chunks = _chunked(pending, workers)
            with context.Pool(
                processes=min(workers, len(chunks)),
                initializer=_init_worker,
                initargs=(spec,),
            ) as pool:
                for chunk in pool.imap_unordered(_run_chunk, chunks):
                    for record in chunk["records"]:
                        consume(record)
                    counters_add(worker_totals, chunk["counters"])
                    if handle is not None:
                        handle.flush()
        if handle is not None:
            write_stats(handle, aggregate_stats(worker_totals, driver_base))
    finally:
        if handle is not None:
            handle.close()

    if keep_records:
        kept.sort(key=lambda record: record.index)
    return _build_result(
        spec=spec,
        counts=dict(counts),
        records=kept if keep_records else None,
        elapsed=time.perf_counter() - start,
        resumed_trials=len(done),
        log_path=log_path,
        workers=workers,
        pruned=pruned,
        worker_totals=worker_totals,
        driver_base=driver_base,
    )


def aggregate_stats(
    worker_totals: dict | None, driver_base: dict | None = None
) -> dict:
    """Merged store counters of *this run*: the driver's
    counter growth since ``driver_base`` plus every worker's shipped
    deltas — the log's stats trailer payload.  ``size``/``limit``
    gauges come from the driver's live namespaces."""
    combined: dict = {"store": {}}
    counters_add(combined, counters_delta(counters_snapshot(), driver_base))
    if worker_totals:
        counters_add(combined, worker_totals)
    local = store_stats()
    store: dict[str, dict] = {}
    for name in sorted(set(combined["store"]) | set(local)):
        flat = combined["store"].get(name, {})
        entry = {field: flat.get(field, 0) for field in COUNTER_FIELDS}
        gauges = local.get(name, {})
        entry["size"] = gauges.get("size", 0)
        entry["limit"] = gauges.get("limit", 0)
        store[name] = entry
    return {"store": store}


def _build_result(
    *, worker_totals, driver_base=None, service=None, **kwargs
) -> CampaignResult:
    from repro.campaign.golden import cache_stats
    from repro.instrument.cache import cache_stats as instrument_cache_stats

    stats = aggregate_stats(worker_totals, driver_base)
    store = stats["store"]
    return CampaignResult(
        golden_cache=store.get("golden", cache_stats()),
        instrument_cache=store.get("instrument", instrument_cache_stats()),
        store=store,
        service=service,
        **kwargs,
    )


def _load_done(
    spec: CampaignSpec, log_path: str | None, resume: bool
) -> dict[int, TrialRecord]:
    """Records recoverable from an existing log (resume runs only)."""
    if not resume:
        return {}
    if log_path is None:
        raise ValueError("resume=True needs a log_path")
    if not os.path.exists(log_path):
        return {}
    contents = read_log(log_path)
    _check_header(contents, spec)
    return {r.index: r for r in contents.records if r.index < spec.trials}


def _open_log(log_path: str | None, spec: CampaignSpec, done: dict):
    """Start (or restart) the campaign log.

    Rewrites from scratch: on resume this drops any torn tail line and
    re-serializes the recovered prefix before new appends.
    """
    if log_path is None:
        return None
    handle = open(log_path, "w")
    write_header(handle, spec.to_dict())
    for index in sorted(done):
        write_record(handle, done[index])
    handle.flush()
    return handle


def _prune_predicted(spec: CampaignSpec, pending: list[int], consume):
    """Static pruning: trials the oracle proves DETECTED or MASKED are
    consumed as predicted records (schema-compatible, resume-safe — a
    resumed run sees them as done) and never executed; everything
    value-dependent stays pending for measurement."""
    pruned = 0
    if pending and getattr(spec, "prune", "none") == "static":
        from repro.analysis.oracle import StaticOracle

        oracle = StaticOracle(spec, spec.prepare())
        remaining = []
        for index in pending:
            predicted = oracle.predict(index)
            if predicted is None:
                remaining.append(index)
            else:
                pruned += 1
                consume(predicted)
        pending = remaining
    return pending, pruned


def resume_campaign(
    log_path: str, workers: int = 1, keep_records: bool = True
) -> CampaignResult:
    """Finish the campaign a log file describes (spec from the header)."""
    contents = read_log(log_path)
    if contents.spec_dict is None:
        raise ValueError(f"{log_path}: no campaign header found")
    spec = spec_from_dict(contents.spec_dict)
    return run_campaign(
        spec,
        workers=workers,
        log_path=log_path,
        resume=True,
        keep_records=keep_records,
    )


def _check_header(contents: LogContents, spec: CampaignSpec) -> None:
    """Refuse a log of another campaign.  The header is compared in its
    normalised form, so a log written before a retired spec field went
    away still resumes."""
    if contents.spec_dict is None:
        return
    if spec_from_dict(contents.spec_dict).to_dict() != spec.to_dict():
        raise ValueError(
            "log header does not match the campaign spec being resumed; "
            "refusing to merge records from a different campaign"
        )


def replay_trial(
    spec: CampaignSpec, index: int, prepared=None
) -> TrialRecord:
    """Re-run one trial in isolation (the per-index replay guarantee).

    ``spec.prepare()`` is content-addressed end to end — the golden-run
    cache keys on the spec's golden digest and the kernel LRU on the IR
    digest — so a replay never recompiles or re-executes a golden run
    another replay (or the original campaign, in-process) already paid
    for.  Pass ``prepared`` to replay many indices against
    one explicitly shared context without any cache lookups.
    """
    if prepared is None:
        prepared = spec.prepare()
    return spec.run_trial(index, prepared)


def sort_records(log_or_records) -> list[TrialRecord]:
    """Records sorted by index, from a log path or a record iterable."""
    if isinstance(log_or_records, str):
        return read_log(log_or_records).records
    return sorted(log_or_records, key=lambda record: record.index)
