"""Async shard dispatcher: a campaign's pending trials as index-range shards.

Per-trial SHA-256 seeding (:func:`repro.campaign.spec.trial_seed`)
makes every trial a pure function of ``(spec, index)``, so a campaign
cuts into contiguous **shards** of pending indices that can run
anywhere, in any order, any number of times.  The dispatcher exploits
all three freedoms:

* **fan-out** — shards go to a pool of workers behind the
  :class:`WorkerEndpoint` protocol.  The bundled transport is
  :class:`LocalProcessEndpoint` (one forked child per worker slot,
  messages over a pipe the event loop watches directly, so no helper
  thread is alive when the next worker forks); a multi-host transport
  only has to implement the same three ``async`` methods.
* **streaming** — workers ship trial records back in small batches
  *while the shard runs*; the driver consumes them immediately (JSONL
  log append, verdict counts), so ``campaign serve`` reports live
  progress and per-shard throughput instead of a terminal summary.
* **reissue** — a worker crash mid-shard raises :class:`ShardFailed`;
  the dispatcher re-enqueues exactly the indices that never arrived
  (streamed partials are kept, deduplicated by index), replaces the
  dead endpoint, and carries on.  :data:`MAX_ATTEMPTS` bounds the
  attempts per shard so a deterministically-crashing trial cannot loop
  forever.

:func:`dispatch` is the parallel half of
:func:`repro.campaign.engine.run_campaign`, which owns everything
around it: the resume split, the log, static pruning and the result.
Shards execute through the engine's ``_execute_trials`` loop, so the
record *set* equals a serial run's for every fault model, backend,
batch size and ``--prune static``; ``tests/campaign/test_service.py``
pins this differentially.

Workers also ship artifact-store counter deltas with each completed
shard, so the final :class:`~repro.campaign.engine.CampaignResult`
(and the log's stats trailer) carries *aggregate* cache numbers —
with a shared store directory, N workers warm from one golden run and
the trailer proves it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from repro.service.store import counters_add, counters_delta, counters_snapshot

#: Records per streaming message — small enough for live progress,
#: large enough that IPC never dominates a fast trial loop.
RECORD_CHUNK = 16

#: Attempts per shard before the campaign gives up.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class Shard:
    """One dispatchable unit: a contiguous run of pending trial indices."""

    shard_id: int
    indices: tuple[int, ...]
    attempt: int = 1


class ShardFailed(RuntimeError):
    """A shard did not complete on its worker (crash, pipe loss, or an
    error escaping the trial loop).  Carries the reason; the dispatcher
    reissues the missing indices."""


@dataclass
class ShardReport:
    """Throughput accounting for one completed shard."""

    shard_id: int
    worker: int
    trials: int
    elapsed: float
    attempt: int = 1

    @property
    def trials_per_sec(self) -> float:
        return self.trials / self.elapsed if self.elapsed > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "worker": self.worker,
            "trials": self.trials,
            "elapsed": self.elapsed,
            "attempt": self.attempt,
            "trials_per_sec": self.trials_per_sec,
        }


@dataclass
class ServiceProgress:
    """Live snapshot handed to the ``progress`` callback after every
    completed (or reissued) shard.  ``counts`` and
    ``detection_interval`` cover the whole campaign (resumed and pruned
    trials included); :func:`repro.campaign.engine.run_campaign` fills
    them in."""

    total_trials: int
    done_trials: int
    total_shards: int
    completed_shards: int
    reissued: int
    elapsed: float
    counts: dict[str, int] = field(default_factory=dict)
    detection_interval: tuple[float, float] = (0.0, 1.0)
    last_report: ShardReport | None = None

    @property
    def trials_per_sec(self) -> float:
        return self.done_trials / self.elapsed if self.elapsed > 0 else 0.0


@runtime_checkable
class WorkerEndpoint(Protocol):
    """Transport contract between the dispatcher and one worker.

    ``run_shard`` must invoke ``on_record`` (from the event-loop
    thread) for every finished trial and return a completion dict —
    ``{"counters": <store counter delta>, "elapsed": <seconds>}`` —
    or raise :class:`ShardFailed`.  After a failure the endpoint is
    closed and replaced; it need not be reusable.
    """

    async def start(self) -> None: ...

    async def run_shard(self, shard: Shard, on_record: Callable) -> dict: ...

    async def close(self) -> None: ...


# ----------------------------------------------------------------------
# Local-process transport
# ----------------------------------------------------------------------
def _worker_main(conn, spec_dict: dict) -> None:
    """Child-process loop: prepare once, then run shards until told to
    quit.  Runs in a fresh process; all repro state is built here."""
    from repro.campaign.engine import _batch_size, _execute_trials
    from repro.campaign.spec import spec_from_dict

    spec = spec_from_dict(spec_dict)
    # Snapshot before the lazy prepare so fork-inherited cache counters
    # are subtracted out of the first shard's delta.
    base = counters_snapshot()
    prepared = None
    batch_context = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "quit":
            break
        if message[0] != "shard":
            continue
        indices = message[1]
        started = time.perf_counter()
        try:
            if prepared is None:
                prepared = spec.prepare()
                if _batch_size(spec) > 1:
                    from repro.campaign.batch import BatchContext

                    batch_context = BatchContext(spec, prepared)
            buffer: list[dict] = []
            for record in _execute_trials(
                spec, prepared, indices, batch_context
            ):
                buffer.append(record.to_json())
                if len(buffer) >= RECORD_CHUNK:
                    conn.send(("records", buffer))
                    buffer = []
            if buffer:
                conn.send(("records", buffer))
            now = counters_snapshot()
            delta = counters_delta(now, base)
            base = now
            conn.send(
                (
                    "done",
                    {
                        "counters": delta,
                        "elapsed": time.perf_counter() - started,
                    },
                )
            )
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:
        pass


class LocalProcessEndpoint:
    """One worker child process, reached over a ``multiprocessing`` pipe.

    Forked where the platform allows it, spawned elsewhere.  The pipe
    is read on the event loop itself (:meth:`_recv`), so many endpoints
    multiplex on one loop and no reader thread exists when a later
    endpoint — a second slot, or a replacement after a crash — forks.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(method)
        self.process = None
        self._conn = None

    async def start(self) -> None:
        parent, child = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.spec.to_dict()),
            daemon=True,
        )
        self.process.start()
        child.close()
        self._conn = parent

    async def _recv(self):
        """The next message, once the pipe is readable (or at EOF)."""
        loop = asyncio.get_running_loop()
        readable = loop.create_future()
        fd = self._conn.fileno()

        def on_readable() -> None:
            if not readable.done():
                readable.set_result(None)

        loop.add_reader(fd, on_readable)
        try:
            await readable
        finally:
            loop.remove_reader(fd)
        return self._conn.recv()

    async def run_shard(self, shard: Shard, on_record: Callable) -> dict:
        from repro.campaign.records import TrialRecord

        if self._conn is None:
            raise ShardFailed("endpoint not started")
        try:
            self._conn.send(("shard", list(shard.indices)))
        except (OSError, BrokenPipeError) as error:
            raise ShardFailed(f"worker pipe closed: {error}") from error
        while True:
            try:
                message = await self._recv()
            except (EOFError, OSError) as error:
                raise ShardFailed(
                    f"worker died mid-shard {shard.shard_id}: {error!r}"
                ) from error
            kind = message[0]
            if kind == "records":
                for data in message[1]:
                    on_record(TrialRecord.from_json(data))
            elif kind == "done":
                return message[1]
            elif kind == "error":
                raise ShardFailed(
                    f"shard {shard.shard_id} raised in worker:\n{message[1]}"
                )

    async def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("quit",))
            except (OSError, BrokenPipeError):
                pass
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self.process is not None:
            self.process.join(timeout=5)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5)
            self.process = None


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
def _make_shards(
    pending: list[int], workers: int, shard_trials: int | None = None
):
    """Contiguous shards over the pending indices.

    The size targets several shards per worker (load balancing and
    finer-grained crash recovery) but caps at 32 trials so progress
    stays live on long campaigns; ``shard_trials`` overrides it.
    """
    if not pending:
        return [], 0
    if shard_trials is None:
        per = (len(pending) + workers * 4 - 1) // (workers * 4)
        shard_trials = max(1, min(32, per))
    shard_trials = max(1, int(shard_trials))
    shards = [
        Shard(shard_id=i, indices=tuple(pending[start : start + shard_trials]))
        for i, start in enumerate(range(0, len(pending), shard_trials))
    ]
    return shards, shard_trials


def dispatch(
    spec,
    pending: list[int],
    workers: int,
    consume: Callable,
    progress: Callable[[ServiceProgress], None] | None = None,
    endpoint_factory: Callable[[], WorkerEndpoint] | None = None,
) -> tuple[dict, dict]:
    """Run the ``pending`` trial indices of ``spec`` on ``workers``
    endpoints.

    ``consume`` receives every record exactly once, in arrival order (a
    reissued shard's already-streamed records are deduplicated by
    index).  ``progress`` receives a :class:`ServiceProgress` after
    every completed or reissued shard; its verdict ``counts`` are left
    for the caller to fill.  ``endpoint_factory`` must return a fresh,
    unstarted :class:`WorkerEndpoint` per call (default: a
    :class:`LocalProcessEndpoint`); tests inject crashing endpoints
    here.

    Returns ``(worker_totals, service_meta)``: the workers' summed
    store-counter deltas and the shard metrics behind
    ``result.service`` and the stats trailer's ``service`` block.
    """
    start = time.perf_counter()
    shards, shard_size = _make_shards(pending, workers)
    if endpoint_factory is None:
        endpoint_factory = lambda: LocalProcessEndpoint(spec)  # noqa: E731

    worker_totals: dict = {}
    reports: list[ShardReport] = []
    reissued = 0
    done_indices: set[int] = set()

    def emit_progress(last: ShardReport | None) -> None:
        if progress is None:
            return
        progress(
            ServiceProgress(
                total_trials=len(pending),
                done_trials=len(done_indices),
                total_shards=len(shards),
                completed_shards=len(reports),
                reissued=reissued,
                elapsed=time.perf_counter() - start,
                last_report=last,
            )
        )

    def on_record(record) -> None:
        if record.index not in done_indices:
            done_indices.add(record.index)
            consume(record)

    async def drive() -> None:
        queue = deque(shards)

        async def worker_loop(slot: int) -> None:
            nonlocal reissued
            if not queue:
                return
            endpoint = endpoint_factory()
            await endpoint.start()
            try:
                while queue:
                    shard = queue.popleft()
                    shard_started = time.perf_counter()
                    try:
                        info = await endpoint.run_shard(shard, on_record)
                    except ShardFailed as failure:
                        missing = tuple(
                            i for i in shard.indices if i not in done_indices
                        )
                        await endpoint.close()
                        if missing:
                            if shard.attempt >= MAX_ATTEMPTS:
                                raise RuntimeError(
                                    f"shard {shard.shard_id} failed "
                                    f"{shard.attempt} times; giving up: "
                                    f"{failure}"
                                ) from failure
                            queue.append(
                                Shard(
                                    shard_id=shard.shard_id,
                                    indices=missing,
                                    attempt=shard.attempt + 1,
                                )
                            )
                            reissued += 1
                        emit_progress(None)
                        endpoint = endpoint_factory()
                        await endpoint.start()
                        continue
                    counters_add(worker_totals, info.get("counters", {}))
                    report = ShardReport(
                        shard_id=shard.shard_id,
                        worker=slot,
                        trials=len(shard.indices),
                        elapsed=time.perf_counter() - shard_started,
                        attempt=shard.attempt,
                    )
                    reports.append(report)
                    emit_progress(report)
            finally:
                await endpoint.close()

        async with asyncio.TaskGroup() as group:
            for slot in range(min(workers, len(shards))):
                group.create_task(worker_loop(slot))

    if shards:
        try:
            asyncio.run(drive())
        except BaseExceptionGroup as group:
            # TaskGroup wraps worker-loop failures; surface the first
            # real error with the engine's exception contract.
            raise group.exceptions[0] from group
    service_meta = {
        "workers": workers,
        "shards": len(shards),
        "shard_trials": shard_size,
        "reissued": reissued,
        "reports": [report.to_json() for report in reports],
    }
    return worker_totals, service_meta
