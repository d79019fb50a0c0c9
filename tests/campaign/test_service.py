"""Service-dispatcher contracts: bit-identity, crash reissue, warm store.

The tentpole guarantee (ISSUE 10 acceptance criteria): a serviced
campaign — shard dispatcher plus unified artifact store — produces
records bit-identical to ``campaign run --workers N`` for every fault
model, backend, batch size and ``--prune static``; a worker killed
mid-shard costs a reissue, never a record; and a warm second run over
a shared disk store is nearly pure cache hits.
"""

import asyncio
import json

import pytest

from repro.campaign import (
    ChecksumCampaignSpec,
    ProgramCampaignSpec,
    read_log,
    run_campaign,
)
from repro.runtime.faults import FAULT_MODELS
from repro.service import (
    ENV_STORE_DIR,
    LocalProcessEndpoint,
    ServiceProgress,
    Shard,
    ShardFailed,
    run_service_campaign,
    set_store_dir,
)
from repro.service.store import namespace_hit_rate


@pytest.fixture(autouse=True)
def no_disk_store(monkeypatch):
    monkeypatch.delenv(ENV_STORE_DIR, raising=False)
    set_store_dir(None)
    yield
    set_store_dir(None)


DEMO = """
program demo(n) {
  array A[n][n];
  for j = 0 .. n - 1 {
    S1: A[j][j] = sqrt(A[j][j]);
    for i = j + 1 .. n - 1 {
      S2: A[i][j] = A[i][j] / A[j][j];
    }
  }
}
"""

CHECKSUM_SPEC = ChecksumCampaignSpec(
    size=64, bits=2, pattern="random", trials=120, seed=20140609
)


def canonical(result):
    return [record.canonical() for record in result.records]


def _program_spec(**kwargs):
    defaults = dict(
        trials=8,
        seed=77,
        program_text=DEMO,
        params={"n": 6},
        init={"A": "randspd"},
    )
    defaults.update(kwargs)
    return ProgramCampaignSpec(**defaults)


class TestBitIdentity:
    """Serviced campaign == engine campaign, canonically."""

    def test_checksum_campaign(self):
        base = run_campaign(CHECKSUM_SPEC, workers=2)
        svc = run_service_campaign(CHECKSUM_SPEC, workers=2)
        assert canonical(base) == canonical(svc)
        assert base.counts == svc.counts

    def test_program_campaign(self):
        spec = _program_spec()
        base = run_campaign(spec, workers=2)
        svc = run_service_campaign(spec, workers=2)
        assert canonical(base) == canonical(svc)

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_every_fault_model(self, model):
        spec = ProgramCampaignSpec(
            trials=6,
            seed=31,
            benchmark="jacobi1d",
            scale="small",
            fault_model=model,
        )
        base = run_campaign(spec, workers=1)
        svc = run_service_campaign(spec, workers=2, shard_trials=2)
        assert canonical(base) == canonical(svc)

    @pytest.mark.parametrize("backend", ("interp", "compiled"))
    def test_every_backend(self, backend):
        spec = _program_spec(backend=backend)
        base = run_campaign(spec, workers=1)
        svc = run_service_campaign(spec, workers=2, shard_trials=3)
        assert canonical(base) == canonical(svc)

    def test_batched_trials(self):
        spec = _program_spec(trials=10, batch=4)
        base = run_campaign(spec, workers=1)
        svc = run_service_campaign(spec, workers=2, shard_trials=5)
        assert canonical(base) == canonical(svc)

    def test_static_prune(self):
        spec = ProgramCampaignSpec(
            trials=10,
            seed=9,
            benchmark="jacobi1d",
            scale="small",
            prune="static",
        )
        base = run_campaign(spec, workers=1)
        svc = run_service_campaign(spec, workers=2, shard_trials=3)
        assert canonical(base) == canonical(svc)
        assert base.pruned == svc.pruned

    def test_recovery_campaign(self):
        spec = _program_spec(trials=6, recover=True)
        base = run_campaign(spec, workers=1)
        svc = run_service_campaign(spec, workers=2, shard_trials=2)
        assert canonical(base) == canonical(svc)

    def test_worker_and_shard_count_invariance(self):
        one = run_service_campaign(CHECKSUM_SPEC, workers=1, shard_trials=7)
        three = run_service_campaign(CHECKSUM_SPEC, workers=3, shard_trials=13)
        assert canonical(one) == canonical(three)


class TestLogAndResume:
    def test_log_matches_engine_log(self, tmp_path):
        engine_log = str(tmp_path / "engine.jsonl")
        service_log = str(tmp_path / "service.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=2, log_path=engine_log)
        run_service_campaign(CHECKSUM_SPEC, workers=2, log_path=service_log)
        left = [r.canonical() for r in read_log(engine_log).records]
        right = [r.canonical() for r in read_log(service_log).records]
        assert left == right

    def test_stats_trailer_written(self, tmp_path):
        log = str(tmp_path / "svc.jsonl")
        run_service_campaign(CHECKSUM_SPEC, workers=2, log_path=log)
        contents = read_log(log)
        assert contents.stats is not None
        assert "golden" in contents.stats["store"]
        assert contents.stats["service"]["shards"] >= 1
        # The trailer is valid JSONL understood (skipped or parsed) by
        # every reader — the last line of the file.
        last = json.loads(open(log).read().splitlines()[-1])
        assert last["type"] == "stats"

    def test_resume_from_truncated_log(self, tmp_path):
        log = str(tmp_path / "svc.jsonl")
        full = run_service_campaign(CHECKSUM_SPEC, workers=2, log_path=log)
        with open(log) as handle:
            lines = handle.readlines()
        keep = 1 + 40  # header + 40 trials
        with open(log, "w") as handle:
            handle.writelines(lines[:keep])
            handle.write('{"type": "trial", "ind')  # torn tail
        resumed = run_service_campaign(
            CHECKSUM_SPEC, workers=2, log_path=log, resume=True
        )
        assert resumed.resumed_trials == 40
        assert canonical(resumed) == canonical(full)

    def test_progress_callbacks_stream(self):
        seen: list[ServiceProgress] = []
        run_service_campaign(
            CHECKSUM_SPEC, workers=2, shard_trials=30, progress=seen.append
        )
        assert len(seen) == 4  # one per shard
        assert seen[-1].done_trials == CHECKSUM_SPEC.trials
        assert seen[-1].completed_shards == 4
        low, high = seen[-1].detection_interval
        assert 0.0 <= low <= high <= 1.0
        assert all(p.last_report is not None for p in seen)


class _CrashingEndpoint:
    """Wraps LocalProcessEndpoint; once per campaign, forwards only the
    first few records of a shard, kills the worker and fails the shard
    (so the dispatcher must merge the partial prefix with the reissued
    remainder).  Records past the prefix are dropped even when the
    worker streams them before the kill lands, so the crash does not
    depend on timing."""

    PREFIX = 3

    def __init__(self, spec, crashes):
        self._inner = LocalProcessEndpoint(spec)
        self._crashes = crashes

    async def start(self):
        await self._inner.start()

    async def run_shard(self, shard, on_record):
        if self._crashes["remaining"] <= 0:
            return await self._inner.run_shard(shard, on_record)
        self._crashes["remaining"] -= 1
        forwarded = 0

        def prefix(record):
            nonlocal forwarded
            if forwarded < self.PREFIX:
                on_record(record)
                forwarded += 1

        task = asyncio.ensure_future(self._inner.run_shard(shard, prefix))
        while not task.done() and forwarded < self.PREFIX:
            await asyncio.sleep(0.001)
        self._inner.process.kill()
        try:
            await task
        except ShardFailed:
            pass
        raise ShardFailed(
            f"worker killed after {forwarded} of {len(shard.indices)} records"
        )

    async def close(self):
        await self._inner.close()


class TestCrashReissue:
    def test_killed_worker_reissues_missing_indices(self, tmp_path):
        log = str(tmp_path / "crash.jsonl")
        crashes = {"remaining": 1}
        svc = run_service_campaign(
            CHECKSUM_SPEC,
            workers=2,
            shard_trials=30,
            log_path=log,
            endpoint_factory=lambda: _CrashingEndpoint(
                CHECKSUM_SPEC, crashes
            ),
        )
        assert crashes["remaining"] == 0
        assert svc.service["reissued"] >= 1
        serial = run_campaign(CHECKSUM_SPEC, workers=1)
        # Verdict-by-index identity with an uninterrupted serial run —
        # in memory and in the rewritten JSONL log.
        assert canonical(svc) == canonical(serial)
        logged = {r.index: r.verdict for r in read_log(log).records}
        expected = {r.index: r.verdict for r in serial.records}
        assert logged == expected

    def test_persistent_failure_gives_up(self):
        class _DeadEndpoint:
            async def start(self):
                pass

            async def run_shard(self, shard, on_record):
                raise ShardFailed("always down")

            async def close(self):
                pass

        with pytest.raises(RuntimeError, match="giving up"):
            run_service_campaign(
                ChecksumCampaignSpec(
                    size=64, bits=2, pattern="random", trials=6, seed=1
                ),
                workers=1,
                max_attempts=2,
                endpoint_factory=lambda: _DeadEndpoint(),
            )


class TestWarmStore:
    def test_second_run_hits_store(self, tmp_path):
        set_store_dir(tmp_path / "store")
        spec = ProgramCampaignSpec(
            trials=6, seed=11, benchmark="cholesky", scale="small"
        )
        cold = run_service_campaign(spec, workers=2)
        warm = run_service_campaign(spec, workers=2)
        assert canonical(cold) == canonical(warm)
        rate = namespace_hit_rate(
            warm.store, ("golden", "kernel", "instrument")
        )
        assert rate >= 0.90, warm.store

    def test_shards_share_one_golden_run(self, tmp_path):
        # Forked workers inherit the driver's in-memory golden cache;
        # clear it so this campaign's preparations are observable.
        from repro.campaign.golden import clear_cache

        clear_cache()
        set_store_dir(tmp_path / "store")
        spec = ProgramCampaignSpec(
            trials=6, seed=11, benchmark="jacobi1d", scale="small"
        )
        result = run_service_campaign(spec, workers=2, shard_trials=2)
        golden = result.store["golden"]
        # Three shards, two workers: each worker prepares at most once
        # (shards reuse the worker's prepared context), so golden-run
        # work is bounded by the worker count, not the shard count.
        assert result.service["shards"] == 3
        assert golden["misses"] + golden["disk_hits"] <= 2
        assert golden["misses"] + golden["disk_hits"] >= 1


class TestShardPlanning:
    def test_shards_cover_pending_exactly(self):
        from repro.service.dispatcher import _make_shards

        shards, size = _make_shards(list(range(100)), workers=3, shard_trials=None)
        flat = [i for shard in shards for i in shard.indices]
        assert flat == list(range(100))
        assert size <= 32
        assert all(isinstance(shard, Shard) for shard in shards)

    def test_explicit_shard_trials(self):
        from repro.service.dispatcher import _make_shards

        shards, size = _make_shards(list(range(10)), workers=2, shard_trials=4)
        assert size == 4
        assert [len(s.indices) for s in shards] == [4, 4, 2]

    def test_empty_pending(self):
        from repro.service.dispatcher import _make_shards

        assert _make_shards([], workers=2, shard_trials=None) == ([], 0)
