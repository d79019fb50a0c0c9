"""Batched multi-trial execution for program campaigns.

The serial campaign loop pays, per trial: a fresh :class:`Memory`
build, a per-element ``initialize`` encode loop over every array, a
kernel run, and two per-element ``to_array`` decode loops for the
replay/propagation verdicts.  Only the kernel run is irreducible — the
rest is setup and classification overhead that batching amortizes:

* one memory image is built and initialized once per batch; every
  trial restores the encoded word snapshot in place (a slice copy) and
  resets the access counters, so injector triggers — which are
  load-event indices — land exactly as they do on a fresh memory;
* each trial's final state is appended to a ``(T, words)`` NumPy
  ``uint64`` image per array, and the golden comparison for all T
  trials happens once, in one NumPy pass, via ``.view(float64/int64)`` —
  bit-for-bit the decoded comparison :meth:`ProgramCampaignSpec`
  performs per trial (NaN ≠ NaN, ``-0.0 == 0.0``: verdicts depend on
  *decoded* values, never raw words).

The injector discipline is untouched: trial ``i`` still gets a fresh
injector seeded ``trial_seed(spec.seed, i)``, so a batched campaign's
records are canonical-identical to the serial run (the differential
tests in ``tests/campaign/test_batch.py`` pin this).

Specs the batcher cannot run — checksum campaigns, ``recover=True``
(the recovery controller owns memory lifecycle), interpreter backend or
compile fallback (no kernel to share) — fall back to the serial
``run_trial`` per index, producing the same records either way.

The golden side of the ``(T, words)`` comparison is produced once by
``ProgramCampaignSpec._prepare``, so the batched campaign's only
remaining per-trial cost is the injected runs, which must observe the
:class:`Memory` choke point event-by-event.
"""

from __future__ import annotations

import time

from repro.campaign.records import (
    BENIGN,
    DETECTED,
    NO_INJECTION,
    SDC,
    TrialRecord,
)
from repro.campaign.spec import trial_seed
from repro.runtime.memory import lazy_numpy


def spec_supports_batch(spec, prepared) -> bool:
    """Whether ``run_batch`` can run this spec natively (else it falls
    back to per-trial ``run_trial``)."""
    return (
        getattr(spec, "kind", None) == "program"
        and not getattr(spec, "recover", False)
        and getattr(prepared, "kernel", None) is not None
        and getattr(prepared, "plan", None) is None
    )


class BatchContext:
    """Reusable batched-execution state for one (spec, prepared) pair.

    Construction builds and initializes the shared memory image and
    snapshots its encoded words; :meth:`run` then executes any index
    group against it.  One context amortizes setup across every group
    of a worker's chunk.
    """

    def __init__(self, spec, prepared) -> None:
        np = lazy_numpy()

        from repro.runtime.memory import build_memory_for_program

        self.spec = spec
        self.prepared = prepared
        self.native = spec_supports_batch(spec, prepared)
        if not self.native:
            return
        kernel = prepared.kernel
        program = kernel.program
        run_params = {p: int(prepared.params[p]) for p in program.params}
        self.memory = build_memory_for_program(
            program, run_params, None, wild_reads=True
        )
        for name, values in prepared.values.items():
            self.memory.initialize(name, values)
        # Encoded post-initialization words of every region (shadow
        # counters and scalars included) — the per-trial reset state.
        self.snapshot = self.memory.snapshot()
        self.regions = self.memory._regions
        # Golden comparison data, decoded once: flat value array, dtype
        # view and flat shape per original array.
        self.gold_flat = {}
        self.views = {}
        self.shapes = {}
        for name, gold in prepared.golden_finals.items():
            region = self.regions[name]
            self.views[name] = (
                np.float64 if region.elem_type == "f64" else np.int64
            )
            self.shapes[name] = region.shape
            self.gold_flat[name] = np.asarray(gold).reshape(-1)

    def run(self, indices) -> list[TrialRecord]:
        if not self.native:
            return [
                self.spec.run_trial(i, self.prepared) for i in indices
            ]
        np = lazy_numpy()

        spec = self.spec
        prepared = self.prepared
        memory = self.memory
        kernel = prepared.kernel
        T = len(indices)
        finals = {
            name: np.empty((T, len(self.snapshot[name])), dtype=np.uint64)
            for name in self.gold_flat
        }
        trials = []
        for t, index in enumerate(indices):
            start = time.perf_counter()
            seed = trial_seed(spec.seed, index)
            injector = spec._make_trial_injector(seed, prepared)
            for name, words in self.snapshot.items():
                self.regions[name].words[:] = words
            # Injector triggers are load/store event indices: the
            # counters must restart from zero exactly as on a fresh
            # memory, or batched trials would strike different sites.
            memory.load_count = 0
            memory.store_count = 0
            memory.wild_accesses = 0
            memory.injector = injector
            result = kernel.execute(
                prepared.params,
                memory=memory,
                injector=injector,
                channels=spec.channels,
            )
            for name in finals:
                finals[name][t] = self.regions[name].words
            trials.append(
                (
                    index,
                    seed,
                    injector.record,
                    bool(result.error_detected),
                    result.first_detection_step,
                    result.statements_executed,
                    time.perf_counter() - start,
                )
            )
        # Vectorized golden comparison over the whole (T, words) image.
        neq = {}
        diverged = np.zeros(T, dtype=bool)
        for name, gold in self.gold_flat.items():
            decoded = finals[name].view(self.views[name])
            neq[name] = decoded != gold[None, :]
            diverged |= neq[name].any(axis=1)
        records = []
        for t, (
            index,
            seed,
            record,
            error_detected,
            first_detection_step,
            total_steps,
            elapsed,
        ) in enumerate(trials):
            extra = {"fault_model": spec.fault_model}
            if record is None:
                verdict = NO_INJECTION
                injection = None
            else:
                injection = record.to_dict()
                extra["replay_detected"] = bool(diverged[t])
                extra["detection_step"] = first_detection_step
                extra["total_steps"] = total_steps
                if error_detected:
                    verdict = DETECTED
                else:
                    verdict = (
                        SDC
                        if self._propagated(t, record, neq)
                        else BENIGN
                    )
            records.append(
                TrialRecord(
                    index=index,
                    seed=seed,
                    verdict=verdict,
                    injection=injection,
                    elapsed=elapsed,
                    extra=extra,
                )
            )
        return records

    def _propagated(self, t: int, record, neq) -> bool:
        """Masked propagation test for one trial — the struck cells are
        excluded from the comparison on both sides, exactly like
        ``ProgramCampaignSpec._propagated`` zeroing them."""
        np = lazy_numpy()

        masked_flat = None
        cells = list(record.masked_cells())
        if cells and record.array in self.gold_flat:
            shape = self.shapes[record.array]
            if shape:
                masked_flat = np.ravel_multi_index(
                    tuple(np.array(c) for c in zip(*cells)), shape
                )
            else:
                masked_flat = np.zeros(len(cells), dtype=np.intp)
        for name in self.gold_flat:
            row = neq[name][t]
            if masked_flat is not None and name == record.array:
                row = row.copy()
                row[masked_flat] = False
            if row.any():
                return True
        return False


def run_batch(spec, prepared, indices, context: BatchContext | None = None):
    """Run trials ``indices`` of one spec batched; records are
    canonical-identical to serial ``run_trial`` calls."""
    if context is None:
        context = BatchContext(spec, prepared)
    return context.run(indices)
