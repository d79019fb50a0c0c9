"""The injector ``watch`` protocol and the level-2 kernel that trusts it.

A level-2 kernel runs a load or store inline (no ``Memory`` call, no
hook) while its ordinal is below the attached injector's
:meth:`~repro.runtime.faults.FaultInjector.watch` answer.  That is
sound only if no hook could act there.  These tests check every
model's answers by brute force against the interpreter, which still
calls every hook on every access, and pin what the kernel does with
the answers: the hook calls an unwatched injector sees, how few
``Memory`` calls a watched trial makes, and the two places a watch
answer is easiest to get wrong — a stuck-bit window that straddles a
recovery rollback, and an address-generation trigger whose own access
cannot be redirected.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.campaign import ProgramCampaignSpec, trial_seed
from repro.campaign.spec import _copy_values
from repro.ir.parser import parse_program
from repro.recovery import run_plan
from repro.recovery.checkpoint import CheckpointStore
from repro.runtime.compile import compile_program
from repro.runtime.faults import (
    EVERY,
    FAULT_MODELS,
    NEVER,
    AddressGenerationFault,
    FaultInjector,
    IntermittentStuckBit,
    MultiInjector,
    NoFaults,
    RandomCellFlipper,
    ScheduledBitFlip,
    watch_of,
)
from repro.runtime.interpreter import run_program
from repro.runtime.memory import Memory, MemoryError64, build_memory_for_program

BENCHMARKS = ("jacobi1d", "trisolv", "cholesky", "cg")
MODELS = (*FAULT_MODELS, "scheduled")


def _prepared(benchmark: str, model: str = "random_cell", **fields):
    spec = ProgramCampaignSpec(
        trials=4,
        seed=4242,
        benchmark=benchmark,
        scale="small",
        fault_model="random_cell" if model == "scheduled" else model,
        **fields,
    )
    return spec, spec.prepare()


def _injector(spec, prepared, model: str, index: int):
    seed = trial_seed(spec.seed, index)
    if model != "scheduled":
        return spec._make_trial_injector(seed, prepared)
    rng = random.Random(seed)
    array = rng.choice(prepared.targets)
    shape = prepared.golden_finals[array].shape
    cell = tuple(rng.randrange(extent) for extent in shape)
    return ScheduledBitFlip(
        array, cell, (rng.randrange(64),), rng.randint(1, prepared.total_loads)
    )


def _memory_like(cls, program, params, injector=None, wild_reads=True):
    """A fresh ``cls`` memory with ``program``'s regions at the same
    addresses ``build_memory_for_program`` gives them."""
    built = build_memory_for_program(program, params)
    plain = set(built.region_names(include_shadow=False))
    memory = cls(injector=injector, wild_reads=wild_reads)
    for name in built.region_names(include_shadow=True):
        memory.declare(
            name,
            built.shape(name),
            built.elem_type(name),
            is_shadow=name not in plain,
        )
    return memory


def _identical(a, b):
    assert a.counts == b.counts
    assert a.checksums.sums == b.checksums.sums
    assert [str(m) for m in a.mismatches] == [str(m) for m in b.mismatches]
    assert a.statements_executed == b.statements_executed
    assert a.memory.snapshot() == b.memory.snapshot()
    assert a.memory.load_count == b.memory.load_count
    assert a.memory.store_count == b.memory.store_count
    assert a.memory.wild_accesses == b.memory.wild_accesses


# -- brute force: no hook acts below a watch answer ---------------------


class _KernelPolicyMemory(Memory):
    """Replays a level-2 kernel's watch policy while the interpreter
    drives the memory: an in-bounds access below the current answer is
    marked *inert*, and the answer is re-read after every other access
    (the kernel's ``_xld``/``_xst``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answer = None
        self.inert = False

    def _access(self, axis, name, indices, call):
        if self.answer is None:
            self.answer = watch_of(self.injector, self)
        count = self.load_count if axis == 0 else self.store_count
        try:
            self._region(name).offset(tuple(indices))
            in_bounds = True
        except MemoryError64:
            in_bounds = False
        self.inert = in_bounds and count + 1 < self.answer[axis]
        try:
            return call()
        finally:
            if not self.inert:
                self.answer = watch_of(self.injector, self)
            self.inert = False

    def load_bits(self, name, indices=()):
        return self._access(
            0, name, indices, lambda: Memory.load_bits(self, name, indices)
        )

    def store_bits(self, name, indices, bits):
        return self._access(
            1,
            name,
            indices,
            lambda: Memory.store_bits(self, name, indices, bits),
        )


def _state(injector, memory):
    rng = getattr(injector, "rng", None)
    fields = {k: v for k, v in vars(injector).items() if k != "rng"}
    return (
        copy.deepcopy(fields),
        rng.getstate() if rng is not None else None,
        memory.snapshot(),
    )


class _InertProbe(FaultInjector):
    """Delegates every hook to ``inner``; on an inert access asserts
    the hook returns ``None`` and leaves the injector (its RNG
    included) and the memory untouched."""

    def __init__(self, inner):
        self.inner = inner
        self.redirects = inner.redirects
        self.inert_calls = 0

    def watch(self, memory):
        return self.inner.watch(memory)

    def _call(self, hook, memory, *args):
        method = getattr(self.inner, hook)
        if not memory.inert:
            return method(memory, *args)
        before = _state(self.inner, memory)
        result = method(memory, *args)
        where = (hook, memory.load_count, memory.store_count)
        assert result is None, f"{where}: hook acted below its watch"
        assert _state(self.inner, memory) == before, (
            f"{where}: hook changed state below its watch"
        )
        self.inert_calls += 1
        return None

    def before_load(self, memory, name, indices, word):
        return self._call("before_load", memory, name, indices, word)

    def after_store(self, memory, name, indices, word):
        return self._call("after_store", memory, name, indices, word)

    def redirect_load(self, memory, name, indices):
        return self._call("redirect_load", memory, name, indices)

    def redirect_store(self, memory, name, indices):
        return self._call("redirect_store", memory, name, indices)


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("model", MODELS)
def test_hooks_inert_below_watch(model, name):
    spec, prepared = _prepared(name, model)
    inert = 0
    for index in range(3):
        injector = _injector(spec, prepared, model, index)
        probe = _InertProbe(injector)
        memory = _memory_like(
            _KernelPolicyMemory, prepared.program, prepared.params, probe
        )
        probed = run_program(
            prepared.program,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            memory=memory,
            wild_reads=True,
        )
        inert += probe.inert_calls
        # The probe only observes: the run is the plain interpreter's.
        reference = _injector(spec, prepared, model, index)
        plain = run_program(
            prepared.program,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=reference,
            wild_reads=True,
        )
        _identical(plain, probed)
        assert repr(getattr(reference, "record", None)) == repr(
            getattr(injector, "record", None)
        )
    assert inert > 0, "no access ran below a watch answer"


def test_watch_answers_through_a_model_lifecycle():
    memory = Memory()
    memory.declare("A", (4,))
    assert watch_of(None, memory) == (NEVER, NEVER)
    assert NoFaults().watch(memory) == (NEVER, NEVER)
    assert FaultInjector().watch(memory) == (EVERY, EVERY)

    flip = ScheduledBitFlip("A", (1,), (3,), at_load=5)
    assert flip.watch(memory) == (5, NEVER)
    flip.fired = True
    assert flip.watch(memory) == (NEVER, NEVER)

    load_fault = AddressGenerationFault("load", 10, random.Random(1))
    store_fault = AddressGenerationFault("store", 10, random.Random(1))
    assert load_fault.watch(memory) == (load_fault.trigger, NEVER)
    assert store_fault.watch(memory) == (NEVER, store_fault.trigger)

    stuck = IntermittentStuckBit(10, window=3, rng=random.Random(2))
    assert stuck.watch(memory) == (stuck.start, NEVER)
    memory.load_count = stuck.start
    stuck.before_load(memory, "A", (0,), memory.peek_bits("A", (0,)))
    assert stuck.record is not None
    assert stuck.watch(memory) == (EVERY, EVERY)
    memory.load_count = stuck.record.window[1] + 1
    assert stuck.watch(memory) == (NEVER, NEVER)

    both = MultiInjector([flip, load_fault, store_fault])
    assert both.watch(memory) == (load_fault.trigger, store_fault.trigger)
    assert MultiInjector([NoFaults(), object()]).watch(memory) == (
        EVERY,
        EVERY,
    )


# -- what the kernel does with the answers ------------------------------


class _AccessRecorder(FaultInjector):
    """Does not override ``watch``: must see every access."""

    def __init__(self):
        self.loads = []
        self.stores = []

    def before_load(self, memory, name, indices, word):
        self.loads.append((memory.load_count, name, tuple(indices)))
        return None

    def after_store(self, memory, name, indices, word):
        self.stores.append((memory.store_count, name, tuple(indices)))
        return None


class _DuckRecorder:
    """Not a :class:`FaultInjector` at all: watched on every access."""

    def __init__(self):
        self.inner = _AccessRecorder()

    def before_load(self, *args):
        return self.inner.before_load(*args)

    def after_store(self, *args):
        return self.inner.after_store(*args)


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("duck", [False, True])
def test_unwatched_injector_sees_every_access(name, duck):
    _, prepared = _prepared(name)
    kernel = compile_program(prepared.program, opt_level=2)
    seen = []
    for execute in (
        lambda inj: run_program(
            prepared.program,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=inj,
        ),
        lambda inj: kernel.execute(
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=inj,
        ),
    ):
        injector = _DuckRecorder() if duck else _AccessRecorder()
        result = execute(injector)
        recorder = injector.inner if duck else injector
        loads = [ordinal for ordinal, _, _ in recorder.loads]
        stores = [ordinal for ordinal, _, _ in recorder.stores]
        assert loads == list(range(1, result.memory.load_count + 1))
        assert stores == list(range(1, result.memory.store_count + 1))
        seen.append((recorder.loads, recorder.stores))
    assert seen[0] == seen[1]


class _CountingMemory(Memory):
    """Counts the raw ``Memory`` access calls a kernel makes."""

    calls = 0

    def load_bits(self, name, indices=()):
        self.calls += 1
        return super().load_bits(name, indices)

    def store_bits(self, name, indices, bits):
        self.calls += 1
        return super().store_bits(name, indices, bits)

    def load_bits_addr(self, name, indices=()):
        self.calls += 1
        return super().load_bits_addr(name, indices)

    def store_bits_addr(self, name, indices, bits):
        self.calls += 1
        return super().store_bits_addr(name, indices, bits)


def test_level2_trial_calls_memory_only_where_watched():
    spec, prepared = _prepared("jacobi1d")
    kernels = {
        level: compile_program(prepared.program, opt_level=level)
        for level in (0, 2)
    }
    for index in range(spec.trials):
        runs = {}
        for level, kernel in kernels.items():
            injector = _injector(spec, prepared, "random_cell", index)
            memory = _memory_like(
                _CountingMemory, prepared.program, prepared.params
            )
            result = kernel.execute(
                prepared.params,
                initial_values=_copy_values(prepared.values),
                memory=memory,
                injector=injector,
                wild_reads=True,
            )
            runs[level] = (result, injector.record, memory.calls)
        (r0, record0, calls0), (r2, record2, calls2) = runs[0], runs[2]
        _identical(r0, r2)
        assert repr(record0) == repr(record2)
        # Level 0 calls Memory once per access; level 2 once for the
        # trigger load plus once per out-of-bounds access.
        assert calls0 == r0.memory.load_count + r0.memory.store_count
        assert calls2 <= 1 + r2.memory.wild_accesses
        assert calls0 > 100 * calls2


# -- explicit cells ------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "seed", "window"),
    [("jacobi1d", 4, 94), ("trisolv", 10, 428)],
)
def test_stuck_bit_window_straddling_a_rollback(
    name, seed, window, monkeypatch
):
    """The window opens before a rollback and closes during the replay,
    so the watch answer goes start → every access → never across
    kernel sub-runs whose counters continue over the restore."""
    spec, prepared = _prepared(name, "stuck_bit", recover=True)
    restores = []
    restore = CheckpointStore.restore

    def recording_restore(self, *args, **kwargs):
        restores.append(self.memory.load_count)
        return restore(self, *args, **kwargs)

    monkeypatch.setattr(CheckpointStore, "restore", recording_restore)
    outcomes = []
    for backend in ("interp", "compiled"):
        restores.clear()
        injector = IntermittentStuckBit(
            prepared.total_loads,
            window,
            random.Random(seed),
            target_arrays=prepared.targets,
            stuck_to=1,
        )
        outcome = run_plan(
            prepared.plan,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=injector,
            wild_reads=True,
            backend=backend,
        )
        assert outcome.backend == backend
        first, last = injector.record.window
        assert any(first < ordinal <= last for ordinal in restores)
        assert last < outcome.memory.load_count
        outcomes.append(
            (
                outcome.memory.snapshot(),
                outcome.memory.load_count,
                outcome.memory.store_count,
                outcome.counts,
                outcome.checksums.sums,
                (outcome.detected, outcome.recovered, outcome.failed),
                (outcome.replays, outcome.full_restores),
                list(restores),
                repr(injector.record),
            )
        )
    assert outcomes[0] == outcomes[1]


_WILD_SOURCE = """
program wild(n) {
  array A[n];
  array B[n];
  scalar s;
  for i = 0 .. n - 1 {
    S1: s = A[i];
    S2: B[i + 1] = s + A[i + 1];
  }
  S3: s = B[0] + A[0];
}
"""


@pytest.mark.parametrize("mode", ["load", "store"])
def test_addrgen_trigger_on_scalar_or_wild_access(mode):
    """Every trigger ordinal of a program with scalar and out-of-bounds
    accesses: a trigger landing on either cannot redirect it, so the
    fault stays watched and fires on the next in-bounds array access —
    at the same access on both backends."""
    program = parse_program(_WILD_SOURCE)
    params = {"n": 4}
    values = {"A": [1.5, 2.5, 3.5, 4.5]}
    golden = run_program(program, params, initial_values=values, wild_reads=True)
    total = (
        golden.memory.load_count
        if mode == "load"
        else golden.memory.store_count
    )
    assert golden.memory.wild_accesses == 2  # A[n] and B[n]
    kernel = compile_program(program, opt_level=2)
    landed = set()
    for trigger in range(1, total + 2):
        results = []
        for run in (
            lambda inj: run_program(
                program, params, initial_values=values, injector=inj,
                wild_reads=True,
            ),
            lambda inj: kernel.execute(
                params, initial_values=values, injector=inj, wild_reads=True
            ),
        ):
            injector = AddressGenerationFault(mode, total, random.Random(7))
            injector.trigger = trigger
            results.append((run(injector), injector.record))
        (a, record_a), (b, record_b) = results
        _identical(a, b)
        assert repr(record_a) == repr(record_b)
        if record_a is not None and record_a.at_load != trigger:
            landed.add(trigger)
    # Some triggers first met a scalar or a wild access and fired later.
    assert landed


def test_scheduled_flip_at_nonpositive_ordinal_fires_first_load():
    _, prepared = _prepared("trisolv")
    kernel = compile_program(prepared.program, opt_level=2)
    array = prepared.targets[0]
    cell = (0,) * prepared.golden_finals[array].ndim
    results = []
    for execute in (
        lambda inj: run_program(
            prepared.program,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=inj,
            wild_reads=True,
        ),
        lambda inj: kernel.execute(
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=inj,
            wild_reads=True,
        ),
    ):
        injector = ScheduledBitFlip(array, cell, (5,), at_load=0)
        results.append(execute(injector))
        assert injector.fired
    _identical(*results)


def test_random_cell_without_targets_never_watched():
    memory = Memory()
    injector = RandomCellFlipper(2, 10, random.Random(3), target_arrays=())
    assert injector.watch(memory) == (NEVER, NEVER)


class _WildRedirect(FaultInjector):
    """Redirects load 3 far out of bounds."""

    redirects = True

    def watch(self, memory):
        return 3, NEVER

    def redirect_load(self, memory, name, indices):
        return (10**6,) if memory.load_count == 3 else None


def test_strict_wild_redirect_leaves_interpreter_counts():
    """A strict-mode wild redirect raises after ``Memory`` counted the
    load; the kernel must not roll the count back on the way out."""
    program = parse_program(_WILD_SOURCE)
    params = {"n": 4}
    counts = []
    for run in (
        lambda memory: run_program(program, params, memory=memory),
        lambda memory: compile_program(program, opt_level=2).execute(
            params, memory=memory
        ),
    ):
        memory = build_memory_for_program(program, params, _WildRedirect())
        with pytest.raises(MemoryError64):
            run(memory)
        counts.append((memory.load_count, memory.store_count))
    assert counts[0] == counts[1] == (3, 1)
