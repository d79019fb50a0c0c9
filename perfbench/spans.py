"""Span recorder and the wrappers that put spans around each layer.

The program is not changed: :class:`Installed` replaces public
functions of each layer with thin wrappers for the duration of a
traced pass and puts the originals back when it exits.  A span records its layer
name, start, end, parent and the campaign it belongs to; spans stay in
memory and are reduced to per-layer numbers when the pass ends.

Layers (span names) are named after the module that does the work:

=========================  ==============================================
``campaign.engine``        ``run_campaign`` (its self time is the engine
                           loop: dispatch, pools, counters, log upkeep)
``campaign.prepare``       ``CampaignSpec.prepare`` (cache lookups and
                           whatever the golden miss computes)
``campaign.run_trial``     ``ProgramCampaignSpec.run_trial``
``campaign.checksum_trial`` ``ChecksumCampaignSpec.run_trial``
``campaign.records.write`` ``write_record`` as the engine calls it
``campaign.records.read``  ``read_log``
``campaign.stats``         ``summarize``
``instrument``             ``instrument_program`` (cache misses only;
                           ISL and polyhedral work is inside)
``runtime.compile``        ``compile_program``
``runtime.golden``         injector-free ``CompiledKernel.execute`` /
                           ``run_program``
``runtime.trial_exec``     injected ``CompiledKernel.execute`` /
                           ``run_program``
``recovery.plan``          ``build_recovery_plan``
``recovery.run_plan``      ``run_plan``
=========================  ==============================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

LAYERS = (
    "campaign.engine",
    "campaign.prepare",
    "campaign.run_trial",
    "campaign.checksum_trial",
    "campaign.records.write",
    "campaign.records.read",
    "campaign.stats",
    "instrument",
    "runtime.compile",
    "runtime.golden",
    "runtime.trial_exec",
    "recovery.plan",
    "recovery.run_plan",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    campaign: int = -1
    loads: int = 0
    """Simulated loads the call performed (execute spans only)."""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory spans of one process; single-threaded by design."""

    spans: list[Span] = field(default_factory=list)
    campaign: int = -1
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, campaign=self.campaign)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended out of order")
        return span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Spans come from one thread, so children of a span never overlap
    each other and lie inside it: the covered part is the sum of the
    children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - covered[i] for i, span in enumerate(spans)]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrap(recorder: Recorder, name: str, function):
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.end(index)

    wrapper.__wrapped__ = function
    return wrapper


_EXECUTE_POSITIONAL = ("params", "initial_values", "memory", "injector")


def _argument(args, kwargs, name):
    if name in kwargs:
        return kwargs[name]
    position = _EXECUTE_POSITIONAL.index(name)
    return args[position] if len(args) > position else None


def _wrap_execute(recorder: Recorder, function):
    """``runtime.golden`` or ``runtime.trial_exec`` by whether an
    injector is attached when the call starts; counts the loads the
    call itself performed (memory may be shared across calls)."""

    def wrapper(*args, **kwargs):
        memory = _argument(args[1:], kwargs, "memory")
        injector = _argument(args[1:], kwargs, "injector")
        injected = injector is not None or (
            memory is not None and memory.injector is not None
        )
        before = memory.load_count if memory is not None else 0
        index = recorder.begin(
            "runtime.trial_exec" if injected else "runtime.golden"
        )
        try:
            result = function(*args, **kwargs)
            recorder.spans[index].loads = result.memory.load_count - before
            return result
        finally:
            recorder.end(index)

    wrapper.__wrapped__ = function
    return wrapper


def _wrap_compile(installed: "Installed", function):
    """``runtime.compile``, counting the calls that raise
    ``CompileError`` (the caller then falls back to the interpreter)."""
    from repro.runtime.compile import CompileError

    recorder = installed.recorder

    def wrapper(*args, **kwargs):
        index = recorder.begin("runtime.compile")
        try:
            return function(*args, **kwargs)
        except CompileError:
            installed.compile_fallbacks += 1
            raise
        finally:
            recorder.end(index)

    wrapper.__wrapped__ = function
    return wrapper


class Installed:
    """The patched attributes of one traced pass (restore on exit)."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.compile_fallbacks = 0
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Installed":
        import repro.campaign.engine as engine
        import repro.campaign.records as records
        import repro.campaign.stats as stats
        import repro.instrument.cache as instrument_cache
        import repro.recovery as recovery
        import repro.recovery.controller as controller
        import repro.runtime.compile as compile_module
        import repro.runtime.interpreter as interpreter
        from repro.campaign.spec import ChecksumCampaignSpec, ProgramCampaignSpec

        rec = self.recorder
        self._patch(
            engine, "run_campaign", _wrap(rec, "campaign.engine", engine.run_campaign)
        )
        self._patch(
            engine,
            "write_record",
            _wrap(rec, "campaign.records.write", engine.write_record),
        )
        self._patch(
            records, "read_log", _wrap(rec, "campaign.records.read", records.read_log)
        )
        self._patch(stats, "summarize", _wrap(rec, "campaign.stats", stats.summarize))
        for cls in (ChecksumCampaignSpec, ProgramCampaignSpec):
            self._patch(cls, "prepare", _wrap(rec, "campaign.prepare", cls.prepare))
        self._patch(
            ProgramCampaignSpec,
            "run_trial",
            _wrap(rec, "campaign.run_trial", ProgramCampaignSpec.run_trial),
        )
        self._patch(
            ChecksumCampaignSpec,
            "run_trial",
            _wrap(rec, "campaign.checksum_trial", ChecksumCampaignSpec.run_trial),
        )
        self._patch(
            instrument_cache,
            "instrument_program",
            _wrap(rec, "instrument", instrument_cache.instrument_program),
        )
        compile_wrapper = _wrap_compile(self, compile_module.compile_program)
        self._patch(compile_module, "compile_program", compile_wrapper)
        self._patch(controller, "compile_program", compile_wrapper)
        self._patch(
            compile_module.CompiledKernel,
            "execute",
            _wrap_execute(rec, compile_module.CompiledKernel.execute),
        )
        self._patch(
            interpreter,
            "run_program",
            _wrap_execute_function(rec, interpreter.run_program),
        )
        self._patch(
            recovery,
            "build_recovery_plan",
            _wrap(rec, "recovery.plan", recovery.build_recovery_plan),
        )
        self._patch(
            recovery, "run_plan", _wrap(rec, "recovery.run_plan", recovery.run_plan)
        )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def _wrap_execute_function(recorder: Recorder, function):
    """``run_program(program, params, initial_values=None, injector=...)``:
    the same split as :func:`_wrap_execute`, for the interpreter."""

    def wrapper(program, params, *args, **kwargs):
        injector = kwargs.get("injector", args[1] if len(args) > 1 else None)
        index = recorder.begin(
            "runtime.trial_exec" if injector is not None else "runtime.golden"
        )
        try:
            result = function(program, params, *args, **kwargs)
            recorder.spans[index].loads = result.memory.load_count
            return result
        finally:
            recorder.end(index)

    wrapper.__wrapped__ = function
    return wrapper


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def span_metrics(spans: list[Span], wall_s: float, trials: int) -> dict:
    """Per-layer numbers of one traced pass (wrapper-derived only)."""
    own = self_times(spans)
    durations: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    owns: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for span, self_time in zip(spans, own):
        durations.setdefault(span.name, []).append(span.duration)
        owns.setdefault(span.name, []).append(self_time)
    injected = [span for span in spans if span.name == "runtime.trial_exec"]
    exec_s = sum(span.duration for span in injected)
    loads = sum(span.loads for span in injected)
    program_trials = len(durations["campaign.run_trial"])
    trial_plans = [
        span.duration
        for span in spans
        if span.name == "recovery.run_plan"
        and span.parent >= 0
        and spans[span.parent].name == "campaign.run_trial"
    ]
    writes = durations["campaign.records.write"]
    golden_s = sum(durations["runtime.golden"])
    metrics = {
        "instrument.calls": len(durations["instrument"]),
        "instrument.busy_s": sum(durations["instrument"]),
        "runtime.compile.calls": len(durations["runtime.compile"]),
        "runtime.compile.busy_s": sum(durations["runtime.compile"]),
        "runtime.golden.busy_s": golden_s,
        "runtime.injector_free_share": golden_s / wall_s if wall_s else 0.0,
        "runtime.trial_exec_ms.p50": 1e3 * percentile(
            [span.duration for span in injected], 50
        ),
        "runtime.trial_exec_ms.p99": 1e3 * percentile(
            [span.duration for span in injected], 99
        ),
        "runtime.loads_per_trial": loads / program_trials if program_trials else 0.0,
        "runtime.ns_per_load": 1e9 * exec_s / loads if loads else 0.0,
        "campaign.run_trial_self_ms.p50": 1e3
        * percentile(owns["campaign.run_trial"], 50),
        "campaign.checksum_trial_us.p50": 1e6
        * percentile(durations["campaign.checksum_trial"], 50),
        "campaign.records.write_us_per_record": 1e6 * sum(writes) / len(writes)
        if writes
        else 0.0,
        "campaign.records.read_us_per_record": 1e6
        * sum(durations["campaign.records.read"])
        / trials
        if trials
        else 0.0,
        "campaign.engine.overhead_us_per_trial": 1e6
        * sum(owns["campaign.engine"])
        / trials
        if trials
        else 0.0,
        "recovery.plan_busy_s": sum(durations["recovery.plan"]),
        "recovery.run_plan_ms.p50": 1e3 * percentile(trial_plans, 50),
        "recovery.run_plan_ms.p99": 1e3 * percentile(trial_plans, 99),
        "trace.unattributed_share": 1.0 - sum(own) / wall_s if wall_s else 0.0,
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = sum(owns[layer])
    return metrics
