"""Compile-once execution backend.

:func:`compile_program` lowers a program through
:mod:`repro.runtime.codegen` to one Python function, ``exec``s it once
and caches the :class:`CompiledKernel` in a process-wide LRU keyed by a
stable content hash of the IR tree.  Campaign trials — thousands of
runs of the *same* instrumented program — then pay codegen exactly once
per worker process and per-trial cost drops to a plain function call.

Bit-identity contract: a kernel run and an interpreter run of the same
program observe the same memory access sequence (fault injectors fire
on the same load), produce equal :class:`ExecutionResult` fields, and
raise the same exceptions (step budget, division by zero, out-of-bounds
in strict mode).  At level 2 only the accesses the attached injector
watches (and out-of-bounds ones) call :class:`Memory`; the rest run
inline, and ``_watch``/``_xld``/``_xst`` below are the kernel's side of
that protocol.  ``tests/runtime/test_compile_differential.py`` pins
this for every bundled benchmark.

Fallback: programs using constructs the emitter cannot lower raise
:class:`CompileError`; :func:`run_compiled` (and everything layered on
it) silently falls back to the interpreter.  A ``register_budget``
(Section 5 spill modeling) always uses the interpreter — spill traffic
is a per-bundle LRU simulation the generated code does not carry.
Failed compiles are cached too, so a fallback is decided once, not per
trial.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.ir.nodes import Program
from repro.runtime.codegen import (
    CompileError,
    generate_checkpoint_source,
    generate_source,
)
from repro.runtime.opt import DEFAULT_OPT_LEVEL, OPT_LEVELS, config_for_level
from repro.runtime.costmodel import OpCounts
from repro.runtime.faults.base import watch_of
from repro.runtime.interpreter import (
    ExecutionResult,
    InterpreterError,
    StepLimitExceeded,
    run_program,
)
from repro.runtime.memory import (
    Memory,
    build_memory_for_program,
    encode_value,
)
from repro.runtime.state import ChecksumState

__all__ = [
    "CompileError",
    "CompiledKernel",
    "compile_program",
    "ir_digest",
    "run_compiled",
    "execute_program",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "BACKENDS",
]

BACKENDS = ("interp", "compiled")


class _Halt(Exception):
    """Kernel-internal fail-stop unwind (mirrors _HaltDetected)."""


class _RuntimeContext:
    """Everything a generated kernel touches at run time."""

    __slots__ = (
        "memory",
        "checksums",
        "counts",
        "mismatches",
        "params",
        "max_steps",
        "halt_on_mismatch",
        "statements_executed",
        "first_detection_step",
    )

    def __init__(
        self,
        memory: Memory,
        checksums: ChecksumState,
        params: dict[str, int],
        max_steps: int | None,
        halt_on_mismatch: bool,
    ) -> None:
        self.memory = memory
        self.checksums = checksums
        self.counts = OpCounts()
        self.mismatches: list = []
        self.params = params
        self.max_steps = max_steps
        self.halt_on_mismatch = halt_on_mismatch
        self.statements_executed = 0
        self.first_detection_step: int | None = None


def _slimit(rt: _RuntimeContext) -> None:
    raise StepLimitExceeded(
        f"exceeded {rt.max_steps} statement executions"
    )


def _idiv(left, right):
    if right == 0:
        raise InterpreterError("integer division by zero")
    return left // right


def _fdiv(left, right):
    if right == 0:
        # IEEE semantics: x/0 is ±inf, 0/0 is NaN; corrupted data keeps
        # flowing until the verifier flags it.
        if left == 0:
            return float("nan")
        sign = math.copysign(1.0, float(left)) * math.copysign(
            1.0, float(right)
        )
        return math.copysign(math.inf, sign)
    return left / right


def _xdiv(left, right):
    if isinstance(left, int) and isinstance(right, int):
        return _idiv(left, right)
    return _fdiv(left, right)


def _rmod(left, right):
    if right == 0:
        raise InterpreterError("modulo by zero")
    return left % right


def _rsqrt(value):
    if value < 0:
        return float("nan")
    return math.sqrt(value)


def _rexp(value):
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _watch(memory):
    """The inline budget of a level-2 kernel: a load with ``_lc < _nl``
    (a store with ``_sc < _ns``) runs inline, since no hook can act on
    its ordinal ``_lc + 1``."""
    next_load, next_store = watch_of(memory.injector, memory)
    return next_load - 1, next_store - 1


def _xld(memory, name, indices, lc, sc):
    """A load a level-2 kernel does not run inline (watched, out of
    bounds, or of a rank > 2 region): sync the kernel's counters into
    ``memory``, take the full ``Memory`` path, and hand back the word,
    its intended address, the counters and the new watch answer."""
    memory.load_count = lc
    memory.store_count = sc
    bits, address = memory.load_bits_addr(name, indices)
    next_load, next_store = _watch(memory)
    return (
        bits, address, memory.load_count, memory.store_count,
        next_load, next_store,
    )


def _xst(memory, name, indices, bits, lc, sc):
    """The store counterpart of :func:`_xld`."""
    memory.load_count = lc
    memory.store_count = sc
    address = memory.store_bits_addr(name, indices, bits)
    next_load, next_store = _watch(memory)
    return (
        address, memory.load_count, memory.store_count,
        next_load, next_store,
    )


def _encdyn(value):
    return encode_value(value, "i64" if isinstance(value, int) else "f64")


_BASE_NAMESPACE = {
    "_Halt": _Halt,
    "_INF": float("inf"),
    "_slimit": _slimit,
    "_idiv": _idiv,
    "_fdiv": _fdiv,
    "_xdiv": _xdiv,
    "_rmod": _rmod,
    "_rsqrt": _rsqrt,
    "_rexp": _rexp,
    "_encdyn": _encdyn,
    "_watch": _watch,
    "_xld": _xld,
    "_xst": _xst,
    "_sin": math.sin,
    "_cos": math.cos,
    "_floor": math.floor,
    "_pkd": struct.Struct("<d").pack,
    "_pkq": struct.Struct("<Q").pack,
    "_unpd": struct.Struct("<d").unpack,
    "_unpq": struct.Struct("<Q").unpack,
}


@dataclass
class CompiledKernel:
    """One program, lowered and ``exec``'d once."""

    program: Program
    digest: str
    source: str
    entry: Callable[[_RuntimeContext], None]
    checkpoint_source: str
    checkpoint_entry: Callable
    restore_entry: Callable
    #: Optimization level the sources were generated at.
    opt_level: int = DEFAULT_OPT_LEVEL
    #: Batch shape the kernel was compiled for (``None`` = single-trial;
    #: a cache-key discriminator for the batched campaign runner).
    batch_shape: tuple[int, ...] | None = None

    def execute(
        self,
        params: Mapping[str, int],
        initial_values: Mapping[str, object] | None = None,
        memory: Memory | None = None,
        injector=None,
        channels: int = 1,
        max_steps: int | None = 50_000_000,
        wild_reads: bool = False,
        halt_on_mismatch: bool = False,
        checksums: ChecksumState | None = None,
    ) -> ExecutionResult:
        """Run the kernel; mirrors ``run_program``'s contract.

        A caller-supplied ``checksums`` state is used as-is (the
        recovery controller threads one state through its per-epoch
        sub-runs); otherwise a fresh one is created.
        """
        run_params = {p: int(params[p]) for p in self.program.params}
        if memory is None:
            memory = build_memory_for_program(
                self.program, run_params, injector, wild_reads=wild_reads
            )
        elif injector is not None:
            memory.injector = injector
        if initial_values:
            for name, values in initial_values.items():
                memory.initialize(name, values)
        if checksums is None:
            checksums = ChecksumState(channels=channels)
        elif checksums.channels != channels:
            raise InterpreterError(
                f"resumed checksum state has {checksums.channels} channels, "
                f"kernel was asked for {channels}"
            )
        rt = _RuntimeContext(
            memory=memory,
            checksums=checksums,
            params=run_params,
            max_steps=max_steps,
            halt_on_mismatch=halt_on_mismatch,
        )
        self.entry(rt)
        return ExecutionResult(
            checksums=rt.checksums,
            mismatches=rt.mismatches,
            counts=rt.counts,
            memory=memory,
            statements_executed=rt.statements_executed,
            spills=0,
            first_detection_step=rt.first_detection_step,
        )


def ir_digest(program: Program) -> str:
    """Stable content hash of an IR tree (the kernel cache key).

    ``repr`` of a frozen-dataclass tree is deterministic and complete
    (every field, every literal, including int/float distinction), so
    structurally equal programs share one cache slot.
    """
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()


#: Cached under keys ``(ir digest, opt level, batch shape)`` — a
#: level-0 and a level-2 kernel of the same program must never alias.
KERNEL_CACHE_LIMIT = 128

#: Version of the persisted kernel payload.  A payload of any other
#: version (format 1 had no ``format`` key and carried a second,
#: injector-free level-2 body) decodes as a miss and is recompiled;
#: its sources are never ``exec``'d.
KERNEL_PAYLOAD_FORMAT = 2


def _assemble_kernel(
    program: Program,
    digest: str,
    level: int,
    batch_shape: tuple[int, ...] | None,
    source: str,
    checkpoint_source: str,
) -> CompiledKernel:
    """``exec`` already-generated sources into a kernel.

    Shared by the compile path and the artifact store's disk decode —
    a persisted kernel is its generated sources, so loading one pays a
    ``compile``/``exec``, never a codegen run.
    """
    namespace = dict(_BASE_NAMESPACE)
    exec(  # noqa: S102 - generated from a closed IR, no user strings
        compile(source, f"<compiled {program.name}>", "exec"), namespace
    )
    exec(  # noqa: S102 - same closed-IR provenance
        compile(
            checkpoint_source,
            f"<checkpoint {program.name}>",
            "exec",
        ),
        namespace,
    )
    return CompiledKernel(
        program=program,
        digest=digest,
        source=source,
        entry=namespace["_kernel"],
        checkpoint_source=checkpoint_source,
        checkpoint_entry=namespace["_checkpoint"],
        restore_entry=namespace["_restore"],
        opt_level=level,
        batch_shape=batch_shape,
    )


def _build_kernel(
    program: Program,
    digest: str,
    level: int,
    batch_shape: tuple[int, ...] | None,
) -> CompiledKernel:
    return _assemble_kernel(
        program,
        digest,
        level,
        batch_shape,
        generate_source(program, config_for_level(level)),
        generate_checkpoint_source(program),
    )


def _kernel_encode(entry):
    """Disk codec: a kernel's ``exec``'d functions cannot pickle, but
    its generated sources can; a failed compile persists as its message."""
    if isinstance(entry, CompileError):
        return {"kind": "error", "message": str(entry)}
    return {
        "kind": "kernel",
        "format": KERNEL_PAYLOAD_FORMAT,
        "program": entry.program,
        "digest": entry.digest,
        "level": entry.opt_level,
        "batch_shape": entry.batch_shape,
        "source": entry.source,
        "checkpoint_source": entry.checkpoint_source,
    }


def _kernel_decode(payload):
    if not isinstance(payload, dict):
        return None
    if payload.get("kind") == "error":
        return CompileError(payload.get("message", "cached compile failure"))
    if (
        payload.get("kind") != "kernel"
        or payload.get("format") != KERNEL_PAYLOAD_FORMAT
    ):
        return None
    return _assemble_kernel(
        payload["program"],
        payload["digest"],
        payload["level"],
        payload["batch_shape"],
        payload["source"],
        payload["checkpoint_source"],
    )


def _kernel_ns():
    from repro.service.store import namespace

    return namespace(
        "kernel",
        limit=KERNEL_CACHE_LIMIT,
        disk=True,
        encode=_kernel_encode,
        decode=_kernel_decode,
    )


def compile_program(
    program: Program,
    cache: bool = True,
    opt_level: int | None = None,
    batch_shape: tuple[int, ...] | None = None,
) -> CompiledKernel:
    """Compile (or fetch from the cache) a kernel for ``program``.

    ``opt_level`` selects the optimization pipeline (default
    :data:`DEFAULT_OPT_LEVEL`); a level-2 kernel inlines every memory
    access its injector does not watch.  Raises
    :class:`CompileError` when the program cannot be lowered; the
    failure itself is cached so repeated attempts stay cheap.

    The cache is the ``kernel`` namespace of the unified artifact store;
    with a shared disk directory configured, a kernel compiled by one
    process re-assembles everywhere else from its persisted sources.
    """
    level = DEFAULT_OPT_LEVEL if opt_level is None else int(opt_level)
    if level not in OPT_LEVELS:
        raise ValueError(
            f"opt level must be one of {OPT_LEVELS}, got {opt_level!r}"
        )
    if batch_shape is not None:
        batch_shape = tuple(int(n) for n in batch_shape)
    digest = ir_digest(program)
    if not cache:
        return _build_kernel(program, digest, level, batch_shape)
    key = (digest, level, batch_shape)

    def build():
        try:
            return _build_kernel(program, digest, level, batch_shape)
        except CompileError as error:
            return error

    entry = _kernel_ns().get_or_compute(key, build)
    if isinstance(entry, CompileError):
        raise entry
    return entry


def kernel_cache_stats() -> dict[str, int]:
    return _kernel_ns().stats()


def clear_kernel_cache() -> None:
    ns = _kernel_ns()
    ns.clear()
    ns.set_limit(KERNEL_CACHE_LIMIT)


def run_compiled(
    program: Program,
    params: Mapping[str, int],
    initial_values: Mapping[str, object] | None = None,
    injector=None,
    channels: int = 1,
    max_steps: int | None = 50_000_000,
    wild_reads: bool = False,
    register_budget: int | None = None,
    halt_on_mismatch: bool = False,
    fallback: bool = True,
    opt_level: int | None = None,
) -> ExecutionResult:
    """``run_program`` signature, compiled backend.

    With ``fallback=True`` (default) any :class:`CompileError` — or a
    ``register_budget``, which the kernel cannot model — reruns through
    the interpreter; ``fallback=False`` surfaces the error (used by the
    differential tests to prove no silent fallback happened).
    """
    if register_budget is not None:
        if not fallback:
            raise CompileError(
                "register_budget spill modeling needs the interpreter"
            )
        return run_program(
            program,
            params,
            initial_values=initial_values,
            injector=injector,
            channels=channels,
            max_steps=max_steps,
            wild_reads=wild_reads,
            register_budget=register_budget,
            halt_on_mismatch=halt_on_mismatch,
        )
    try:
        kernel = compile_program(program, opt_level=opt_level)
    except CompileError:
        if not fallback:
            raise
        return run_program(
            program,
            params,
            initial_values=initial_values,
            injector=injector,
            channels=channels,
            max_steps=max_steps,
            wild_reads=wild_reads,
            halt_on_mismatch=halt_on_mismatch,
        )
    return kernel.execute(
        params,
        initial_values=initial_values,
        injector=injector,
        channels=channels,
        max_steps=max_steps,
        wild_reads=wild_reads,
        halt_on_mismatch=halt_on_mismatch,
    )


def execute_program(
    program: Program,
    params: Mapping[str, int],
    backend: str = "compiled",
    **kwargs,
) -> ExecutionResult:
    """Backend dispatcher: one of :data:`BACKENDS`."""
    if backend == "interp":
        kwargs.pop("opt_level", None)  # interpreter has no optimizer
        return run_program(program, params, **kwargs)
    if backend == "compiled":
        return run_compiled(program, params, **kwargs)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
