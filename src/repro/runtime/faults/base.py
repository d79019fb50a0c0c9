"""Injector protocol, injection records, and composition.

The paper's fault model (Section 2.2): transient errors strike values
*at rest* in the memory subsystem, between the store that produced a
value and a load that consumes it, while registers and functional units
are resilient.  :class:`FaultInjector` is the contract every fault
model implements against the :class:`~repro.runtime.memory.Memory`
choke point.  Both backends route every *watched* access through the
same four ``Memory`` methods, with ``Memory.load_count`` /
``store_count`` equal to the interpreter's whenever a hook runs, so an
injector written once behaves bit-identically under either backend.

Which accesses are watched is the injector's answer to
:meth:`FaultInjector.watch`: the interpreter consults the hooks on
every access, while a level-2 compiled kernel runs accesses below the
answer inline and calls ``Memory`` (hence the hooks) only from there
on.  The base class answers "every access", so an injector that does
not override ``watch`` sees exactly the interpreter's hook calls.

Two hook families exist:

* **value hooks** — :meth:`FaultInjector.before_load` /
  :meth:`FaultInjector.after_store` may replace the stored word
  (corruption at rest; the replacement is persisted in the cell);
* **address hooks** — :meth:`FaultInjector.redirect_load` /
  :meth:`FaultInjector.redirect_store` may replace the *index tuple*
  of an access (PRESAGE-style address-generation faults: the value is
  intact, the computed address is not).  They are only consulted when
  the injector sets :attr:`FaultInjector.redirects`, keeping the
  fault-free and value-fault hot paths unchanged.

Address-fault contract (what keeps the backends bit-identical): the
*architectural* address of an access — the one the def/use checksums
rotate by, returned by ``load_bits_addr`` / ``store_bits_addr`` — is
always the address of the **intended** indices.  Under the paper's
model the address computation lives in resilient registers, so the
checksum hardware sees the intended address while the memory system
honours the corrupted one.  Both backends therefore report identical
addresses, counters and checksum streams regardless of where the
redirected access actually landed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

#: :meth:`FaultInjector.watch` answers: an ordinal no run reaches, and
#: one every access has already reached ("consult me on every access").
NEVER = sys.maxsize
EVERY = 0


class FaultInjector:
    """Base injector: hooks return a replacement word/index or None."""

    redirects: bool = False
    """Whether the memory should consult the address hooks for this
    injector.  A class-level flag so the per-access cost of address
    faults is a single attribute test for every other model."""

    def before_load(
        self, memory, name: str, indices: tuple[int, ...], word: int
    ) -> int | None:
        """Called before a load returns; may corrupt the stored word."""
        return None

    def after_store(
        self, memory, name: str, indices: tuple[int, ...], word: int
    ) -> int | None:
        """Called after a store lands; may corrupt the stored word."""
        return None

    def redirect_load(
        self, memory, name: str, indices: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """May replace the index tuple a load reads from (same region).

        Only consulted when :attr:`redirects` is true, after the load
        counter advanced, and only for accesses whose *intended*
        indices are in bounds (a program's own wild access is not an
        injection site).  A redirected access that lands out of bounds
        takes the wild-access path: deterministic garbage for a load, a
        silently dropped store.
        """
        return None

    def redirect_store(
        self, memory, name: str, indices: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """May replace the index tuple a store writes to (same region)."""
        return None

    def watch(self, memory) -> tuple[int, int]:
        """``(next_load, next_store)``: the smallest load ordinal and
        store ordinal (``memory.load_count`` / ``store_count`` as a hook
        would see them) at which any hook of this injector could return
        non-``None``, draw from its RNG or change its record.

        Accesses below the answer may skip the hooks entirely, so the
        answer must hold until the next watched access; it is asked
        again after every watched access and at the start of every
        kernel run.  Answering too early is always safe (the hooks
        then run and return ``None``); answering too late is a
        divergence from the interpreter.  The default, :data:`EVERY`,
        keeps every access watched.
        """
        return EVERY, EVERY

    def describe(self) -> str:
        return type(self).__name__


class NoFaults(FaultInjector):
    """Fault-free execution."""

    def watch(self, memory):
        return NEVER, NEVER


def watch_of(injector, memory) -> tuple[int, int]:
    """:meth:`FaultInjector.watch` for any attached injector: ``None``
    is never watched, and a duck-typed injector without ``watch`` is
    watched on every access."""
    if injector is None:
        return NEVER, NEVER
    watch = getattr(injector, "watch", None)
    if watch is None:
        return EVERY, EVERY
    return watch(memory)


@dataclass
class InjectionRecord:
    """What a campaign actually did (for reporting/classification).

    ``cells`` lists the index tuples (within ``array``) whose at-rest
    contents the fault directly struck — the cells a campaign masks
    out before calling a divergence *silent data corruption* (a flip
    sitting unread in a dead cell is benign, not SDC).  ``None`` means
    the classic single-cell value fault: mask exactly ``indices``.
    Address-generation loads set ``cells=()`` — nothing at rest was
    corrupted, so *any* final-state divergence is propagation.
    """

    array: str
    indices: tuple[int, ...]
    bits: tuple[int, ...]
    at_load: int
    kind: str = "value"
    cells: tuple[tuple[int, ...], ...] | None = None
    actual: tuple[int, ...] | None = None
    """Address faults: where the access really landed (may be out of
    bounds for the region)."""
    window: tuple[int, int] | None = None
    """Intermittent faults: first/last load ordinal the defect covers."""
    stuck_to: int | None = None
    """Intermittent faults: the value the defective bit is stuck at."""

    def masked_cells(self) -> tuple[tuple[int, ...], ...]:
        """Cells (in ``array``) to exclude from SDC classification."""
        if self.cells is None:
            return (self.indices,)
        return self.cells

    def to_dict(self) -> dict:
        """JSON form for campaign logs.

        Classic value faults keep the original four-key shape; model-
        specific fields appear only when set, so old logs and new
        ``random_cell`` logs stay byte-compatible.
        """
        data = {
            "array": self.array,
            "indices": list(self.indices),
            "bits": list(self.bits),
            "at_load": self.at_load,
        }
        if self.kind != "value":
            data["kind"] = self.kind
        if self.cells is not None:
            data["cells"] = [list(cell) for cell in self.cells]
        if self.actual is not None:
            data["actual"] = list(self.actual)
        if self.window is not None:
            data["window"] = list(self.window)
        if self.stuck_to is not None:
            data["stuck_to"] = self.stuck_to
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionRecord":
        return cls(
            array=data["array"],
            indices=tuple(data["indices"]),
            bits=tuple(data["bits"]),
            at_load=data["at_load"],
            kind=data.get("kind", "value"),
            cells=(
                tuple(tuple(cell) for cell in data["cells"])
                if data.get("cells") is not None
                else None
            ),
            actual=(
                tuple(data["actual"])
                if data.get("actual") is not None
                else None
            ),
            window=(
                tuple(data["window"])
                if data.get("window") is not None
                else None
            ),
            stuck_to=data.get("stuck_to"),
        )


class MultiInjector(FaultInjector):
    """Compose several injectors (fired in order)."""

    def __init__(self, injectors: Sequence[FaultInjector]) -> None:
        self.injectors = list(injectors)
        self.redirects = any(
            getattr(injector, "redirects", False) for injector in injectors
        )

    def before_load(self, memory, name, indices, word):
        result = None
        for injector in self.injectors:
            mutated = injector.before_load(memory, name, indices, word)
            if mutated is not None:
                result = mutated
                word = mutated
        return result

    def after_store(self, memory, name, indices, word):
        result = None
        for injector in self.injectors:
            mutated = injector.after_store(memory, name, indices, word)
            if mutated is not None:
                result = mutated
                word = mutated
        return result

    def watch(self, memory):
        next_load = next_store = NEVER
        for injector in self.injectors:
            load, store = watch_of(injector, memory)
            next_load = min(next_load, load)
            next_store = min(next_store, store)
        return next_load, next_store

    def redirect_load(self, memory, name, indices):
        for injector in self.injectors:
            if not getattr(injector, "redirects", False):
                continue
            redirected = injector.redirect_load(memory, name, indices)
            if redirected is not None:
                return redirected
        return None

    def redirect_store(self, memory, name, indices):
        for injector in self.injectors:
            if not getattr(injector, "redirects", False):
                continue
            redirected = injector.redirect_store(memory, name, indices)
            if redirected is not None:
                return redirected
        return None


def injectable_targets(memory, target_arrays) -> list[str]:
    """The regions a random fault may strike: the requested targets (or
    every non-shadow region), minus regions without a single cell
    (drawing from a zero-extent array would raise in ``randrange``)."""
    arrays = (
        list(target_arrays)
        if target_arrays is not None
        else memory.region_names(include_shadow=False)
    )
    return [
        a for a in arrays if all(extent > 0 for extent in memory.shape(a))
    ]


def linear_offset(indices: tuple[int, ...], shape: tuple[int, ...]) -> int:
    """Row-major linearization (bounds-checked)."""
    offset = 0
    for index, extent in zip(indices, shape):
        if not 0 <= index < extent:
            raise ValueError(f"index {indices} out of bounds for {shape}")
        offset = offset * extent + index
    return offset


def cell_at(offset: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major delinearization.

    The *leading* index absorbs any excess, so an offset past the end
    of the region maps to an out-of-bounds leading index — exactly the
    wild access a corrupted address bit produces on real hardware.
    """
    rest = offset
    indices: list[int] = []
    for extent in reversed(shape[1:]):
        rest, component = divmod(rest, extent)
        indices.append(component)
    indices.append(rest)
    return tuple(reversed(indices))
