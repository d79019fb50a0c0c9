"""PRESAGE-style address-generation faults.

The corruption strikes the *computed address* of one load or store, not
the value: a random bit of the access's row-major linear offset flips,
so the access lands on a different cell of the same region — or past
its end entirely, in which case the memory's wild-access path takes
over (deterministic garbage for a load, a silently dropped store).

These are the faults the paper's value checksums are structurally blind
to in one direction: a *load* through a corrupted address reads a
pristine word from the wrong cell, so nothing at rest ever disagrees
with the def-side checksum of the cell it came from; only downstream
propagation (or a replay-comparison baseline) can expose it.  A
corrupted *store* address leaves the intended cell stale and clobbers
an unintended one — the stale cell's next checked use does trip the
use-side checksum, unless the cell is never read again.

Per the architectural contract in :mod:`repro.runtime.faults.base`,
the address reported to the checksum machinery is always that of the
**intended** indices (address arithmetic replays from resilient
registers), which is what keeps interpreter and compiled trials
bit-identical under redirection.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.runtime.faults.base import (
    NEVER,
    FaultInjector,
    InjectionRecord,
    cell_at,
    linear_offset,
)


class AddressGenerationFault(FaultInjector):
    """Flip one bit of the linear offset of a random load or store.

    The trigger is an access ordinal drawn uniformly from
    ``[1, expected_events]`` over loads (``mode="load"``) or stores
    (``mode="store"``).  The fault fires on the first in-bounds access
    to a target array at or after the trigger; the flipped bit is
    drawn over the region's offset width *plus one* spare bit, so the
    redirected access can fall outside the region (a wild access).
    Exactly one redirection per run.
    """

    redirects = True

    def __init__(
        self,
        mode: str,
        expected_events: int,
        rng: random.Random,
        target_arrays: Iterable[str] | None = None,
    ) -> None:
        if mode not in ("load", "store"):
            raise ValueError(f"mode must be 'load' or 'store', got {mode!r}")
        if expected_events < 1:
            raise ValueError("expected_events must be >= 1")
        self.mode = mode
        self.target_arrays = (
            tuple(target_arrays) if target_arrays is not None else None
        )
        self.record: InjectionRecord | None = None
        self.no_targets = self.target_arrays == ()
        if self.no_targets:
            self.trigger = 0  # RNG untouched for un-injectable specs
        else:
            self.trigger = rng.randint(1, expected_events)
        self.rng = rng
        self._pool: frozenset[str] | None = None

    @property
    def injected(self) -> bool:
        return self.record is not None

    def watch(self, memory):
        # Once the trigger has passed, every access of the mode's axis
        # stays watched until one lands on a targetable array cell.
        if self.record is not None or self.no_targets:
            return NEVER, NEVER
        if self.mode == "load":
            return self.trigger, NEVER
        return NEVER, self.trigger

    def _targetable(self, memory, name: str) -> bool:
        if self.target_arrays is not None:
            return name in self.target_arrays
        if self._pool is None:
            self._pool = frozenset(
                memory.region_names(include_shadow=False)
            )
        return name in self._pool

    def _fire(
        self, memory, name: str, indices: tuple[int, ...], ordinal: int
    ) -> tuple[int, ...] | None:
        if self.record is not None or self.no_targets:
            return None
        if ordinal < self.trigger or not self._targetable(memory, name):
            return None
        shape = memory.shape(name)
        if not shape:
            return None  # scalars have no address arithmetic to corrupt
        size = 1
        for extent in shape:
            size *= extent
        if size <= 0:
            return None
        intended = tuple(indices)
        offset = linear_offset(intended, shape)
        bit = self.rng.randrange(size.bit_length())
        actual = cell_at(offset ^ (1 << bit), shape)
        in_bounds = actual[0] < shape[0]
        if self.mode == "load":
            # Nothing at rest is corrupted: any final-state divergence
            # is propagation, so no cell is masked.
            cells: tuple[tuple[int, ...], ...] = ()
        elif in_bounds:
            # The intended cell goes stale and the actual cell is
            # clobbered: both are directly struck.
            cells = (intended, actual)
        else:
            # The store vanished into a wild address: only the intended
            # cell (stale) is struck at rest.
            cells = (intended,)
        self.record = InjectionRecord(
            array=name,
            indices=intended,
            bits=(bit,),
            at_load=ordinal,
            kind=f"addrgen_{self.mode}",
            cells=cells,
            actual=actual,
        )
        return actual

    def redirect_load(self, memory, name, indices):
        if self.mode != "load":
            return None
        return self._fire(memory, name, indices, memory.load_count)

    def redirect_store(self, memory, name, indices):
        if self.mode != "store":
            return None
        return self._fire(memory, name, indices, memory.store_count)
