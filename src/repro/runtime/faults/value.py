"""Value-corruption injectors: bits flipped in stored words.

These model the paper's own fault class (Section 2.2): the address
arithmetic is correct, but the word at rest in the memory subsystem is
corrupted between the store that produced it and a load that consumes
it.  The interval/rotation checksums are designed to catch exactly
this.

* :class:`ScheduledBitFlip` — flip chosen bits of one cell at the
  program's N-th load; deterministic, used by unit tests.
* :class:`RandomCellFlipper` — the campaign primitive: at a uniformly
  random load event, flip ``k`` uniformly chosen bits of a uniformly
  chosen cell of the target arrays.
* :class:`BurstCorruption` — a spatial burst: the same random moment,
  but ``burst_cells`` *consecutive* cells (row-major) each lose
  ``num_bits`` random bits, modelling a multi-cell upset along a DRAM
  row.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.runtime.faults.base import (
    NEVER,
    FaultInjector,
    InjectionRecord,
    cell_at,
    injectable_targets,
)


class ScheduledBitFlip(FaultInjector):
    """Deterministically corrupt one cell at a specific load event.

    ``at_load`` counts loads globally (memory.load_count, 1-based at
    hook time).  When the trigger fires, the listed bit positions of
    the *target* cell are flipped in place; if the triggering load is
    of the target cell itself, the corrupted value is what the load
    returns.
    """

    def __init__(
        self,
        array: str,
        indices: tuple[int, ...],
        bit_positions: Sequence[int],
        at_load: int,
    ) -> None:
        self.array = array
        self.indices = tuple(indices)
        self.bit_positions = tuple(bit_positions)
        self.at_load = at_load
        self.fired = False

    def watch(self, memory):
        return (NEVER if self.fired else self.at_load), NEVER

    def before_load(self, memory, name, indices, word):
        if not self.fired and memory.load_count >= self.at_load:
            self.fired = True
            memory.flip_bits(self.array, self.indices, self.bit_positions)
            if name == self.array and tuple(indices) == self.indices:
                return memory.peek_bits(self.array, self.indices)
        return None


class RandomCellFlipper(FaultInjector):
    """Flip ``num_bits`` random bits of a random cell at a random moment.

    The moment is a load event drawn uniformly from
    ``[1, expected_loads]``; the cell is drawn uniformly from the
    non-shadow regions listed in ``target_arrays`` (or all non-shadow
    regions when omitted).  Exactly one injection per run.

    A spec that *cannot* inject — zero bits to flip, or an explicitly
    empty target list — is detected in the constructor: the injector
    disables itself **without touching the RNG**, so the trial's
    SHA-256-derived seed stream stays byte-identical whether or not a
    neighbouring spec edit made the fault injectable.  Such trials
    report ``no_injection`` deterministically.
    """

    def __init__(
        self,
        num_bits: int,
        expected_loads: int,
        rng: random.Random,
        target_arrays: Iterable[str] | None = None,
    ) -> None:
        if expected_loads < 1:
            raise ValueError("expected_loads must be >= 1")
        if not 0 <= num_bits <= 64:
            raise ValueError(f"num_bits must be in [0, 64], got {num_bits}")
        self.num_bits = num_bits
        self.target_arrays = (
            tuple(target_arrays) if target_arrays is not None else None
        )
        self.record: InjectionRecord | None = None
        self.no_targets = num_bits == 0 or self.target_arrays == ()
        """Set when the fault can never land: an un-injectable spec
        (zero bits, empty target tuple), or the trigger fired but every
        target had zero extent.  Campaigns must report such trials as
        ``no_injection``, not undetected."""
        if self.no_targets:
            self.trigger = 0  # RNG deliberately untouched: see docstring
        else:
            self.trigger = rng.randint(1, expected_loads)
        self.rng = rng

    @property
    def injected(self) -> bool:
        """Whether a fault actually landed (False also when the program
        performed no loads, so the trigger never fired)."""
        return self.record is not None

    def watch(self, memory):
        if self.record is not None or self.no_targets:
            return NEVER, NEVER
        return self.trigger, NEVER

    def before_load(self, memory, name, indices, word):
        if (
            self.record is not None
            or self.no_targets
            or memory.load_count < self.trigger
        ):
            return None
        arrays = injectable_targets(memory, self.target_arrays)
        if not arrays:
            self.no_targets = True
            return None
        array = self.rng.choice(arrays)
        shape = memory.shape(array)
        cell = tuple(self.rng.randrange(extent) for extent in shape)
        bits = tuple(self.rng.sample(range(64), self.num_bits))
        memory.flip_bits(array, cell, bits)
        self.record = InjectionRecord(
            array=array, indices=cell, bits=bits, at_load=memory.load_count
        )
        if name == array and tuple(indices) == cell:
            return memory.peek_bits(array, cell)
        return None


class BurstCorruption(FaultInjector):
    """Corrupt a run of consecutive cells at a random load event.

    Drawn like :class:`RandomCellFlipper`, but the strike covers up to
    ``burst_cells`` row-major-consecutive cells starting at a uniformly
    chosen offset (clipped at the region end); each struck cell loses
    ``num_bits`` distinct random bits.  The record's ``cells`` lists
    every struck cell so campaigns mask the whole burst, and its
    ``bits`` are the first cell's flips.
    """

    def __init__(
        self,
        num_bits: int,
        burst_cells: int,
        expected_loads: int,
        rng: random.Random,
        target_arrays: Iterable[str] | None = None,
    ) -> None:
        if expected_loads < 1:
            raise ValueError("expected_loads must be >= 1")
        if not 0 <= num_bits <= 64:
            raise ValueError(f"num_bits must be in [0, 64], got {num_bits}")
        if burst_cells < 0:
            raise ValueError(f"burst_cells must be >= 0, got {burst_cells}")
        self.num_bits = num_bits
        self.burst_cells = burst_cells
        self.target_arrays = (
            tuple(target_arrays) if target_arrays is not None else None
        )
        self.record: InjectionRecord | None = None
        self.no_targets = (
            num_bits == 0 or burst_cells == 0 or self.target_arrays == ()
        )
        if self.no_targets:
            self.trigger = 0  # RNG untouched, as in RandomCellFlipper
        else:
            self.trigger = rng.randint(1, expected_loads)
        self.rng = rng

    @property
    def injected(self) -> bool:
        return self.record is not None

    def watch(self, memory):
        if self.record is not None or self.no_targets:
            return NEVER, NEVER
        return self.trigger, NEVER

    def before_load(self, memory, name, indices, word):
        if (
            self.record is not None
            or self.no_targets
            or memory.load_count < self.trigger
        ):
            return None
        arrays = injectable_targets(memory, self.target_arrays)
        if not arrays:
            self.no_targets = True
            return None
        array = self.rng.choice(arrays)
        shape = memory.shape(array)
        size = 1
        for extent in shape:
            size *= extent
        start = self.rng.randrange(size)
        struck: list[tuple[int, ...]] = []
        first_bits: tuple[int, ...] = ()
        for offset in range(start, min(start + self.burst_cells, size)):
            cell = cell_at(offset, shape)
            bits = tuple(self.rng.sample(range(64), self.num_bits))
            memory.flip_bits(array, cell, bits)
            struck.append(cell)
            if not first_bits:
                first_bits = bits
        self.record = InjectionRecord(
            array=array,
            indices=struck[0],
            bits=first_bits,
            at_load=memory.load_count,
            kind="burst",
            cells=tuple(struck),
        )
        if name == array and tuple(indices) in set(struck):
            return memory.peek_bits(array, tuple(indices))
        return None


def flip_random_bits_in_words(
    words: list[int], num_bits: int, rng: random.Random
) -> list[tuple[int, int]]:
    """Flip ``num_bits`` distinct bits chosen over a whole word array.

    Mutates ``words`` in place; returns ``(word_index, bit)`` pairs.
    Used by the Table 1 fault-coverage experiment, where bits are drawn
    uniformly over *all* bits of the array (paper Section 6.1).
    """
    total_bits = len(words) * 64
    positions = rng.sample(range(total_bits), num_bits)
    flipped: list[tuple[int, int]] = []
    for position in positions:
        index, bit = divmod(position, 64)
        words[index] ^= 1 << bit
        flipped.append((index, bit))
    return flipped
