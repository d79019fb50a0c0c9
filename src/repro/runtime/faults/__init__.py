"""Fault injection into the simulated memory subsystem.

The paper's fault model (Section 2.2): transient multi-bit errors
strike values *at rest* in the memory subsystem, between the store that
produced a value and a load that consumes it.  This package grows that
single scenario into a taxonomy (see ``docs/FAULT_MODELS.md``):

* :mod:`~repro.runtime.faults.base` — the injector protocol (value
  hooks, address-redirect hooks and the ``watch`` answer that tells a
  compiled kernel which accesses need the hooks),
  :class:`InjectionRecord`, and composition;
* :mod:`~repro.runtime.faults.value` — the paper's own class: bits
  flipped in stored words (:class:`ScheduledBitFlip`,
  :class:`RandomCellFlipper`, :class:`BurstCorruption`);
* :mod:`~repro.runtime.faults.addrgen` — PRESAGE-style
  address-generation faults (:class:`AddressGenerationFault`): the
  value is intact, the computed address is not;
* :mod:`~repro.runtime.faults.intermittent` — ITHICA-style
  intermittent stuck bits (:class:`IntermittentStuckBit`): a defect
  that re-fires on every access within a window;
* :mod:`~repro.runtime.faults.spec` — :class:`InjectorSpec` (validated
  pure-data form), :func:`make_injector`, and the campaign
  :data:`FAULT_MODELS` vocabulary.

Everything importable from the old ``repro.runtime.faults`` module is
re-exported here unchanged.
"""

from repro.runtime.faults.addrgen import AddressGenerationFault
from repro.runtime.faults.base import (
    EVERY,
    NEVER,
    FaultInjector,
    InjectionRecord,
    MultiInjector,
    NoFaults,
    watch_of,
)
from repro.runtime.faults.intermittent import IntermittentStuckBit
from repro.runtime.faults.spec import (
    FAULT_MODELS,
    INJECTOR_KINDS,
    InjectorSpec,
    injector_spec_for_model,
    make_injector,
)
from repro.runtime.faults.value import (
    BurstCorruption,
    RandomCellFlipper,
    ScheduledBitFlip,
    flip_random_bits_in_words,
)

__all__ = [
    "AddressGenerationFault",
    "BurstCorruption",
    "EVERY",
    "FAULT_MODELS",
    "FaultInjector",
    "INJECTOR_KINDS",
    "InjectionRecord",
    "InjectorSpec",
    "IntermittentStuckBit",
    "MultiInjector",
    "NEVER",
    "NoFaults",
    "RandomCellFlipper",
    "ScheduledBitFlip",
    "flip_random_bits_in_words",
    "injector_spec_for_model",
    "make_injector",
    "watch_of",
]
