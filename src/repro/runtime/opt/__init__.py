"""Optimization pipeline for the compiled execution backend.

The compiled backend's emitter consults an :class:`OptConfig` choosing
which passes run during lowering.  Three user-facing levels:

* **0** — the straight-line three-address emitter, one counted
  operation per line (the pre-optimizer backend, kept as the reference
  point and differential baseline).
* **1** — source-level optimization: expression folding with coalesced
  count updates, loop-invariant code motion into per-loop preambles,
  guard fusion of the ``&&`` chains index-set splitting emits, small
  constant-trip and provably-0/1-trip loop unrolling, and static
  elimination of the per-bundle load cache where affine alias analysis
  proves every hit/miss at compile time.
* **2** — level 1 plus inlined memory: loads and stores of rank ≤ 2
  regions index the region's word list directly (no :class:`Memory`
  method call) unless the access is out of bounds or the attached
  fault injector watches its ordinal
  (:meth:`~repro.runtime.faults.FaultInjector.watch`); those accesses
  take the ``Memory`` methods with the counters synced, so every
  injector observation point is preserved.

Every pass is bound by the bit-identity contract spelled out in
:mod:`repro.runtime.opt.analysis`: identical load/store event order,
identical :class:`OpCounts`, identical checksum streams and identical
failure behaviour, at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.opt.analysis import (
    COUNTERS,
    Folded,
    GuardChain,
    analyze_guard_chain,
    fuse_condition,
    keys_never_alias,
    loop_trip_at_most_one,
    loop_trip_constant,
    ref_affine_key,
    try_fold,
)

__all__ = [
    "DEFAULT_OPT_LEVEL",
    "OPT_LEVELS",
    "OptConfig",
    "config_for_level",
    "COUNTERS",
    "Folded",
    "GuardChain",
    "analyze_guard_chain",
    "fuse_condition",
    "keys_never_alias",
    "loop_trip_at_most_one",
    "loop_trip_constant",
    "ref_affine_key",
    "try_fold",
]

OPT_LEVELS = (0, 1, 2)
DEFAULT_OPT_LEVEL = 2

#: Cap for full constant-trip unrolling; provable 0/1-trip loops are
#: always rewritten to an ``if`` regardless of this cap.
UNROLL_LIMIT = 4


@dataclass(frozen=True)
class OptConfig:
    """Pass selection for one lowering of one program."""

    level: int = 0
    fold: bool = False
    licm: bool = False
    fuse_guards: bool = False
    unroll: bool = False
    static_cache: bool = False

    def fingerprint(self) -> str:
        """Stable cache-key component (kernel LRU, instrumentation
        cache): every field that changes generated code."""
        return (
            f"opt{self.level}:f{int(self.fold)}l{int(self.licm)}"
            f"g{int(self.fuse_guards)}u{int(self.unroll)}"
            f"s{int(self.static_cache)}"
        )


def config_for_level(level: int) -> OptConfig:
    """The :class:`OptConfig` for a user-facing ``--opt-level``."""
    if level not in OPT_LEVELS:
        raise ValueError(
            f"opt level must be one of {OPT_LEVELS}, got {level!r}"
        )
    if level == 0:
        return OptConfig(level=0)
    return OptConfig(
        level=level,
        fold=True,
        licm=True,
        fuse_guards=True,
        unroll=True,
        static_cache=True,
    )
