"""Content-addressed instrumentation cache.

Instrumenting a program is a pure function of its printed IR and the
:class:`InstrumentationOptions`, and for the larger Table 2 kernels it
costs hundreds of milliseconds even on the fast ISL path.  Campaign
sweeps, the Figure 10 harness and repeated CLI invocations all
re-instrument identical inputs, so :func:`instrument_cached` memoizes
``instrument_program`` under a SHA-256 key of

    ``program_to_text(program)`` + the options field tuple.

Storage is the ``instrument`` namespace of
:mod:`repro.service.store`: an in-memory LRU with hit/miss/eviction
counters, plus an on-disk layer holding one pickle per key under the
artifact store's ``instrument/`` subdirectory when a store directory
is set (``--store`` / ``REPRO_ARTIFACT_STORE`` / ``set_store_dir``).
The store's disk semantics apply: writes are atomic (temp file +
rename) and reads tolerant — a corrupted, truncated or unreadable
entry is treated as a miss and recomputed, never an error.

``Program`` is a frozen dataclass, so sharing the cached instance is
safe; treat the cached :class:`InstrumentationReport` as read-only.
Programs that print to identical text are identical by construction of
the key — that is the content-addressing contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

from repro.instrument.pipeline import (
    InstrumentationOptions,
    InstrumentationReport,
    instrument_program,
)
from repro.ir.nodes import Program
from repro.ir.printer import program_to_text
from repro.service.store import namespace

_Entry = tuple[Program, InstrumentationReport]

_CODE_DIGEST: str | None = None

_DEFAULT_LIMIT = 128


def instrumenter_code_digest() -> str:
    """SHA-256 over the source of every ``repro.instrument`` module.

    Folded into :func:`cache_key` so an on-disk cache directory can
    never serve entries produced by a *different version of the
    instrumenter*: editing any file in the package changes every key,
    and the stale pickles simply stop being addressed.  Computed once
    per process (the sources cannot change under a running process we
    care about) from the files in sorted order.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        digest = hashlib.sha256()
        package_dir = Path(__file__).resolve().parent
        for path in sorted(package_dir.glob("*.py")):
            digest.update(path.name.encode("utf-8"))
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                pass
            digest.update(b"\0")
        _CODE_DIGEST = digest.hexdigest()[:16]
    return _CODE_DIGEST


def _validate(payload):
    """Disk decode hook: only a well-formed entry is served."""
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], Program)
        and isinstance(payload[1], InstrumentationReport)
    ):
        return payload
    return None


def _ns():
    return namespace(
        "instrument",
        limit=_DEFAULT_LIMIT,
        disk=True,
        decode=_validate,
    )


def cache_key(
    program: Program,
    options: InstrumentationOptions | None = None,
    backend_fingerprint: str | None = None,
) -> str:
    """SHA-256 over the printed program, every options field, the
    instrumenter's own code digest, and (when given) the consuming
    backend's fingerprint.

    Adding a field to ``InstrumentationOptions`` automatically changes
    the key, so stale entries can never be served across an options
    schema change; :func:`instrumenter_code_digest` does the same for
    changes to the instrumenter implementation itself (an on-disk cache
    surviving a ``git pull`` would otherwise serve outputs of the old
    code).  ``backend_fingerprint`` (e.g. the kernel optimizer's
    ``OptConfig.fingerprint()``) partitions the cache per backend
    configuration: entries addressed under one optimizer level can
    never be served to a campaign running another, even across
    processes sharing one on-disk directory.
    """
    options = options or InstrumentationOptions()
    option_items = tuple(
        (f.name, getattr(options, f.name)) for f in fields(options)
    )
    payload = (
        program_to_text(program)
        + "\n#options#"
        + repr(option_items)
        + "\n#code#"
        + instrumenter_code_digest()
        + "\n#backend#"
        + (backend_fingerprint or "")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def instrument_cached(
    program: Program,
    options: InstrumentationOptions | None = None,
    backend_fingerprint: str | None = None,
) -> _Entry:
    """``instrument_program`` memoized under the content-addressed key."""
    key = cache_key(program, options, backend_fingerprint)
    return _ns().get_or_compute(
        key, lambda: instrument_program(program, options)
    )


# ----------------------------------------------------------------------
# Stats / management (mirrors repro.campaign.golden)
# ----------------------------------------------------------------------
def cache_stats() -> dict[str, int]:
    """Hit/miss/eviction/disk-hit counters plus current size and bound."""
    return _ns().stats()


def set_cache_limit(limit: int) -> None:
    """Re-bound the in-memory layer (evicting oldest when shrinking)."""
    _ns().set_limit(limit)


def clear_cache() -> None:
    """Drop the in-memory layer and reset counters (disk is untouched)."""
    _ns().clear()
