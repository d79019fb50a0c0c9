"""Persisted kernels and instrumentation entries written before the
one-body level-2 kernel.

A level-2 kernel used to persist two bodies: its method-call ``source``
plus an injector-free ``fast_source`` (payload format 1, no ``format``
key).  Such a payload must decode as a miss and be recompiled — its
sources are never ``exec``'d.  The optimizer fingerprint lost its
``i`` (inline-memory) letter at the same time, which moves the
instrumentation-cache keys it is folded into.
"""

from __future__ import annotations

import builtins
import pickle

import pytest

from repro.instrument.cache import cache_key
from repro.instrument.pipeline import InstrumentationOptions
from repro.programs import ALL_BENCHMARKS
from repro.runtime import compile as compile_module
from repro.runtime.compile import (
    KERNEL_PAYLOAD_FORMAT,
    clear_kernel_cache,
    compile_program,
    ir_digest,
)
from repro.runtime.opt import config_for_level
from repro.service.store import ENV_STORE_DIR, set_store_dir

#: What ``OptConfig.fingerprint()`` returned for levels 0-2 before.
FORMAT1_FINGERPRINTS = {
    0: "opt0:f0l0g0u0s0i0",
    1: "opt1:f1l1g1u1s1i0",
    2: "opt2:f1l1g1u1s1i0",
}

#: Would mark that a stale payload's source ran.
_EXEC_MARK = "_stale_kernel_payload_executed"
_STALE_SOURCE = (
    f"import builtins\nbuiltins.{_EXEC_MARK} = True\n"
    "def _kernel(_rt):\n    pass\n"
)


@pytest.fixture
def disk_store(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_STORE_DIR, raising=False)
    set_store_dir(tmp_path)
    clear_kernel_cache()
    yield tmp_path
    set_store_dir(None)
    clear_kernel_cache()
    if hasattr(builtins, _EXEC_MARK):
        delattr(builtins, _EXEC_MARK)


def _payload_path(program, level):
    ns = compile_module._kernel_ns()
    key = (ir_digest(program), level, None)
    return ns.directory() / f"{ns.digest(key)}.pkl"


@pytest.mark.parametrize("level", [0, 2])
def test_format1_payload_is_recompiled_not_executed(disk_store, level):
    program = ALL_BENCHMARKS["trisolv"].program()
    path = _payload_path(program, level)
    path.parent.mkdir(parents=True, exist_ok=True)
    format1 = {
        "kind": "kernel",
        "program": program,
        "digest": ir_digest(program),
        "level": level,
        "batch_shape": None,
        "source": _STALE_SOURCE,
        "checkpoint_source": _STALE_SOURCE,
        "fast_source": _STALE_SOURCE if level == 2 else None,
    }
    path.write_bytes(pickle.dumps(format1))

    kernel = compile_program(program, opt_level=level)

    assert not hasattr(builtins, _EXEC_MARK)
    assert kernel.source != _STALE_SOURCE
    stats = compile_module.kernel_cache_stats()
    assert stats["disk_hits"] == 0 and stats["misses"] == 1
    rewritten = pickle.loads(path.read_bytes())
    assert rewritten["format"] == KERNEL_PAYLOAD_FORMAT
    assert set(rewritten) == set(format1) - {"fast_source"} | {"format"}
    # The rewritten entry is served from disk from now on.
    clear_kernel_cache()
    again = compile_program(program, opt_level=level)
    assert again.source == kernel.source
    assert compile_module.kernel_cache_stats()["disk_hits"] == 1


def test_fingerprints_moved_and_stay_distinct():
    current = {level: config_for_level(level).fingerprint() for level in (0, 1, 2)}
    assert len(set(current.values())) == 3
    for level, old in FORMAT1_FINGERPRINTS.items():
        assert current[level] != old
        assert current[level] == old.removesuffix("i0")


def test_format1_fingerprint_addresses_no_current_entry():
    program = ALL_BENCHMARKS["trisolv"].program()
    options = InstrumentationOptions(
        index_set_splitting=True, hoist_inspectors=True
    )
    for level, old in FORMAT1_FINGERPRINTS.items():
        new = config_for_level(level).fingerprint()
        assert cache_key(program, options, backend_fingerprint=old) != (
            cache_key(program, options, backend_fingerprint=new)
        )
