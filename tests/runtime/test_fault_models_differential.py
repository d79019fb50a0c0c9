"""Cross-backend differential suite over the full fault-model taxonomy.

The fault-model subsystem's whole contract is that a model implemented
once against the :class:`Memory` choke point behaves bit-identically
under the interpreter and the compiled backend — injection records,
verdicts, recovery outcomes, everything.  These tests pin that contract
for **every (fault model × benchmark × backend) cell**: the same
campaign spec is run once per backend and the canonical trial records
(timing dropped) must be equal element-wise.

The compiled side additionally asserts that a kernel really was
compiled (``prepare().kernel is not None``), so a silent interpreter
fallback can never turn these into interp-vs-interp tautologies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import ProgramCampaignSpec, run_campaign
from repro.programs import ALL_BENCHMARKS
from repro.runtime.faults import FAULT_MODELS

BENCHMARKS = sorted(ALL_BENCHMARKS)

# One spec seed per model keeps trial streams distinct across cells.
SEEDS = {model: 1000 + i for i, model in enumerate(FAULT_MODELS)}


def _spec(model: str, benchmark: str, backend: str, **overrides):
    fields = dict(
        trials=3,
        seed=SEEDS[model],
        benchmark=benchmark,
        scale="small",
        fault_model=model,
        backend=backend,
    )
    fields.update(overrides)
    return ProgramCampaignSpec(**fields)


def _canonical_records(spec: ProgramCampaignSpec):
    result = run_campaign(spec, workers=1)
    assert result.records is not None
    return [record.canonical() for record in result.records]


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("model", FAULT_MODELS)
def test_backends_bit_identical(model, name):
    interp = _spec(model, name, "interp")
    compiled = _spec(model, name, "compiled")
    assert compiled.prepare().kernel is not None, (
        f"{name}: compiled campaign silently fell back to the "
        f"interpreter — the cell would not exercise codegen"
    )
    assert _canonical_records(interp) == _canonical_records(compiled)


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("model", FAULT_MODELS)
def test_backends_identical_recovery_outcomes(model, name):
    """Recovery campaigns too: same rollbacks, same final verdicts."""
    interp = _spec(
        model, name, "interp", trials=2, recover=True
    )
    compiled = _spec(
        model, name, "compiled", trials=2, recover=True
    )
    records_interp = _canonical_records(interp)
    records_compiled = _canonical_records(compiled)
    assert records_interp == records_compiled
    # The recovery extras (replays, restores, epochs) are part of the
    # canonical form; spot-check they are present so a schema change
    # cannot quietly drop them from the comparison.
    for record in records_interp:
        assert "replays" in record["extra"]
        assert record["extra"]["fault_model"] == model


@pytest.mark.parametrize("model", ["random_cell", "stuck_bit"])
@pytest.mark.parametrize("extra", [{}, {"batch": 4}, {"recover": True}])
def test_longer_campaigns_identical_across_backends(model, extra):
    """Eight trials on jacobi1d: the compiled campaign — serial, batched
    or under recovery — matches the interpreter record for record (the
    interpreter runs batched specs serially)."""
    interp = _spec(model, "jacobi1d", "interp", trials=8, seed=5, **extra)
    compiled = replace(interp, backend="compiled")
    assert _canonical_records(interp) == _canonical_records(compiled)


@pytest.mark.parametrize("model", FAULT_MODELS)
def test_trial_records_replayable(model):
    """Any single trial replays to the same canonical record, alone."""
    from repro.campaign.engine import replay_trial

    spec = _spec(model, "trisolv", "compiled", trials=4)
    result = run_campaign(spec, workers=1)
    for record in result.records:
        assert replay_trial(spec, record.index).canonical() == (
            record.canonical()
        )


def test_worker_count_invariant_for_new_models():
    """Fan-out must not change verdicts for any new model."""
    for model in ("addrgen_store", "stuck_bit", "burst"):
        spec = _spec(model, "jacobi1d", "compiled", trials=6)
        serial = _canonical_records(spec)
        parallel = [
            r.canonical()
            for r in run_campaign(spec, workers=2).records
        ]
        assert serial == parallel


def test_backend_field_does_not_change_trial_seeds():
    """The backend is execution detail, not identity: the two specs of
    a differential cell must derive identical per-trial seeds."""
    interp = _spec("addrgen_load", "lu", "interp")
    compiled = replace(interp, backend="compiled")
    assert interp.seed == compiled.seed
    assert interp.digest() != compiled.digest()
    assert interp.golden_digest() != compiled.golden_digest()
