"""Self-time arithmetic and the wrappers of the span recorder."""

import pytest

import spans
from spans import Recorder, Span, self_times, span_metrics


def _tree():
    # engine [0, 10] > trial [1, 6] > exec [2, 5]; engine > write [7, 8]
    return [
        Span("campaign.engine", 0.0, 10.0),
        Span("campaign.run_trial", 1.0, 6.0, parent=0),
        Span("runtime.trial_exec", 2.0, 5.0, parent=1, loads=300),
        Span("campaign.records.write", 7.0, 8.0, parent=0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [4.0, 2.0, 3.0, 1.0]


def test_self_times_sum_to_the_root_duration():
    tree = _tree()
    assert sum(self_times(tree)) == pytest.approx(tree[0].duration)


def test_layer_self_times_cover_every_layer():
    metrics = span_metrics(_tree(), wall_s=12.0, trials=1)
    assert all(f"self_s.{layer}" in metrics for layer in spans.LAYERS)
    assert metrics["self_s.campaign.engine"] == 4.0
    assert metrics["self_s.instrument"] == 0.0


def test_span_metrics_from_a_tree():
    metrics = span_metrics(_tree(), wall_s=12.0, trials=1)
    assert metrics["runtime.loads_per_trial"] == 300
    assert metrics["runtime.ns_per_load"] == pytest.approx(1e9 * 3.0 / 300)
    assert metrics["campaign.run_trial_self_ms.p50"] == pytest.approx(2000.0)
    assert metrics["campaign.engine.overhead_us_per_trial"] == pytest.approx(4e6)
    assert metrics["trace.unattributed_share"] == pytest.approx(2.0 / 12.0)


def test_recorder_nests_and_rejects_out_of_order_ends():
    recorder = Recorder()
    outer = recorder.begin("campaign.engine")
    inner = recorder.begin("campaign.run_trial")
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.spans[inner].parent == outer
    assert recorder.spans[outer].parent == -1
    first = recorder.begin("campaign.engine")
    recorder.begin("campaign.run_trial")
    with pytest.raises(RuntimeError):
        recorder.end(first)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert spans.percentile(values, 50) == 50.0
    assert spans.percentile(values, 99) == 99.0
    assert spans.percentile([], 50) == 0.0


def test_installed_wrappers_record_and_restore():
    import repro.campaign.engine as engine
    from repro.campaign import ChecksumCampaignSpec

    original = engine.run_campaign
    recorder = Recorder()
    spec = ChecksumCampaignSpec(size=100, bits=2, pattern="all0", trials=3, seed=1)
    with spans.Installed(recorder):
        engine.run_campaign(spec)
    assert engine.run_campaign is original
    names = [span.name for span in recorder.spans]
    assert names.count("campaign.checksum_trial") == 3
    assert names[0] == "campaign.engine"
