"""Figure 7: large-scale applications (GoogLeNet, MobileNet, ALS, Transformer)."""

from repro.experiments import fig7_large_apps


def test_bench_fig7_large_apps(show):
    result = fig7_large_apps.run(max_instances=400_000)
    show(result, max_rows=None)
    # The relation-centric space contains the data-centric one, so the latency of the
    # best TENET dataflow never exceeds the data-centric best on either DNN.
    assert result.headline["GoogLeNet_latency_reduction_pct"] >= 0
    assert result.headline["MobileNet_latency_reduction_pct"] >= 0
    # Averaged over the layers both sides cover, TENET's dataflows cut the
    # scratchpad bandwidth requirement on both DNNs.  MobileNet's depthwise
    # layers have no data-centric dataflow, so they are left out of its
    # averages.
    assert result.headline["GoogLeNet_bandwidth_reduction_pct"] > 0
    assert result.headline["MobileNet_bandwidth_reduction_pct"] > 0
    assert result.headline["GoogLeNet_paired_layers"] == "7 of 7"
    assert result.headline["MobileNet_paired_layers"] == "3 of 5"
    # ALS and Transformer rows exist even though the data-centric baseline cannot express them.
    assert any(row["application"] == "ALS" for row in result.rows)
    assert any(row["application"] == "Transformer" for row in result.rows)
