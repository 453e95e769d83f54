"""Figure 6: latency vs scratchpad bandwidth, TENET-only vs data-centric dataflows."""

from repro.experiments import fig6_latency_bandwidth


def test_bench_fig6_latency_bandwidth(show):
    result = fig6_latency_bandwidth.run(
        gemm_size=64,
        conv_sizes=(32, 32, 14, 14, 3, 3),
    )
    show(result, max_rows=None)
    # Shape of the paper's claim: the relation-only dataflows reduce latency on average.
    assert result.headline["gemm_avg_latency_reduction_pct"] > 0
    assert result.headline["conv_avg_latency_reduction_pct"] > 0
