"""Figure 8: modeling runtime of TENET vs the polynomial baseline."""

from repro.experiments import fig8_runtime


def test_bench_fig8_runtime(show):
    result = fig8_runtime.run(gemm_size=32, conv_sizes=(16, 16, 14, 14, 3, 3))
    show(result, max_rows=None)
    # The polynomial model is orders of magnitude faster; TENET stays sub-second-ish
    # per dataflow at these sizes (the paper reports 1e-1 s vs 1e-2 s).
    assert result.headline["slowdown_factor"] > 1
    assert result.headline["avg_tenet_seconds"] < 10.0
