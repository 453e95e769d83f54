"""Figure 9: critical metrics (reuse, utilisation, latency) for the Table III dataflows."""

from repro.experiments import fig9_metrics


def test_bench_fig9_critical_metrics(show):
    result = fig9_metrics.run()
    show(result, max_rows=None)
    gemm_rows = [row for row in result.rows if row["kernel"] == "gemm"]
    two_dim = [row for row in gemm_rows if row["dataflow"] in
               ("(IJ-P | J,IJK-T)", "(KJ-P | K,IJK-T)", "(IK-P | K,IJK-T)")]
    one_dim = [row for row in gemm_rows if row["dataflow"] in
               ("(K-P | I,J-T)", "(J-P | I,K-T)")]
    # Section VI-C: 2-D space-stamp GEMM dataflows outperform the 1-D ones.
    assert min(r["latency_cycles"] for r in two_dim) < min(r["latency_cycles"] for r in one_dim)
    # The output-stationary dataflow shows temporal but no spatial reuse for Y.
    ij = next(r for r in gemm_rows if r["dataflow"] == "(IJ-P | J,IJK-T)")
    assert ij["temporal_reuse_Y"] > 0
    assert ij["spatial_reuse_Y"] == 0
    assert ij["spatial_reuse_A"] > 0
