"""Figure 10: per-tensor IBW / SBW across interconnect topologies."""

from repro.experiments import fig10_bandwidth


def test_bench_fig10_bandwidth(show):
    result = fig10_bandwidth.run()
    show(result, max_rows=None)
    # Topologies show broadly similar SBW for the same dataflow (regular access patterns),
    # and at least one diagonal-reuse dataflow gains from the mesh.
    assert result.rows
    assert result.headline["dataflows_where_mesh_lowers_sbw"] != "none"
