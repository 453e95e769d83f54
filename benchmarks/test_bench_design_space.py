"""Section IV-A: design-space size (GEMM: 512 relation-centric vs 18 data-centric)."""

from repro.experiments import design_space_size


def test_bench_design_space_size(show):
    result = design_space_size.run(6)
    show(result)
    gemm_row = result.filter_rows(loops=3)[0]
    assert gemm_row["relation_centric"] == 512
    assert gemm_row["data_centric"] == 18
