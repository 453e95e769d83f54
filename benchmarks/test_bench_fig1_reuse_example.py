"""Figure 1(c): skewed-access reuse example (actual 6 vs data-centric 8)."""

from repro.experiments import fig1_reuse_example


def test_bench_fig1_reuse_example(show):
    result = fig1_reuse_example.run()
    show(result)
    assert result.headline["tenet_reuse_of_A"] == 6
    assert result.headline["data_centric_reuse_of_A"] == 8
