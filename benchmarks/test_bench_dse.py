"""Section VI-B: pruned design-space exploration."""

from repro.experiments import dse_experiment


def test_bench_dse_exploration(show):
    result = dse_experiment.run(conv_sizes=(16, 16, 7, 7, 3, 3), max_candidates=30)
    show(result, max_rows=None)
    assert result.headline["paper_pruned_space"] == 25920
    assert result.headline["candidates_evaluated"] >= 20
    # Extrapolated sweep of the paper-sized pruned space stays in the "hours" regime.
    assert result.headline["projected_hours_for_paper_space"] < 24
