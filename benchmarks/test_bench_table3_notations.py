"""Table III: relation-centric notations for the dataflow catalog."""

from repro.experiments import table3_notations


def test_bench_table3_notations(show):
    result = table3_notations.run()
    show(result, max_rows=None)
    assert result.headline["total_dataflows"] >= 24
    assert result.headline["tenet_only_dataflows"] >= 10
