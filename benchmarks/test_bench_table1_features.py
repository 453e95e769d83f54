"""Table I: notation capability matrix."""

from repro.experiments import table1_features


def test_bench_table1_features(show):
    result = table1_features.run()
    show(result)
    assert len(result.rows) == 10
