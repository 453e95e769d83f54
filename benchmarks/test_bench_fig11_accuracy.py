"""Figure 11: latency / PE-utilisation estimation accuracy vs the reference simulator."""

from repro.experiments import fig11_accuracy


def test_bench_fig11_accuracy(show):
    result = fig11_accuracy.run(max_instances=150_000)
    show(result, max_rows=None)
    # The relation-centric analytical model must track the simulator more closely
    # than the polynomial baseline, for both latency and utilisation.
    assert (result.headline["tenet_latency_accuracy_pct"]
            > result.headline["baseline_latency_accuracy_pct"])
    assert (result.headline["tenet_util_error_pct"]
            <= result.headline["baseline_util_error_pct"])
