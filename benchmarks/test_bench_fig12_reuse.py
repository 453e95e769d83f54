"""Figure 12: per-tensor reuse factors, TENET vs the data-centric polynomial."""

import pytest

from repro.experiments import fig12_reuse


def test_bench_fig12_reuse_factors(show):
    result = fig12_reuse.run(max_instances=300_000)
    show(result, max_rows=None)
    outputs = [row for row in result.rows if row["role"] == "output"]
    # The data-centric polynomial never reports output reuse...
    assert all(row["maestro_reuse_factor"] == pytest.approx(1.0) for row in outputs
               if row["maestro_reuse_factor"] is not None)
    # ...while the relation count finds real accumulation reuse on several layers.
    assert any(row["tenet_reuse_factor"] > 1.0 for row in outputs)
    # MobileNet's pointwise layers show the characteristic low input reuse.
    pw_inputs = [row for row in result.rows
                 if row["network"] == "MobileNet" and row["layer"].startswith("pw-")
                 and row["role"] == "input"]
    other_inputs = [row for row in result.rows
                    if row["network"] == "MobileNet" and not row["layer"].startswith("pw-")
                    and row["role"] == "input"]
    if pw_inputs and other_inputs:
        assert (min(r["tenet_reuse_factor"] for r in pw_inputs)
                <= max(r["tenet_reuse_factor"] for r in other_inputs))
