"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows reproduce the
corresponding table rows / figure series.  Each test under ``benchmarks/``
runs one driver, prints its table and asserts the paper's claim, so the whole
evaluation is regenerated with ``python -m pytest -m slow benchmarks``.

Experiments and their paper artefacts:

===========================  ==========================================
Module                       Paper artefact
===========================  ==========================================
``table1_features``          Table I (notation capability matrix)
``fig1_reuse_example``       Figure 1(c) (reuse-accuracy example)
``design_space_size``        Section IV-A design-space sizes
``table3_notations``         Table III (dataflow notations)
``fig6_latency_bandwidth``   Figure 6 (latency vs bandwidth)
``fig7_large_apps``          Figure 7 (large-scale applications)
``fig8_runtime``             Figure 8 (modeling runtime)
``fig9_metrics``             Figure 9 (critical metrics per dataflow)
``fig10_bandwidth``          Figure 10 (bandwidth per topology)
``fig11_accuracy``           Figure 11 (latency / utilisation accuracy)
``fig12_reuse``              Figure 12 (reuse-factor comparison)
``dse_experiment``           Section VI-B (pruned design-space exploration)
===========================  ==========================================
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
