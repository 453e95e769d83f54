"""The slow lane: paper-artefact and invariant benchmarks (see conftest.py)."""
