"""Regenerate ``expected.json``, the benchmark's reference results.

Every result is computed in-process with the reference ``backend="interp"``,
never with the evaluation path under test::

    python3 perfbench/make_expected.py

Contents: the score of every gemm-sweep candidate per interconnect and of
every conv-explore candidate (keyed by a hash of the structural signature),
and the top-k of every serve-mix request.  Rerun only when the model itself
changes on purpose; a refactor must leave this file's contents unchanged.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402

import inputs  # noqa: E402
from repro.dse.explorer import DesignSpaceExplorer  # noqa: E402
from repro.dse.pruning import pruned_candidates  # noqa: E402
from repro.experiments.common import make_arch  # noqa: E402
from repro.sweep.server import SweepRequest, SweepServer, result_record  # noqa: E402
from repro.tensor.kernels import gemm, make_kernel  # noqa: E402

EXPECTED = HERE / "expected.json"


def score_map(result) -> dict[str, float]:
    if result.failures or result.pruned:
        raise SystemExit(f"reference sweep had failures/pruned: {result.failures[:3]}")
    return {inputs.signature_key(entry.signature): entry.score for entry in result.ranking}


def main() -> int:
    op = gemm(*inputs.GEMM_SIZES)
    candidates = [inputs.gemm_candidate(op, spec) for spec in inputs.gemm_specs()]
    gemm_scores = {}
    for interconnect in inputs.INTERCONNECTS:
        arch = make_arch(pe_dims=inputs.PE_DIMS, interconnect=interconnect)
        result = DesignSpaceExplorer(op, arch, backend="interp").explore(candidates)
        gemm_scores[interconnect] = score_map(result)
        if len(gemm_scores[interconnect]) != len(candidates):
            raise SystemExit(f"{interconnect}: structured candidates are not distinct")

    sizes = [int(size) for size in inputs.CONV_SIZES]
    conv_op = make_kernel("conv2d", sizes)
    conv = DesignSpaceExplorer(conv_op, make_arch(pe_dims=inputs.PE_DIMS), backend="interp")
    conv_result = conv.explore(
        pruned_candidates(
            conv_op,
            pe_dims=inputs.PE_DIMS,
            allow_packing=True,
            max_candidates=inputs.CONV_CANDIDATES,
        )
    )

    serve_tops = {}
    with SweepServer(backend="interp", max_workers=1) as server:
        for payload in inputs.all_payloads():
            request = SweepRequest.from_dict(dict(payload))
            result, reused = server.submit(request).result()
            record = result_record(request, result, reused)
            serve_tops[inputs.payload_key(payload)] = json.loads(json.dumps(record["top"]))

    expected = {
        "generated_with": {
            "backend": "interp",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "gemm-sweep": gemm_scores,
        "conv": score_map(conv_result),
        "serve-mix": serve_tops,
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}: {sum(map(len, gemm_scores.values()))} gemm, "
          f"{len(expected['conv'])} conv scores, {len(serve_tops)} serve tops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
