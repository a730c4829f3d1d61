"""Smoke test of the benchmark harness at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    result = workloads.run(
        workloads.TINY[name], 5, 0.2, trace, tmp_path / "work", spans_file,
        log=lambda *args, **kwargs: None,
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.TINY[name].oracle_draws
    section = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    if trace:
        assert spans_file.stat().st_size > 0
        assert result["metrics"]["engine.paths_emitted"] > 0
    else:
        assert all(v > 0 for v in result["metrics"].values())


def test_tracer_reports_missing_and_unused_targets():
    tracer = spans.Tracer()
    estimator = types.SimpleNamespace(norm_bound=lambda h: 1.0)
    tracer.install({"paulipath.estimator": estimator})
    span = tracer.begin_op(0)
    estimator.norm_bound(None)
    tracer.end_op(span)
    tracer.uninstall()
    assert "paulipath.estimator.PathEnumeration" in tracer.not_found
    metrics, not_hit = spans.summarize(tracer, [1.0], [1.0])
    assert metrics["observables.norm_bound_calls"] == 1
    assert metrics["oracle.calls"] == 0 and "oracle.noisy_mean_value" in not_hit
    assert "observables.norm_bound" not in not_hit
