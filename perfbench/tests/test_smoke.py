"""Smoke test of the benchmark harness: each workload once at a tiny size.

Checks that a run exits 0, judges every command correct and emits every
end-to-end metric (untraced) or every per-layer metric (traced) with its
unit, as ``BENCHMARK.json`` declares them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402

#: per-layer metrics that must be nonzero on each workload, one per layer it runs
EXERCISED = {
    "tri-plane": ("criteria.region_calls", "criteria.kernel_s.ppt_1-23", "gaussian.eig_s", "model.transform_s"),
    "quad-cube": ("criteria.parallel_eff", "criteria.kernel_s.ppt_3-14", "check.band_rows", "cli.emit_s"),
    "presets": ("presets.load_s", "coherence.spectrum_s", "coherence.find_peaks_s", "coherence.profile_s"),
    "validate": ("fock.evolve_s", "fock.covariance_s", "validation.check_s.oracle-tri", "import.fock_s"),
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_workload_reports_every_metric(workload):
    plain = _run(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == dict(END_TO_END)
    assert all(plain["metrics"][k]["value"] > 0 for k, _ in END_TO_END)

    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    metrics = traced["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == {name: unit for name, unit, _ in PER_LAYER}
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    # the layers' self times account for the traced wall time
    commands = sum(m["value"] for k, m in metrics.items() if k.startswith("cli.cmd_s."))
    assert abs(metrics["trace.unaccounted_s"]["value"]) < 0.1 * commands
