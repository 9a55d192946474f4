"""The benchmark's contract with the package: a traced pass of each workload
runs every experiment and reports every per-layer metric of BENCHMARK.json.

A traced pass leaves a metric out when its hooked function, a counted
argument (``pts``, ``x``, ``nodes``), ``PointConfiguration.n`` or the
manifest's ``error_counters.discarded_replicas`` is gone, so a rename in the
package breaks the benchmark's result; these tests catch that in the suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# metrics that run.py computes itself from a whole run, not from one traced pass
RUN_METRICS = {"energy.discarded_frac", "trace.overhead_frac", "error_rate"}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_pass_reports_every_layer(tmp_path, workload):
    exps = workloads.experiments(workload, 1)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--dir", str(tmp_path), "--trace"],
        env=run.child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["missing"] == []
    assert result["codes"] == [0] * len(exps), proc.stdout + proc.stderr
    assert run.discarded_frac(exps, tmp_path) is not None
    metrics = tracing.pass_metrics(result["spans"], result["counts"], tuple(result["wall"]),
                                   result["missing"])
    wanted = {m["name"] for m in BENCHMARK["per_layer"]} - RUN_METRICS
    assert sorted(wanted - set(metrics)) == []
