"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # run [0, 10] > solve [1, 7] > {pair [2, 4], pair [3, 5] overlapping, quad [6, 6.5]}
    # and write [8, 9]; spans are (name, start, end, parent, experiment)
    spans = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("energy.solve", 1.0, 7.0, 0, 0),
        ("fast.pair_sum", 2.0, 4.0, 1, 0),
        ("fast.pair_sum", 3.0, 5.0, 1, 0),
        ("quadrature.q", 6.0, 6.5, 1, 0),
        ("io.write_csv", 8.0, 9.0, 0, 0),
        ("cli.run", 12.0, 13.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 2.0, 2.0, 0.5, 1.0, 1.0])
    hooks = (tracing.Hook("cli.run", ("calls", "self_s")),
             tracing.Hook("_fast.pair_sum", ("calls", "self_s", "pairs"), "pairs"))
    m = tracing.pass_metrics(spans, {"fast.pair_sum.pairs": 7}, (0.0, 14.0), hooks=hooks)
    assert m["cli.run.calls"] == 2
    assert m["cli.run.self_s"] == pytest.approx(4.0)
    assert m["fast.pair_sum.self_s"] == pytest.approx(4.0)
    assert m["fast.pair_sum.pairs"] == 7
    # [10, 12] and [13, 14] are covered by no span
    assert m["other.self_s"] == pytest.approx(3.0)


def test_missing_hook_is_listed_not_zero():
    import rieszlab.cli  # noqa: F401

    hooks = (tracing.Hook("energy.no_such_function", ("calls", "self_s")),
             tracing.Hook("cli.run", ("self_s",)))
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        assert tracer.missing == ["energy.no_such_function"]
        m = tracing.pass_metrics([], {}, (0.0, 1.0), tracer.missing, hooks=hooks)
        assert "energy.no_such_function.calls" not in m
        assert "cli.run.self_s" in m
    finally:
        sys.modules["rieszlab.cli"].run = sys.modules["rieszlab.cli"].run.__wrapped__


def test_drift_correction_leaves_probes_out_and_scales_by_mean_speed():
    ref = pace.REFERENCE_PROBE_S
    sampler = pace.Sampler()
    # probes at [2, 2.5] (host at half speed) and [6, 6.5] (full speed) inside
    # the stretch [1, 11]; the probe at [12, 12.5] falls outside it
    sampler.ticks = [(2.0, 2.5, 2 * ref), (6.0, 6.5, ref), (12.0, 12.5, ref)]
    raw, corrected = sampler.corrected(1.0, 11.0, fallback=[ref])
    assert raw == pytest.approx(9.0)
    assert corrected == pytest.approx(9.0 * 0.75)
    # too short for a probe: the fallback probes give the speed
    assert pace.Sampler().corrected(0.0, 0.1, fallback=[2 * ref]) == pytest.approx((0.1, 0.05))


def test_sampler_probes_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        t_end = time.perf_counter() + 3 * pace.PERIOD_S
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(sampler.ticks) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_fit_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_specs_pass_validation(workload, tmp_path):
    from rieszlab.cli import _load_spec

    exps = workloads.experiments(workload, 7)
    for exp, path in zip(exps, worker.write_specs(exps, tmp_path)):
        spec = _load_spec(exp.command, str(path), None, str(tmp_path))
        assert "iterations" not in spec
        assert exp.gate in gates.GATES or exp.gate in gates.GROUP_GATES
    assert workloads.experiments(workload, 7) == exps
    assert workloads.experiments(workload, 8) != exps


def _reduced(exp: workloads.Experiment) -> workloads.Experiment:
    """A smaller copy of an experiment: fewer replicas and smaller windows,
    same models, kernels, commands and gates."""
    spec = dict(exp.spec)
    if exp.command == "energy" and spec.get("route") == "mc":
        spec["n_replicas"] = 30
        spec["R_list"] = [r / 2 for r in spec["R_list"]]
    elif "n_replicas" in spec:
        spec["n_replicas"] = max(20, spec["n_replicas"] // 5)
    if exp.command == "rho2":
        spec["R"] = spec["R"] / 2
    return dataclasses.replace(exp, spec=spec)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_reduced_workload_has_no_errors(workload, tmp_path):
    exps = [_reduced(e) for e in workloads.experiments(workload, 3)]
    specs = worker.write_specs(exps, tmp_path)
    codes, _, _ = worker.run_experiments(exps, specs, tmp_path)
    outs = [worker.out_dir(tmp_path, i) for i in range(len(exps))]
    results = gates.evaluate(exps, outs, codes)
    failed = [(e.command, e.gate, detail) for e, (ok, detail) in zip(exps, results) if not ok]
    assert failed == []   # error_rate 0
