import json
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rieszlab.cli import main, run, _load_spec, _validate
from rieszlab.core import SingularConfigurationError
from rieszlab._io import config_from_csv


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def address_space_cap():
    """Cap this process's address space at 2 GiB above its current size, so a
    missing input bound fails at once with numpy's MemoryError (exit 1)
    instead of taking the host's memory; the old limit is restored after.
    Without ``/proc/self/statm`` the test runs uncapped."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + 2**31
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def _read_outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestValidation:
    def test_unknown_keys_listed(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4,
                                          "wrong": 1, "also_wrong": 2})
        res = runner.invoke(main, ["generate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "also_wrong" in res.output and "wrong" in res.output

    def test_bad_json(self, tmp_path, runner):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        res = runner.invoke(main, ["generate", "--config", str(p)])
        assert res.exit_code == 2

    def test_command_mismatch(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {"command": "variance",
                                          "model": {"variant": "poisson"}, "R": 4})
        res = runner.invoke(main, ["generate", "--config", cfg])
        assert res.exit_code == 2

    def test_bad_model_descriptor(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "nonsense"}, "R": 4})
        res = runner.invoke(main, ["generate", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_flag_overrides_file(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4,
                                          "seed": 7})
        spec = _load_spec("generate", cfg, seed=99, out=str(tmp_path))
        assert spec["seed"] == 99

    def test_io_failure_exits_4(self, tmp_path, runner):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4,
                                          "n_replicas": 1})
        res = runner.invoke(main, ["generate", "--config", cfg, "--out",
                                   str(blocker / "sub")])
        assert res.exit_code == 4

    def test_divergent_experiment_exits_3(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {
            "model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 0.4}},
            "kernel": {"family": "riesz", "s": 0.5, "d": 1},
            "R_list": [64, 128, 256], "route": "rho2"})
        res = runner.invoke(main, ["energy", "--config", cfg, "--out", str(tmp_path / "d")])
        assert res.exit_code == 3

    def test_monte_carlo_discard_abort_exits_3(self, tmp_path, runner, monkeypatch):
        def abort(*args, **kwargs):
            raise SingularConfigurationError("coincident points inside the energy window")

        monkeypatch.setattr("rieszlab.cli.energy_mod.wint_monte_carlo", abort)
        cfg = _write(tmp_path, "c.json", {
            "model": {"variant": "poisson"}, "kernel": {"family": "log1d"},
            "R_list": [8, 16, 32], "n_replicas": 40, "route": "mc", "seed": 1})
        res = runner.invoke(main, ["energy", "--config", cfg, "--out", str(tmp_path / "m")])
        assert res.exit_code == 3
        assert "validation error" not in res.output

    def test_lp_projection_failure_exits_3(self, tmp_path, runner, monkeypatch):
        # no projection rounds and a long first step leave the iterate below -1
        monkeypatch.setattr("rieszlab.lpx._DYKSTRA_ROUNDS", 0)
        monkeypatch.setattr("rieszlab.lpx._STEP_SCALE", 8.0)
        cfg = _write(tmp_path, "c.json", {"kernel": {"family": "riesz", "s": 0.5},
                                          "iterations": 3})
        res = runner.invoke(main, ["lp", "--config", cfg, "--out", str(tmp_path / "l")])
        assert res.exit_code == 3
        assert "projection loop failed to converge at iteration 0" in res.output
        assert not (tmp_path / "l" / "lp.json").exists()

    def test_threads_option_removed(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {
            "model": {"variant": "poisson"}, "kernel": {"family": "log1d"},
            "R_list": [8, 16, 32], "n_replicas": 40, "route": "mc", "seed": 1})
        res = runner.invoke(main, ["energy", "--config", cfg, "--threads", "1"])
        assert res.exit_code == 2
        assert "No such option" in res.output


class TestCommands:
    def test_generate_round_trip(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "lattice"}, "R": 7,
                                          "n_replicas": 2, "seed": 5})
        out = tmp_path / "gen"
        res = runner.invoke(main, ["generate", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        back = config_from_csv(out / "config_0000.csv")
        assert back.n == 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"config_0000.csv", "config_0001.csv"}

    def test_energy_routes_and_plot(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {
            "model": {"variant": "bernoulli_block", "k": 2},
            "kernel": {"family": "log1d"},
            "R_list": [16, 32, 64], "route": "rho2"})
        out = tmp_path / "en"
        res = runner.invoke(main, ["energy", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "energy.json").read_text())
        assert report["route"] == "Rho2Quadrature"
        assert report["kernel"]["family"] == "log1d"
        res = runner.invoke(main, [
            "plot", "--csv", str(out / "energy.csv"), "--kind", "energy",
            "--json", str(out / "energy.json"), "--out", str(out / "fig.gp")])
        assert res.exit_code == 0, res.output
        script = (out / "fig.gp").read_text()
        assert "extrapolated" in script and "logscale" in script

    @pytest.mark.parametrize("model, kernel", [
        ({"variant": "poisson", "d": 2}, {"family": "log2d"}),
        ({"variant": "poisson", "d": 3}, {"family": "riesz", "s": 1.5, "d": 3}),
    ], ids=["log_2d", "riesz_3d"])
    def test_rho2_route_poisson_in_higher_dimensions(self, tmp_path, runner, model, kernel):
        cfg = _write(tmp_path, "c.json", {"model": model, "kernel": kernel,
                                          "R_list": [4, 8], "route": "rho2"})
        out = tmp_path / "en"
        res = runner.invoke(main, ["energy", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "energy.json").read_text())
        assert [e["value"] for e in report["entries"]] == [0.0, 0.0]
        assert report["extrapolated"] == 0.0

    @pytest.mark.parametrize("kind, spec, companion", [
        ("rho2", {"model": {"variant": "poisson"}, "R": 16, "n_replicas": 10, "v_max": 4,
                  "n_bins": 8}, None),
        ("variance", {"model": {"variant": "poisson"}, "R_list": [4, 8, 16, 48],
                      "n_replicas": 30}, "variance.json"),
        ("freemin", {"kernel": {"family": "riesz", "s": 0.5}, "beta": 1.0,
                     "theta_grid": [1.0, 2.0, 4.0], "R_list": [64, 128]}, "freemin.json"),
    ])
    def test_plot_reads_command_outputs(self, tmp_path, runner, kind, spec, companion):
        out = tmp_path / kind
        res = runner.invoke(main, [kind, "--config", _write(tmp_path, "c.json", spec),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        args = ["plot", "--csv", str(out / f"{kind}.csv"), "--kind", kind,
                "--out", str(out / "fig.gp")]
        if companion is not None:
            args += ["--json", str(out / companion)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        script = (out / "fig.gp").read_text()
        assert f"plot '{kind}.csv'" in script
        assert ("fitted slope" in script) == (kind == "variance")

    @pytest.mark.parametrize("kind, script", [
        ("variance", "set logscale xy\nset xlabel 'R'\nset ylabel 'mean squared discrepancy'\n"
                     "{label}plot 'variance.csv' skip 1 using 1:2:3 with yerrorlines "
                     "title 'variance'\n"),
        ("rho2", "set xlabel 'v'\nset ylabel 'pair correlation minus one'\n"
                 "plot 'rho2.csv' skip 1 using 1:2:3 with yerrorlines title 'rho2 - 1'\n"),
        ("energy", "set xlabel 'R'\nset ylabel 'energy per volume'\nset logscale x\n"
                   "plot 'energy.csv' skip 1 using 1:2:3 with yerrorlines title 'ladder'"
                   "{asymptote}\n"),
        ("freemin", "set xlabel 'theta'\nset ylabel 'free energy'\nset logscale x\n"
                    "plot 'freemin.csv' skip 1 using 1:4 with linespoints title 'f', "
                    "'freemin.csv' skip 1 using 1:2 with linespoints title 'energy', "
                    "'freemin.csv' skip 1 using 1:3 with linespoints title 'entropy rate'\n"),
    ])
    @pytest.mark.parametrize("companion", [False, True], ids=["bare", "companion"])
    def test_plot_script_text_is_pinned(self, tmp_path, kind, script, companion):
        # each kind's script, byte for byte, without and with a companion JSON
        # that carries both annotations (each kind draws only its own)
        from rieszlab.cli import HEADERS, emit_plot_script

        csv = tmp_path / f"{kind}.csv"
        csv.write_text(",".join(HEADERS[kind]) + "\n" + ",".join("1" * len(HEADERS[kind])) + "\n")
        extra = {"fitted_exponent": 0.123456789, "extrapolated": -1.5} if companion else None
        out = emit_plot_script(csv, kind, tmp_path / "fig.gp", extra)
        label = "set label 'fitted slope 0.123456789' at graph 0.1, 0.9\n" if companion else ""
        asymptote = ", -1.5 with lines dashtype 2 title 'extrapolated'" if companion else ""
        want = f"set datafile separator ','\n# kind: {kind}\n" + script.format(
            label=label, asymptote=asymptote)
        assert out.read_bytes() == want.encode()

    def test_plot_rejects_wrong_header(self, tmp_path, runner):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        res = runner.invoke(main, ["plot", "--csv", str(bad), "--kind", "variance",
                                   "--out", str(tmp_path / "x.gp")])
        assert res.exit_code == 2

    def test_rho2_and_variance_and_pinsker(self, tmp_path, runner):
        out = tmp_path / "r"
        cfg = _write(tmp_path, "r.json", {
            "model": {"variant": "poisson"}, "R": 16, "n_replicas": 40,
            "v_max": 4, "n_bins": 16, "seed": 2})
        assert runner.invoke(main, ["rho2", "--config", cfg, "--out", str(out)]).exit_code == 0
        assert (out / "rho2.csv").read_text().startswith("bin_center,value,stderr")

        cfg = _write(tmp_path, "v.json", {
            "model": {"variant": "poisson"}, "R_list": [4, 8, 16, 32, 48],
            "n_replicas": 150, "seed": 2, "c_log": 1.0})
        assert runner.invoke(main, ["variance", "--config", cfg, "--out", str(out)]).exit_code == 0
        var = json.loads((out / "variance.json").read_text())
        assert 0.5 < var["fitted_exponent"] < 1.5
        assert var["dlog_trend"] == "diverging"
        assert (out / "dlog.csv").read_text().startswith("R,value,stderr")

        cfg = _write(tmp_path, "p.json", {
            "model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 4.0}},
            "R_list": [2, 4], "n_replicas": 800, "tile_count": 2, "seed": 2})
        assert runner.invoke(main, ["pinsker", "--config", cfg, "--out", str(out)]).exit_code == 0
        rep = json.loads((out / "pinsker.json").read_text())
        assert all(r["satisfied"] for r in rep["reports"])

    def test_hyperuniform_dlog_trend_with_a_rung_at_one(self, tmp_path, runner):
        # the value at R = 1 is 0 (log 1 = 0) and must not read as divergence
        out = tmp_path / "v"
        cfg = _write(tmp_path, "v.json", {
            "model": {"variant": "bernoulli_block", "k": 4}, "R_list": [1, 2, 4, 10],
            "n_replicas": 400, "seed": 3, "c_log": 1.0})
        res = runner.invoke(main, ["variance", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads((out / "variance.json").read_text())["dlog_trend"] == "bounded->0"

    def test_lp_and_freemin_and_crystal(self, tmp_path, runner):
        out = tmp_path / "misc"
        cfg = _write(tmp_path, "lp.json", {
            "kernel": {"family": "log1d"}, "v_max": 2.0, "step": 2**-6,
            "R": 256, "iterations": 30})
        assert runner.invoke(main, ["lp", "--config", cfg, "--out", str(out)]).exit_code == 0
        lp = json.loads((out / "lp.json").read_text())
        assert lp["objective"] <= lp["hardcore_objective"] + 1e-3
        assert lp["max_violation"] <= 1e-6

        cfg = _write(tmp_path, "fm.json", {
            "kernel": {"family": "riesz", "s": 0.5}, "beta": 0.5,
            "theta_grid": [0.75, 1.0, 2.0, 4.0], "R_list": [64, 128, 256]})
        assert runner.invoke(main, ["freemin", "--config", cfg, "--out", str(out)]).exit_code == 0
        fm = json.loads((out / "freemin.json").read_text())
        assert "argmin_theta" in fm and len(fm["bracket"]) == 2

        cfg = _write(tmp_path, "cr.json", {
            "model": {"variant": "lattice"}, "L": 24, "n_replicas": 10,
            "k_max": 3, "x_max": 5, "seed": 4})
        assert runner.invoke(main, ["crystal", "--config", cfg, "--out", str(out)]).exit_code == 0
        cr = json.loads((out / "crystal.json").read_text())
        assert cr["value"] == 0.0

        cfg = _write(tmp_path, "nb.json", {
            "model": {"variant": "poisson"}, "L": 24, "n_replicas": 20,
            "k_max": 2, "x_max": 5, "seed": 4})
        assert runner.invoke(main, ["neighbors", "--config", cfg, "--out", str(out)]).exit_code == 0
        assert (out / "neighbors_k01.csv").exists()


def test_commands_run_without_scipy_fft(tmp_path):
    # numpy's FFT serves the renewal grid and the LP transforms; scipy.fft
    # is never loaded, not at import and not by the commands that transform.
    # Nor are scipy.optimize and scipy.stats, which serve only as test
    # references: importing scipy.optimize alone takes about 0.2 s
    unloaded = ("scipy.fft", "scipy.optimize", "scipy.stats")
    specs = {
        "lp": {"kernel": {"family": "riesz", "s": 0.5}, "v_max": 2.0, "step": 2**-6,
               "iterations": 5},
        "freemin": {"kernel": {"family": "riesz", "s": 0.5}, "beta": 1.0,
                    "theta_grid": [1.0, 2.0, 4.0], "R_list": [64, 128]},
        "energy": {"model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 2.0}},
                   "kernel": {"family": "log1d"}, "R_list": [64, 128], "route": "rho2"},
    }
    loaded = f"sorted(m for m in sys.modules if m.startswith({unloaded!r}))"
    code = ["import sys", "from rieszlab.cli import main", f"assert not {loaded}, {loaded}"]
    for command, spec in specs.items():
        cfg = _write(tmp_path, f"{command}.json", spec)
        code.append(f"try:\n    main([{command!r}, '--config', {cfg!r}, '--out', "
                    f"{str(tmp_path / command)!r}], standalone_mode=False)\n"
                    "except SystemExit as e:\n    assert not e.code, e.code")
    code.append(f"print({loaded})")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for command in specs:
        assert (tmp_path / command / f"{command}.json").exists()


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path, runner):
        cfg = _write(tmp_path, "e.json", {
            "model": {"variant": "poisson"},
            "kernel": {"family": "log1d"},
            "R_list": [8, 16, 32], "n_replicas": 40, "route": "mc", "seed": 1})
        outs = []
        for name in ("a", "b", "c"):
            args = ["energy", "--config", cfg, "--out", str(tmp_path / name)]
            assert runner.invoke(main, args).exit_code == 0
            outs.append(_read_outputs(tmp_path / name))
        for key in ("energy.csv", "energy.json"):
            assert outs[0][key] == outs[1][key] == outs[2][key]
        m0 = json.loads(outs[0]["manifest.json"])
        m2 = json.loads(outs[2]["manifest.json"])
        assert m0["outputs"] == m2["outputs"]
        spec0 = {k: v for k, v in m0["spec"].items() if k != "out"}
        spec2 = {k: v for k, v in m2["spec"].items() if k != "out"}
        assert spec0 == spec2

    def test_run_api_manifest_digests_stable(self, tmp_path):
        spec = {"command": "lp", "kernel": {"family": "riesz", "s": 0.5},
                "v_max": 2.0, "step": 2**-6, "iterations": 20,
                "seed": 0, "out": str(tmp_path / "x")}
        m1 = run(dict(spec))
        spec["out"] = str(tmp_path / "y")
        m2 = run(dict(spec))
        assert m1["outputs"] == m2["outputs"]


ENERGY_MC = {"model": {"variant": "poisson"}, "kernel": {"family": "log1d"},
             "R_list": [8, 16, 32], "n_replicas": 30, "route": "mc"}


GAMMA_TWO = {"variant": "renewal", "gap": {"law": "gamma", "theta": 2}}


def _reject(runner, tmp_path, command, spec, *needles):
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", _write(tmp_path, "c.json", spec),
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "validation error" in res.output
    for needle in needles:
        assert needle in res.output
    assert not out.exists() or not any(out.iterdir())
    return res


class TestSpecLayer:
    def test_top_level_wrong_type(self, tmp_path, runner):
        _reject(runner, tmp_path, "energy", {**ENERGY_MC, "R_list": "8,16"},
                "config.R_list must be a non-empty list of numbers")

    def test_model_level_unknown_keys(self, tmp_path, runner):
        spec = {**ENERGY_MC, "model": {"variant": "poisson", "dd": 3, "typo": True}}
        _reject(runner, tmp_path, "energy", spec, "config.model has unknown keys: dd, typo")

    def test_gap_law_level_missing_key(self, tmp_path, runner):
        spec = {"model": {"variant": "renewal", "gap": {"law": "gamma"}},
                "kernel": {"family": "log1d"}, "R_list": [8, 16, 32], "route": "rho2"}
        _reject(runner, tmp_path, "energy", spec, "config.model.gap is missing 'theta'")

    def test_kernel_level_unknown_keys(self, tmp_path, runner):
        spec = {**ENERGY_MC, "kernel": {"family": "log1d", "s": 0.5, "d": 7}}
        _reject(runner, tmp_path, "energy", spec, "config.kernel has unknown keys: d, s")

    def test_non_integer_replica_count(self, tmp_path, runner):
        _reject(runner, tmp_path, "energy", {**ENERGY_MC, "n_replicas": 2.7},
                "config.n_replicas must be a positive integer")

    @pytest.mark.parametrize("change, message", [
        ({"n_replicas": 0}, "config.n_replicas must be a positive integer, got 0"),
        ({"n_replicas": True}, "config.n_replicas must be a positive integer, got True"),
        ({"model": {"variant": "poisson", "d": 1.0}}, "config.model.d must be an integer"),
        ({"model": {}}, "config.model is missing 'variant'"),
        ({"kernel": {"family": "riesz", "s": "0.5"}}, "config.kernel.s must be a number"),
        ({"kernel": {"family": "riesz", "s": float("nan")}},
         "config.kernel.s must be a number, got nan"),
    ])
    def test_strict_types(self, tmp_path, runner, change, message):
        _reject(runner, tmp_path, "energy", {**ENERGY_MC, **change}, message)

    def test_vibrating_lattice_takes_no_dimension(self, tmp_path, runner):
        spec = {"model": {"variant": "vibrating_lattice", "k": 4, "d": 2}, "R": 8}
        _reject(runner, tmp_path, "generate", spec, "config.model has unknown keys: d")

    def test_energy_rejects_v_max(self, tmp_path, runner):
        _reject(runner, tmp_path, "energy", {**ENERGY_MC, "v_max": 3},
                "config has unknown keys: v_max")

    def test_series_route_rejects_model(self, tmp_path, runner):
        spec = {**ENERGY_MC, "route": "series"}
        del spec["n_replicas"]
        _reject(runner, tmp_path, "energy", spec, "config has unknown keys: model")

    def test_rho2_route_rejects_replica_count(self, tmp_path, runner):
        _reject(runner, tmp_path, "energy", {**ENERGY_MC, "route": "rho2"},
                "config has unknown keys: n_replicas")

    def test_c_log_in_three_dimensions_writes_nothing(self, tmp_path, runner):
        spec = {"model": {"variant": "poisson", "d": 3}, "R_list": [2, 4, 8, 16, 32],
                "n_replicas": 30, "c_log": 1.0}
        _reject(runner, tmp_path, "variance", spec, "config.c_log")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("c_log", [0, -1.0])
    def test_nonpositive_c_log_writes_nothing(self, tmp_path, runner, c_log):
        spec = {"model": {"variant": "poisson"}, "R_list": [8, 16, 32, 64, 128],
                "n_replicas": 400, "seed": 3, "c_log": c_log}
        _reject(runner, tmp_path, "variance", spec, "config.c_log must be positive")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-3, -1, 2**64, 2**64 + 5, True, 1.0])
    def test_seed_outside_the_stream_domain(self, tmp_path, runner, seed):
        # masters are taken mod 2**64, so -3 and 2**64 - 3 would draw the same streams
        _reject(runner, tmp_path, "generate",
                {"model": {"variant": "poisson"}, "R": 4, "seed": seed},
                "config.seed must be an integer in [0, 2**64)")

    def test_seed_flag_outside_the_stream_domain(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4})
        res = runner.invoke(main, ["generate", "--config", cfg, "--seed", "-3",
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert "config.seed must be an integer in [0, 2**64), got -3" in res.output
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, tmp_path, runner):
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4,
                                          "seed": 2**64 - 1})
        res = runner.invoke(main, ["generate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output

    def test_pinsker_keeps_its_second_stream_in_the_domain(self, tmp_path, runner):
        spec = {"model": GAMMA_TWO, "R_list": [2, 4], "n_replicas": 50}
        _reject(runner, tmp_path, "pinsker", {**spec, "seed": 2**64 - 1},
                "config.seed: pinsker draws the baseline from seed + 1")
        cfg = _write(tmp_path, "ok.json", {**spec, "seed": 2**64 - 2})
        assert _validate(_load_spec("pinsker", cfg, None, None))[0]["seed"] == 2**64 - 2

    def test_pinsker_next_to_the_exponential_law(self, tmp_path, runner):
        # a valid spec whose entropy rate rounds to -2e-16 before its clamp at 0
        gap = {"law": "gamma", "theta": 0.999999999999}
        cfg = _write(tmp_path, "p.json", {"model": {"variant": "renewal", "gap": gap},
                                          "R_list": [2, 4], "n_replicas": 800,
                                          "tile_count": 2})
        res = runner.invoke(main, ["pinsker", "--config", cfg, "--out", str(tmp_path / "p")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "p" / "pinsker.json").exists()

    @pytest.mark.parametrize("command, spec, needle", [
        ("variance", {"model": {"variant": "poisson"}, "R_list": [4, 8, 16, 32],
                      "n_replicas": 30}, "one decade"),
        ("energy", {**ENERGY_MC, "n_replicas": 29}, "30 replicas"),
        ("energy", {**ENERGY_MC, "R_list": [16, 8, 32]}, "increasing"),
        ("variance", {"model": {"variant": "poisson"}, "R_list": [8, 16, 32, 64, 128],
                      "n_replicas": 1}, "at least 2 replicas"),
        ("rho2", {"model": {"variant": "poisson"}, "R": 16, "n_replicas": 5, "n_bins": 1},
         "n_bins >= 2"),
        ("energy", {"model": {"variant": "lattice", "d": 2}, "kernel": {"family": "log2d"},
                    "R_list": [8, 16], "route": "rho2"}, "atomic two-point parts"),
        ("neighbors", {"model": GAMMA_TWO, "L": 32, "n_replicas": 1}, "at least 2 replicas"),
        ("crystal", {"model": {"variant": "vibrating_lattice", "k": 4}, "L": 48,
                     "n_replicas": 1, "k_max": 4, "x_max": 8}, "at least 2 replicas"),
        ("pinsker", {"model": GAMMA_TWO, "R_list": [2, 4], "n_replicas": 1},
         "at least 2 replicas"),
        ("generate", {"model": {"variant": "poisson"}, "R": 0}, "window side must be positive"),
        ("neighbors", {"model": GAMMA_TWO, "L": -4}, "window side must be positive"),
        ("rho2", {"model": {"variant": "poisson"}, "R": -1}, "window side must be positive"),
        ("generate", {"model": {"variant": "poisson"}, "R": float("inf")},
         "config.R must be a number, got inf"),
        ("energy", {"kernel": {"family": "log1d"}, "R_list": [8, float("inf")],
                    "route": "series"},
         "config.R_list must be a non-empty list of numbers, got [8, inf]"),
        ("generate", {"model": {"variant": "poisson"}, "R": 10**400}, "config.R must be a number"),
        ("energy", {"model": {"variant": "bernoulli_block", "k": 2, "d": 2},
                    "kernel": {"family": "log2d"}, "R_list": [0, 4], "route": "rho2"},
         "window side must be positive"),
        ("pinsker", {"model": GAMMA_TWO, "R_list": [-2, 4], "n_replicas": 50},
         "window side must be positive"),
        ("pinsker", {"model": GAMMA_TWO, "R_list": [0, 4], "n_replicas": 50},
         "window side must be positive"),
        ("energy", {"kernel": {"family": "log1d"}, "R_list": [-8, -4], "route": "series"},
         "window side must be positive"),
        ("neighbors", {"model": GAMMA_TWO, "L": 32, "n_replicas": 5, "step": 0},
         "neighbor grid"),
        ("crystal", {"model": {"variant": "vibrating_lattice", "k": 4}, "L": 48,
                     "n_replicas": 5, "k_max": 4, "x_max": -2}, "neighbor grid"),
        ("energy", {"model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 1e5}},
                    "kernel": {"family": "log1d"}, "R_list": [128, 256], "route": "rho2"},
         "renewal gap law too narrow"),
        ("generate", {"model": {"variant": "bernoulli_block", "k": 1000, "d": 3}, "R": 1},
         "a batch may hold"),
        ("generate", {"model": {"variant": "poisson", "d": 3}, "R": 1e7}, "a batch may hold"),
        ("energy", {"kernel": {"family": "riesz", "s": 0.5}, "R_list": [2**36, 2**37],
                    "route": "series"}, "a batch may hold"),
        ("energy", {"model": {"variant": "vibrating_lattice", "k": 4},
                    "kernel": {"family": "riesz", "s": 0.5}, "R_list": [2**25, 2**26],
                    "route": "rho2"}, "a batch may hold"),
        ("lp", {"kernel": {"family": "riesz", "s": 0.5}, "v_max": 4.0, "step": 2.0**-28},
         "a batch may hold"),
        ("rho2", {"model": {"variant": "poisson"}, "R": 8, "n_replicas": 2, "v_max": 1,
                  "n_bins": 10**14}, "a batch may hold"),
        ("rho2", {"model": {"variant": "bernoulli_block", "k": 4}, "R": 32, "n_replicas": 5,
                  "v_max": 4, "n_bins": 7}, "n_bins must be even in d = 1"),
        ("neighbors", {"model": GAMMA_TWO, "L": 8, "x_max": 1, "step": 1e-14},
         "a batch may hold"),
        ("pinsker", {"model": GAMMA_TWO, "R_list": [2, 4], "n_replicas": 20,
                     "tile_count": 10**14}, "a batch may hold"),
        ("generate", {"model": {"variant": "lattice"}, "R": 0.5, "n_replicas": 2**28},
         "a batch may hold"),
        ("neighbors", {"model": GAMMA_TWO, "L": 32, "n_replicas": 2, "k_max": 10**12},
         "a batch may hold"),
        ("crystal", {"model": GAMMA_TWO, "L": 32, "n_replicas": 2, "k_max": 10**12},
         "a batch may hold"),
        ("generate", {"model": {"variant": "lattice"}, "R": 1e19}, "a batch may hold"),
        ("generate", {"model": {"variant": "lattice"}, "R": 1e20}, "a batch may hold"),
        ("generate", {"model": {"variant": "lattice", "d": 2}, "R": 1e300}, "a batch may hold"),
        ("energy", {"model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 1e308}},
                    "kernel": {"family": "log1d"}, "R_list": [128, 256], "route": "rho2"},
         "renewal gap law too narrow"),
        ("freemin", {"kernel": {"family": "riesz", "s": 0.5}, "beta": 1.0,
                     "theta_grid": [1.0, 1e308], "R_list": [64, 128]},
         "renewal gap law too narrow"),
        ("energy", {"model": {"variant": "poisson", "d": 2}, "kernel": {"family": "log2d"},
                    "R_list": [1e100, 2e100], "n_replicas": 30, "route": "mc"},
         "a batch may hold"),
        ("energy", {"model": {"variant": "poisson", "d": 3},
                    "kernel": {"family": "riesz", "s": 1.5, "d": 3},
                    "R_list": [1e80, 2e80], "n_replicas": 30, "route": "mc"},
         "a batch may hold"),
    ], ids=["short_decade", "few_replicas", "non_increasing", "one_replica", "one_bin",
            "lattice_2d_rho2", "neighbors_one_replica", "crystal_one_replica",
            "pinsker_one_replica", "generate_zero_side", "neighbors_negative_side",
            "rho2_negative_side", "generate_infinite_side", "series_infinite_rung",
            "generate_long_integer_side", "rho2_zero_rung", "pinsker_negative_rung",
            "pinsker_zero_rung", "series_negative_rungs", "neighbors_zero_step",
            "crystal_negative_x_max", "renewal_too_narrow", "block_too_large",
            "poisson_too_large", "series_too_long", "vibrating_rho2_too_long",
            "lp_grid_too_large", "rho2_bins_too_many", "rho2_odd_bins_1d",
            "neighbors_step_too_fine",
            "pinsker_tiles_too_many", "generate_replicas_too_many", "neighbors_k_max_too_many",
            "crystal_k_max_too_many", "lattice_side_1e19", "lattice_side_1e20",
            "lattice_2d_side_1e300", "renewal_gamma_shape_past_floats",
            "freemin_gamma_shape_past_floats", "mc_log2d_background_past_floats",
            "mc_riesz_3d_background_past_floats"])
    def test_library_rejection_leaves_no_directory(self, tmp_path, runner, address_space_cap,
                                                   command, spec, needle):
        _reject(runner, tmp_path, command, spec, needle)
        assert not (tmp_path / "out").exists()

    def test_word_count_past_floats_is_shown_short(self, tmp_path, runner):
        # the d = 2 lattice at R = 1e300 counts its words as an int of 601
        # digits, shown to 15 significant digits like a float count
        res = _reject(runner, tmp_path, "generate", {"model": {"variant": "lattice", "d": 2},
                                                     "R": 1e300},
                      "1 x 2.00000000000000e+600 words are more than")
        assert len(res.output) < 120, res.output

    @pytest.mark.parametrize("route_keys", [
        {"route": "series"},
        {"route": "rho2", "model": {"variant": "poisson"}},
        {"route": "mc", "model": {"variant": "poisson"}, "n_replicas": 30},
    ], ids=["series", "rho2", "mc"])
    def test_energy_needs_two_rungs(self, tmp_path, runner, route_keys):
        # one rung leaves the extrapolation error infinite, which JSON cannot hold
        spec = {"kernel": {"family": "riesz", "s": 0.5}, "R_list": [64], **route_keys}
        _reject(runner, tmp_path, "energy", spec, "config.R_list")
        assert not (tmp_path / "out").exists()

    def test_non_finite_json_value_crashes(self, tmp_path, runner, monkeypatch):
        import rieszlab.cli as cli

        def infinite(a, outfile):
            cli.write_json(outfile("energy.json"), {"extrapolation_error": float("inf")})

        monkeypatch.setitem(cli.COMMANDS, "generate",
                            cli.COMMANDS["generate"]._replace(handler=infinite))
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4})
        res = runner.invoke(main, ["generate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, ValueError)
        assert not (tmp_path / "o" / "energy.json").exists()

    def test_variance_with_c_log_samples_each_replica_once(self, tmp_path, monkeypatch):
        import rieszlab.generators as generators

        import rieszlab.estimators as estimators

        real, calls = generators.sample, []

        def counting(model, R, n, seed):
            calls.append(n)
            return real(model, R, n, seed)

        monkeypatch.setattr(estimators, "sample", counting)
        R_list = [4, 8, 16, 32, 64]
        run({"command": "variance", "model": {"variant": "poisson"}, "R_list": R_list,
             "n_replicas": 30, "c_log": 1.0, "out": str(tmp_path / "v")})
        assert calls == [30] * len(R_list)  # one batch per rung
        assert (tmp_path / "v" / "dlog.csv").exists()

    def test_internal_error_exits_1(self, tmp_path, runner, monkeypatch):
        import rieszlab.cli as cli

        def broken(a, outfile):
            raise TypeError("internal bug")

        monkeypatch.setitem(cli.COMMANDS, "generate",
                            cli.COMMANDS["generate"]._replace(handler=broken))
        cfg = _write(tmp_path, "c.json", {"model": {"variant": "poisson"}, "R": 4})
        res = runner.invoke(main, ["generate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, TypeError)
        assert "validation error" not in res.output

    def test_manifest_records_environment_outside_digests(self, tmp_path, monkeypatch):
        import numpy
        import scipy

        import rieszlab.cli as cli

        spec = {"command": "generate", "model": {"variant": "poisson"}, "R": 4}
        manifest = run({**spec, "out": str(tmp_path / "a")})
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": numpy.__version__,
                                           "scipy": scipy.__version__}
        on_disk = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert on_disk["environment"] == manifest["environment"]
        # other versions give the same digests: they cover the outputs only
        monkeypatch.setattr(cli, "ENVIRONMENT", {"python": "0", "numpy": "0", "scipy": "0"})
        other = run({**spec, "out": str(tmp_path / "b")})
        assert other["environment"]["numpy"] == "0"
        assert other["outputs"] == manifest["outputs"]

    def test_manifest_echoes_resolved_spec(self, tmp_path):
        manifest = run({"command": "neighbors", "model": {"variant": "poisson"}, "L": 24,
                        "n_replicas": 20, "out": str(tmp_path / "n")})
        assert manifest["spec"] == {
            "command": "neighbors", "seed": 0, "out": str(tmp_path / "n"),
            "model": {"variant": "poisson", "d": 1}, "L": 24.0, "n_replicas": 20,
            "x_max": 6.0, "step": 1.0 / 32.0, "k_max": 16}
        on_disk = json.loads((tmp_path / "n" / "manifest.json").read_text())
        assert on_disk["spec"] == manifest["spec"]

    def test_plot_rejects_non_object_json(self, tmp_path, runner):
        out = self._energy_outputs(tmp_path, runner)
        res = runner.invoke(main, ["plot", "--csv", str(out / "energy.csv"), "--kind", "energy",
                                   "--json", _write(tmp_path, "x.json", [1, 2]),
                                   "--out", str(tmp_path / "x.gp")])
        assert res.exit_code == 2 and "must be an object" in res.output
        assert not (tmp_path / "x.gp").exists()

    def test_plot_rejects_non_numeric_annotation(self, tmp_path, runner):
        out = self._energy_outputs(tmp_path, runner)
        res = runner.invoke(main, ["plot", "--csv", str(out / "energy.csv"), "--kind", "energy",
                                   "--json", _write(tmp_path, "x.json", {"extrapolated": "abc"}),
                                   "--out", str(tmp_path / "x.gp")])
        assert res.exit_code == 2 and "'extrapolated' must be a number" in res.output
        assert not (tmp_path / "x.gp").exists()

    @staticmethod
    def _energy_outputs(tmp_path, runner) -> Path:
        cfg = _write(tmp_path, "e.json", {"kernel": {"family": "log1d"}, "R_list": [64, 128],
                                          "route": "series"})
        out = tmp_path / "e"
        assert runner.invoke(main, ["energy", "--config", cfg, "--out", str(out)]).exit_code == 0
        return out

    def test_readme_example_passes_validation(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        match = re.search(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\nrieszlab (\w+) --config \1",
                          readme, re.S)
        assert match, "README has no example config block"
        cfg = tmp_path / "exp.json"
        cfg.write_text(match.group(2), encoding="utf-8")
        spec = _load_spec(match.group(3), str(cfg), None, str(tmp_path))
        assert spec == {**json.loads(match.group(2)), "command": match.group(3),
                        "out": str(tmp_path)}
        _validate(spec)

    def test_readme_library_tour_runs(self, capsys):
        # the tour's code runs against the library as it is
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        match = re.search(r"## Library tour\n\n```python\n(.*?)\n```", readme, re.S)
        assert match, "README has no library tour block"
        exec(compile(match.group(1), "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3 and printed[0].endswith(" 2 8.0")

    def test_readme_lists_descriptor_keys(self):
        from rieszlab.cli import GAP_LAW, KERNEL, MODEL

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        text = " ".join(readme.split())
        for label, table in (("model", MODEL), ("gap", GAP_LAW), ("kernel", KERNEL)):
            ((tag, (cases, _)),) = table.items()
            bullet = re.search(rf"- {label} `{tag}`: (.*?)\.", text)
            assert bullet, f"README lists no {label} descriptors"
            clauses = bullet.group(1).split(";")
            for name, (keys, _) in cases.items():
                clause = [c for c in clauses if f"`{name}`" in c]
                assert len(clause) == 1, name
                assert set(re.findall(r"`(\w+)`", clause[0])) - set(cases) == set(keys), name


# the generate spec of every model form and the description its CSVs carry
MODEL_FORMS = [
    ({"variant": "poisson", "d": 2}, "poisson(d=2)"),
    ({"variant": "lattice"}, "lattice(d=1)"),
    ({"variant": "bernoulli_block", "k": 4}, "bernoulli_block(k=4,d=1)"),
    ({"variant": "vibrating_lattice", "k": 8}, "vibrating_lattice(k=8)"),
    ({"variant": "renewal", "gap": {"law": "exponential"}}, "renewal(exponential)"),
    ({"variant": "renewal", "gap": {"law": "gamma", "theta": 2}}, "renewal(gamma,theta=2)"),
    ({"variant": "renewal", "gap": {"law": "uniform_hat", "k": 3}}, "renewal(uniform_hat,k=3)"),
]


def test_every_variant_is_spelled_in_each_place(tmp_path):
    # a variant added in one place only fails here: it needs one row of the
    # variant table, a schema entry with that row's keys, and a pinned
    # description, which the generate CSVs carry as their model line
    from rieszlab.cli import MODEL
    from rieszlab.generators import Variant, _VARIANTS

    assert list(_VARIANTS) == list(Variant)
    cases, _ = MODEL["variant"]
    assert set(cases) == {v.value for v in Variant}
    for variant, row in _VARIANTS.items():
        keys = {row.param} - {None} | ({"d"} if len(row.dims) > 1 else set())
        assert set(cases[variant.value][0]) == keys, variant
    assert {spec["variant"] for spec, _ in MODEL_FORMS} == set(cases)
    for j, (spec, described) in enumerate(MODEL_FORMS):
        manifest = run({"command": "generate", "model": spec, "R": 4, "seed": 3,
                        "out": str(tmp_path / str(j))})
        assert _validate(manifest["spec"])[1]["model"].describe() == described
        lines = (tmp_path / str(j) / "config_0000.csv").read_text().splitlines()
        assert lines[2:4] == [f"# model={described}", "# seed=3:0"], spec


KERNEL_FORMS = [  # a kernel spec, the kernel it builds, and its lines in energy.json
    ({"family": "log1d"}, ("log1d", 1, None), ('"d": 1,', '"family": "log1d",', '"s": null')),
    ({"family": "log2d"}, ("log2d", 2, None), ('"d": 2,', '"family": "log2d",', '"s": null')),
    ({"family": "riesz", "s": 0.5}, ("riesz", 1, 0.5),
     ('"d": 1,', '"family": "riesz",', '"s": 0.5')),
    ({"family": "riesz", "s": 1.0, "d": 2}, ("riesz", 2, 1.0),
     ('"d": 2,', '"family": "riesz",', '"s": 1.0')),
    ({"family": "riesz", "s": 1.5, "d": 3}, ("riesz", 3, 1.5),
     ('"d": 3,', '"family": "riesz",', '"s": 1.5')),
]


def test_every_kernel_is_spelled_in_each_place(tmp_path):
    # a kernel is its dimension d and exponent s (None for the log kernel);
    # its family tag is derived from them, and energy.json writes the three
    # as pinned here
    from rieszlab import ArgumentError, DomainError, Kernel, riesz_kernel
    from rieszlab.cli import KERNEL

    cases, _ = KERNEL["family"]
    assert {spec["family"] for spec, _, _ in KERNEL_FORMS} == set(cases)
    for j, (spec, (family, d, s), lines) in enumerate(KERNEL_FORMS):
        out = tmp_path / str(j)
        manifest = run({"command": "energy", "kernel": spec, "route": "rho2",
                        "model": {"variant": "poisson", "d": d}, "R_list": [8, 16],
                        "out": str(out)})
        kernel = _validate(manifest["spec"])[1]["kernel"]
        assert (kernel.family, kernel.d, kernel.s) == (family, d, s)
        pinned = '  "kernel": {\n' + "".join(f"    {line}\n" for line in lines) + "  },\n"
        assert pinned in (out / "energy.json").read_text(), spec
    for bad in (3, True):  # no log kernel in d = 3; a bool is no dimension
        with pytest.raises(ArgumentError):
            Kernel(bad)
    with pytest.raises(DomainError):
        Kernel(2, 2.0)  # s < d
    with pytest.raises(DomainError):
        riesz_kernel(0.0, 1)  # s = 0 is not the log kernel
