import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from rieszlab.cli import main, run, _load_spec
from rieszlab.core import SingularConfigurationError
from rieszlab.generators import config_from_csv


@pytest.fixture()
def runner():
    return CliRunner()


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
