import json
import platform
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from rieszlab.cli import main, run, _load_spec
from rieszlab.core import SingularConfigurationError
from rieszlab._io import config_from_csv


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
        assert _load_spec("pinsker", cfg, None, None)["seed"] == 2**64 - 2

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
    ], ids=["short_decade", "few_replicas", "non_increasing", "one_replica", "one_bin",
            "lattice_2d_rho2", "neighbors_one_replica", "crystal_one_replica",
            "pinsker_one_replica", "generate_zero_side", "neighbors_negative_side",
            "rho2_negative_side", "generate_infinite_side", "series_infinite_rung",
            "generate_long_integer_side", "rho2_zero_rung", "pinsker_negative_rung",
            "pinsker_zero_rung", "series_negative_rungs", "neighbors_zero_step",
            "crystal_negative_x_max", "renewal_too_narrow"])
    def test_library_rejection_leaves_no_directory(self, tmp_path, runner, command, spec,
                                                   needle):
        _reject(runner, tmp_path, command, spec, needle)
        assert not (tmp_path / "out").exists()

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

        def counting(model, R, n, seed, rung=0):
            calls.append(n)
            return real(model, R, n, seed, rung)

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
