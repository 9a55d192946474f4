"""Experiment runner: one JSON config per experiment, seeded execution,
CSV/JSON reports plus a manifest with content digests.

Exit codes: 0 success, 2 validation error, 3 numerical divergence
diagnostic or Monte Carlo abort on too many discarded replicas, 4 I/O
failure.  Results are byte-identical across reruns; the manifest records
digests of every output file.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import click

from . import __version__
from ._io import fmt, sha256_file, write_json
from .core import (
    ArgumentError,
    DivergenceError,
    DomainError,
    Kernel,
    KernelFamily,
    NotApplicableError,
    SingularConfigurationError,
    Window,
)
from .generators import (
    GapLaw,
    ProcessModel,
    Seed,
    Variant,
    config_to_csv,
    rho2_analytic,
    sample,
)
from . import energy as energy_mod
from . import estimators as est_mod
from . import lpx as lpx_mod
from . import onedim as onedim_mod


class ValidationFailure(ValueError):
    pass


def _parse_gap(spec: dict) -> GapLaw:
    law = spec.get("law")
    if law == "exponential":
        return GapLaw.exponential()
    if law == "gamma":
        return GapLaw.gamma(float(spec["theta"]))
    if law == "uniform_hat":
        return GapLaw.uniform_hat(int(spec["k"]))
    raise ValidationFailure(f"unknown gap law {law!r}")


def _parse_model(spec: dict) -> ProcessModel:
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ValidationFailure("model descriptor must be an object with a 'variant'")
    variant = spec["variant"]
    d = int(spec.get("d", 1))
    if variant == "poisson":
        return ProcessModel.poisson(d)
    if variant == "lattice":
        return ProcessModel.lattice(d)
    if variant == "bernoulli_block":
        return ProcessModel.bernoulli_block(int(spec["k"]), d)
    if variant == "vibrating_lattice":
        return ProcessModel.vibrating_lattice(int(spec["k"]))
    if variant == "renewal":
        return ProcessModel.renewal(_parse_gap(spec.get("gap", {})))
    raise ValidationFailure(f"unknown model variant {variant!r}")


def _parse_kernel(spec: dict) -> Kernel:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValidationFailure("kernel descriptor must be an object with a 'family'")
    fam = spec["family"]
    if fam == "log1d":
        return Kernel(KernelFamily.LOG1D, 1)
    if fam == "log2d":
        return Kernel(KernelFamily.LOG2D, 2)
    if fam == "riesz":
        return Kernel(KernelFamily.RIESZ, int(spec.get("d", 1)), float(spec["s"]))
    raise ValidationFailure(f"unknown kernel family {fam!r}")


_ALLOWED_KEYS = {
    "generate": {"command", "model", "R", "n_replicas", "seed", "out"},
    "rho2": {"command", "model", "R", "n_replicas", "seed", "out", "v_max", "n_bins"},
    "variance": {"command", "model", "R_list", "n_replicas", "seed", "out", "c_log"},
    "energy": {"command", "model", "kernel", "R_list", "n_replicas", "seed", "out",
               "route", "v_max"},
    "neighbors": {"command", "model", "L", "n_replicas", "seed", "out", "k_max",
                  "x_max", "step"},
    "crystal": {"command", "model", "L", "n_replicas", "seed", "out", "k_max",
                "x_max", "s_exponent", "step"},
    "freemin": {"command", "kernel", "beta", "theta_grid", "seed", "out", "R_list"},
    "lp": {"command", "kernel", "v_max", "step", "R", "iterations", "seed", "out"},
    "pinsker": {"command", "model", "R_list", "n_replicas", "tile_count", "seed",
                "out"},
}


def _load_spec(command: str, config_path: str | None, seed: int | None,
               out: str | None) -> dict:
    spec: dict = {}
    if config_path is not None:
        try:
            spec = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"config is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationFailure("config must be a JSON object")
    spec.setdefault("command", command)
    if spec["command"] != command:
        raise ValidationFailure(
            f"config command {spec['command']!r} does not match {command!r}"
        )
    # flag > file > default
    if seed is not None:
        spec["seed"] = int(seed)
    if out is not None:
        spec["out"] = out
    unknown = sorted(set(spec) - _ALLOWED_KEYS[command])
    if unknown:
        raise ValidationFailure(f"unknown config keys: {', '.join(unknown)}")
    spec.setdefault("seed", 0)
    spec.setdefault("out", ".")
    return spec


def run(spec: dict) -> dict:
    """Execute a validated experiment spec; returns the manifest dict."""
    t0 = time.monotonic()
    command = spec["command"]
    outdir = Path(spec["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    seed = Seed(int(spec["seed"]))
    outputs: list[Path] = []
    counters = {"discarded_replicas": 0}

    def outfile(name: str) -> Path:
        p = outdir / name
        outputs.append(p)
        return p

    if command == "generate":
        model = _parse_model(spec["model"])
        window = Window(float(spec["R"]), model.d)
        n = int(spec.get("n_replicas", 1))
        for j in range(n):
            cfg = sample(model, window, Seed(seed.master, j))
            config_to_csv(cfg, outfile(f"config_{j:04d}.csv"),
                          model=model.describe(), seed=f"{seed.master}:{j}")

    elif command == "rho2":
        model = _parse_model(spec["model"])
        R = float(spec["R"])
        n = int(spec.get("n_replicas", 100))
        window = Window(R, model.d)
        samples = [sample(model, window, Seed(seed.master, j)) for j in range(n)]
        grid = est_mod.GridSpec(float(spec.get("v_max", R / 4.0)),
                                int(spec.get("n_bins", 128)))
        est = est_mod.estimate_rho2(samples, grid)
        est.to_csv(outfile("rho2.csv"))

    elif command == "variance":
        model = _parse_model(spec["model"])
        R_list = [float(r) for r in spec["R_list"]]
        n = int(spec.get("n_replicas", 200))
        curve = est_mod.number_variance_curve(model, R_list, n, seed)
        curve.to_csv(outfile("variance.csv"))
        summary = {
            "fitted_exponent": curve.fitted_exponent,
            "exponent_ci": list(curve.exponent_ci),
        }
        if "c_log" in spec:
            if model.d > 2:
                raise ValidationFailure("the logarithmic term needs d = 1 or 2")
            kernel = Kernel(KernelFamily.LOG1D if model.d == 1 else KernelFamily.LOG2D,
                            model.d)
            dcurve = est_mod.dlog_estimate(model, kernel, R_list, n, seed,
                                           c_log=float(spec["c_log"]))
            dcurve.to_csv(outfile("dlog.csv"))
            summary["dlog_trend"] = dcurve.trend
        write_json(outfile("variance.json"), summary)

    elif command == "energy":
        kernel = _parse_kernel(spec["kernel"])
        route = spec.get("route", "mc")
        R_list = [float(r) for r in spec["R_list"]]
        if route == "mc":
            model = _parse_model(spec["model"])
            rep = energy_mod.wint_monte_carlo(
                model, kernel, R_list, int(spec.get("n_replicas", 100)), seed)
            counters["discarded_replicas"] = rep.n_discarded
        elif route == "rho2":
            model = _parse_model(spec["model"])
            rep = energy_mod.wint_from_rho2(rho2_analytic(model), kernel, R_list)
        elif route == "series":
            rep = energy_mod.wint_lattice_series(kernel, R_list)
        else:
            raise ValidationFailure(f"unknown energy route {route!r}")
        rep.to_csv(outfile("energy.csv"))
        write_json(outfile("energy.json"), rep.to_json_dict())

    elif command == "neighbors":
        model = _parse_model(spec["model"])
        L = float(spec["L"])
        n = int(spec.get("n_replicas", 200))
        samples = [sample(model, Window(L, 1), Seed(seed.master, j)) for j in range(n)]
        x_max = float(spec.get("x_max", min(L / 4.0, 64.0)))
        step = float(spec.get("step", 1.0 / 32.0))
        k_max = int(spec.get("k_max", math.ceil(x_max) + 10))
        masses = {}
        for k in range(1, k_max + 1):
            nd = onedim_mod.kth_neighbor_density(samples, k, L, x_max, step)
            nd.to_csv(outfile(f"neighbors_k{k:02d}.csv"))
            masses[str(k)] = nd.total_mass
        write_json(outfile("neighbors.json"), {"total_mass": masses})

    elif command == "crystal":
        model = _parse_model(spec["model"])
        L = float(spec["L"])
        n = int(spec.get("n_replicas", 200))
        samples = [sample(model, Window(L, 1), Seed(seed.master, j)) for j in range(n)]
        x_max = float(spec.get("x_max", min(L / 4.0, 64.0)))
        step = float(spec.get("step", 1.0 / 32.0))
        k_max = int(spec.get("k_max", math.ceil(x_max) + 10))
        densities = [onedim_mod.kth_neighbor_density(samples, k, L, x_max, step)
                     for k in range(1, k_max + 1)]
        gap_val = onedim_mod.crystallization_gap(
            densities, float(spec.get("s_exponent", 0.0)), k_max)
        write_json(outfile("crystal.json"), {
            "s_exponent": gap_val.s_exponent,
            "k_max": gap_val.k_max,
            "value": gap_val.value,
            "truncation_bound": gap_val.truncation_bound,
        })

    elif command == "freemin":
        kernel = _parse_kernel(spec["kernel"])
        opts = onedim_mod.ScanOptions()
        if "R_list" in spec:
            opts = onedim_mod.ScanOptions(R_list=tuple(float(r) for r in spec["R_list"]))
        scan = onedim_mod.free_energy_scan(
            float(spec["beta"]), kernel,
            [float(t) for t in spec.get("theta_grid",
                                        (0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
                                         8.0, 12.0, 16.0, 24.0, 32.0))],
            opts)
        scan.to_csv(outfile("freemin.csv"))
        write_json(outfile("freemin.json"), scan.to_json_dict())

    elif command == "lp":
        kernel = _parse_kernel(spec["kernel"])
        disc = lpx_mod.Discretization(
            v_max=float(spec.get("v_max", 4.0)),
            step=float(spec.get("step", 2.0**-8)),
            R=float(spec["R"]) if "R" in spec else None)
        best = lpx_mod.minimize_t2(disc, kernel, int(spec.get("iterations", 200)))
        hc = lpx_mod.evaluate_candidate(lpx_mod.hardcore_candidate(disc), disc, kernel)
        best.to_csv(disc, outfile("lp_candidate.csv"))
        summary = best.to_json_dict()
        summary["hardcore_objective"] = hc.objective
        write_json(outfile("lp.json"), summary)

    elif command == "pinsker":
        model = _parse_model(spec["model"])
        if model.variant is not Variant.RENEWAL:
            raise ValidationFailure("pinsker experiments compare a renewal model "
                                    "against the memoryless baseline")
        ers = onedim_mod.renewal_entropy_rate(model.gap)
        n = int(spec.get("n_replicas", 2000))
        tiles = int(spec.get("tile_count", 2))
        reports = []
        R_list = [float(r) for r in spec["R_list"]]
        Rmax = max(R_list)
        samples_p = [sample(model, Window(Rmax, 1), Seed(seed.master, j))
                     for j in range(n)]
        base = ProcessModel.poisson(1)
        samples_q = [sample(base, Window(Rmax, 1), Seed(seed.master + 1, j))
                     for j in range(n)]
        for R in R_list:
            tv = est_mod.tv_lower_bound(samples_p, samples_q, R, tiles)
            reports.append(est_mod.pinsker_check(ers, tv, R).to_json_dict())
        write_json(outfile("pinsker.json"), {"ers": ers, "reports": reports})

    else:  # pragma: no cover - guarded by the CLI layer
        raise ValidationFailure(f"unknown command {command!r}")

    manifest = {
        "spec": spec,
        "version": __version__,
        "wall_time_s": time.monotonic() - t0,
        "error_counters": counters,
        "outputs": {p.name: sha256_file(p) for p in outputs},
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# plot script emission
# ---------------------------------------------------------------------------

_PLOT_KINDS = ("variance", "rho2", "energy", "freemin")


def _csv_header(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        body = fh.readline().strip()
    if not first or not body:
        raise ValidationFailure(f"{path}: empty CSV")
    return first.split(",")


def emit_plot_script(csv_path, kind: str, out_path, extra: dict | None = None) -> Path:
    """Write a gnuplot script reproducing the standard figure for ``kind``."""
    if kind not in _PLOT_KINDS:
        raise ValidationFailure(f"unknown plot kind {kind!r}")
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ValidationFailure(f"{csv_path}: no such CSV")
    header = _csv_header(csv_path)
    expected = {
        "variance": ["R", "var", "stderr"],
        "rho2": ["bin_center", "value", "stderr"],
        "energy": ["R", "value", "stderr"],
        "freemin": ["theta", "wint", "ers", "f"],
    }[kind]
    if header != expected:
        raise ValidationFailure(
            f"{csv_path}: header {header} does not match {expected}")
    extra = extra or {}
    lines = ["set datafile separator ','", f"# kind: {kind}"]
    if kind == "variance":
        slope = extra.get("fitted_exponent")
        lines += [
            "set logscale xy",
            "set xlabel 'R'",
            "set ylabel 'mean squared discrepancy'",
        ]
        if slope is not None:
            lines.append(f"set label 'fitted slope {fmt(slope)}' at graph 0.1, 0.9")
        lines.append(
            f"plot '{csv_path.name}' skip 1 using 1:2:3 with yerrorlines title 'variance'"
        )
    elif kind == "rho2":
        lines += [
            "set xlabel 'v'",
            "set ylabel 'pair correlation minus one'",
            f"plot '{csv_path.name}' skip 1 using 1:2:3 with yerrorlines title 'rho2 - 1'",
        ]
    elif kind == "energy":
        lines += ["set xlabel 'R'", "set ylabel 'energy per volume'", "set logscale x"]
        asym = extra.get("extrapolated")
        pieces = [f"'{csv_path.name}' skip 1 using 1:2:3 with yerrorlines title 'ladder'"]
        if asym is not None:
            pieces.append(f"{fmt(asym)} with lines dashtype 2 title 'extrapolated'")
        lines.append("plot " + ", ".join(pieces))
    else:
        lines += [
            "set xlabel 'theta'",
            "set ylabel 'free energy'",
            "set logscale x",
            f"plot '{csv_path.name}' skip 1 using 1:4 with linespoints title 'f',"
            f" '{csv_path.name}' skip 1 using 1:2 with linespoints title 'energy',"
            f" '{csv_path.name}' skip 1 using 1:3 with linespoints title 'entropy rate'",
        ]
    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return out_path


# ---------------------------------------------------------------------------
# click surface
# ---------------------------------------------------------------------------

def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON experiment config")(fn)
    fn = click.option("--seed", type=int, default=None, help="master seed override")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="output directory override")(fn)
    return fn


def _execute(command: str, config_path, seed, out) -> None:
    try:
        spec = _load_spec(command, config_path, seed, out)
        run(spec)
    except (DivergenceError, SingularConfigurationError) as exc:
        click.echo(f"numerical divergence: {exc}", err=True)
        sys.exit(3)
    except (ValidationFailure, ArgumentError, DomainError, NotApplicableError,
            KeyError, TypeError, ValueError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(4)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Numerical laboratory for pair-interaction energies of point processes."""


def _register(command: str, help_text: str) -> None:
    @main.command(name=command, help=help_text)
    @_common_options
    def _cmd(config_path, seed, out, _command=command):
        _execute(_command, config_path, seed, out)


_register("generate", "Sample configurations and write them as CSV.")
_register("rho2", "Estimate the pair correlation deficit from replicas.")
_register("variance", "Number-variance curve with fitted growth exponent.")
_register("energy", "Energy ladder via mc | rho2 | series route.")
_register("neighbors", "k-th neighbor distance densities.")
_register("crystal", "Crystallization gap functional from neighbor densities.")
_register("freemin", "Free-energy scan over Gamma gap shapes.")
_register("lp", "Minimize the tent-weighted energy over admissible deficits.")
_register("pinsker", "Total-variation lower bounds against the Pinsker bound.")


@main.command(name="plot", help="Emit a gnuplot script for a result CSV.")
@click.option("--csv", "csv_path", type=click.Path(), required=True)
@click.option("--kind", type=click.Choice(_PLOT_KINDS), required=True)
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="companion JSON report (adds asymptote/slope annotations)")
@click.option("--out", "out_path", type=click.Path(), required=True)
def _plot(csv_path, kind, json_path, out_path):
    extra = {}
    if json_path is not None:
        try:
            extra = json.loads(Path(json_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(2)
    try:
        emit_plot_script(csv_path, kind, out_path, extra)
    except ValidationFailure as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(4)


if __name__ == "__main__":  # pragma: no cover
    main()
