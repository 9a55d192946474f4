"""Experiment runner: one JSON config per experiment, seeded execution,
CSV/JSON reports plus a manifest with content digests.

``COMMANDS`` holds each command's help, handler and keys.  Model, kernel and
gap-law descriptors are tables keyed by their tag (``variant``, ``family``,
``law``) mapping each entry's keys to a library constructor; the energy
``route`` picks its keys the same way.  One recursive checker rejects, at any
depth, unknown keys (also keys the chosen variant or route does not use),
missing keys and wrong types (an int key takes only a JSON integer, a count a
positive one, the seed one in [0, 2**64), where no two seeds alias), naming
the key path.  ``run`` validates, fills in defaults, builds the descriptors
and runs the cross-field checks before it writes anything; ``manifest.json``
echoes the resolved spec and records the python, numpy and scipy versions.

The handlers write every output file from plain library results: CSVs under
the headers of ``HEADERS``, JSON reports from the results' dataclass fields.

Exit codes: 0 success, 1 internal error (with a traceback), 2 validation
error, 3 numerical divergence diagnostic or Monte Carlo abort on too many
discarded replicas, 4 I/O failure.  Results are byte-identical across
reruns; the manifest records digests of every output file.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import click
import numpy
import scipy

from . import __version__
from ._io import config_to_csv, fmt, sha256_file, write_csv, write_json
from .core import (ArgumentError, DivergenceError, DomainError, NotApplicableError,
                   SingularConfigurationError, log_kernel, riesz_kernel)
from .generators import GapLaw, ProcessModel, Seed, Variant, rho2_analytic, sample
from . import energy as energy_mod
from . import estimators as est_mod
from . import lpx as lpx_mod
from . import onedim as onedim_mod


class ValidationFailure(ValueError):
    pass


# ---------------------------------------------------------------------------
# schemas: {key: (type, default)}.  A callable default is computed from the
# keys resolved before it; a default of None leaves an absent key out.
# ---------------------------------------------------------------------------

REQUIRED = object()
FLOATS = "a non-empty list of numbers"
COUNT = "a positive integer"
SEED = "an integer in [0, 2**64)"


class Tag(dict):
    """Type of the key that picks an object's case, ``{value: (keys, build)}``:
    the case's keys join the object's, and ``build(**keys)`` (if not None)
    turns the resolved object into a library value."""


def _is_number(x) -> bool:
    # JSON also reads Infinity, NaN and integers past the float range
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


_TYPES = {
    int: ("an integer", lambda x: isinstance(x, int) and not isinstance(x, bool)),
    float: ("a number", _is_number),
    str: ("a string", lambda x: isinstance(x, str)),
    FLOATS: (FLOATS, lambda x: isinstance(x, list) and x and all(map(_is_number, x))),
    COUNT: (COUNT, lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= 1),
    SEED: (SEED, lambda x: isinstance(x, int) and not isinstance(x, bool) and 0 <= x < 2**64),
}

GAP_LAW = {"law": (Tag({
    "exponential": ({}, GapLaw.exponential),
    "gamma": ({"theta": (float, REQUIRED)}, GapLaw.gamma),
    "uniform_hat": ({"k": (int, REQUIRED)}, GapLaw.uniform_hat),
}), REQUIRED)}

MODEL = {"variant": (Tag({
    "poisson": ({"d": (int, 1)}, ProcessModel.poisson),
    "lattice": ({"d": (int, 1)}, ProcessModel.lattice),
    "bernoulli_block": ({"k": (int, REQUIRED), "d": (int, 1)}, ProcessModel.bernoulli_block),
    "vibrating_lattice": ({"k": (int, REQUIRED)}, ProcessModel.vibrating_lattice),
    "renewal": ({"gap": (GAP_LAW, REQUIRED)}, ProcessModel.renewal),
}), REQUIRED)}

KERNEL = {"family": (Tag({
    "log1d": ({}, lambda: log_kernel(1)),
    "log2d": ({}, lambda: log_kernel(2)),
    "riesz": ({"s": (float, REQUIRED), "d": (int, 1)}, riesz_kernel),
}), REQUIRED)}


# handlers: (resolved keys with built descriptors, outfile) -> error counters;
# they alone turn library results, which are plain data, into files

_LADDER = ("R", "value", "stderr")
HEADERS = {  # the header of every CSV a command writes, by kind
    "energy": _LADDER,
    "rho2": ("bin_center", "value", "stderr"),
    "variance": ("R", "var", "stderr"),
    "dlog": _LADDER,
    "neighbors": ("x", "density", "stderr"),
    "freemin": ("theta", "wint", "ers", "f"),
    "lp_candidate": ("v", "T2"),
}


def _fields(result, *leave_out: str) -> dict:
    """A result dataclass as a JSON object, without the fields ``leave_out``."""
    return {k: v for k, v in asdict(result).items() if k not in leave_out}


def _generate(a: dict, outfile) -> None:
    for j, cfg in enumerate(sample(a["model"], a["R"], a["n_replicas"], Seed(a["seed"]))):
        config_to_csv(cfg, outfile(f"config_{j:04d}.csv"),
                      model=a["model"].describe(), seed=f"{a['seed']}:{j}")


def _rho2(a: dict, outfile) -> None:
    samples = sample(a["model"], a["R"], a["n_replicas"], Seed(a["seed"]))
    est = est_mod.estimate_rho2(samples, est_mod.GridSpec(a["v_max"], a["n_bins"]))
    write_csv(outfile("rho2.csv"), HEADERS["rho2"], zip(est.centers, est.values, est.stderr))


def _variance(a: dict, outfile) -> None:
    model, R_list, n, seed = a["model"], a["R_list"], a["n_replicas"], Seed(a["seed"])
    curve = est_mod.number_variance_curve(model, R_list, n, seed)
    write_csv(outfile("variance.csv"), HEADERS["variance"], curve.entries)
    summary = {"fitted_exponent": curve.fitted_exponent, "exponent_ci": curve.exponent_ci}
    if "c_log" in a:
        dcurve = est_mod.DlogCurve.from_variance(curve.entries, model.d, a["c_log"])
        write_csv(outfile("dlog.csv"), HEADERS["dlog"], dcurve.entries)
        summary["dlog_trend"] = dcurve.trend
    write_json(outfile("variance.json"), summary)


def _energy(a: dict, outfile) -> dict:
    if a["route"] == "mc":
        rep = energy_mod.wint_monte_carlo(a["model"], a["kernel"], a["R_list"],
                                          a["n_replicas"], Seed(a["seed"]))
    elif a["route"] == "rho2":
        rep = energy_mod.wint_from_rho2(rho2_analytic(a["model"]), a["kernel"], a["R_list"])
    else:
        rep = energy_mod.wint_lattice_series(a["kernel"], a["R_list"])
    write_csv(outfile("energy.csv"), HEADERS["energy"],
              [(R, v, 0.0 if s is None else s) for R, v, s in rep.entries])
    kernel = rep.kernel
    write_json(outfile("energy.json"), {
        **_fields(rep, "kernel", "entries", "n_discarded"),
        "kernel": {"family": kernel.family.value, "d": kernel.d, "s": kernel.s},
        "entries": [{"R": R, "value": v, "stderr": s} for R, v, s in rep.entries]})
    return {"discarded_replicas": rep.n_discarded}


def _neighbor_densities(a: dict) -> list:
    samples = sample(a["model"], a["L"], a["n_replicas"], Seed(a["seed"]))
    return onedim_mod.kth_neighbor_density(samples, range(1, a["k_max"] + 1), a["L"],
                                           a["x_max"], a["step"])


def _neighbors(a: dict, outfile) -> None:
    masses = {}
    for k, nd in enumerate(_neighbor_densities(a), start=1):
        write_csv(outfile(f"neighbors_k{k:02d}.csv"), HEADERS["neighbors"],
                  zip(nd.centers, nd.values, nd.stderr))
        masses[str(k)] = nd.total_mass
    write_json(outfile("neighbors.json"), {"total_mass": masses})


def _crystal(a: dict, outfile) -> None:
    gap = onedim_mod.crystallization_gap(_neighbor_densities(a), a["s_exponent"], a["k_max"])
    write_json(outfile("crystal.json"), _fields(gap))


def _freemin(a: dict, outfile) -> None:
    scan = onedim_mod.free_energy_scan(a["beta"], a["kernel"], a["theta_grid"], a["R_list"])
    write_csv(outfile("freemin.csv"), HEADERS["freemin"],
              [(t, w, e, f) for t, w, e, f, feasible in scan.entries if feasible])
    write_json(outfile("freemin.json"), _fields(scan, "entries"))


def _lp(a: dict, outfile) -> None:
    disc = lpx_mod.Discretization(v_max=a["v_max"], step=a["step"], R=a["R"])
    best = lpx_mod.minimize_t2(disc, a["kernel"], a["iterations"])
    hc = lpx_mod.evaluate_candidate(lpx_mod.hardcore_candidate(disc), disc, a["kernel"])
    write_csv(outfile("lp_candidate.csv"), HEADERS["lp_candidate"], zip(disc.grid, best.values))
    write_json(outfile("lp.json"), {**_fields(best, "values"), "hardcore_objective": hc.objective})


def _pinsker(a: dict, outfile) -> None:
    ers = onedim_mod.renewal_entropy_rate(a["model"].gap)
    R_max, n = max(a["R_list"]), a["n_replicas"]
    samples_p = sample(a["model"], R_max, n, Seed(a["seed"]))
    samples_q = sample(ProcessModel.poisson(1), R_max, n, Seed(a["seed"] + 1))
    reports = [_fields(est_mod.pinsker_check(
        ers, est_mod.tv_lower_bound(samples_p, samples_q, R, a["tile_count"]), R))
        for R in a["R_list"]]
    write_json(outfile("pinsker.json"), {"ers": ers, "reports": reports})


class Command(NamedTuple):
    help: str
    handler: object
    keys: dict
    checks: tuple = ()  # pairs (predicate on the built keys, message when it fails)


def _one_dimensional(key: str) -> tuple:
    return ((lambda a: a[key].d == 1, f"config.{key} must be one-dimensional"),)


_NEIGHBOR_KEYS = {
    "model": (MODEL, REQUIRED), "L": (float, REQUIRED), "n_replicas": (COUNT, 200),
    "x_max": (float, lambda a: min(a["L"] / 4.0, 64.0)), "step": (float, 1.0 / 32.0),
    "k_max": (COUNT, lambda a: math.ceil(a["x_max"]) + 10),
}

COMMANDS = {
    "generate": Command("Sample configurations and write them as CSV.", _generate, {
        "model": (MODEL, REQUIRED), "R": (float, REQUIRED), "n_replicas": (COUNT, 1)}),
    "rho2": Command("Estimate the pair correlation deficit from replicas.", _rho2, {
        "model": (MODEL, REQUIRED), "R": (float, REQUIRED), "n_replicas": (COUNT, 100),
        "v_max": (float, lambda a: a["R"] / 4.0), "n_bins": (COUNT, 128)}),
    "variance": Command("Number-variance curve with fitted growth exponent.", _variance, {
        "model": (MODEL, REQUIRED), "R_list": (FLOATS, REQUIRED),
        "n_replicas": (COUNT, 200), "c_log": (float, None)},
        ((lambda a: "c_log" not in a or a["model"].d <= 2,
          "config.c_log: the logarithmic term needs a model in d = 1 or 2"),)),
    "energy": Command("Energy ladder via mc | rho2 | series route.", _energy, {
        "kernel": (KERNEL, REQUIRED), "R_list": (FLOATS, REQUIRED),
        "route": (Tag({
            "mc": ({"model": (MODEL, REQUIRED), "n_replicas": (COUNT, 100)}, None),
            "rho2": ({"model": (MODEL, REQUIRED)}, None),
            "series": ({}, None)}), "mc")},
        ((lambda a: len(a["R_list"]) >= 2,
          "config.R_list needs at least two values for the extrapolation in 1/R"),
         (lambda a: a["kernel"].d == (a["model"].d if "model" in a else 1),
          "config.kernel must have the dimension of config.model (d = 1 on route series)"))),
    "neighbors": Command("k-th neighbor distance densities.", _neighbors,
                         _NEIGHBOR_KEYS, _one_dimensional("model")),
    "crystal": Command("Crystallization gap functional from neighbor densities.", _crystal,
                       {**_NEIGHBOR_KEYS, "s_exponent": (float, 0.0)},
                       _one_dimensional("model")),
    "freemin": Command("Free-energy scan over Gamma gap shapes.", _freemin, {
        "kernel": (KERNEL, REQUIRED), "beta": (float, REQUIRED),
        "theta_grid": (FLOATS, [0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]),
        "R_list": (FLOATS, list(onedim_mod.SCAN_R_LIST))},
        _one_dimensional("kernel")),
    "lp": Command("Minimize the tent-weighted energy over admissible deficits.", _lp, {
        "kernel": (KERNEL, REQUIRED), "v_max": (float, 4.0), "step": (float, 2.0**-8),
        "R": (float, lambda a: a["v_max"]), "iterations": (COUNT, 200)},
        _one_dimensional("kernel")),
    "pinsker": Command("Total-variation lower bounds against the Pinsker bound.", _pinsker, {
        "model": (MODEL, REQUIRED), "R_list": (FLOATS, REQUIRED),
        "n_replicas": (COUNT, 2000), "tile_count": (COUNT, 2)},
        ((lambda a: a["model"].variant is Variant.RENEWAL,
          "config.model: pinsker compares a renewal model against the memoryless baseline"),
         (lambda a: a["seed"] < 2**64 - 1,
          "config.seed: pinsker draws the baseline from seed + 1, which must stay below 2**64"))),
}

SPEC = {"command": (Tag({name: (c.keys, None) for name, c in COMMANDS.items()}), REQUIRED),
        "seed": (SEED, 0), "out": (str, ".")}


def _resolve(value, typ, path: str) -> tuple[object, object]:
    """``value`` checked against ``typ``, as resolved JSON (defaults filled in, float
    keys as floats) and as handler input (descriptors built into library objects)."""
    if not isinstance(typ, dict):
        name, ok = _TYPES[typ]
        if not ok(value):
            raise ValidationFailure(f"{path} must be {name}, got {value!r}")
        value = float(value) if typ is float else \
            [float(x) for x in value] if typ is FLOATS else value
        return value, value
    if not isinstance(value, dict):
        raise ValidationFailure(f"{path} must be an object, got {value!r}")
    keys, names, build = dict(typ), list(typ), None
    for key in names:  # grows by the keys of each case picked on the way
        t, default = keys[key]
        if isinstance(t, Tag):
            tag = value.get(key, default)
            if tag is REQUIRED:
                raise ValidationFailure(f"{path} is missing {key!r}")
            if not isinstance(tag, str) or tag not in t:
                raise ValidationFailure(f"{path}.{key} must be one of {', '.join(t)}, "
                                        f"got {tag!r}")
            keys.update(t[tag][0])
            names += t[tag][0]
            build = t[tag][1] or build
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValidationFailure(f"{path} has unknown keys: {', '.join(unknown)}")
    resolved, built = {}, {}
    for key, (t, default) in keys.items():
        if key in value and isinstance(t, Tag):
            resolved[key] = built[key] = value[key]
        elif key in value:
            resolved[key], built[key] = _resolve(value[key], t, f"{path}.{key}")
        elif default is REQUIRED:
            raise ValidationFailure(f"{path} is missing {key!r}")
        elif default is not None:
            resolved[key] = built[key] = default(resolved) if callable(default) else default
    if build is None:
        return resolved, built
    try:
        return resolved, build(**{k: v for k, v in built.items()
                                  if not isinstance(keys[k][0], Tag)})
    except (ArgumentError, DomainError) as exc:
        raise ValidationFailure(f"{path}: {exc}") from exc


def _validate(spec) -> tuple[dict, dict]:
    """The resolved spec and the handler's keys, after every check."""
    resolved, args = _resolve(spec, SPEC, "config")
    for ok, message in COMMANDS[args["command"]].checks:
        if not ok(args):
            raise ValidationFailure(message)
    return resolved, args


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"{path} is not valid JSON: {exc}") from exc


def _load_spec(command: str, config_path: str | None, seed: int | None,
               out: str | None) -> dict:
    """The spec as written plus the flag overrides (flag > file > default),
    validated but without the defaults filled in."""
    spec = {} if config_path is None else _read_json(config_path)
    if not isinstance(spec, dict):
        raise ValidationFailure("config must be a JSON object")
    spec.setdefault("command", command)
    if spec["command"] != command:
        raise ValidationFailure(f"config command {spec['command']!r} does not match {command!r}")
    if seed is not None:
        spec["seed"] = int(seed)
    if out is not None:
        spec["out"] = out
    _validate(spec)
    return spec


# the interpreter and libraries a run used; the manifest records them next to
# the output digests, which they do not enter
ENVIRONMENT = {"python": sys.version.split()[0], "numpy": numpy.__version__,
               "scipy": scipy.__version__}


def run(spec: dict) -> dict:
    """Validate and execute an experiment spec; returns the manifest dict."""
    t0 = time.monotonic()
    resolved, args = _validate(spec)
    outdir = Path(args["out"])
    outputs: list[Path] = []

    def outfile(name: str) -> Path:
        # created at the first output, so a spec the library rejects leaves none
        outdir.mkdir(parents=True, exist_ok=True)
        outputs.append(outdir / name)
        return outputs[-1]

    counters = {"discarded_replicas": 0}
    counters.update(COMMANDS[args["command"]].handler(args, outfile) or {})
    manifest = {"spec": resolved, "version": __version__, "environment": ENVIRONMENT,
                "wall_time_s": time.monotonic() - t0, "error_counters": counters,
                "outputs": {p.name: sha256_file(p) for p in outputs}}
    write_json(outfile("manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# plot script emission
# ---------------------------------------------------------------------------

_PLOT_HEADERS = {kind: list(HEADERS[kind]) for kind in ("variance", "rho2", "energy", "freemin")}


def emit_plot_script(csv_path, kind: str, out_path, extra: dict | None = None) -> Path:
    """Write a gnuplot script reproducing the standard figure for ``kind``;
    ``extra`` is the companion JSON report (slope and asymptote labels)."""
    if kind not in _PLOT_HEADERS:
        raise ValidationFailure(f"unknown plot kind {kind!r}")
    extra = {} if extra is None else extra
    if not isinstance(extra, dict):
        raise ValidationFailure("the companion JSON must be an object")
    for key in ("fitted_exponent", "extrapolated"):
        if extra.get(key) is not None and not _is_number(extra[key]):
            raise ValidationFailure(f"companion JSON {key!r} must be a number, "
                                    f"got {extra[key]!r}")
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ValidationFailure(f"{csv_path}: no such CSV")
    with open(csv_path, "r", encoding="utf-8") as fh:
        first, body = fh.readline().strip(), fh.readline().strip()
    if not first or not body:
        raise ValidationFailure(f"{csv_path}: empty CSV")
    header = first.split(",")
    if header != _PLOT_HEADERS[kind]:
        raise ValidationFailure(
            f"{csv_path}: header {header} does not match {_PLOT_HEADERS[kind]}")
    name = csv_path.name
    lines = ["set datafile separator ','", f"# kind: {kind}"]
    if kind == "variance":
        lines += ["set logscale xy", "set xlabel 'R'", "set ylabel 'mean squared discrepancy'"]
        if extra.get("fitted_exponent") is not None:
            lines.append(f"set label 'fitted slope {fmt(extra['fitted_exponent'])}' "
                         "at graph 0.1, 0.9")
        lines.append(f"plot '{name}' skip 1 using 1:2:3 with yerrorlines title 'variance'")
    elif kind == "rho2":
        lines += ["set xlabel 'v'", "set ylabel 'pair correlation minus one'",
                  f"plot '{name}' skip 1 using 1:2:3 with yerrorlines title 'rho2 - 1'"]
    elif kind == "energy":
        lines += ["set xlabel 'R'", "set ylabel 'energy per volume'", "set logscale x"]
        pieces = [f"'{name}' skip 1 using 1:2:3 with yerrorlines title 'ladder'"]
        if extra.get("extrapolated") is not None:
            pieces.append(f"{fmt(extra['extrapolated'])} with lines dashtype 2 "
                          "title 'extrapolated'")
        lines.append("plot " + ", ".join(pieces))
    else:
        lines += ["set xlabel 'theta'", "set ylabel 'free energy'", "set logscale x",
                  f"plot '{name}' skip 1 using 1:4 with linespoints title 'f',"
                  f" '{name}' skip 1 using 1:2 with linespoints title 'energy',"
                  f" '{name}' skip 1 using 1:3 with linespoints title 'entropy rate'"]
    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return out_path


# ---------------------------------------------------------------------------
# click surface
# ---------------------------------------------------------------------------

@contextmanager
def _exit_codes():
    """Exit 2, 3 or 4 on a user-facing failure; anything else propagates (exit 1)."""
    try:
        yield
    except (DivergenceError, SingularConfigurationError) as exc:
        click.echo(f"numerical divergence: {exc}", err=True)
        sys.exit(3)
    except (ValidationFailure, ArgumentError, DomainError, NotApplicableError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(4)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Numerical laboratory for pair-interaction energies of point processes."""


for _name, _command in COMMANDS.items():
    @main.command(name=_name, help=_command.help)
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="JSON experiment config")
    @click.option("--seed", type=int, default=None, help="master seed override")
    @click.option("--out", type=click.Path(), default=None, help="output directory override")
    def _experiment(config_path, seed, out, _name=_name):
        with _exit_codes():
            run(_load_spec(_name, config_path, seed, out))


@main.command(name="plot", help="Emit a gnuplot script for a result CSV.")
@click.option("--csv", "csv_path", type=click.Path(), required=True)
@click.option("--kind", type=click.Choice(list(_PLOT_HEADERS)), required=True)
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="companion JSON report (adds asymptote/slope annotations)")
@click.option("--out", "out_path", type=click.Path(), required=True)
def _plot(csv_path, kind, json_path, out_path):
    with _exit_codes():
        emit_plot_script(csv_path, kind, out_path,
                         None if json_path is None else _read_json(json_path))


if __name__ == "__main__":  # pragma: no cover
    main()
