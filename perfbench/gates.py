"""Correctness gates: each experiment's outputs against a reference that does
not come from the code path under test.

* ``mc_vs_rho2``: a d = 1 Monte Carlo energy against the rho2 quadrature
  route on the same R ladder, within 5 standard errors plus both routes'
  extrapolation errors.
* ``poisson_zero``: a Poisson energy within the same band of 0.
* ``series_zeta``: the Riesz s = 1/2 lattice series against 2 zeta(1/2).
* ``vibrating_rate_c06``: rho2 energies of ``vibrating_lattice(k)`` approach
  the lattice value with log-log slope -2 +- 0.4 in k (acceptance c06).
* ``log_between_lattice_and_poisson``: a d = 1 log energy strictly between the
  lattice value -log(2 pi) and the Poisson value 0.
* ``finite``: only finiteness; the d = 2 rho2 route is known to be biased.
* ``freemin_c07``: argmins monotone in beta, at the top of the grid for the
  largest beta >= 100 (acceptance c07).
* ``lp_c10``: LP objective <= hardcore objective + 1e-3, violation <= 1e-6,
  and the hardcore objective within 1e-3 of its closed form.
* ``rho2_block``: every bin of a ``bernoulli_block`` rho2 estimate within 5
  standard errors of the exact bin average of rho2 - 1, computed here from
  the model definition, not from ``rieszlab``.
* ``variance_c04``, ``crystal_c05``, ``pinsker_c08``: the acceptance
  conditions for one bernoulli block, one vibrating lattice and one renewal.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TWO_ZETA_HALF = -2.9207090176         # 2 zeta(1/2), the Riesz s = 1/2 lattice energy
LOG_LATTICE = -math.log(2.0 * math.pi)  # the d = 1 log lattice energy
Z_MAX = 5.0


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _csv_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[j]) for r in rows[1:]]) for j, name in enumerate(rows[0])}


def _kernel(desc: dict):
    from rieszlab import log_kernel, riesz_kernel

    if desc["family"] == "log1d":
        return log_kernel(1)
    if desc["family"] == "log2d":
        return log_kernel(2)
    return riesz_kernel(float(desc["s"]), int(desc.get("d", 1)))


def _model(desc: dict):
    from rieszlab import GapLaw, ProcessModel

    variant = desc["variant"]
    if variant == "bernoulli_block":
        return ProcessModel.bernoulli_block(int(desc["k"]), int(desc.get("d", 1)))
    if variant == "vibrating_lattice":
        return ProcessModel.vibrating_lattice(int(desc["k"]))
    if variant == "renewal" and desc["gap"]["law"] == "gamma":
        return ProcessModel.renewal(GapLaw.gamma(float(desc["gap"]["theta"])))
    raise ValueError(f"no reference for model {desc}")


def mc_vs_rho2(spec: dict, out: Path) -> tuple[bool, str]:
    from rieszlab import rho2_analytic, wint_from_rho2

    mc = _json(out, "energy.json")
    qd = wint_from_rho2(rho2_analytic(_model(spec["model"])), _kernel(spec["kernel"]),
                        [float(r) for r in spec["R_list"]])
    diff = abs(mc["extrapolated"] - qd.extrapolated)
    band = (Z_MAX * mc["extrapolated_stderr"] + mc["extrapolation_error"]
            + qd.extrapolation_error)
    return diff <= band, f"|mc - rho2| = {diff:.4g} <= {band:.4g}"


def poisson_zero(spec: dict, out: Path) -> tuple[bool, str]:
    mc = _json(out, "energy.json")
    band = Z_MAX * mc["extrapolated_stderr"] + mc["extrapolation_error"]
    return abs(mc["extrapolated"]) <= band, f"|W| = {abs(mc['extrapolated']):.4g} <= {band:.4g}"


def series_zeta(spec: dict, out: Path) -> tuple[bool, str]:
    err = abs(_json(out, "energy.json")["extrapolated"] - TWO_ZETA_HALF)
    return err <= 1e-6, f"|W - 2 zeta(1/2)| = {err:.2e} <= 1e-6"


def log_between_lattice_and_poisson(spec: dict, out: Path) -> tuple[bool, str]:
    w = _json(out, "energy.json")["extrapolated"]
    return LOG_LATTICE < w < 0.0, f"{LOG_LATTICE:.4f} < W = {w:.4f} < 0"


def finite(spec: dict, out: Path) -> tuple[bool, str]:
    rep = _json(out, "energy.json")
    vals = [rep["extrapolated"]] + [e["value"] for e in rep["entries"]]
    return all(math.isfinite(v) for v in vals), f"W = {rep['extrapolated']:.4g} finite"


def lp_c10(spec: dict, out: Path) -> tuple[bool, str]:
    rep = _json(out, "lp.json")
    s, R = float(spec["kernel"]["s"]), float(spec["R"])
    # hardcore deficit -1 on |v| < 1/2 against g(v) = |v|^-s with tent 1 - |v|/R
    exact = -2.0 * (0.5 ** (1.0 - s) / (1.0 - s) - 0.5 ** (2.0 - s) / ((2.0 - s) * R))
    hc = rep["hardcore_objective"]
    ok = (rep["objective"] <= hc + 1e-3 and rep["max_violation"] <= 1e-6
          and abs(hc - exact) <= 1e-3)
    return ok, (f"objective {rep['objective']:.5f} <= hardcore {hc:.5f} + 1e-3 "
                f"(closed form {exact:.5f}), violation {rep['max_violation']:.1e}")


def _block_deficit_1d(k: int, lo: float, hi: float) -> float:
    """Mean of ``-(1 - |v|/k)_+ / k`` over [lo, hi] (exact: piecewise linear)."""
    cuts = sorted({lo, hi, *(c for c in (-k, 0.0, k) if lo < c < hi)})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        m = 0.5 * (a + b)
        total += (b - a) * -max(0.0, 1.0 - abs(m) / k) / k
    return total / (hi - lo)


def _block_deficit_2d(k: int, r0: float, r1: float, order: int = 12) -> float:
    """Mean of ``-(1 - |x|/k)_+ (1 - |y|/k)_+ / k^2`` over the annulus
    r0 <= |v| < r1, by Gauss-Legendre split at every kink of the integrand."""
    t, w = np.polynomial.legendre.leggauss(order)

    def gl(a, b):
        return a + 0.5 * (b - a) * (t + 1.0), 0.5 * (b - a) * w

    r_cuts = sorted({r0, r1, *(c for c in (k, k * math.sqrt(2.0)) if r0 < c < r1)})
    total = 0.0
    for ra, rb in zip(r_cuts, r_cuts[1:]):
        rs, rw = gl(ra, rb)
        for r, wr in zip(rs, rw):
            th_cuts = [0.0, 0.5 * math.pi]
            if r > k:
                th_cuts += [math.acos(k / r), math.asin(k / r)]
            th_cuts = sorted(th_cuts)
            for ta, tb in zip(th_cuts, th_cuts[1:]):
                ths, tw = gl(ta, tb)
                x, y = r * np.cos(ths), r * np.sin(ths)
                f = np.clip(1.0 - x / k, 0.0, None) * np.clip(1.0 - y / k, 0.0, None)
                total += wr * r * float(np.sum(tw * f))
    # four quadrants over the annulus area
    return -4.0 * total / (k * k) / (math.pi * (r1 * r1 - r0 * r0))


def block_deficit_bins(k: int, d: int, centers: np.ndarray, width: float) -> np.ndarray:
    """Exact bin averages of ``rho2 - 1`` for ``bernoulli_block(k, d)``: two
    points share a tile with probability ``prod_i (1 - |v_i|/k)_+`` and then
    lose one of the ``k**d`` partners, so ``rho2 - 1 = -prod(...) / k**d``."""
    lo, hi = centers - 0.5 * width, centers + 0.5 * width
    if d == 1:
        return np.array([_block_deficit_1d(k, a, b) for a, b in zip(lo, hi)])
    if d == 2:
        return np.array([_block_deficit_2d(k, a, b) for a, b in zip(lo, hi)])
    raise ValueError("block references are implemented for d = 1 and 2")


def rho2_block(spec: dict, out: Path) -> tuple[bool, str]:
    cols = _csv_columns(out / "rho2.csv")
    model = spec["model"]
    k, d = int(model["k"]), int(model.get("d", 1))
    centers, value, stderr = cols["bin_center"], cols["value"], cols["stderr"]
    width = float(centers[1] - centers[0])
    ref = block_deficit_bins(k, d, centers, width)
    dev = np.abs(value - ref)
    z = np.where(stderr > 0.0, dev / np.where(stderr > 0.0, stderr, 1.0),
                 np.where(dev <= 1e-12, 0.0, np.inf))
    worst = int(np.argmax(z))
    return bool(np.all(z <= Z_MAX)), (f"max |z| = {z[worst]:.2f} at v = {centers[worst]:.3g} "
                                      f"over {z.size} bins")


def variance_c04(spec: dict, out: Path) -> tuple[bool, str]:
    rep = _json(out, "variance.json")
    ok = rep["fitted_exponent"] <= 0.2 and rep["dlog_trend"] == "bounded->0"
    return ok, f"exponent {rep['fitted_exponent']:.3f} <= 0.2, dlog {rep['dlog_trend']}"


def crystal_c05(spec: dict, out: Path) -> tuple[bool, str]:
    rep = _json(out, "crystal.json")
    ok = math.isfinite(rep["value"]) and rep["value"] > 0.0
    return ok, f"gap functional {rep['value']:.4g} > 0"


def pinsker_c08(spec: dict, out: Path) -> tuple[bool, str]:
    reports = _json(out, "pinsker.json")["reports"]
    ok = bool(reports) and all(r["satisfied"] for r in reports)
    return ok, "; ".join(f"R={r['window_R']:g}: {r['tv_lower']:.3f} <= {r['pinsker_upper']:.3f}"
                         for r in reports)


def vibrating_rate_c06(group) -> tuple[bool, str]:
    ks = [int(spec["model"]["k"]) for spec, _ in group]
    deltas = [abs(_json(out, "energy.json")["extrapolated"] - TWO_ZETA_HALF)
              for _, out in group]
    slope = float(np.polyfit(np.log(ks), np.log(deltas), 1)[0])
    return abs(slope + 2.0) <= 0.4, f"log-log slope {slope:.3f} in k = {ks} (target -2 +- 0.4)"


def freemin_c07(group) -> tuple[bool, str]:
    runs = sorted((float(spec["beta"]), max(spec["theta_grid"]),
                   _json(out, "freemin.json")["argmin_theta"]) for spec, out in group)
    argmins = [a for _, _, a in runs]
    monotone = all(a <= b + 1e-12 for a, b in zip(argmins, argmins[1:]))
    beta, top, last = runs[-1]
    at_top = beta < 100.0 or last == top
    return monotone and at_top, f"argmins {argmins} for beta {[b for b, _, _ in runs]}"


GATES = {f.__name__: f for f in (
    mc_vs_rho2, poisson_zero, series_zeta, log_between_lattice_and_poisson, finite,
    lp_c10, rho2_block, variance_c04, crystal_c05, pinsker_c08)}
GROUP_GATES = {f.__name__: f for f in (vibrating_rate_c06, freemin_c07)}


def evaluate(exps, outs: list[Path], codes: list[int]) -> list[tuple[bool, str]]:
    """One ``(ok, detail)`` per experiment.  A group gate judges all its
    experiments together; a non-zero exit fails the experiment and its group."""
    results: list[tuple[bool, str] | None] = [None] * len(exps)
    groups: dict[str, list[int]] = {}
    for i, exp in enumerate(exps):
        if codes[i] != 0:
            results[i] = (False, f"exit code {codes[i]}")
        elif exp.gate in GROUP_GATES:
            groups.setdefault(exp.gate, []).append(i)
        else:
            results[i] = _guarded(GATES[exp.gate], exp.spec, outs[i])
    for name, members in groups.items():
        if len(members) < sum(e.gate == name for e in exps):
            res = (False, f"{name}: a member experiment failed")
        else:
            res = _guarded(GROUP_GATES[name], [(exps[i].spec, outs[i]) for i in members])
        for i in members:
            results[i] = res
    return results


def _guarded(gate, *args) -> tuple[bool, str]:
    try:
        return gate(*args)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return False, f"{gate.__name__}: unreadable output ({type(exc).__name__}: {exc})"
