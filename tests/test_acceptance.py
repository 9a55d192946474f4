"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Tolerances are pinned here; Monte Carlo pieces use fixed seeds, so the suite
is deterministic.
"""

import json
import math

import numpy as np
import pytest

from rieszlab import (
    GapLaw,
    ProcessModel,
    Seed,
    crystallization_gap,
    discrepancy_identity_check,
    dlog_estimate,
    evaluate_candidate,
    free_energy_scan,
    hardcore_candidate,
    kth_neighbor_density,
    log_kernel,
    minimize_t2,
    number_variance_curve,
    pinsker_check,
    renewal_entropy_rate,
    rho2_analytic,
    riesz_kernel,
    sample,
    tv_lower_bound,
    wint_from_rho2,
    wint_lattice_series,
    wint_monte_carlo,
)
from rieszlab.lpx import Discretization

K_LOG = log_kernel(1)
K_RSZ = riesz_kernel(0.5, 1)
HARDCORE_VALUE = -1.0 - math.log(2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_poisson_zero_energy():
    ok = True
    details = []
    for kernel, tag, master in ((K_LOG, "log", 101), (K_RSZ, "riesz", 102)):
        rep = wint_monte_carlo(ProcessModel.poisson(1), kernel,
                               [32.0, 64.0, 128.0, 256.0], 800, Seed(master))
        band = 3.0 * rep.extrapolated_stderr + rep.extrapolation_error
        ok &= abs(rep.extrapolated) <= band
        details.append(f"{tag}: {rep.extrapolated:+.3f} within {band:.3f}")
    _report(1, ok, "; ".join(details))


def test_c02_route_agreement():
    cases = [
        (ProcessModel.bernoulli_block(2, 1), K_LOG, 4000, 201),
        (ProcessModel.bernoulli_block(2, 1), K_RSZ, 4000, 202),
        (ProcessModel.bernoulli_block(4, 1), K_LOG, 150_000, 203),
        (ProcessModel.bernoulli_block(4, 1), K_RSZ, 4000, 204),
        (ProcessModel.vibrating_lattice(4), K_LOG, 2000, 205),
        (ProcessModel.vibrating_lattice(4), K_RSZ, 2000, 206),
        (ProcessModel.vibrating_lattice(8), K_LOG, 2000, 207),
        (ProcessModel.vibrating_lattice(8), K_RSZ, 2000, 208),
    ]
    ok = True
    details = []
    for model, kernel, n_rep, master in cases:
        qd = wint_from_rho2(rho2_analytic(model), kernel,
                            [64.0, 128.0, 256.0, 512.0])
        mc = wint_monte_carlo(model, kernel, [64.0, 128.0], n_rep, Seed(master))
        diff = abs(mc.extrapolated - qd.extrapolated)
        combined = (3.0 * mc.extrapolated_stderr + mc.extrapolation_error
                    + qd.extrapolation_error)
        rel = diff / abs(qd.extrapolated)
        ok &= diff <= combined and rel <= 0.05
        tag = f"{model.describe()}/{kernel.family.value}"
        details.append(f"{tag} rel={100 * rel:.1f}%")
    _report(2, ok, "; ".join(details))


def test_c03_discrepancy_identity(replicas):
    models = [
        ProcessModel.poisson(1),
        ProcessModel.lattice(1),
        ProcessModel.bernoulli_block(4, 1),
        ProcessModel.vibrating_lattice(4),
        ProcessModel.renewal(GapLaw.gamma(2.0)),
    ]
    ok = True
    worst = 0.0
    for model in models:
        chk = discrepancy_identity_check(replicas(model, 16.0, 400, master=301), 16.0)
        worst = max(worst, abs(chk.algebraic_gap))
        ok &= abs(chk.algebraic_gap) <= 1e-8
    d2 = []
    for j in range(8000):
        cfg = sample(ProcessModel.poisson(1), 64.0, Seed(302, j))
        d2.append((cfg.n - 64.0) ** 2)
    ratio = float(np.mean(d2)) / 64.0
    ok &= abs(ratio - 1.0) <= 0.05
    _report(3, ok, f"max algebraic gap {worst:.2e}; Poisson variance ratio {ratio:.3f}")


def test_c04_hyperuniformity_classification():
    poisson = number_variance_curve(ProcessModel.poisson(1),
                                    [8.0, 16.0, 32.0, 64.0, 128.0], 1500, Seed(401))
    block = number_variance_curve(ProcessModel.bernoulli_block(4, 1),
                                  [8.0, 16.0, 32.0, 64.0, 128.0], 1500, Seed(402))
    lattice = number_variance_curve(ProcessModel.lattice(1),
                                    [6.5, 13.5, 27.5, 55.5, 111.5], 400, Seed(403))
    dlog_poisson = dlog_estimate(ProcessModel.poisson(1), K_LOG,
                                 [8.0, 16.0, 32.0, 64.0, 128.0], 1500, Seed(404))
    dlog_block = dlog_estimate(ProcessModel.bernoulli_block(4, 1), K_LOG,
                               [8.0, 16.0, 32.0, 64.0, 128.0], 1500, Seed(405))
    ok = (
        abs(poisson.fitted_exponent - 1.0) <= 0.1
        and block.fitted_exponent <= 0.2
        and all(var <= 1.0 for _, var, _ in lattice.entries)
        and dlog_poisson.trend == "diverging"
        and dlog_block.trend == "bounded->0"
    )
    _report(4, ok,
            f"exponents: poisson {poisson.fitted_exponent:.2f}, block "
            f"{block.fitted_exponent:.2f}, lattice max var "
            f"{max(v for _, v, _ in lattice.entries):.2f}; dlog {dlog_poisson.trend}"
            f"/{dlog_block.trend}")


def test_c05_crystallization_ordering(replicas):
    w_lattice = wint_lattice_series(K_RSZ, [2.0**j for j in range(12, 19)])
    w_v8 = wint_monte_carlo(ProcessModel.vibrating_lattice(8), K_RSZ,
                            [32.0, 64.0, 128.0], 1200, Seed(501))
    w_v4 = wint_monte_carlo(ProcessModel.vibrating_lattice(4), K_RSZ,
                            [32.0, 64.0, 128.0], 1200, Seed(502))
    w_poi = wint_monte_carlo(ProcessModel.poisson(1), K_RSZ,
                             [32.0, 64.0, 128.0], 600, Seed(503))

    def separated(lo, hi):
        gap = hi.extrapolated - lo.extrapolated
        band = 3.0 * math.hypot(lo.extrapolated_stderr, hi.extrapolated_stderr)
        return gap > band

    ordered = (w_lattice.extrapolated < w_v8.extrapolated < w_v4.extrapolated
               < w_poi.extrapolated)
    sep = (separated(w_lattice, w_v8) and separated(w_v8, w_v4)
           and separated(w_v4, w_poi))

    def gap_value(model, master):
        samples = replicas(model, 48.0, 400, master=master)
        dens = [kth_neighbor_density(samples, k, 48.0, 20.0) for k in range(1, 9)]
        return crystallization_gap(dens, 0.5, 8).value

    g_poisson = gap_value(ProcessModel.poisson(1), 511)
    g_v4 = gap_value(ProcessModel.vibrating_lattice(4), 512)
    g_v8 = gap_value(ProcessModel.vibrating_lattice(8), 513)
    g_lat = gap_value(ProcessModel.lattice(1), 514)
    gaps_ordered = g_poisson > g_v4 > g_v8 > 0.0 and g_lat == 0.0
    ok = ordered and sep and gaps_ordered
    _report(5, ok,
            f"W: {w_lattice.extrapolated:.3f} < {w_v8.extrapolated:.3f} < "
            f"{w_v4.extrapolated:.3f} < {w_poi.extrapolated:.3f} (3-sigma separated: "
            f"{sep}); gap functional {g_poisson:.3f} > {g_v4:.3f} > {g_v8:.4f} > 0, "
            f"lattice {g_lat}")


def test_c06_vibrating_rate():
    series = wint_lattice_series(K_RSZ, [2.0**j for j in range(12, 19)]).extrapolated
    ks = [2, 4, 8, 16]
    deltas = []
    for k in ks:
        rep = wint_from_rho2(rho2_analytic(ProcessModel.vibrating_lattice(k)),
                             K_RSZ, [256.0, 512.0, 1024.0, 2048.0])
        deltas.append(abs(rep.extrapolated - series))
    slope = float(np.polyfit(np.log(ks), np.log(deltas), 1)[0])
    ok = abs(slope + 2.0) <= 0.4
    _report(6, ok, f"log-log slope {slope:.2f} (target -2 +- 0.4)")


def test_c07_free_energy_limits():
    grid = [0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]
    betas = [0.01, 0.1, 1.0, 10.0, 100.0]
    argmins = []
    for beta in betas:
        argmins.append(free_energy_scan(beta, K_RSZ, grid).argmin_theta)
    # "within one bracket of 1": the bracketing grid interval around theta = 1
    bracket_width = grid[grid.index(1.0) + 1] - grid[grid.index(1.0) - 1]
    near_one = abs(argmins[0] - 1.0) <= bracket_width / 2.0
    monotone = all(a <= b + 1e-12 for a, b in zip(argmins, argmins[1:]))
    at_top = argmins[-1] == grid[-1]
    ok = near_one and monotone and at_top
    _report(7, ok, f"argmins {[round(a, 3) for a in argmins]}")


def test_c08_pinsker_suite():
    n = 6000
    base = [sample(ProcessModel.poisson(1), 8.0, Seed(801, j))
            for j in range(n)]
    ok = True
    details = []
    for i, theta in enumerate((0.5, 2.0, 4.0)):
        gap = GapLaw.gamma(theta)
        ers = renewal_entropy_rate(gap)
        samples = [sample(ProcessModel.renewal(gap), 8.0, Seed(810 + i, j))
                   for j in range(n)]
        for R in (2.0, 4.0, 8.0):
            tv = tv_lower_bound(samples, base, R, 2)
            rep = pinsker_check(ers, tv, R)
            ok &= rep.satisfied
            details.append(f"t={theta:g},R={R:g}:{rep.tv_lower:.2f}<="
                           f"{rep.pinsker_upper:.2f}")
    _report(8, ok, "; ".join(details))


def test_c09_entropy_rate_anchors():
    exp_rate = renewal_entropy_rate(GapLaw.exponential())
    # frozen quadrature-oracle regression table for the triangular laws
    table = {2: 0.5, 4: 1.1931471805599454, 8: 1.8862943611198906,
             16: 2.5794415416798357}
    got = {k: renewal_entropy_rate(GapLaw.uniform_hat(k)) for k in table}
    increasing = got[2] < got[4] < got[8] < got[16]
    increments = np.diff([got[k] for k in sorted(got)])
    log_growth = np.allclose(increments, math.log(2.0), rtol=1e-6)
    frozen = all(abs(got[k] - v) <= 1e-9 for k, v in table.items())
    ok = abs(exp_rate) <= 1e-8 and increasing and log_growth and frozen
    _report(9, ok, f"exponential {exp_rate:.1e}; hat rates "
            f"{[round(got[k], 4) for k in sorted(got)]}")


def test_c10_lp_explorer():
    disc = Discretization(v_max=4.0, step=2.0**-8, R=1024.0)
    hc = evaluate_candidate(hardcore_candidate(disc), disc, K_LOG)
    best = minimize_t2(disc, K_LOG, iterations=200)
    ok = (
        hc.feasible_direct and hc.feasible_fourier
        and abs(hc.objective - HARDCORE_VALUE) <= 1e-3
        and best.objective <= hc.objective + 1e-3
        and best.max_violation <= 1e-6
    )
    _report(10, ok,
            f"hardcore {hc.objective:.5f} (target {HARDCORE_VALUE:.5f}); "
            f"solver {best.objective:.5f}, violation {best.max_violation:.1e}")


def test_c11_determinism(tmp_path):
    from click.testing import CliRunner

    from rieszlab.cli import main

    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": {"variant": "bernoulli_block", "k": 2},
        "kernel": {"family": "riesz", "s": 0.5, "d": 1},
        "R_list": [8, 16, 32], "n_replicas": 50, "route": "mc", "seed": 7,
    }), encoding="utf-8")
    runner = CliRunner()
    blobs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        res = runner.invoke(main, ["energy", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        blobs.append({p.name: p.read_bytes() for p in out.iterdir()
                      if p.name != "manifest.json"})
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(11, ok, f"{sorted(blobs[0])} byte-identical across reruns")
