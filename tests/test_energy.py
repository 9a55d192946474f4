import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from rieszlab import energy, quadrature
from rieszlab import (
    ArgumentError,
    DivergenceError,
    DomainError,
    GapLaw,
    PointConfiguration,
    ProcessModel,
    Replicas,
    Rho2Analytic,
    Seed,
    SingularConfigurationError,
    hint_R,
    log_kernel,
    rho2_analytic,
    richardson,
    riesz_kernel,
    sample,
    wint_from_rho2,
    wint_lattice_series,
    wint_monte_carlo,
)

K_LOG = log_kernel(1)
K_RSZ = riesz_kernel(0.5, 1)

# limits of the lattice series, frozen from the extrapolation oracle at
# R = 2^12 .. 2^18 (they coincide with -log(2 pi) and twice the zeta value
# at 1/2, an independent analytic cross-check)
LATTICE_LIMIT_LOG = -1.8378770664093453
LATTICE_LIMIT_RSZ_HALF = -2.9207090176191736

# closed forms for the block deficit profile: W = log k - 3/2 (log kernel)
# and W = -2 k^(-s) / ((1-s)(2-s)) (inverse-power kernel)
def block_limit(kernel, k):
    if kernel.is_log:
        return math.log(k) - 1.5
    s = kernel.s
    return -2.0 * k ** (-s) / ((1.0 - s) * (2.0 - s))


# the pair correlation 1 - 1_[-1/2, 1/2] of the hardcore benchmark, its jump
# at 1/2 a ramp between two nodes 2^-20 apart, so that the piecewise-linear
# profile stays exact to O(2^-40) under the energy quadratures
HARDCORE_RAMP = 2.0**-20


def hardcore_rho2():
    t = HARDCORE_RAMP

    def cont(v):
        return np.clip((np.abs(np.asarray(v, dtype=float)) - 0.5) / t + 0.5, 0.0, 1.0)

    return Rho2Analytic(1, cont, nodes_fn=lambda limit: np.array([0.5 - t / 2.0, 0.5 + t / 2.0]))


class TestBackgroundIntegrals:
    def test_bb_log1d_closed_form(self):
        bb = quadrature.background_pair_integral(K_LOG, 2.0)
        assert bb == pytest.approx(6.0 - 4.0 * math.log(2.0), rel=1e-14)

    def test_bb_matches_tent_quadrature(self):
        for kernel in (K_LOG, K_RSZ):
            for R in (2.0, 8.0):
                ref, _ = integrate.quad(
                    lambda v: float(kernel.g(v)) * (R - v), 0.0, R, limit=200)
                bb = quadrature.background_pair_integral(kernel, R)
                assert bb == pytest.approx(2.0 * ref, rel=1e-10)

    def test_bb_2d_log_vs_adaptive(self):
        R = 2.0

        def integrand(y, x):
            r2 = x * x + y * y
            if r2 == 0.0:
                return 0.0
            return -0.5 * math.log(r2) * (R - abs(x)) * (R - abs(y))

        ref, _ = integrate.dblquad(integrand, -R, R, -R, R, epsabs=1e-10)
        got = quadrature.background_pair_integral(log_kernel(2), R)
        assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("kernel, R_values", [
        (riesz_kernel(1.0, 2), (8.0, 16.0, 32.0)),
        (log_kernel(2), (8.0, 16.0, 32.0)),
        (riesz_kernel(1.5, 3), (2.0, 3.0, 4.0)),
    ])
    def test_bb_scaling_matches_direct_quadrature(self, kernel, R_values):
        # the cached unit value scaled to R against the tent R - x on [-R, R]^d
        for R in R_values:
            direct = quadrature.box_kernel_integral(kernel, R, (R, -1.0))
            got = quadrature.background_pair_integral(kernel, R)
            assert got == pytest.approx(direct, rel=1e-13)

    # references: the full tent rule, all 2^d orthants and d pyramids of a
    # corner-mapped (Duffy) Gauss-Legendre rule at order 64, converged to
    # ~2e-15; its values frozen
    @pytest.mark.parametrize("kernel, full", [
        (riesz_kernel(0.5, 2), 1.5844091715698898), (riesz_kernel(1.0, 2), 2.973209598247383),
        (riesz_kernel(1.5, 2), 8.0556092819184), (log_kernel(2), 0.8050867219500883),
        (riesz_kernel(1.0, 3), 1.8823126443896636), (riesz_kernel(1.5, 3), 2.980010064004011),
        (riesz_kernel(2.5, 3), 15.553034498351705),
    ], ids=["s0.5d2", "s1d2", "s1.5d2", "log2d", "s1d3", "s1.5d3", "s2.5d3"])
    def test_unit_bb_is_the_full_tent_rule(self, kernel, full):
        # one pyramid times d 2^d, exact in tau
        got = quadrature._unit_background_pair_integral.__wrapped__(kernel)
        assert got == pytest.approx(full, rel=1e-14, abs=0.0)

    # (box half-width a, per-axis polynomial p): the unit tent 1 - x, and the
    # block k = 2 rung at R = 3, (1 - x/2)(3 - x) on [-2, 2]^d
    BOX_WEIGHTS = [(1.0, (1.0, -1.0)), (2.0, (3.0, -2.5, 0.5))]

    @staticmethod
    def _tau_moments(a, p, x, d, s):
        # prod_i p(a tau x_i) = sum_m c_m tau^m, and int_0^1 tau^(d-1+m-s) dtau
        c = [1.0]
        for x_i in x:
            c = np.polynomial.polynomial.polymul(c, [p_j * (a * x_i) ** j for j, p_j in enumerate(p)])
        return sum(c_m / (d + m - s) for m, c_m in enumerate(c))

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_bb_riesz_2d_tau_moments(self, s):
        # 8 triangles x major, y = x u; the weight times x^(1-s) integrates
        # exactly in x, leaving a smooth integral over u
        for a, p in self.BOX_WEIGHTS:
            def inner(u):
                return (1.0 + u * u) ** (-0.5 * s) * self._tau_moments(a, p, (1.0, u), 2, s)

            ref = 8.0 * a ** (2.0 - s) * integrate.quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
            got = quadrature.box_kernel_integral(riesz_kernel(s, 2), a, p)
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.5])
    def test_bb_riesz_3d_tau_moments(self, s):
        # 24 pyramids, as in d = 2 with z = x w
        for a, p in self.BOX_WEIGHTS:
            def inner(w, u):
                return (1.0 + u * u + w * w) ** (-0.5 * s) * self._tau_moments(a, p, (1.0, u, w), 3, s)

            ref = 24.0 * a ** (3.0 - s) * integrate.dblquad(
                inner, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
            got = quadrature.box_kernel_integral(riesz_kernel(s, 3), a, p)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_pb_examples_and_quadrature(self):
        def pb(p):
            return quadrature.point_background(K_LOG, np.array([[p]]), 2.0)[0]

        assert pb(0.0) == pytest.approx(2.0, rel=1e-14)
        for p in (0.3, -0.9):
            ref, _ = integrate.quad(lambda y: -math.log(abs(p - y)), -1.0, 1.0,
                                    points=[p], limit=200)
            assert pb(p) == pytest.approx(ref, rel=1e-10)

    def test_pb_2d_riesz_vs_adaptive(self):
        kernel = riesz_kernel(0.8, 2)
        p = np.array([0.4, -0.3])
        ref, _ = integrate.dblquad(
            lambda y, x: ((x - p[0]) ** 2 + (y - p[1]) ** 2) ** -0.4,
            -1.0, 1.0, -1.0, 1.0, epsabs=1e-10)
        got = quadrature.point_background(kernel, p[None, :], 2.0)[0]
        assert got == pytest.approx(ref, rel=1e-8)


def _kernel_quad(kernel, f, a, b):
    """``int_a^b g(v) f(v) dv`` by adaptive quadrature; on a cell starting at
    0 the kernel's singularity goes into the quadrature weight."""
    if b == a:
        return 0.0
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    if a > 0.0:
        return integrate.quad(lambda v: float(kernel.g(v)) * f(v), a, b, **opts)[0]
    if kernel.is_log:
        return -integrate.quad(f, 0.0, b, weight="alg-loga", wvar=(0.0, 0.0), **opts)[0]
    return integrate.quad(f, 0.0, b, weight="alg", wvar=(-kernel.s, 0.0), **opts)[0]


D1_KERNELS = [K_LOG, riesz_kernel(0.25, 1), riesz_kernel(0.75, 1)]
D1_IDS = ["log", "riesz0.25", "riesz0.75"]


class TestClosedForms1d:
    @pytest.mark.parametrize("kernel", D1_KERNELS, ids=D1_IDS)
    @pytest.mark.parametrize("tent_R", [9.0], ids=["tent"])
    def test_pwlinear_weights_vs_quad(self, kernel, tent_R):
        rng = np.random.default_rng(5)
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 8.0, 12))])
        values = rng.normal(size=nodes.size)

        def cell(i):
            a, b, ya, yb = nodes[i], nodes[i + 1], values[i], values[i + 1]
            return _kernel_quad(kernel,
                                lambda v: (ya + (v - a) * (yb - ya) / (b - a)) * (tent_R - v),
                                a, b)

        ref = sum(cell(i) for i in range(nodes.size - 1))
        got = quadrature.pwlinear_weights(kernel, nodes, tent_R) @ values
        assert got == pytest.approx(ref, rel=1e-10)
        # the profile integral sums the same products in numpy's fixed pairwise order
        fixed = np.sum(quadrature.pwlinear_weights(kernel, nodes, tent_R) * values)
        assert quadrature.integrate_g_pwlinear(kernel, nodes, values, tent_R) == fixed

    @pytest.mark.parametrize("kernel", D1_KERNELS[:2], ids=D1_IDS[:2])
    def test_far_cells_vs_mpmath(self, kernel):
        # cells of width 1/8 out to v = 512: the moments there must not come
        # from differences of primitives, which lose up to 1e-7 relative
        mp = pytest.importorskip("mpmath")
        R = 512.0
        r2 = rho2_analytic(ProcessModel.vibrating_lattice(16))
        nodes = r2.nodes_upto(R)
        values = np.asarray(r2.continuous_part(nodes)) - 1.0
        with mp.workdps(40):
            def primitive(v, j):
                p = j + 1
                if v == 0:
                    return mp.mpf(0)
                if kernel.is_log:
                    return v**p * (mp.mpf(1) / p**2 - mp.log(v) / p)
                return v ** (p - mp.mpf(kernel.s)) / (p - mp.mpf(kernel.s))

            ref = mp.mpf(0)
            for a, b, ya, yb in zip(nodes[:-1], nodes[1:], values[:-1], values[1:]):
                a, b, ya, yb = map(mp.mpf, (a, b, ya, yb))
                M0, M1, M2 = (primitive(b, j) - primitive(a, j) for j in range(3))
                # (ya + beta (v - a)) (R - v) = alpha R + (beta R - alpha) v - beta v^2
                beta = (yb - ya) / (b - a)
                alpha = ya - beta * a
                ref += alpha * R * M0 + (beta * R - alpha) * M1 - beta * M2
            ref = float(ref)
        got = quadrature.integrate_g_pwlinear(kernel, nodes, values, tent_R=R)
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kernel", D1_KERNELS, ids=D1_IDS)
    def test_background_terms_vs_quad(self, kernel):
        # int_{-R/2}^{R/2} g(p - y) dy splits at y = p into two integrals from 0
        R = 6.0
        pts = np.array([-3.0, -1.7, 0.0, 0.4, 3.0])
        ref = [_kernel_quad(kernel, lambda t: 1.0, 0.0, R / 2.0 + p)
               + _kernel_quad(kernel, lambda t: 1.0, 0.0, R / 2.0 - p) for p in pts]
        assert quadrature.point_background_1d(kernel, pts, R) == pytest.approx(ref, rel=1e-10)
        tent = 2.0 * _kernel_quad(kernel, lambda v: R - v, 0.0, R)
        assert quadrature.tent_kernel_integral_1d(kernel, R) == pytest.approx(tent, rel=1e-10)


class TestHintR:
    def test_empty_config_is_bb(self):
        cfg = PointConfiguration(np.empty((0, 1)), 2.0)
        assert hint_R(cfg, 2.0, K_LOG) == pytest.approx(6.0 - 4.0 * math.log(2.0), rel=1e-14)

    def test_single_point_at_origin(self):
        cfg = PointConfiguration(np.array([[0.0]]), 2.0)
        expected = -2.0 * 2.0 + (6.0 - 4.0 * math.log(2.0))
        assert hint_R(cfg, 2.0, K_LOG) == pytest.approx(expected, rel=1e-14)

    def test_coincident_points_rejected(self):
        cfg = PointConfiguration(np.array([[0.5], [0.5]]), 4.0)
        with pytest.raises(SingularConfigurationError):
            hint_R(cfg, 4.0, K_RSZ)

    @pytest.mark.parametrize("kernel", [K_RSZ, log_kernel(2), riesz_kernel(1.0, 2)],
                             ids=["riesz_1d", "log_2d", "riesz_2d"])
    def test_reflection_invariance(self, kernel):
        # the centred cube C_R is symmetric under x -> -x, so the window
        # energy of a configuration and of its mirror image agree
        cfg = sample(ProcessModel.poisson(kernel.d), 8.0, 1, Seed(62))[0]
        mirrored = PointConfiguration(-cfg.points, cfg.R)
        assert hint_R(mirrored, 8.0, kernel) == pytest.approx(hint_R(cfg, 8.0, kernel), rel=1e-12)

    def test_window_precedence(self):
        cfg = PointConfiguration(np.array([[0.0]]), 2.0)
        with pytest.raises(DomainError):
            hint_R(cfg, 3.0, K_LOG)

    @pytest.mark.parametrize("kernel", [K_RSZ, K_LOG], ids=["riesz", "log"])
    def test_lattice_average_matches_series(self, kernel):
        # the shift-average of the window energy of the unit lattice equals
        # the series value at the same R exactly; Gauss-Legendre in the
        # shift variable (after a sin^2 substitution that absorbs the
        # endpoint cusps) reproduces it far below the 1e-6 tolerance
        R = 32.0
        t, w = np.polynomial.legendre.leggauss(96)
        t = 0.5 * (t + 1.0)
        w = 0.5 * w
        shifts = np.sin(0.5 * math.pi * t) ** 2
        weights = w * 0.5 * math.pi * np.sin(math.pi * t)
        vals = []
        for u in shifts:
            pts = np.arange(math.ceil(-R / 2 - u), math.floor(R / 2 - u) + 1, dtype=float) + u
            pts = pts[np.abs(pts) <= R / 2]
            cfg = PointConfiguration(pts[:, None], R)
            vals.append(hint_R(cfg, R, kernel) / R)
        avg = float(np.sum(np.asarray(vals) * weights))
        series = wint_lattice_series(kernel, [R]).entries[0][1]
        assert abs(avg - series) < 1e-6


class TestRichardson:
    def test_exact_on_affine_in_inverse_R(self):
        R = np.array([16.0, 32.0, 64.0, 128.0])
        vals = 3.0 + 5.0 / R
        ex, err, _ = richardson(R, vals, depth=1)
        assert ex == pytest.approx(3.0, rel=1e-12)

    def test_error_covers_last_iterates(self):
        R = np.array([8.0, 16.0, 32.0, 64.0])
        vals = 1.0 + 1.0 / R + 7.0 / R**2
        ex, err, _ = richardson(R, vals)
        assert abs(ex - 1.0) <= err + 1e-12

    def test_error_is_distance_to_two_shallower_depths(self):
        # depth j: the polynomial in 1/R through the last j + 1 rungs, at 1/R = 0
        R = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        vals = 1.0 + 1.0 / R - 3.0 / R**2 + 2.0 / R**3 + 5.0 / R**4 + 0.5 / R**5

        def at_zero(j):
            return np.polynomial.polynomial.polyfit(1.0 / R[-j - 1:], vals[-j - 1:], j)[0]

        ex, err, _ = richardson(R, vals, depth=3)
        assert ex == pytest.approx(at_zero(3), rel=1e-12)
        assert err == pytest.approx(max(abs(ex - at_zero(2)), abs(ex - at_zero(1))), rel=1e-9)

    def test_stderr_propagation(self):
        R = np.array([16.0, 32.0])
        _, _, sig = richardson(R, [0.0, 0.0], stderr=[1.0, 1.0], depth=1)
        assert sig == pytest.approx(math.sqrt(5.0), rel=1e-12)


class TestLatticeSeries:
    def test_frozen_limits(self):
        Rs = [2.0**j for j in range(12, 19)]
        rep_log = wint_lattice_series(K_LOG, Rs)
        rep_rsz = wint_lattice_series(K_RSZ, Rs)
        assert rep_log.extrapolated == pytest.approx(LATTICE_LIMIT_LOG, abs=2e-6)
        assert rep_rsz.extrapolated == pytest.approx(LATTICE_LIMIT_RSZ_HALF, abs=1e-8)

    def test_convergence_rate(self):
        # consecutive ladder values differ by at most C / R; report-style fit
        Rs = [2.0**j for j in range(6, 13)]
        rep = wint_lattice_series(K_RSZ, Rs)
        fitted_c = [abs(b[1] - a[1]) * a[0] for a, b in zip(rep.entries, rep.entries[1:])]
        assert max(fitted_c) < 10.0

    def test_peak_memory_of_the_atoms(self):
        # the 2^18 atoms of the top rung are 2 MiB of positions; the series
        # holds them, the kernel at them and one rung's weights at a time
        Rs = [2.0**j for j in range(12, 19)]
        tracemalloc.start()
        try:
            value = wint_lattice_series(K_RSZ, Rs).extrapolated
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(LATTICE_LIMIT_RSZ_HALF, abs=1e-8)
        assert peak < 8.5 * 2**20


class TestRho2Route:
    def test_zero_law_exact(self):
        rep = wint_from_rho2(rho2_analytic(ProcessModel.poisson(1)), K_LOG,
                             [8.0, 16.0, 32.0])
        assert all(v == 0.0 for _, v, _ in rep.entries)
        assert rep.extrapolated == 0.0

    @pytest.mark.parametrize("model, kernel", [
        (ProcessModel.bernoulli_block(2, 1), log_kernel(2)),
        (ProcessModel.renewal(GapLaw.gamma(2.0)), riesz_kernel(1.0, 2)),
        (ProcessModel.vibrating_lattice(4), log_kernel(2)),
        (ProcessModel.bernoulli_block(2, 2), K_LOG),
    ], ids=["block_1d", "renewal_1d", "vibrating_1d", "block_2d"])
    def test_dimension_mismatch_rejected(self, model, kernel):
        with pytest.raises(ArgumentError, match="dimensions differ"):
            wint_from_rho2(rho2_analytic(model), kernel, [8.0, 16.0])

    @pytest.mark.parametrize("kernel", [K_LOG, K_RSZ], ids=["log", "riesz"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_block_closed_form(self, kernel, k):
        rep = wint_from_rho2(rho2_analytic(ProcessModel.bernoulli_block(k, 1)),
                             kernel, [64.0, 128.0, 256.0, 512.0])
        # the tent-free limit exactly: the ladder is linear in 1/R once R
        # exceeds the support of the deficit
        assert rep.extrapolated == pytest.approx(block_limit(kernel, k), abs=1e-12)

    def test_lattice_route_matches_series(self):
        Rs = [64.0, 128.0, 256.0, 512.0]
        via_rho2 = wint_from_rho2(rho2_analytic(ProcessModel.lattice(1)), K_RSZ, Rs)
        via_series = wint_lattice_series(K_RSZ, Rs)
        for (_, a, _), (_, b, _) in zip(via_rho2.entries, via_series.entries):
            assert a == pytest.approx(b, rel=1e-12)

    def test_vibrating_rate_in_k(self):
        # distance to the lattice limit shrinks like 1/k^2
        ser = wint_lattice_series(K_RSZ, [2.0**j for j in range(12, 19)]).extrapolated
        deltas = []
        for k in (2, 4, 8, 16):
            rep = wint_from_rho2(rho2_analytic(ProcessModel.vibrating_lattice(k)),
                                 K_RSZ, [256.0, 512.0, 1024.0, 2048.0])
            deltas.append(rep.extrapolated - ser)
        assert all(d > 0 for d in deltas)
        slope = np.polyfit(np.log([2, 4, 8, 16]), np.log(deltas), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.4)

    def test_renewal_gamma2_closed_form(self):
        # deficit -exp(-4 v) integrates to -sqrt(pi) under the s = 1/2 kernel
        rep = wint_from_rho2(rho2_analytic(ProcessModel.renewal(GapLaw.gamma(2.0))),
                             K_RSZ, [128.0, 256.0, 512.0, 1024.0])
        assert rep.extrapolated == pytest.approx(-math.sqrt(math.pi), abs=2e-4)

    def test_clustered_renewal_diverges(self):
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.gamma(0.4)))
        with pytest.raises(DivergenceError):
            wint_from_rho2(r2, K_RSZ, [64.0, 128.0, 256.0])

    def test_head_check_uses_dimension_2(self):
        # a bounded deficit is integrable against |v|^-s in d = 2 for s < 2
        rep = wint_from_rho2(rho2_analytic(ProcessModel.bernoulli_block(2, 2)),
                             riesz_kernel(1.0, 2), [8.0, 16.0])
        assert all(math.isfinite(v) for _, v, _ in rep.entries)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.5])
    def test_head_check_uses_dimension_3(self, s):
        rep = wint_from_rho2(rho2_analytic(ProcessModel.bernoulli_block(1, 3)),
                             riesz_kernel(s, 3), [2.0, 4.0])
        assert all(math.isfinite(v) for _, v, _ in rep.entries)

    @pytest.mark.parametrize("kernel, k, R, ref", [
        (log_kernel(2), 2, 16.0, -0.1253610099919386),
        (riesz_kernel(1.0, 2), 2, 16.0, -1.4083237344355846),
        (log_kernel(2), 2, 1.0, -0.15996382402538967),
        (riesz_kernel(1.0, 2), 2, 1.0, -0.5946890692408533),
        (riesz_kernel(1.5, 3), 2, 4.0, -0.7461478221302684),
    ], ids=["log2d_R16", "riesz1_R16", "log2d_R1", "riesz1_R1", "riesz1.5_d3_R4"])
    def test_block_rung_vs_adaptive(self, kernel, k, R, ref):
        # references: scipy dblquad of -k^-2 (1 - x/k)(1 - y/k)(R - x)(R - y) g
        # over the positive quadrant of [-min(k, R), min(k, R)]^2 split on its
        # diagonal, times 4 / R^2; in d = 3 nquad over one of the 48 wedges,
        # with y = x u and z = y w taking out the singularity
        rep = wint_from_rho2(rho2_analytic(ProcessModel.bernoulli_block(k, kernel.d)),
                             kernel, [R])
        assert rep.entries[0][1] == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_poisson_exact_zero_multid(self, d):
        kernel = log_kernel(2) if d == 2 else riesz_kernel(1.5, 3)
        rep = wint_from_rho2(rho2_analytic(ProcessModel.poisson(d)), kernel, [2.0, 4.0, 8.0])
        assert all(v == 0.0 for _, v, _ in rep.entries)
        assert rep.extrapolated == 0.0

    @pytest.mark.parametrize("kernel, master", [(log_kernel(2), 421), (riesz_kernel(1.0, 2), 422)],
                             ids=["log2d", "riesz1"])
    def test_block_rung_vs_monte_carlo(self, kernel, master):
        # at one fixed R the Monte Carlo rung mean has the rho2 rung as its
        # exact expectation, so the band carries no extrapolation error
        model = ProcessModel.bernoulli_block(2, 2)
        (_, mean, stderr), = wint_monte_carlo(model, kernel, [8.0], 2000, Seed(master)).entries
        (_, exact, _), = wint_from_rho2(rho2_analytic(model), kernel, [8.0]).entries
        assert abs(mean - exact) <= 3.0 * stderr

    def test_undecayed_grid_rejected(self):
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.gamma(2.0)))
        r2.tail_flat = False
        with pytest.raises(DivergenceError):
            wint_from_rho2(r2, K_RSZ, [64.0, 128.0, 256.0])


LADDER_MODELS = {
    "renewal_gamma0.75": lambda: rho2_analytic(ProcessModel.renewal(GapLaw.gamma(0.75))),
    "renewal_gamma32": lambda: rho2_analytic(ProcessModel.renewal(GapLaw.gamma(32.0))),
    "vibrating8": lambda: rho2_analytic(ProcessModel.vibrating_lattice(8)),
    "block4": lambda: rho2_analytic(ProcessModel.bernoulli_block(4, 1)),
    "lattice": lambda: rho2_analytic(ProcessModel.lattice(1)),
    "hardcore": hardcore_rho2,
}
# rungs on a node of the top rung (4 and 64 lie on the block, lattice and
# renewal grids) and off it, inside and past the renewal grids
LADDER = [0.75, 4.0, 6.3, 64.0, 127.3, 256.0]


def _rung_by_itself(rho2, kernel, R):
    # one rung on its own nodes, as before the ladder shared its cells
    nodes = rho2.nodes_upto(R)
    deficit = np.asarray(rho2.continuous_part(nodes), dtype=float) - 1.0
    total = quadrature.integrate_g_pwlinear(kernel, nodes, deficit, tent_R=R)
    atoms = rho2.atoms_upto(R)
    if atoms.size:
        total += float(np.sum(kernel.g(atoms) * (R - atoms)))
    return 2.0 * total / R


class TestRho2Ladder:
    @pytest.mark.parametrize("name", LADDER_MODELS)
    def test_nodes_and_atoms_are_prefixes(self, name):
        r2 = LADDER_MODELS[name]()
        top, top_atoms = r2.nodes_upto(LADDER[-1]), r2.atoms_upto(LADDER[-1])
        for R in LADDER:
            assert r2.nodes_upto(R).tobytes() == np.append(top[top < R], R).tobytes()
            assert r2.atoms_upto(R).tobytes() == top_atoms[top_atoms <= R].tobytes()

    @pytest.mark.parametrize("kernel", [K_LOG, K_RSZ], ids=["log", "riesz"])
    @pytest.mark.parametrize("name", LADDER_MODELS)
    def test_ladder_equals_rungs_by_themselves(self, name, kernel):
        r2 = LADDER_MODELS[name]()
        got = energy._rho2_ladder_1d(r2, kernel, LADDER)
        want = [_rung_by_itself(r2, kernel, R) for R in LADDER]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_one_profile_integral_per_rung(self, monkeypatch):
        cells = []
        real = quadrature.integrate_g_pwlinear

        def spy(kernel, nodes, values, tent_R, moments=None):
            cells.append(len(nodes) - 1)
            return real(kernel, nodes, values, tent_R, moments)

        monkeypatch.setattr(quadrature, "integrate_g_pwlinear", spy)
        r2 = LADDER_MODELS["vibrating8"]()
        energy._rho2_ladder_1d(r2, K_RSZ, LADDER)
        assert cells == [len(r2.nodes_upto(R)) - 1 for R in LADDER]

    def test_profile_dot_ignores_blas_threads(self):
        # the dot of the 1e5-node Gamma(32) profiles, and the far field of the
        # Monte Carlo pair sums over rows of about 2048 points, must not
        # depend on how many threads share the sum
        code = ("from rieszlab import *\n"
                "r = wint_from_rho2(rho2_analytic(ProcessModel.renewal(GapLaw.gamma(32.0))),"
                " riesz_kernel(0.5, 1), [128.0, 256.0, 512.0, 1024.0])\n"
                "print([v.hex() for _, v, _ in r.entries])\n"
                "m = wint_monte_carlo(ProcessModel.vibrating_lattice(8), riesz_kernel(0.5, 1),"
                " [2048.0], 30, Seed(29))\n"
                "print([(v.hex(), e.hex()) for _, v, e in m.entries])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestMonteCarloRoute:
    def test_poisson_extrapolates_to_zero(self):
        rep = wint_monte_carlo(ProcessModel.poisson(1), K_RSZ,
                               [16.0, 32.0, 64.0], 300, Seed(71))
        assert abs(rep.extrapolated) <= 3.0 * rep.extrapolated_stderr + rep.extrapolation_error

    def test_route_agreement_block(self):
        model = ProcessModel.bernoulli_block(2, 1)
        mc = wint_monte_carlo(model, K_LOG, [16.0, 32.0, 64.0], 600, Seed(73))
        qd = wint_from_rho2(rho2_analytic(model), K_LOG, [64.0, 128.0, 256.0, 512.0])
        tol = 3.0 * mc.extrapolated_stderr + mc.extrapolation_error + qd.extrapolation_error
        assert abs(mc.extrapolated - qd.extrapolated) <= tol

    def test_replica_floor(self):
        with pytest.raises(ArgumentError):
            wint_monte_carlo(ProcessModel.poisson(1), K_LOG, [8.0, 16.0], 10, Seed(0))

    def test_lattice_sampled_matches_series(self):
        mc = wint_monte_carlo(ProcessModel.lattice(1), K_RSZ,
                              [16.0, 32.0, 64.0], 400, Seed(79))
        series = wint_lattice_series(K_RSZ, [2.0**j for j in range(12, 19)])
        tol = (3.0 * mc.extrapolated_stderr + mc.extrapolation_error
               + series.extrapolation_error)
        assert abs(mc.extrapolated - series.extrapolated) <= tol

    def test_hint_2d_against_direct_assembly(self):
        # small planar configuration: pair sum plus background terms, each
        # verified against scipy oracles elsewhere, assembled by hand here
        kernel = riesz_kernel(0.8, 2)
        pts = np.array([[0.2, -0.4], [-0.6, 0.3], [0.1, 0.7]])
        cfg = PointConfiguration(pts, 2.0)
        pair = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    pair += float(np.sum((pts[i] - pts[j]) ** 2)) ** (-0.4)
        pb = quadrature.point_background(kernel, pts, 2.0)
        bb = quadrature.background_pair_integral(kernel, 2.0)
        expected = pair - 2.0 * float(np.sum(pb)) + bb
        assert hint_R(cfg, 2.0, kernel) == pytest.approx(expected, rel=1e-12)

    def test_singular_replicas_abort(self, monkeypatch):
        from rieszlab import energy as energy_mod

        dup = np.array([[0.25], [0.25], [1.5]])

        def bad_sample(model, R, n, seed):
            return Replicas(np.tile(dup, (n, 1)), 3 * np.arange(n + 1), R)

        monkeypatch.setattr(energy_mod, "sample", bad_sample)
        with pytest.raises(SingularConfigurationError):
            wint_monte_carlo(ProcessModel.poisson(1), K_RSZ, [8.0], 50, Seed(0))

    def test_abort_message_counts(self, monkeypatch):
        # every fifth replica is singular: 200 planned replicas allow 2
        # discards, so the third (replica 15, on the first rung) aborts;
        # blocks of 5 replicas end the evaluation right there
        from rieszlab import _fast
        from rieszlab import energy as energy_mod

        calls = []

        def flaky_pair_sums(points, offsets, kernel, R):
            min_r2 = []
            for _ in offsets[1:]:
                calls.append(kernel)
                min_r2.append(0.0 if len(calls) % 5 == 0 else 1.0)
            return np.zeros(len(min_r2)), np.array(min_r2)

        monkeypatch.setattr(energy_mod, "_REPLICA_BLOCK", 5)
        monkeypatch.setattr(_fast, "pair_sums", flaky_pair_sums)
        with pytest.raises(SingularConfigurationError) as info:
            wint_monte_carlo(ProcessModel.poisson(1), K_RSZ, [4.0, 8.0], 100, Seed(0))
        msg = str(info.value)
        assert len(calls) == 15
        assert "3 of 15 replicas attempted" in msg
        assert "1% threshold of 2 of 200 planned" in msg
        assert isinstance(info.value.__cause__, SingularConfigurationError)


BLOCK_CASES = [
    (ProcessModel.bernoulli_block(2, 1), K_LOG, [16.0, 32.0]),
    (ProcessModel.poisson(2), riesz_kernel(1.0, 2), [4.0, 8.0]),
]


class TestMonteCarloBlocks:
    @pytest.mark.parametrize("model,kernel,R_list", BLOCK_CASES, ids=["d1", "d2"])
    def test_report_independent_of_block_size(self, monkeypatch, model, kernel, R_list):
        from rieszlab import energy as energy_mod

        whole = wint_monte_carlo(model, kernel, R_list, 40, Seed(83))
        monkeypatch.setattr(energy_mod, "_REPLICA_BLOCK", 3)
        assert wint_monte_carlo(model, kernel, R_list, 40, Seed(83)) == whole

    @pytest.mark.parametrize("model,kernel,R_list", BLOCK_CASES, ids=["d1", "d2"])
    def test_blocks_draw_the_rung(self, monkeypatch, model, kernel, R_list):
        # one batch per block; the blocks of a rung are its whole draw
        from rieszlab import energy as energy_mod

        blocks = []

        def spy(*args):
            blocks.append(sample(*args))
            return blocks[-1]

        monkeypatch.setattr(energy_mod, "_REPLICA_BLOCK", 7)
        monkeypatch.setattr(energy_mod, "sample", spy)
        wint_monte_carlo(model, kernel, R_list, 40, Seed(83, 2))
        assert [len(b) for b in blocks] == [7] * 5 + [5] + [7] * 5 + [5]
        for i, R in enumerate(R_list):
            rung = sample(model, R, 40, Seed(83, 2 + i * 40))
            drawn = blocks[6 * i:6 * i + 6]
            assert np.concatenate([b.points for b in drawn]).tobytes() == rung.points.tobytes()
            np.testing.assert_array_equal(np.concatenate([b.counts for b in drawn]),
                                          rung.counts)

    @pytest.mark.parametrize("model,kernel,R_list", BLOCK_CASES, ids=["d1", "d2"])
    def test_replica_energies_match_hint_R(self, monkeypatch, model, kernel, R_list):
        from rieszlab import energy as energy_mod

        seen = []
        window_energies = energy_mod._window_energies

        def spy(points, offsets, R, kernel, bb):
            energies, singular = window_energies(points, offsets, R, kernel, bb)
            seen.append(energies)
            return energies, singular

        monkeypatch.setattr(energy_mod, "_REPLICA_BLOCK", 7)
        monkeypatch.setattr(energy_mod, "_window_energies", spy)
        wint_monte_carlo(model, kernel, R_list, 40, Seed(83))
        blocked = np.concatenate(seen)  # before hint_R adds its batches of one
        loop = [hint_R(cfg, R, kernel) for i, R in enumerate(R_list)
                for cfg in sample(model, R, 40, Seed(83, i * 40))]
        np.testing.assert_allclose(blocked, loop, rtol=1e-12, atol=0.0)


def _orthant_2d(a, b, s):
    """``int_[0,a]x[0,b] |y|^-s dy``: two triangles, each
    ``x y / (2 - s) x^-s 2F1(1/2, s/2; 3/2; -(y/x)^2)``; at s = 1, where
    scipy's hyp2f1 fails for large arguments, ``a asinh(b/a) + b asinh(a/b)``."""
    if s == 1.0:
        return a * math.asinh(b / a) + b * math.asinh(a / b)

    def triangle(x, y):
        return x * y / (2.0 - s) * x**-s * special.hyp2f1(0.5, 0.5 * s, 1.5, -(y / x) ** 2)

    return triangle(a, b) + triangle(b, a)


def _orthant_3d(e, s):
    """``int_[0,e1]x[0,e2]x[0,e3] |y|^-s dy`` as three pyramids with major edge
    a: ``a b c / (3 - s) int_0^1 A^(-s/2) 2F1(1/2, s/2; 3/2; -c^2/A) du`` with
    ``A = a^2 + (b u)^2``.  For a < b the integrand has a peak of width a/b at
    u = 0, so quad gets breakpoints from a/b to 1 in geometric steps."""
    total = 0.0
    for k in range(3):
        a, b, c = e[k], e[(k + 1) % 3], e[(k + 2) % 3]

        def inner(u):
            A = a * a + (b * u) ** 2
            if s == 1.0:
                return math.asinh(c / math.sqrt(A)) / c
            return A ** (-0.5 * s) * special.hyp2f1(0.5, 0.5 * s, 1.5, -c * c / A)

        breaks = np.geomspace(a / b, 1.0, 20)[:-1] if a < b else None
        total += a * b * c / (3.0 - s) * integrate.quad(
            inner, 0.0, 1.0, points=breaks, epsabs=0.0, epsrel=5e-14, limit=400)[0]
    return total


def _exact_pb(s, d, p, R):
    """``int_{C_R} |p - y|^-s dy`` as the sum of its orthant boxes with p at
    a corner, each by ``_orthant_2d`` or ``_orthant_3d``."""
    total = 0.0
    for sg in itertools.product((1.0, -1.0), repeat=d):
        e = R / 2.0 + np.array(sg) * p
        if np.all(e > 0.0):
            total += _orthant_2d(*e, s) if d == 2 else _orthant_3d(e, s)
    return total


EXACT_CASES = ([(s, 2, 16.0) for s in (0.25, 0.5, 1.0, 1.5, 1.99)]
               + [(s, 3, 3.0) for s in (1.0, 1.5, 2.0, 2.01, 2.5)])


class TestPointBackgroundBatched:
    """The batched point-background integral against exact references: the
    orthant closed form in d = 2, one adaptive quadrature over the orthant's
    pyramids in d = 3 (which agrees with 30-digit mpmath to rounding)."""

    @staticmethod
    def _points(d, R, n, seed):
        rng = np.random.default_rng(seed)
        special_pts = [np.zeros(d), np.r_[R / 2, np.zeros(d - 1)],
                       np.full(d, -R / 2)]
        if d == 3:
            special_pts.append(np.array([R / 2, -R / 2, 0.3]))
        return np.vstack([rng.uniform(-R / 2, R / 2, (n, d))] + special_pts)

    @staticmethod
    def _faces_edges_corners(d, R):
        """An interior point, the centre, points on a face, an edge (d = 3)
        and a corner, and points 1e-2, 1e-4, 1e-7 and 1e-12 from each."""
        inside = np.array([0.13, -0.07, 0.11])[:d] * R
        pts = [np.array([0.37, -0.21, 0.29])[:d] * R, np.zeros(d)]
        for eps in (0.0, 1e-2, 1e-4, 1e-7, 1e-12):
            for k in range(1, d + 1):  # k coordinates at the boundary
                p = inside.copy()
                p[:k] = (R / 2 - eps) * np.array([1.0, -1.0, 1.0])[:k]
                pts.append(p)
        return np.array(pts)

    @pytest.mark.parametrize("s, d, R", EXACT_CASES)
    def test_exact_references(self, s, d, R):
        pts = self._faces_edges_corners(d, R)
        got = quadrature.point_background(riesz_kernel(s, d), pts, R)
        ref = [_exact_pb(s, d, p, R) for p in pts]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("s, d, R", [(0.8, 2, 5.0), (1.0, 2, 16.0), (1.5, 3, 3.0),
                                         (0.25, 2, 5.0), (1.0, 3, 3.0), (2.5, 3, 3.0)])
    def test_riesz_matches_per_point(self, s, d, R):
        kernel = riesz_kernel(s, d)
        # orthants of edge 1e-7 and 1e-6 next to a face and a corner
        near = [np.r_[R / 2 - 1e-7, np.full(d - 1, 0.3)], np.full(d, 1e-6 - R / 2),
                np.r_[R / 2, np.full(d - 1, -R / 2)]]
        pts = np.vstack([self._points(d, R, 20, 7)] + near)
        got = quadrature.point_background(kernel, pts, R)
        ref = [_exact_pb(s, d, p, R) for p in pts]
        assert got.shape == (pts.shape[0],)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("s, d, R", EXACT_CASES)
    def test_halved_panels_change_nothing(self, s, d, R, monkeypatch):
        pts = np.vstack([self._points(d, R, 10, 11), self._faces_edges_corners(d, R)])
        kernel = riesz_kernel(s, d)
        got = quadrature.point_background(kernel, pts, R)
        monkeypatch.setattr(quadrature, "_PANEL_WIDTH", quadrature._PANEL_WIDTH / 2)
        finer = quadrature.point_background(kernel, pts, R)
        np.testing.assert_allclose(got, finer, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("s, d, R", [(0.5, 2, 16.0), (1.99, 2, 5.0),
                                         (1.5, 3, 3.0), (2.0, 3, 4.0)])
    def test_batched_equals_per_point_bitwise(self, s, d, R):
        kernel = riesz_kernel(s, d)
        pts = np.vstack([self._points(d, R, 40, 12), self._faces_edges_corners(d, R)])
        got = quadrature.point_background(kernel, pts, R)
        one_by_one = [quadrature.point_background(kernel, p[None, :], R)[0] for p in pts]
        np.testing.assert_array_equal(got, one_by_one)

    @pytest.mark.parametrize("s, d, R", [(0.25, 2, 16.0), (1.99, 2, 16.0),
                                         (1.0, 3, 3.0), (2.0, 3, 3.0), (2.5, 3, 3.0)])
    def test_one_ulp_inside_a_face(self, s, d, R):
        # W = asinh(R / ulp) is about 37, about 25 panels; s = 2 in d = 3 is
        # the q = 0 branch; nothing may overflow or divide by zero
        h = np.nextafter(R / 2, 0.0)
        pts = np.array([np.r_[h, np.full(d - 1, 0.1)], np.r_[h, np.full(d - 1, -h)],
                        np.full(d, -h)])
        assert np.arcsinh(R / (R / 2 - h)) / quadrature._PANEL_WIDTH > 24
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = quadrature.point_background(riesz_kernel(s, d), pts, R)
        ref = [_exact_pb(s, d, p, R) for p in pts]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_log2d_matches_per_point(self):
        R = 16.0
        pts = self._points(2, R, 30, 8)
        got = quadrature.point_background(log_kernel(2), pts, R)
        ref = [-quadrature._log_boxes_2d((-R / 2 - p)[None], (R / 2 - p)[None])[0] for p in pts]
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_log2d_vs_adaptive(self):
        # adaptive quadrature on the four boxes with p at a corner
        R = 4.0
        pts = np.array([[0.7, -1.1], [R / 2, 0.5]])
        got = quadrature.point_background(log_kernel(2), pts, R)
        for p, val in zip(pts, got):
            ref = 0.0
            for x0, x1 in ((-R / 2, p[0]), (p[0], R / 2)):
                for y0, y1 in ((-R / 2, p[1]), (p[1], R / 2)):
                    if x1 > x0 and y1 > y0:
                        ref += integrate.dblquad(
                            lambda y, x: -0.5 * math.log((x - p[0]) ** 2 + (y - p[1]) ** 2),
                            x0, x1, y0, y1, epsabs=1e-12)[0]
            assert val == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("kernel", [riesz_kernel(1.0, 2), log_kernel(2),
                                        riesz_kernel(1.5, 3)], ids=["riesz2", "log2d", "riesz3"])
    def test_no_points(self, kernel):
        out = quadrature.point_background(kernel, np.empty((0, kernel.d)), 4.0)
        assert out.shape == (0,)

    def test_several_chunks(self, monkeypatch):
        # 48 face pieces per point of at least 12 panel nodes each, so with a
        # budget of 2**11 nodes 40 points span at least ten chunks
        kernel = riesz_kernel(1.5, 3)
        R = 4.0
        pts = self._points(3, R, 36, 9)
        whole = quadrature.point_background(kernel, pts, R)
        monkeypatch.setattr(quadrature, "_PANEL_NODE_BUDGET", 2**11)
        assert 48 * pts.shape[0] * quadrature._PANEL_ORDER >= 10 * quadrature._PANEL_NODE_BUDGET
        got = quadrature.point_background(kernel, pts, R)
        np.testing.assert_array_equal(got, whole)
        ref = [_exact_pb(1.5, 3, p, R) for p in pts]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_outside_window_rejected(self):
        with pytest.raises(ArgumentError):
            quadrature.point_background(riesz_kernel(1.0, 2), np.array([[2.5, 0.0]]), 4.0)

    @pytest.mark.parametrize("kernel,pts", [
        (riesz_kernel(0.5, 1), np.array([0.1, 0.2, 0.3])),
        (riesz_kernel(1.0, 2), np.array([[0.1], [0.2], [0.3]])),
        (log_kernel(2), np.array([[0.1], [0.2], [0.3]])),
    ], ids=["flat_1d", "riesz2_one_column", "log2d_one_column"])
    def test_points_must_have_the_kernels_dimension(self, kernel, pts):
        # one point per row, one column per axis of the kernel
        with pytest.raises(ArgumentError, match=r"shape \(N, \d\)"):
            quadrature.point_background(kernel, pts, 2.0)

    def test_3d_riesz_vs_radial_reduction(self):
        # each orthant pyramid with major edge a integrates in t exactly:
        # abc / (d - s) * iint (a^2 + (b u)^2 + (c v)^2)^(-s/2) du dv
        s, R = 1.5, 3.0
        pts = np.array([[0.4, -0.9, 0.2], [R / 2, 0.1, -0.6]])
        got = quadrature.point_background(riesz_kernel(s, 3), pts, R)
        for p, val in zip(pts, got):
            ref = 0.0
            for sg in np.ndindex(2, 2, 2):
                e = R / 2 + np.where(np.array(sg) == 0, 1.0, -1.0) * p
                if np.any(e <= 0.0):
                    continue
                for k in range(3):
                    a, b, c = e[k], e[(k + 1) % 3], e[(k + 2) % 3]
                    inner, _ = integrate.dblquad(
                        lambda v, u: (a * a + (b * u) ** 2 + (c * v) ** 2) ** (-0.5 * s),
                        0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
                    ref += a * b * c / (3.0 - s) * inner
            assert val == pytest.approx(ref, rel=1e-11)

    def test_no_per_point_box_integrals(self, monkeypatch):
        # guard against the per-point loop coming back
        calls = []
        real = quadrature.box_kernel_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "box_kernel_integral", counting)
        pts = self._points(3, 4.0, 46, 10)
        quadrature.point_background(riesz_kernel(1.5, 3), pts, 4.0)
        assert pts.shape[0] == 50
        assert calls == []


class TestMonteCarloMultiD:
    """c01 in d >= 2: Poisson energy is 0 within 3 stderr plus the
    extrapolation error.  Seeds were fixed before the first run."""

    @pytest.mark.parametrize("kernel, d, R_list, master", [
        (riesz_kernel(1.0, 2), 2, [8.0, 16.0, 32.0], 311),
        (log_kernel(2), 2, [8.0, 16.0, 32.0], 312),
        (riesz_kernel(1.5, 3), 3, [2.0, 3.0, 4.0], 313),
    ], ids=["riesz2", "log2d", "riesz3"])
    def test_poisson_zero_energy(self, kernel, d, R_list, master):
        rep = wint_monte_carlo(ProcessModel.poisson(d), kernel, R_list, 100, Seed(master))
        assert rep.n_discarded == 0
        band = 3.0 * rep.extrapolated_stderr + rep.extrapolation_error
        assert abs(rep.extrapolated) <= band


class TestPlainEnergy:
    def test_hardcore_value(self):
        # the deficit -1 on [0, 1/2] has the tent-free limit 2 int_0^(1/2) log v dv
        rep = wint_from_rho2(hardcore_rho2(), K_LOG, [64.0, 128.0, 256.0, 512.0])
        assert rep.extrapolated == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)


class TestOrderings:
    def test_lattice_minimality(self):
        # every tested one-dimensional model sits above the lattice value
        wz = wint_lattice_series(K_RSZ, [2.0**j for j in range(12, 19)]).extrapolated
        models = [
            ProcessModel.vibrating_lattice(4),
            ProcessModel.bernoulli_block(4, 1),
            ProcessModel.renewal(GapLaw.gamma(4.0)),
        ]
        for model in models:
            rep = wint_from_rho2(rho2_analytic(model), K_RSZ,
                                 [128.0, 256.0, 512.0, 1024.0])
            assert rep.extrapolated >= wz - 1e-4

    def test_sub_poissonian_bound(self):
        # any deficit profile below one stays above the hardcore benchmark
        hc = -1.0 - math.log(2.0)
        for k in (2, 4):
            rep = wint_from_rho2(rho2_analytic(ProcessModel.bernoulli_block(k, 1)),
                                 K_LOG, [64.0, 128.0, 256.0, 512.0])
            assert rep.extrapolated >= hc - 1e-9
        hc_rep = wint_from_rho2(hardcore_rho2(), K_LOG, [64.0, 128.0, 256.0, 512.0])
        assert hc_rep.extrapolated == pytest.approx(hc, abs=1e-12)
