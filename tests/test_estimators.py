import math

import numpy as np
import pytest

from rieszlab import (
    ArgumentError,
    DomainError,
    GapLaw,
    GridSpec,
    NotApplicableError,
    ProcessModel,
    Seed,
    discrepancy_identity_check,
    dlog_estimate,
    estimate_rho2,
    log_kernel,
    number_variance_curve,
    pinsker_check,
    riesz_kernel,
    sample,
    tv_lower_bound,
)


class TestEstimateRho2:
    def test_poisson_flat_within_band(self, replicas):
        est = estimate_rho2(replicas(ProcessModel.poisson(1), 64.0, 1000), GridSpec(8.0, 64))
        dev = np.abs(est.values) / np.maximum(est.stderr, 1e-12)
        assert np.max(dev) < 4.5
        assert np.mean(dev < 4.0) > 0.99

    def test_signed_symmetry_exact(self, replicas):
        est = estimate_rho2(replicas(ProcessModel.bernoulli_block(2, 1), 32.0, 50), GridSpec(4.0, 32))
        np.testing.assert_allclose(est.values, est.values[::-1], rtol=1e-12)

    def test_lattice_atoms_concentrate(self, replicas):
        est = estimate_rho2(replicas(ProcessModel.lattice(1), 32.0, 300), GridSpec(3.5, 700))
        bw = est.bin_width
        near_one = np.abs(np.abs(est.centers) - 1.0) < bw
        mass = np.sum((est.values[near_one] + 1.0)) * bw / 2.0  # two signed copies
        assert mass == pytest.approx(1.0, abs=0.05)
        far = np.abs(np.abs(est.centers) - np.rint(np.abs(est.centers))) > 5 * bw
        assert np.max(np.abs(est.values[far] + 1.0)) < 0.05

    def test_radial_mode_poisson(self, replicas):
        est = estimate_rho2(replicas(ProcessModel.poisson(2), 12.0, 600), GridSpec(3.0, 24))
        assert est.mode == "radial"
        dev = np.abs(est.values) / np.maximum(est.stderr, 1e-12)
        assert np.mean(dev < 4.0) > 0.95

    def test_preconditions(self, replicas):
        samples = replicas(ProcessModel.poisson(1), 16.0, 3)
        with pytest.raises(DomainError):
            estimate_rho2(samples, GridSpec(16.0, 8))  # v_max not below R
        with pytest.raises(ArgumentError):
            estimate_rho2(samples[:1], GridSpec(4.0, 8))
        with pytest.raises(ArgumentError, match="at least 2 replicas"):
            estimate_rho2([], GridSpec(4.0, 8))


class TestVarianceCurve:
    def test_poisson_linear_growth(self):
        curve = number_variance_curve(
            ProcessModel.poisson(1), [8.0, 16.0, 32.0, 64.0, 128.0], 1500, Seed(17))
        assert curve.fitted_exponent == pytest.approx(1.0, abs=0.1)
        for R, var, _ in curve.entries:
            assert var >= 0.0

    def test_block_is_hyperuniform(self):
        curve = number_variance_curve(
            ProcessModel.bernoulli_block(4, 1), [8.0, 16.0, 32.0, 64.0, 128.0], 1200, Seed(18))
        assert curve.fitted_exponent <= 0.2

    def test_lattice_variance_below_one(self):
        curve = number_variance_curve(
            ProcessModel.lattice(1), [6.5, 13.5, 27.5, 55.5, 111.5], 400, Seed(19))
        assert all(var <= 1.0 for _, var, _ in curve.entries)

    def test_requires_a_decade(self):
        with pytest.raises(ArgumentError):
            number_variance_curve(ProcessModel.poisson(1), [8.0, 9.0, 10.0, 11.0], 50, Seed(0))


class TestIdentityCheck:
    @pytest.mark.parametrize(
        "model",
        [ProcessModel.poisson(1), ProcessModel.bernoulli_block(4, 1),
         ProcessModel.lattice(1), ProcessModel.renewal(GapLaw.gamma(2.0))],
        ids=lambda m: m.describe(),
    )
    def test_algebraic_gap_vanishes(self, model, replicas):
        chk = discrepancy_identity_check(replicas(model, 16.0, 400), 16.0)
        assert abs(chk.algebraic_gap) < 1e-8

    def test_poisson_both_sides_near_zero(self, replicas):
        chk = discrepancy_identity_check(replicas(ProcessModel.poisson(1), 8.0, 4000), 8.0)
        assert abs(chk.lhs) < 1.5
        assert abs(chk.rhs) < 1.5
        assert abs(chk.statistical_gap) == abs(chk.lhs - chk.rhs)

    def test_block_strongly_negative(self, replicas):
        chk = discrepancy_identity_check(
            replicas(ProcessModel.bernoulli_block(4, 1), 32.0, 1000), 32.0)
        assert chk.lhs < -25.0
        assert chk.rhs < -25.0

    def test_one_replica_rejected(self, replicas):
        with pytest.raises(ArgumentError,
                           match="at least 2 replicas are required for a standard error"):
            discrepancy_identity_check(replicas(ProcessModel.poisson(1), 8.0, 1), 8.0)


class TestDlog:
    def test_poisson_diverges(self):
        curve = dlog_estimate(ProcessModel.poisson(1), log_kernel(1),
                              [8.0, 16.0, 32.0, 64.0, 128.0], 1200, Seed(23))
        assert curve.trend == "diverging"

    def test_block_vanishes(self):
        curve = dlog_estimate(ProcessModel.bernoulli_block(4, 1), log_kernel(1),
                              [8.0, 16.0, 32.0, 64.0, 128.0], 1200, Seed(29))
        assert curve.trend == "bounded->0"

    def test_lattice_vanishes(self):
        curve = dlog_estimate(ProcessModel.lattice(1), log_kernel(1),
                              [6.5, 13.5, 27.5, 55.5, 111.5], 300, Seed(31))
        assert curve.trend == "bounded->0"
        for R, v, _ in curve.entries:
            assert v <= math.log(R) / R + 1e-12

    def test_riesz_not_applicable(self):
        with pytest.raises(NotApplicableError):
            dlog_estimate(ProcessModel.poisson(1), riesz_kernel(0.5, 1),
                          [8.0, 16.0], 10, Seed(0))

    @pytest.mark.parametrize("model, kernel", [
        (ProcessModel.poisson(2), log_kernel(1)),
        (ProcessModel.poisson(3), log_kernel(2)),
    ], ids=["log1d_in_2d", "log2d_in_3d"])
    def test_dimension_mismatch_rejected(self, model, kernel):
        with pytest.raises(ArgumentError, match="kernel and model dimensions differ"):
            dlog_estimate(model, kernel, [8.0, 16.0], 10, Seed(0))

    def test_scaling_in_constant(self):
        a = dlog_estimate(ProcessModel.poisson(1), log_kernel(1),
                          [8.0, 16.0, 32.0, 64.0, 80.0], 300, Seed(37), c_log=1.0)
        b = dlog_estimate(ProcessModel.poisson(1), log_kernel(1),
                          [8.0, 16.0, 32.0, 64.0, 80.0], 300, Seed(37), c_log=2.5)
        np.testing.assert_allclose([2.5 * x[1] for x in a.entries],
                                   [x[1] for x in b.entries], rtol=1e-12)


class TestTotalVariation:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_same_samples_zero(self, replicas):
        samples = replicas(ProcessModel.poisson(1), 8.0, 200)
        assert tv_lower_bound(samples, samples, 8.0, 2) == 0.0

    def test_lattice_vs_poisson_known_value(self, replicas):
        # one tile: the lattice count law is a point mass at 8, so the TV is
        # 1 - P(Poisson(8) = 8)
        lat = replicas(ProcessModel.lattice(1), 8.0, 3000, master=41)
        poi = replicas(ProcessModel.poisson(1), 8.0, 3000, master=43)
        tv = tv_lower_bound(lat, poi, 8.0, 1)
        expected = 1.0 - math.exp(-8.0) * 8.0**8 / math.factorial(8)
        assert tv == pytest.approx(expected, abs=0.02)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_monotone_in_tiles(self, replicas):
        p = replicas(ProcessModel.bernoulli_block(2, 1), 8.0, 1500, master=47)
        q = replicas(ProcessModel.poisson(1), 8.0, 1500, master=53)
        vals = [tv_lower_bound(p, q, 8.0, t) for t in (1, 2, 4, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_block_approaches_poisson_in_k(self, replicas):
        poi = replicas(ProcessModel.poisson(1), 8.0, 2500, master=59)
        tvs = []
        for k in (1, 2, 4):
            blk = replicas(ProcessModel.bernoulli_block(k, 1), 8.0, 2500, master=60 + k)
            tvs.append(tv_lower_bound(blk, poi, 8.0, 2))
        assert tvs[0] > tvs[1] > tvs[2]

    def test_sparse_histogram_warns(self, replicas):
        p = replicas(ProcessModel.poisson(1), 8.0, 30, master=61)
        q = replicas(ProcessModel.poisson(1), 8.0, 30, master=62)
        with pytest.warns(RuntimeWarning):
            tv_lower_bound(p, q, 8.0, 8)

    def test_one_sample_rejected(self, replicas):
        # one sample per side makes any two count vectors look disjoint
        p = replicas(ProcessModel.renewal(GapLaw.gamma(2.0)), 8.0, 2, master=63)
        q = replicas(ProcessModel.poisson(1), 8.0, 2, master=64)
        for a, b in ((p[:1], q), (p, q[:1]), ([], q)):
            with pytest.raises(ArgumentError, match="at least 2 replicas"):
                tv_lower_bound(a, b, 4.0, 2)


class TestPinskerCheck:
    def test_trivial(self):
        rep = pinsker_check(0.0, 0.0, 4.0)
        assert rep.satisfied

    def test_arithmetic_violation_flag(self):
        # sqrt(0.02 / 2) * 4^(1/2) = 0.2 < 0.5: flagged, signalling bad input
        rep = pinsker_check(0.02, 0.5, 4.0)
        assert rep.pinsker_upper == pytest.approx(0.2, rel=1e-12)
        assert not rep.satisfied

    def test_negative_entropy_rejected(self):
        with pytest.raises(ArgumentError):
            pinsker_check(-0.1, 0.0, 4.0)
