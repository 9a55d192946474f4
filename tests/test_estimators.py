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
from rieszlab.core import in_cube, mean_stderr
from rieszlab.estimators import DlogCurve


def _ragged(model, R, n, master):
    # a batch whose replicas include empty ones
    batch = sample(model, R, n, Seed(master))
    assert (batch.counts == 0).any() and (batch.counts > 1).any()
    return batch


class TestBatchAgainstReplicaLoop:
    """Each replica estimator reads the batch at once; a loop over its
    replicas, one configuration at a time, is the reference."""

    @pytest.mark.parametrize("model, R, v_max", [
        (ProcessModel.poisson(1), 3.0, 1.0), (ProcessModel.poisson(2), 1.6, 0.8),
    ], ids=["d1", "d2"])
    def test_estimate_rho2(self, model, R, v_max):
        from rieszlab import _fast

        batch = _ragged(model, R, 80, 5)
        est = estimate_rho2(batch, GridSpec(v_max, 8))
        per = []
        for cfg in batch:
            one = np.array([0, cfg.n])
            if model.d == 1:
                acc = _fast.bin_pairs_signed(cfg.points, one, v_max, 8, R)[0]
                per.append(acc / est.bin_width - 1.0)
            else:
                edges = est.bin_width * np.arange(9)
                acc = _fast.bin_pairs_radial(cfg.points, one, v_max, 8, R)[0]
                per.append(acc / (math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)) - 1.0)
        values, stderr = mean_stderr(per)
        assert est.values.tobytes() == values.tobytes()
        assert est.stderr.tobytes() == stderr.tobytes()

    def test_number_variance_curve(self):
        R_list, n, seed = [0.5, 1.0, 2.0, 5.0], 50, Seed(7, 3)
        curve = number_variance_curve(ProcessModel.poisson(1), R_list, n, seed)
        for i, R in enumerate(R_list):
            counts = [sample(ProcessModel.poisson(1), R, 1, Seed(7, 3 + i * n + j))[0].n
                      for j in range(n)]
            assert R > 1.0 or 0 in counts
            mean, stderr = mean_stderr([(c - R) ** 2 for c in counts])
            assert curve.entries[i] == (R, float(mean), float(stderr))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tiles", [1, 3])
    def test_tv_lower_bound(self, tiles):
        p = _ragged(ProcessModel.poisson(1), 2.0, 300, 11)
        q = _ragged(ProcessModel.renewal(GapLaw.gamma(2.0)), 2.0, 200, 12)

        def hist(batch, R):
            edges = np.linspace(-R / 2.0, R / 2.0, tiles + 1)
            out = {}
            for cfg in batch:
                x = cfg.points[in_cube(cfg, R), 0]
                idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, tiles - 1)
                key = tuple(np.bincount(idx, minlength=tiles).tolist())
                out[key] = out.get(key, 0.0) + 1.0 / len(batch)
            return out

        for R in (1.0, 2.0):
            hp, hq = hist(p, R), hist(q, R)
            ref = 0.5 * sum(abs(hp.get(k, 0.0) - hq.get(k, 0.0)) for k in set(hp) | set(hq))
            assert tv_lower_bound(p, q, R, tiles) == pytest.approx(ref, abs=1e-15, rel=0.0)

    def test_identity_check_counts_the_window(self):
        batch = _ragged(ProcessModel.poisson(1), 2.0, 200, 13)
        chk = discrepancy_identity_check(batch, 1.5)
        counts = np.array([np.count_nonzero(in_cube(cfg, 1.5)) for cfg in batch], dtype=float)
        assert chk.lhs == float((counts**2).mean() - counts.mean() - 1.5**2)


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
            estimate_rho2(replicas(ProcessModel.poisson(1), 16.0, 1), GridSpec(4.0, 8))
        with pytest.raises(ArgumentError, match="at least 2 replicas"):
            estimate_rho2([], GridSpec(4.0, 8))


    def test_odd_bins_rejected_in_1d(self, replicas):
        # d = 1 bins mirror about 0; an odd count was raised to the next even one
        samples = replicas(ProcessModel.bernoulli_block(4), 32.0, 5)
        with pytest.raises(ArgumentError, match="n_bins must be even in d = 1"):
            estimate_rho2(samples, GridSpec(4.0, 7))
        assert estimate_rho2(samples, GridSpec(4.0, 8)).values.size == 8
        assert estimate_rho2(replicas(ProcessModel.poisson(2), 8.0, 5),
                             GridSpec(2.0, 7)).values.size == 7

    @pytest.mark.parametrize("d", [1, 2], ids=["signed", "radial"])
    def test_grid_too_large_is_rejected_before_allocation(self, d, rejected_before_allocation):
        # 2 replicas of 10**14 bins, in the per-replica rows or the centres
        samples = sample(ProcessModel.poisson(d), 8.0, 2, Seed(0))
        rejected_before_allocation(lambda: estimate_rho2(samples, GridSpec(1.0, 10**14)))


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

    @pytest.mark.parametrize("R_list", [[1, 2, 4, 10], [2, 4, 8, 20], [8, 16, 32, 64, 128]])
    def test_block_vanishes_with_a_rung_at_one(self, R_list):
        # log 1 = 0 makes the value at R = 1 exactly 0; it drops out of the
        # trend's fit instead of pulling its slope up
        curve = dlog_estimate(ProcessModel.bernoulli_block(4), log_kernel(1), R_list, 400,
                              Seed(3))
        assert curve.trend == "bounded->0"
        variance = number_variance_curve(ProcessModel.bernoulli_block(4), R_list, 400, Seed(3))
        assert DlogCurve.from_variance(variance.entries, 1, 1.0).trend == "bounded->0"
        poisson = dlog_estimate(ProcessModel.poisson(1), log_kernel(1), R_list, 400, Seed(3))
        assert poisson.trend == "diverging"

    def test_stderr_stays_nonnegative_below_one(self):
        # c_log log R / R^d is negative for R < 1: the stderr scales by its
        # absolute value, the mean by the factor itself
        entries = [(0.5, 0.4, 0.3), (1.0, 1.2, 0.2), (2.0, 2.0, 0.5), (8.0, 8.0, 1.0)]
        curve = DlogCurve.from_variance(entries, 1, 1.0)
        for (R, mean, stderr), (_, value, scaled) in zip(entries, curve.entries):
            factor = math.log(R) / R
            assert value == mean * factor and scaled == stderr * abs(factor) >= 0.0
        assert curve.entries[0][1] < 0.0 < curve.entries[0][2]

    def test_decade_with_one_positive_value_rejected(self):
        entries = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (4.0, 0.0, 0.0), (10.0, 3.0, 1.0)]
        with pytest.raises(ArgumentError, match="degenerate fit"):
            DlogCurve.from_variance(entries, 1, 1.0)

    @pytest.mark.parametrize("c_log", [0.0, -1.0])
    def test_nonpositive_constant_rejected(self, c_log):
        # a nonpositive constant turned Poisson's diverging term into "bounded->0"
        variance = number_variance_curve(ProcessModel.poisson(1), [8, 16, 32, 64, 128], 400,
                                         Seed(3))
        with pytest.raises(DomainError, match="c_log must be positive"):
            DlogCurve.from_variance(variance.entries, 1, c_log)
        with pytest.raises(DomainError, match="c_log must be positive"):
            dlog_estimate(ProcessModel.poisson(1), log_kernel(1), [8, 16, 32, 64, 128], 30,
                          Seed(3), c_log=c_log)


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
        renewal, poisson = ProcessModel.renewal(GapLaw.gamma(2.0)), ProcessModel.poisson(1)
        p, q = replicas(renewal, 8.0, 2, master=63), replicas(poisson, 8.0, 2, master=64)
        p1, q1 = replicas(renewal, 8.0, 1, master=63), replicas(poisson, 8.0, 1, master=64)
        for a, b in ((p1, q), (p, q1), ([], q)):
            with pytest.raises(ArgumentError, match="at least 2 replicas"):
                tv_lower_bound(a, b, 4.0, 2)


    @pytest.mark.parametrize("tile_count", [2.0, True, 0], ids=["float", "bool", "zero"])
    def test_tile_count_must_be_a_positive_integer(self, replicas, tile_count):
        samples = replicas(ProcessModel.poisson(1), 8.0, 20, master=65)
        with pytest.raises(ArgumentError, match="tile_count must be an integer of at least 1"):
            tv_lower_bound(samples, samples, 8.0, tile_count)

    def test_tiles_too_many_are_rejected_before_allocation(self, rejected_before_allocation):
        p = sample(ProcessModel.renewal(GapLaw.gamma(2.0)), 4.0, 20, Seed(0))
        q = sample(ProcessModel.poisson(1), 4.0, 20, Seed(1))
        rejected_before_allocation(lambda: tv_lower_bound(p, q, 4.0, 10**14))


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
