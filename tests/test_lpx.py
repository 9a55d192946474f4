import math

import numpy as np
import pytest

from rieszlab import (
    ArgumentError,
    Discretization,
    DomainError,
    evaluate_candidate,
    hardcore_candidate,
    log_kernel,
    minimize_t2,
    riesz_kernel,
)
from rieszlab.lpx import cosine_transform, inverse_cosine_transform

K_LOG = log_kernel(1)
K_RSZ = riesz_kernel(0.5, 1)


@pytest.fixture(scope="module")
def disc():
    return Discretization(v_max=4.0, step=2.0**-8, R=1024.0)


class TestDiscretization:
    def test_validation(self):
        with pytest.raises(DomainError):
            Discretization(v_max=4.0, step=-0.1, R=4.0)
        with pytest.raises(ArgumentError):
            Discretization(v_max=4.0, step=0.3, R=4.0)
        with pytest.raises(DomainError):
            Discretization(v_max=4.0, step=2.0**-6, R=2.0)

    @pytest.mark.parametrize("v_max, step", [(4.0, 2.0**-28), (2.0**40, 1.0),
                                             (1e10, 1e-300)],
                             ids=["fine_step", "wide_grid", "node_count_past_floats"])
    def test_grid_too_large_is_rejected_before_allocation(self, v_max, step):
        # 2 n_half + 1 nodes past 2**27 words raise before any grid exists,
        # also when v_max / step overflows to inf
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="a batch may hold"):
                Discretization(v_max=v_max, step=step, R=v_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_grids_symmetric(self, disc):
        g = disc.grid
        np.testing.assert_allclose(g, -g[::-1], atol=0)


class TestTransform:
    def test_zero_maps_to_zero(self, disc):
        out = cosine_transform(disc, np.zeros(disc.n_half + 1))
        assert np.all(out == 0.0)

    def test_hardcore_transform_is_sinc(self, disc):
        half = hardcore_candidate(disc)[disc.n_half:]
        that = cosine_transform(disc, half)
        # DCT-I frequencies j / (2 v_max), up to the grid Nyquist 1 / (2 step)
        xi = np.arange(disc.n_half + 1) / (2.0 * disc.v_max)
        low = xi <= 8.0
        np.testing.assert_allclose(that[low], -np.sinc(xi[low]), atol=3e-4)
        assert np.min(that) >= -1.0 - 1e-9

    def test_double_application_normalization(self, disc):
        # DCT-I applied twice returns the input scaled by 2 * n_half * step^2
        rng = np.random.default_rng(5)
        x = rng.normal(size=disc.n_half + 1)
        twice = cosine_transform(disc, cosine_transform(disc, x))
        scale = 2.0 * disc.n_half * disc.step**2
        np.testing.assert_allclose(twice, scale * x, rtol=1e-8, atol=1e-10)

    def test_inverse_round_trip(self, disc):
        rng = np.random.default_rng(6)
        x = rng.normal(size=disc.n_half + 1)
        back = inverse_cosine_transform(disc, cosine_transform(disc, x))
        np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n_half", [1, 2, 3, 5, 7, 64, 100, 127, 128, 129, 255, 1000, 1023,
                                    4096, 5000])
def test_transforms_are_scipys_dct1_bit_for_bit(n_half):
    # scipy serves as the oracle here only: the package uses numpy's FFT
    from scipy.fft import dct, idct

    d = Discretization(v_max=n_half * 2.0**-3, step=2.0**-3, R=n_half * 2.0**-3)
    x = np.random.default_rng(n_half).normal(size=n_half + 1)
    assert np.array_equal(cosine_transform(d, x), d.step * dct(x, type=1))
    assert np.array_equal(inverse_cosine_transform(d, x), idct(x, type=1) / d.step)


class TestEvaluateCandidate:
    def test_flat_zero_profile(self, disc):
        cand = evaluate_candidate(np.zeros(2 * disc.n_half + 1), disc, K_LOG)
        assert cand.objective == 0.0
        assert cand.feasible_direct and cand.feasible_fourier
        assert cand.max_violation == 0.0

    def test_hardcore_objective(self, disc):
        cand = evaluate_candidate(hardcore_candidate(disc), disc, K_LOG)
        assert cand.feasible_direct and cand.feasible_fourier
        assert cand.objective == pytest.approx(-1.0 - math.log(2.0), abs=1e-3)

    def test_constant_minus_two_infeasible(self, disc):
        vals = np.full(2 * disc.n_half + 1, -2.0)
        cand = evaluate_candidate(vals, disc, K_LOG)
        assert not cand.feasible_direct
        direct_violation = max(0.0, -1.0 - float(np.min(vals)))
        assert direct_violation == pytest.approx(1.0, abs=1e-12)
        # the transform of a constant also dips below the band bound, so the
        # combined violation dominates the pointwise one
        assert cand.max_violation >= direct_violation

    def test_objective_recompute_consistency(self, disc):
        cand = evaluate_candidate(hardcore_candidate(disc), disc, K_RSZ)
        again = evaluate_candidate(cand.values, disc, K_RSZ)
        assert again.objective == pytest.approx(cand.objective, abs=1e-10)

    def test_odd_profiles_rejected(self, disc):
        vals = np.zeros(2 * disc.n_half + 1)
        vals[0] = 1.0
        with pytest.raises(ArgumentError):
            evaluate_candidate(vals, disc, K_LOG)

    def test_convex_combinations_stay_feasible(self, disc):
        a = hardcore_candidate(disc)
        b = np.zeros(2 * disc.n_half + 1)
        rng = np.random.default_rng(8)
        for _ in range(10):
            lam = rng.uniform()
            cand = evaluate_candidate(lam * a + (1 - lam) * b, disc, K_LOG)
            assert cand.max_violation <= 1e-9


class TestSolver:
    @pytest.mark.parametrize("kernel", [K_LOG, K_RSZ], ids=["log", "riesz"])
    def test_dominates_references(self, disc, kernel):
        best = minimize_t2(disc, kernel, iterations=150)
        hc = evaluate_candidate(hardcore_candidate(disc), disc, kernel)
        assert best.max_violation <= 1e-6
        assert best.objective <= min(0.0, hc.objective) + 1e-3
        # report self-consistency
        again = evaluate_candidate(best.values, disc, kernel)
        assert again.objective == pytest.approx(best.objective, abs=1e-8)

    def test_best_so_far_monotone(self, disc):
        short = minimize_t2(disc, K_RSZ, iterations=10)
        longer = minimize_t2(disc, K_RSZ, iterations=60)
        assert longer.objective <= short.objective + 1e-12

    def test_pushes_down_near_origin(self, disc):
        best = minimize_t2(disc, K_RSZ, iterations=150)
        center = best.values[disc.n_half]
        edge = best.values[int(disc.n_half * 1.9)]
        assert center <= -0.9
        assert center < edge
