import math

import numpy as np
import pytest

from rieszlab import (
    ArgumentError,
    DomainError,
    Kernel,
    KernelFamily,
    PointConfiguration,
    ProcessModel,
    Seed,
    SingularityError,
    discrepancy,
    kernel_eval,
    log_kernel,
    psi_weight,
    riesz_kernel,
    sample,
    tent_weight,
)
from rieszlab.core import mean_stderr


class TestKernel:
    def test_eval_examples(self):
        assert kernel_eval(log_kernel(1), 1.0) == 0.0
        assert kernel_eval(riesz_kernel(0.5, 1), 4.0) == pytest.approx(0.5, abs=1e-15)
        assert kernel_eval(log_kernel(2), (math.e, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_vector_is_singular(self):
        with pytest.raises(SingularityError):
            kernel_eval(log_kernel(1), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            kernel_eval(log_kernel(2), 1.0)

    def test_radiality(self):
        rng = np.random.default_rng(7)
        for k in (log_kernel(1), riesz_kernel(0.5, 1), log_kernel(2), riesz_kernel(1.0, 2)):
            for _ in range(50):
                v = rng.normal(size=k.d)
                if np.all(v == 0):
                    continue
                assert kernel_eval(k, v) == pytest.approx(kernel_eval(k, -v), rel=1e-15)

    def test_validity_constraints(self):
        with pytest.raises(ArgumentError):
            Kernel(KernelFamily.LOG1D, 2)
        with pytest.raises(ArgumentError):
            Kernel(KernelFamily.LOG2D, 1)
        with pytest.raises(DomainError):
            riesz_kernel(0.0, 1)  # s = 0 is not a log synonym
        with pytest.raises(DomainError):
            riesz_kernel(1.2, 1)  # s >= d
        with pytest.raises(DomainError):
            riesz_kernel(0.5, 3)  # below d - 2
        assert riesz_kernel(1.0, 3).s == 1.0

    def test_decreasing_in_radius(self):
        r = np.linspace(0.25, 8.0, 50)
        for k in (log_kernel(1), riesz_kernel(0.7, 1)):
            g = k.g(r)
            assert np.all(np.diff(g) < 0)


class TestTentWeight:
    def test_examples(self):
        assert tent_weight((0.0, 0.0), 10.0) == 100.0
        assert tent_weight((10.0, 3.0), 10.0) == 0.0
        assert tent_weight((3.0,), 10.0) == 7.0

    def test_out_of_support(self):
        with pytest.raises(DomainError):
            tent_weight((10.5,), 10.0)

    def test_normalized_range_and_symmetry(self):
        rng = np.random.default_rng(3)
        R = 5.0
        for _ in range(100):
            v = rng.uniform(-R, R, size=2)
            w = tent_weight(v, R)
            assert 0.0 <= w / R**2 <= 1.0
            assert w == pytest.approx(tent_weight(-v, R), rel=1e-15)
            assert w == pytest.approx(tent_weight(v[::-1], R), rel=1e-15)
            assert w / R**2 == pytest.approx(np.prod(1.0 - np.abs(v) / R), rel=1e-12)


class TestPsiWeight:
    def test_examples(self):
        assert psi_weight(log_kernel(1), 1.0, 10.0) == 0.0
        assert psi_weight(riesz_kernel(0.5, 1), 4.0, 8.0) == pytest.approx(0.5, abs=1e-15)
        assert psi_weight(riesz_kernel(0.5, 1), 8.0, 8.0) == 0.0
        assert psi_weight(log_kernel(1), 10.0, 10.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_weight(log_kernel(1), 0.0, 10.0)
        with pytest.raises(DomainError):
            psi_weight(log_kernel(1), 11.0, 10.0)
        with pytest.raises(ArgumentError):
            psi_weight(log_kernel(2), 1.0, 10.0)

    @pytest.mark.parametrize("kernel", [log_kernel(1), riesz_kernel(0.3, 1), riesz_kernel(0.9, 1)])
    def test_discrete_convexity(self, kernel):
        R = 16.0
        x = np.linspace(0.05, R, 400)
        psi = np.array([psi_weight(kernel, xi, R) for xi in x])
        second = psi[2:] - 2.0 * psi[1:-1] + psi[:-2]
        assert np.all(second >= -1e-12)


class TestConfigurationsAndDiscrepancy:
    def test_membership_closed_exact(self):
        PointConfiguration(np.array([[1.0], [-1.0]]), 2.0)  # faces included
        with pytest.raises(DomainError):
            PointConfiguration(np.array([[1.0000001]]), 2.0)
        with pytest.raises(ArgumentError):
            PointConfiguration(np.array([[np.nan]]), 2.0)

    def test_side_must_be_positive(self):
        pts = np.zeros((0, 1))
        for R in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match="window side must be positive"):
                PointConfiguration(pts, R)

    def test_dimension_from_columns(self):
        assert PointConfiguration(np.zeros((3, 2)), 1.0).d == 2
        assert PointConfiguration(np.zeros(3), 1.0).d == 1
        assert PointConfiguration(np.zeros((0, 3)), 1.0).d == 3
        with pytest.raises(ArgumentError):
            PointConfiguration(np.zeros((2, 4)), 1.0)

    def test_empty_window_count(self):
        cfg = PointConfiguration(np.empty((0, 1)), 4.0)
        st = discrepancy(cfg, 2.0)
        assert st.n == 0 and st.discrepancy == -2.0

    def test_lattice_integer_window(self):
        cfg = sample(ProcessModel.lattice(1), 9.0, Seed(2))
        st = discrepancy(cfg, 5.0)
        assert st.n == 5 and st.discrepancy == 0.0

    def test_poisson_variance_matches_volume(self, replicas):
        # independent oracle: for unit-intensity memoryless samples the pair
        # integral vanishes, so E[D_R^2] = R^d
        samples = replicas(ProcessModel.poisson(1), 4.0, 3000, master=42)
        d2 = np.array([discrepancy(s, 4.0).discrepancy ** 2 for s in samples])
        stderr = d2.std(ddof=1) / math.sqrt(len(d2))
        assert abs(d2.mean() - 4.0) < 4.0 * stderr

    def test_window_larger_than_config_rejected(self):
        cfg = PointConfiguration(np.array([[0.0]]), 2.0)
        with pytest.raises(DomainError):
            discrepancy(cfg, 3.0)

    def test_tile_additivity(self):
        # counts over a partition into tiles reproduce the whole-window count
        cfg = sample(ProcessModel.poisson(1), 8.0, Seed(3))
        whole = discrepancy(cfg, 8.0)
        parts = 0
        for c in (-3.0, -1.0, 1.0, 3.0):
            shifted = PointConfiguration(cfg.points - c, 8.0 + 2 * abs(c))
            parts += discrepancy(shifted, 2.0).n
        assert parts == whole.n
        assert whole.discrepancy == whole.n - 8.0


class TestMeanStderr:
    def test_matches_numpy_formula(self):
        rng = np.random.default_rng(5)
        for per in (rng.normal(size=7), rng.normal(size=(9, 4))):
            mean, stderr = mean_stderr(per)
            np.testing.assert_array_equal(mean, per.mean(axis=0))
            np.testing.assert_array_equal(stderr, per.std(axis=0, ddof=1) / math.sqrt(len(per)))
        mean, stderr = mean_stderr([1.0, 2.0, 4.0])
        assert mean == pytest.approx(7.0 / 3.0)
        assert stderr == pytest.approx(math.sqrt(7.0 / 3.0 / 3.0))

    def test_fewer_than_two_replicas_rejected(self):
        for per in ([], [1.0], np.ones((1, 5))):
            with pytest.raises(ArgumentError,
                               match="at least 2 replicas are required for a standard error"):
                mean_stderr(per)
