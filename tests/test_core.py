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
    Replicas,
    Seed,
    log_kernel,
    riesz_kernel,
    sample,
)
from rieszlab.core import counts_in_cube, mean_stderr, points_in_cube


def _count(cfg, R):
    return points_in_cube(cfg, R).shape[0]


class TestKernel:
    def test_eval_examples(self):
        assert log_kernel(1).g(1.0) == 0.0
        assert riesz_kernel(0.5, 1).g(4.0) == pytest.approx(0.5, abs=1e-15)
        assert log_kernel(2).g(math.e) == pytest.approx(-1.0, abs=1e-15)

    def test_radiality(self):
        # the pair and angular sums evaluate g in place at the squared radius;
        # here at those of 50 random vectors per kernel
        rng = np.random.default_rng(7)
        for k in (log_kernel(1), riesz_kernel(0.5, 1), log_kernel(2), riesz_kernel(1.0, 2)):
            v = rng.normal(size=(50, k.d))
            r2 = np.einsum("ij,ij->i", v, v)
            want = k.g(np.linalg.norm(v, axis=1))
            assert k.g_sq(r2) is r2
            assert r2 == pytest.approx(want, rel=1e-15, abs=1e-15)

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


class TestPsiWeight:
    # psi_R(x) = (2/R) g(x) (R - x), the paper's d = 1 boundary-weighted kernel
    @pytest.mark.parametrize("kernel", [log_kernel(1), riesz_kernel(0.3, 1), riesz_kernel(0.9, 1)])
    def test_discrete_convexity(self, kernel):
        R = 16.0
        x = np.linspace(0.05, R, 400)
        psi = (2.0 / R) * kernel.g(x) * (R - x)
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
        assert _count(cfg, 2.0) == 0

    def test_lattice_integer_window(self):
        cfg = sample(ProcessModel.lattice(1), 9.0, 1, Seed(2))[0]
        assert _count(cfg, 5.0) == 5

    def test_poisson_variance_matches_volume(self, replicas):
        # independent oracle: for unit-intensity memoryless samples the pair
        # integral vanishes, so E[D_R^2] = R^d
        samples = replicas(ProcessModel.poisson(1), 4.0, 3000, master=42)
        d2 = np.array([(_count(s, 4.0) - 4.0) ** 2 for s in samples])
        stderr = d2.std(ddof=1) / math.sqrt(len(d2))
        assert abs(d2.mean() - 4.0) < 4.0 * stderr

    def test_window_larger_than_config_rejected(self):
        cfg = PointConfiguration(np.array([[0.0]]), 2.0)
        with pytest.raises(DomainError):
            points_in_cube(cfg, 3.0)

    def test_tile_additivity(self):
        # counts over a partition into tiles reproduce the whole-window count
        cfg = sample(ProcessModel.poisson(1), 8.0, 1, Seed(3))[0]
        whole = _count(cfg, 8.0)
        parts = 0
        for c in (-3.0, -1.0, 1.0, 3.0):
            shifted = PointConfiguration(cfg.points - c, 8.0 + 2 * abs(c))
            parts += _count(shifted, 2.0)
        assert parts == whole


class TestReplicas:
    POINTS = np.array([[0.5], [-1.0], [1.0], [0.25]])

    def _batch(self):
        # replicas of 1, 0, 3 and 0 points
        return Replicas(self.POINTS, [0, 1, 1, 4, 4], 2.0)

    def test_sizes(self):
        batch = self._batch()
        assert len(batch) == 4 and batch.n == 4 and batch.d == 1 and batch.R == 2.0
        assert batch.counts.tolist() == [1, 0, 3, 0]

    def test_index_gives_a_configuration(self):
        batch = self._batch()
        assert isinstance(batch[2], PointConfiguration)
        np.testing.assert_array_equal(batch[2].points, self.POINTS[1:])
        assert batch[1].n == 0 and batch[-1].n == 0 and batch[-4].n == 1
        assert batch[2].R == 2.0
        with pytest.raises(IndexError):
            batch[4]
        assert [cfg.n for cfg in batch] == [1, 0, 3, 0]

    def test_slice_gives_a_batch(self):
        part = self._batch()[1:3]
        assert isinstance(part, Replicas) and part.R == 2.0
        assert part.offsets.tolist() == [0, 0, 3]
        np.testing.assert_array_equal(part.points, self.POINTS[1:])
        assert len(self._batch()[3:1]) == 0 and self._batch()[3:1].n == 0
        with pytest.raises(ArgumentError, match="consecutive"):
            self._batch()[::2]

    def test_checks_run_on_the_whole_batch(self):
        with pytest.raises(DomainError, match="outside the window"):
            Replicas(self.POINTS, [0, 1, 1, 4, 4], 1.5)
        with pytest.raises(ArgumentError, match="NaN"):
            Replicas(np.array([[0.0], [np.nan]]), [0, 1, 2], 2.0)
        with pytest.raises(DomainError, match="window side must be positive"):
            Replicas(self.POINTS, [0, 4], 0.0)
        for offsets in ([1, 4], [0, 3], [0, 3, 2, 4], [], [[0, 4]], [0.0, 4.0]):
            with pytest.raises(ArgumentError, match="offsets"):
                Replicas(self.POINTS, offsets, 2.0)

    def test_window_counts(self):
        batch = self._batch()
        assert counts_in_cube(batch, 2.0).tolist() == [1, 0, 3, 0]
        assert counts_in_cube(batch, 1.0).tolist() == [1, 0, 1, 0]
        with pytest.raises(DomainError):
            counts_in_cube(batch, 3.0)


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
