import math
import re

import numpy as np
import pytest

from rieszlab import (
    ArgumentError,
    DomainError,
    GridSpec,
    Kernel,
    PointConfiguration,
    ProcessModel,
    Replicas,
    Seed,
    log_kernel,
    riesz_kernel,
    sample,
)
from rieszlab import quadrature
from rieszlab.core import (_check_batch, _replica_histogram, counts_in_cube, in_cube,
                           in_window, mean_stderr)


def _count(cfg, R):
    return np.count_nonzero(in_cube(cfg, R))


# a configuration is a batch of one replica, so both constructors check alike
ONE_REPLICA = pytest.mark.parametrize(
    "make", [PointConfiguration, lambda pts, R: Replicas(pts, [0, len(pts)], R)],
    ids=["configuration", "batch_of_one"])


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
            Kernel(3)  # no log kernel in d = 3
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


class TestIntegerFields:
    # one predicate (core._is_int) serves every integer field: a bool or a
    # float with a fractional part is refused with the field's own error
    @pytest.mark.parametrize("make, error, needle", [
        (lambda: Kernel(True), ArgumentError, "dimension must be an integer"),
        (lambda: riesz_kernel(0.5, True), ArgumentError, "dimension must be an integer"),
        (lambda: ProcessModel.poisson(True), ArgumentError, "take d in"),
        (lambda: ProcessModel.bernoulli_block(2, True), ArgumentError, "take d in"),
        (lambda: ProcessModel.bernoulli_block(True), DomainError, "integer k >= 1"),
        (lambda: ProcessModel.vibrating_lattice(True), DomainError, "integer k >= 1"),
        (lambda: sample(ProcessModel.poisson(1), 4.0, True, Seed(0)), ArgumentError,
         "number of replicas"),
        (lambda: GridSpec(4.0, 2.5), DomainError, "n_bins >= 2"),
    ], ids=["kernel_d_bool", "riesz_d_bool", "poisson_d_bool", "block_d_bool", "block_k_bool",
            "vibrating_k_bool", "replicas_bool", "n_bins_fraction"])
    def test_rejected(self, make, error, needle):
        with pytest.raises(error, match=needle):
            make()

    def test_numpy_integers_are_integers(self):
        assert ProcessModel.bernoulli_block(np.int64(2), np.int32(2)) == \
            ProcessModel.bernoulli_block(2, 2)
        assert riesz_kernel(1.0, np.int64(2)) == riesz_kernel(1.0, 2)
        assert type(ProcessModel.poisson(np.int64(2)).d) is type(log_kernel(np.int64(2)).d) is int
        assert GridSpec(4.0, np.int64(8)).n_bins == 8


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
    @ONE_REPLICA
    def test_membership_closed_exact(self, make):
        make(np.array([[1.0], [-1.0]]), 2.0)  # faces included
        with pytest.raises(DomainError):
            make(np.array([[1.0000001]]), 2.0)
        with pytest.raises(ArgumentError):
            make(np.array([[np.nan]]), 2.0)

    @ONE_REPLICA
    def test_side_must_be_positive(self, make):
        pts = np.zeros((0, 1))
        for R in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match="window side must be positive"):
                make(pts, R)

    @ONE_REPLICA
    def test_dimension_from_columns(self, make):
        assert make(np.zeros((3, 2)), 1.0).d == 2
        assert make(np.zeros(3), 1.0).d == 1
        assert make(np.zeros((0, 3)), 1.0).d == 3
        with pytest.raises(ArgumentError):
            make(np.zeros((2, 4)), 1.0)
        with pytest.raises(ArgumentError):
            make(np.zeros((2, 1, 1)), 1.0)

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
            in_cube(cfg, 3.0)

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
        # a batch of one replica
        assert len(batch[2]) == 1 and batch[2].offsets.tolist() == [0, 3]
        np.testing.assert_array_equal(batch[2].points, self.POINTS[1:])
        assert batch[1].n == 0 and batch[-1].n == 0 and batch[-4].n == 1
        assert batch[2].R == 2.0
        with pytest.raises(IndexError):
            batch[4]
        assert [cfg.n for cfg in batch] == [1, 0, 3, 0]

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
        assert counts_in_cube(batch, 2.0, 1).tolist() == [[1], [0], [3], [0]]
        assert counts_in_cube(batch, 1.0, 1).tolist() == [[1], [0], [1], [0]]
        # a point on a slab boundary counts in the upper slab, one on the
        # upper face in the last
        assert counts_in_cube(batch, 2.0, 4).tolist() == [[0, 0, 0, 1], [0, 0, 0, 0],
                                                          [1, 0, 1, 1], [0, 0, 0, 0]]
        with pytest.raises(DomainError):
            counts_in_cube(batch, 3.0, 1)

    @pytest.mark.parametrize("tiles", [2**25 + 1, 10**14, 10**400],
                             ids=["past_the_limit", "huge", "past_floats"])
    def test_counts_too_many_are_rejected_before_allocation(self, tiles,
                                                            rejected_before_allocation):
        # 4 replicas of more than 2**25 slabs are more than 2**27 words
        batch = self._batch()
        rejected_before_allocation(lambda: counts_in_cube(batch, 2.0, tiles))

    def test_batch_limit(self, rejected_before_allocation):
        _check_batch(2, 2**26)
        for n, count in ((2, 2**26 + 1), (1, math.inf), (10**400, 4)):
            with pytest.raises(DomainError, match="a batch may hold"):
                _check_batch(n, count)
        # an int count, even past the float range, to 15 significant digits
        for count, shown in ((2**27 + 1, "134217729"), (10**15 + 1, "1.00000000000000e+15"),
                             (10**400 + 1, "1.00000000000000e+400")):
            with pytest.raises(DomainError, match=rf"^1 x {re.escape(shown)} words "):
                _check_batch(1, count)
        one = np.zeros(1, dtype=np.int64)
        rejected_before_allocation(lambda: _replica_histogram(one, one, 2, 2**26 + 1))


class TestWindowRule:
    @pytest.mark.parametrize("d,s", [(1, 0.5), (2, 1.0), (3, 1.5)])
    def test_one_closed_window(self, d, s):
        # the faces, one ulp inside and outside them, and -0.0, on each axis:
        # the predicate, window counts, batch construction and the Riesz
        # point-background integral accept and reject the same points
        R = 3.0
        half = R / 2.0
        values = [half, -half, np.nextafter(half, 0.0), np.nextafter(-half, 0.0),
                  np.nextafter(half, np.inf), np.nextafter(-half, -np.inf), -0.0]
        pts = []
        for a in range(d):
            for v in values:
                p = np.full(d, 0.25)
                p[a] = v
                pts.append(p)
        pts += [np.full(d, half), np.full(d, -half), np.r_[np.full(d - 1, half),
                                                           np.nextafter(half, np.inf)]]
        pts = np.array(pts)
        want = np.all(np.abs(pts) <= half, axis=1)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(in_window(pts, half), want)
        batch = Replicas(pts, np.arange(len(pts) + 1), 2.0 * R)
        np.testing.assert_array_equal(in_cube(batch, R), want)
        np.testing.assert_array_equal(counts_in_cube(batch, R, 1)[:, 0], want)
        kernel = riesz_kernel(s, d)
        for p, inside in zip(pts, want):
            if inside:
                Replicas(p[None], [0, 1], R)
                assert np.isfinite(quadrature.point_background(kernel, p[None], R)).all()
            else:
                with pytest.raises(DomainError, match="outside the window"):
                    Replicas(p[None], [0, 1], R)
                with pytest.raises(ArgumentError, match="closed window"):
                    quadrature.point_background(kernel, p[None], R)

    def test_nan_is_outside(self):
        pts = np.array([[0.0, np.nan]])
        assert not in_window(pts, 1.0).any()
        with pytest.raises(ArgumentError, match="NaN"):
            Replicas(pts, [0, 1], 2.0)
        with pytest.raises(ArgumentError, match="closed window"):
            quadrature.point_background(riesz_kernel(1.0, 2), pts, 2.0)


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
