import math

import numpy as np
import pytest
from scipy import special

from rieszlab import (
    ArgumentError,
    DomainError,
    GapLaw,
    GridSpec,
    ProcessModel,
    Seed,
    crystallization_gap,
    estimate_rho2,
    free_energy_scan,
    kth_neighbor_density,
    renewal_entropy_rate,
    riesz_kernel,
    sample,
)
from rieszlab import onedim
from rieszlab.core import mean_stderr, points_in_cube

# quadrature-oracle values for the triangular gap laws, frozen; they agree
# with 1/2 + log(k/2) to rounding
HAT_ENTROPY_RATES = {
    2: 0.5,
    4: 1.1931471805599454,
    8: 1.8862943611198906,
    16: 2.5794415416798357,
}


class TestEntropyRate:
    def test_exponential_is_zero(self):
        assert abs(renewal_entropy_rate(GapLaw.exponential())) < 1e-8

    @pytest.mark.parametrize("theta", [0.5, 2.0, 4.0, 8.0])
    def test_gamma_closed_form(self, theta):
        # independent oracle: moments of the gamma law in closed form
        expected = (
            theta * math.log(theta)
            - float(special.gammaln(theta))
            + (theta - 1.0) * (float(special.digamma(theta)) - math.log(theta))
            - theta
            + 1.0
        )
        assert renewal_entropy_rate(GapLaw.gamma(theta)) == pytest.approx(expected, abs=1e-9)
        assert expected > 0.0

    def test_hat_frozen_table_and_growth(self):
        got = {k: renewal_entropy_rate(GapLaw.uniform_hat(k)) for k in HAT_ENTROPY_RATES}
        for k, expected in HAT_ENTROPY_RATES.items():
            assert got[k] == pytest.approx(expected, abs=1e-9)
        ks = sorted(got)
        increments = np.diff([got[k] for k in ks])
        # doubling k adds log 2: logarithmic growth
        np.testing.assert_allclose(increments, math.log(2.0), rtol=1e-8)

    def test_nonnegative_with_unique_zero(self):
        rates = [renewal_entropy_rate(GapLaw.gamma(t)) for t in (0.25, 0.5, 0.9, 1.1, 3.0, 16.0)]
        assert all(r > 0.0 for r in rates)


class TestKthNeighborDensity:
    def test_lattice_mass_at_k(self, replicas):
        samples = replicas(ProcessModel.lattice(1), 32.0, 40)
        nd = kth_neighbor_density(samples, 3, 32.0, 8.0)
        j = int(round(3.0 / nd.step))
        assert nd.values[j] * nd.step == pytest.approx(nd.total_mass, rel=1e-12)
        assert nd.total_mass == pytest.approx(1.0, abs=0.15)  # edge weighting

    def test_poisson_second_neighbor_is_gamma2(self, replicas):
        samples = replicas(ProcessModel.poisson(1), 48.0, 600, master=301)
        nd = kth_neighbor_density(samples, 2, 48.0, 12.0, step=1.0 / 8.0)
        pdf = nd.centers * np.exp(-nd.centers)
        # compare bin averages where the Monte Carlo error is meaningful
        good = nd.stderr > 1e-9
        dev = np.abs(nd.values - pdf)[good] / nd.stderr[good]
        assert np.mean(dev < 4.0) > 0.97
        assert nd.mean_position() == pytest.approx(2.0, abs=0.05)

    def test_renewal_first_neighbor_is_gap_density(self, replicas):
        gap = GapLaw.gamma(4.0)
        samples = replicas(ProcessModel.renewal(gap), 48.0, 600, master=303)
        nd = kth_neighbor_density(samples, 1, 48.0, 6.0, step=1.0 / 8.0)
        pdf = gap.density(nd.centers)
        good = nd.stderr > 1e-9
        dev = np.abs(nd.values - pdf)[good] / nd.stderr[good]
        assert np.mean(dev < 4.0) > 0.97

    def test_mean_positions_track_order(self, replicas):
        samples = replicas(ProcessModel.vibrating_lattice(4), 64.0, 200, master=305)
        for k in (1, 2, 5):
            nd = kth_neighbor_density(samples, k, 64.0, 16.0)
            assert nd.mean_position() == pytest.approx(float(k), abs=0.05)

    def test_decomposition_reconstructs_pair_density(self, replicas):
        # summing neighbor orders recovers the positive part of rho2
        samples = replicas(ProcessModel.poisson(1), 32.0, 500, master=307)
        total = None
        step = 1.0 / 8.0
        for k in range(1, 13):
            nd = kth_neighbor_density(samples, k, 32.0, 4.0, step=step)
            total = nd.values if total is None else total + nd.values
        est = estimate_rho2(samples, GridSpec(4.0, 64))
        # rho2 = 1 everywhere; the neighbor sum approximates it away from 0
        centers = step * np.arange(total.size)
        inner = (centers > 0.25) & (centers < 4.0 - 0.25)
        assert np.max(np.abs(total[inner] - 1.0)) < 0.1
        assert np.max(np.abs(est.values)) < 0.1

    def test_total_mass_grows_toward_one(self, replicas):
        samples = replicas(ProcessModel.poisson(1), 40.0, 150, master=309)
        masses = [kth_neighbor_density(samples, 3, 40.0, xm).total_mass
                  for xm in (2.0, 6.0, 12.0)]
        assert masses[0] < masses[1] < masses[2]
        assert masses[2] == pytest.approx(1.0, abs=0.05)
        assert masses[2] <= 1.0 + 0.05

    def test_domain_checks(self, replicas):
        samples = replicas(ProcessModel.poisson(1), 16.0, 5)
        with pytest.raises(DomainError):
            kth_neighbor_density(samples, 1, 16.0, 16.0)
        for k in (0, [], [2, 0]):
            with pytest.raises(ArgumentError):
                kth_neighbor_density(samples, k, 16.0, 4.0)
        for x_max, step in [(-2.0, 1.0 / 32.0), (4.0, 0.0), (4.0, -0.5)]:
            with pytest.raises(DomainError, match="neighbor grid"):
                kth_neighbor_density(samples, 1, 16.0, x_max, step)
        assert kth_neighbor_density(samples, 1, 16.0, 0.0).centers.tolist() == [0.0]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("R, L, x_max, step", [(4.0, 3.0, 2.0, 1.0 / 8.0),
                                                   (48.0, 40.0, 4.0, 0.5)],
                             ids=["empty_replicas", "dense_cells"])
    def test_batch_matches_replica_loop(self, k, R, L, x_max, step):
        # one sort for the whole batch; a loop over replicas is the reference,
        # bit for bit, in a window smaller than the sampling one: on a ragged
        # batch with empty replicas, and with many gaps per cell, where the
        # order of the additions shows in the sums
        batch = sample(ProcessModel.poisson(1), R, 120, Seed(9))
        assert R > 4.0 or (batch.counts == 0).any()
        nd = kth_neighbor_density(batch, k, L, x_max, step)
        per = np.zeros((len(batch), len(nd.centers)))
        for i, cfg in enumerate(batch):
            x = np.sort(points_in_cube(cfg, L)[:, 0])
            gaps = x[k:] - x[:-k]
            gaps = gaps[gaps < min(x_max + step / 2.0, L)]
            idx = np.clip(np.rint(gaps / step).astype(np.int64), 0, len(nd.centers) - 1)
            np.add.at(per[i], idx, 1.0 / (L * (1.0 - gaps / L) * step))
        values, stderr = mean_stderr(per)
        assert nd.values.tobytes() == values.tobytes()
        assert nd.stderr.tobytes() == stderr.tobytes()

    def test_orders_share_one_sort(self):
        # a sequence of orders gives, in its order, the densities that one
        # call per order gives, bit for bit
        batch = sample(ProcessModel.vibrating_lattice(4), 48.0, 60, Seed(5))
        many = kth_neighbor_density(batch, range(8, 0, -3), 40.0, 20.0)
        assert [nd.k for nd in many] == [8, 5, 2]
        for nd in many:
            one = kth_neighbor_density(batch, nd.k, 40.0, 20.0)
            for field in ("centers", "values", "stderr"):
                assert getattr(nd, field).tobytes() == getattr(one, field).tobytes()
            assert (nd.total_mass, nd.n_replicas) == (one.total_mass, one.n_replicas)

    def test_fewer_than_two_replicas_rejected(self, replicas):
        # one replica has no standard error; it must not be reported as 0
        samples = replicas(ProcessModel.poisson(1), 16.0, 1)
        for few in ([], samples):
            with pytest.raises(ArgumentError, match="at least 2 replicas"):
                kth_neighbor_density(few, 1, 16.0, 4.0)


class TestCrystallizationGap:
    def _densities(self, replicas, model, k_max=8, n=300, master=311):
        samples = replicas(model, 48.0, n, master=master)
        return [kth_neighbor_density(samples, k, 48.0, 20.0) for k in range(1, k_max + 1)]

    def test_exact_lattice_is_zero(self, replicas):
        dens = self._densities(replicas, ProcessModel.lattice(1), n=50)
        gap = crystallization_gap(dens, 0.5, 8)
        assert gap.value == 0.0
        assert gap.truncation_bound >= 0.0

    def test_strict_ordering(self, replicas):
        g_poisson = crystallization_gap(
            self._densities(replicas, ProcessModel.poisson(1), master=313), 0.5, 8)
        g_v4 = crystallization_gap(
            self._densities(replicas, ProcessModel.vibrating_lattice(4), master=317), 0.5, 8)
        g_v8 = crystallization_gap(
            self._densities(replicas, ProcessModel.vibrating_lattice(8), master=319), 0.5, 8)
        assert g_poisson.value > g_v4.value > g_v8.value > 0.0

    def test_missing_order_rejected(self, replicas):
        dens = self._densities(replicas, ProcessModel.poisson(1), k_max=3, n=20)
        with pytest.raises(ArgumentError):
            crystallization_gap(dens[:2] + dens[2:], 0.5, 5)


SCAN_GRID = [0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]


@pytest.fixture(scope="module")
def scans():
    kernel = riesz_kernel(0.5, 1)
    return {beta: free_energy_scan(beta, kernel, SCAN_GRID)
            for beta in (0.01, 1.0, 100.0)}


class TestFreeEnergyScan:
    GRID = SCAN_GRID

    def test_entries_combine_exactly(self, scans):
        for scan in scans.values():
            for theta, w, e, f, ok in scan.entries:
                if ok:
                    assert f == scan.beta * w + e

    def test_small_beta_near_memoryless(self, scans):
        scan = scans[0.01]
        grid_step = 0.5  # spacing of the scan grid around theta = 1
        assert abs(scan.argmin_theta - 1.0) <= grid_step

    def test_large_beta_hits_grid_top(self, scans):
        assert scans[100.0].argmin_theta == self.GRID[-1]

    def test_monotone_tradeoff(self, scans):
        a = [scans[b].argmin_theta for b in (0.01, 1.0, 100.0)]
        assert a[0] <= a[1] <= a[2]

    def test_energy_decreases_entropy_increases(self, scans):
        rows = [(t, w, e) for t, w, e, f, ok in scans[1.0].entries if ok and t >= 1.0]
        ws = [w for _, w, _ in rows]
        es = [e for _, _, e in rows]
        assert all(b <= a + 1e-12 for a, b in zip(ws, ws[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(es, es[1:]))

    def test_infeasible_shapes_marked(self):
        kernel = riesz_kernel(0.5, 1)
        scan = free_energy_scan(1.0, kernel, [0.4, 1.0, 2.0], R_list=(64.0, 128.0, 256.0))
        flags = {t: ok for t, _, _, _, ok in scan.entries}
        assert flags[0.4] is False and flags[1.0] is True

    def test_grid_must_contain_one(self):
        with pytest.raises(ArgumentError):
            free_energy_scan(1.0, riesz_kernel(0.5, 1), [0.5, 2.0])
        with pytest.raises(DomainError):
            free_energy_scan(-1.0, riesz_kernel(0.5, 1), [1.0, 2.0])


def _scan_bits(scan):
    # every number of a scan as hex, so that equality is bit for bit
    return ([tuple(x.hex() if isinstance(x, float) else x for x in e) for e in scan.entries],
            scan.argmin_theta.hex(), [b.hex() for b in scan.bracket])


class TestShapeMemo:
    KERNEL = riesz_kernel(0.5, 1)

    @staticmethod
    def _spy_shapes(monkeypatch):
        shapes = []
        real = onedim.rho2_analytic

        def spy(model):
            shapes.append(model.gap.theta)
            return real(model)

        monkeypatch.setattr(onedim, "rho2_analytic", spy)
        return shapes

    def test_second_beta_evaluates_only_its_golden_section_shapes(self, monkeypatch):
        onedim._shape_parts.cache_clear()
        free_energy_scan(1.0, self.KERNEL, SCAN_GRID)
        golden = []
        real_golden = onedim._golden_section

        def golden_spy(fn, lo, hi, tol):
            def recorded(theta):
                golden.append(theta)
                return fn(theta)
            return real_golden(recorded, lo, hi, tol)

        monkeypatch.setattr(onedim, "_golden_section", golden_spy)
        shapes = self._spy_shapes(monkeypatch)
        warm = free_energy_scan(0.01, self.KERNEL, SCAN_GRID)
        assert golden and shapes == golden
        onedim._shape_parts.cache_clear()
        cold = free_energy_scan(0.01, self.KERNEL, SCAN_GRID)
        assert _scan_bits(warm) == _scan_bits(cold)

    def test_divergent_shape_stays_infeasible(self, monkeypatch):
        onedim._shape_parts.cache_clear()
        grid, R_list = [0.4, 1.0, 2.0], (64.0, 128.0, 256.0)
        cold = free_energy_scan(1.0, self.KERNEL, grid, R_list=R_list)
        shapes = self._spy_shapes(monkeypatch)
        warm = free_energy_scan(1.0, self.KERNEL, grid, R_list=R_list)
        assert shapes == []
        assert [e[4] for e in warm.entries] == [False, True, True]
        assert _scan_bits(warm) == _scan_bits(cold)

    def test_too_narrow_gap_law_raises_every_call(self):
        onedim._shape_parts.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError, match="too narrow"):
                free_energy_scan(1.0, self.KERNEL, [1.0, 1e5])
