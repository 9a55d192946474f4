import itertools
import math

import numpy as np
import pytest

from rieszlab import (
    ArgumentError,
    DomainError,
    GapLaw,
    NotApplicableError,
    ProcessModel,
    Seed,
    rho2_analytic,
    sample,
)
from rieszlab import generators
from rieszlab._io import config_from_csv, config_to_csv
from rieszlab.generators import _sample_bernoulli_raw, replicas

ALL_MODELS = [
    ProcessModel.poisson(1),
    ProcessModel.poisson(2),
    ProcessModel.lattice(1),
    ProcessModel.lattice(2),
    ProcessModel.bernoulli_block(3, 1),
    ProcessModel.bernoulli_block(2, 2),
    ProcessModel.vibrating_lattice(4),
    ProcessModel.renewal(GapLaw.gamma(2.0)),
    ProcessModel.renewal(GapLaw.uniform_hat(4)),
]


class TestValidation:
    def test_dimension_pairing(self):
        with pytest.raises(ArgumentError):
            ProcessModel(ProcessModel.vibrating_lattice(4).variant, 2, k=4)

    def test_gap_laws(self):
        with pytest.raises(DomainError):
            GapLaw.gamma(0.0)
        with pytest.raises(DomainError):
            GapLaw.uniform_hat(1)  # gaps would go negative
        with pytest.raises(DomainError):
            ProcessModel.bernoulli_block(0, 1)
        # non-integers are rejected, not truncated
        for factory, k in [(ProcessModel.bernoulli_block, 2.5),
                           (ProcessModel.vibrating_lattice, 3.9), (GapLaw.uniform_hat, 2.7)]:
            with pytest.raises(DomainError, match="integer"):
                factory(k)
        assert ProcessModel.bernoulli_block(np.int64(2)) == ProcessModel.bernoulli_block(2)

    def test_gap_law_normalization(self):
        from scipy import integrate

        for law in (GapLaw.exponential(), GapLaw.gamma(3.0), GapLaw.uniform_hat(4)):
            mass, _ = integrate.quad(lambda t: float(law.density(np.array([t]))[0]), 0, 40)
            mean, _ = integrate.quad(lambda t: t * float(law.density(np.array([t]))[0]), 0, 40)
            assert mass == pytest.approx(1.0, abs=1e-9)
            assert mean == pytest.approx(1.0, abs=1e-9)
            assert float(law.cdf(np.array([40.0]))[0]) == pytest.approx(1.0, abs=1e-12)
            assert float(law.partial_mean(np.array([40.0]))[0]) == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_determinism_bit_identical(self):
        for model in ALL_MODELS:
            a = sample(model, 9.0, Seed(77, 3))
            b = sample(model, 9.0, Seed(77, 3))
            assert np.array_equal(a.points, b.points)
            c = sample(model, 9.0, Seed(77, 4))
            if a.n == c.n:
                assert not np.array_equal(a.points, c.points)

    def test_exponential_is_gamma_one(self):
        # Gamma(1) draws the exponential stream bit for bit, so renewal
        # configurations and the generate headers are those of the exponential law
        exponential = ProcessModel.renewal(GapLaw.exponential())
        gamma_one = ProcessModel.renewal(GapLaw.gamma(1.0))
        assert exponential.describe() == gamma_one.describe() == "renewal(exponential)"
        for replica in range(5):
            draws = GapLaw.gamma(1.0).sample(Seed(3, replica).rng(), 1000)
            np.testing.assert_array_equal(draws, Seed(3, replica).rng().exponential(1.0, 1000))
            a = sample(exponential, 40.0, Seed(9, replica))
            b = sample(gamma_one, 40.0, Seed(9, replica))
            np.testing.assert_array_equal(a.points, b.points)

    @pytest.mark.parametrize("model", ALL_MODELS + [ProcessModel.poisson(3)],
                             ids=lambda m: m.describe())
    def test_replicas_follow_the_seed_schedule(self, model):
        # replica j on rung i draws stream replica + i * n + j
        n, seed = 3, Seed(77, 5)
        for rung, R in enumerate((4.0, 6.0)):
            drawn = list(replicas(model, R, n, seed, rung))
            assert len(drawn) == n
            for j, cfg in enumerate(drawn):
                ref = sample(model, R, Seed(77, 5 + rung * n + j))
                assert cfg.R == ref.R
                np.testing.assert_array_equal(cfg.points, ref.points)

    def test_replicas_are_lazy(self, monkeypatch):
        real, calls = generators.sample, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(generators, "sample", counting)
        stream = replicas(ProcessModel.poisson(1), 8.0, 100, Seed(3))
        assert calls == []
        taken = list(itertools.islice(stream, 4))
        assert len(taken) == len(calls) == 4
        assert [args[2] for args in calls] == [Seed(3, j) for j in range(4)]

    def test_side_must_be_positive(self):
        for R in (0.0, -2.0):
            with pytest.raises(DomainError, match="window side must be positive"):
                sample(ProcessModel.poisson(1), R, Seed(0))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
    def test_unit_intensity(self, model):
        R = 16.0 if model.d == 1 else 8.0
        n_rep = 400
        counts = np.array(
            [sample(model, R, Seed(5, j)).n for j in range(n_rep)], dtype=float
        )
        vol = R**model.d
        stderr = max(counts.std(ddof=1) / math.sqrt(n_rep), 1e-12)
        assert abs(counts.mean() - vol) <= max(3.0 * stderr, 1e-9 * vol)

    def test_poisson_2d_mean_count(self):
        # mean count over replicas stays inside the 3 sigma Monte Carlo band
        counts = np.array(
            [sample(ProcessModel.poisson(2), 10.0, Seed(11, j)).n for j in range(10_000)],
            dtype=float,
        )
        band = 3.0 * counts.std(ddof=1) / 100.0
        assert abs(counts.mean() - 100.0) < band

    def test_lattice_exact_count(self):
        cfg = sample(ProcessModel.lattice(1), 7.0, Seed(1))
        assert cfg.n == 7

    def test_lattice_rigidity(self):
        cfg = sample(ProcessModel.lattice(1), 64.0, Seed(9))
        x = np.sort(cfg.points[:, 0])
        rng = np.random.default_rng(4)
        for _ in range(200):
            L = rng.uniform(0.5, 20.0)
            lo = rng.uniform(-32.0, 32.0 - L)
            n_in = int(np.sum((x >= lo) & (x <= lo + L)))
            assert math.floor(L) <= n_in <= math.ceil(L)

    def test_bernoulli_tiles_hold_exactly_k_points(self):
        k, R = 3, 18.0
        pts, shift = _sample_bernoulli_raw(k, R, 1, Seed(21).rng())
        x = pts[:, 0] - shift[0]
        tiles = np.floor(x / k)
        _, counts = np.unique(tiles, return_counts=True)
        assert np.all(counts == k)

    def test_block_mass_deficit(self):
        # normalized pair integral over the window approaches -1 with an
        # O(1/R) boundary correction, measured through the count variance
        model = ProcessModel.bernoulli_block(4, 1)
        R = 32.0
        counts = np.array(
            [sample(model, R, Seed(31, j)).n for j in range(3000)], dtype=float
        )
        pair_integral = np.mean(counts * (counts - 1.0)) - R * R
        assert abs(pair_integral / R - (-1.0)) < 0.25  # k/(3R) + MC wiggle

    def test_vibrating_stays_near_lattice(self):
        k = 8
        cfg = sample(ProcessModel.vibrating_lattice(k), 32.0, Seed(13))
        gaps = np.diff(np.sort(cfg.points[:, 0]))
        assert np.all(gaps >= 1.0 - 2.0 / k - 1e-12)
        assert np.all(gaps <= 1.0 + 2.0 / k + 1e-12)


class TestRho2Analytic:
    def test_poisson_flat(self):
        r2 = rho2_analytic(ProcessModel.poisson(1))
        v = np.linspace(0, 10, 11)
        assert np.all(r2.continuous_part(v) == 1.0)

    @pytest.mark.parametrize("k,d", [(2, 1), (4, 1), (2, 2)])
    def test_block_same_tile_value(self, k, d):
        r2 = rho2_analytic(ProcessModel.bernoulli_block(k, d))
        v0 = np.zeros(d) if d > 1 else np.array([0.0])
        assert float(np.atleast_1d(r2.continuous_part(v0))[0]) == pytest.approx(
            1.0 - 1.0 / k**d, rel=1e-14
        )

    def test_block_profile_1d(self):
        k = 4
        r2 = rho2_analytic(ProcessModel.bernoulli_block(k, 1))
        v = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
        expected = 1.0 - np.maximum(0.0, 1.0 - np.abs(v) / k) / k
        np.testing.assert_allclose(r2.continuous_part(v), expected, rtol=1e-14)

    def test_vibrating_support(self):
        k = 4
        r2 = rho2_analytic(ProcessModel.vibrating_lattice(k))
        v = np.linspace(0.0, 5.0, 2001)
        vals = r2.continuous_part(v)
        dist = np.abs(v[:, None] - np.arange(1.0, 8.0)[None, :]).min(axis=1)
        outside = dist > 2.0 / k + 1e-9
        assert np.all(vals[outside] == 0.0)
        # each bump integrates to one
        m1 = (v >= 1.0 - 2.0 / k) & (v <= 1.0 + 2.0 / k)
        assert np.trapezoid(vals[m1], v[m1]) == pytest.approx(1.0, abs=1e-3)

    def test_lattice_2d_not_applicable(self):
        # the energy routes integrate atoms in d = 1 only
        with pytest.raises(NotApplicableError, match="supported in d = 1 only"):
            rho2_analytic(ProcessModel.lattice(2))

    def test_renewal_exponential_is_flat(self):
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.exponential()))
        v = np.linspace(0.05, 30.0, 777)
        assert np.max(np.abs(r2.continuous_part(v) - 1.0)) < 5e-3
        assert np.max(np.abs(r2.continuous_part(v[v > 0.5]) - 1.0)) < 1e-6

    def test_renewal_gamma2_closed_form(self):
        # shape-2 gaps admit the closed renewal density 1 - exp(-4x)
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.gamma(2.0)))
        v = np.arange(1, 7000) * 2.0**-8
        err = np.abs(r2.continuous_part(v) - (1.0 - np.exp(-4.0 * v)))
        assert err.max() < 1e-4

    def test_renewal_hat_bumps(self):
        # near-lattice gaps: bumps at the integers that widen and melt into 1
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.uniform_hat(4)))
        assert r2.tail_flat
        v = np.linspace(0.05, 0.45, 41)
        assert np.max(r2.continuous_part(v)) < 1e-9  # below the gap support
        peak = np.linspace(0.9, 1.1, 41)
        assert np.max(r2.continuous_part(peak)) > 1.5

    @pytest.mark.parametrize(
        "model",
        [ProcessModel.poisson(1), ProcessModel.lattice(1),
         ProcessModel.bernoulli_block(4, 1), ProcessModel.vibrating_lattice(4),
         ProcessModel.renewal(GapLaw.gamma(2.0))],
        ids=lambda m: m.describe(),
    )
    def test_nonnegative_with_positive_atoms(self, model):
        r2 = rho2_analytic(model)
        v = np.linspace(0.0, 12.0, 4001)
        assert np.min(r2.continuous_part(v)) >= 0.0
        atoms = r2.atoms_upto(12.0)
        if atoms.size:
            assert np.all(atoms[:, 1] > 0.0) and np.all(atoms[:, 0] > 0.0)

    def test_empirical_rho2_matches_analytic(self, replicas):
        # cross-module consistency: binned pair statistics against the
        # analytic profile, block model
        from rieszlab import GridSpec, estimate_rho2

        model = ProcessModel.bernoulli_block(4, 1)
        est = estimate_rho2(replicas(model, 48.0, 400, master=8), GridSpec(6.0, 96))
        r2 = rho2_analytic(model)
        expected = r2.continuous_part(np.abs(est.centers)) - 1.0
        dev = np.abs(est.values - expected) / np.maximum(est.stderr, 1e-12)
        assert np.mean(dev < 4.0) > 0.98

    @pytest.mark.parametrize(
        "model",
        [ProcessModel.bernoulli_block(4, 1), ProcessModel.vibrating_lattice(4),
         ProcessModel.renewal(GapLaw.gamma(2.0))],
        ids=lambda m: m.describe(),
    )
    @pytest.mark.parametrize("R", [8.0, 16.0])
    def test_number_variance_matches_analytic(self, replicas, model, R):
        # E[(N_R - R)^2] = R + 2 int_0^R (rho2(v) - 1) (R - v) dv; the profile is
        # linear on each cell of nodes_upto(R), so Simpson's rule per cell is exact
        r2 = rho2_analytic(model)
        nodes = r2.nodes_upto(R)
        a, b = nodes[:-1], nodes[1:]

        def f(v):
            return (r2.continuous_part(v) - 1.0) * (R - v)

        expected = R + 2.0 * np.sum((b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b)))
        d2 = np.array([(s.n - R) ** 2 for s in replicas(model, R, 4000, master=33)])
        stderr = d2.std(ddof=1) / math.sqrt(d2.size)
        assert abs(d2.mean() - expected) < 4.0 * stderr


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        cfg = sample(ProcessModel.renewal(GapLaw.gamma(3.0)), 12.0, Seed(2, 5))
        path = tmp_path / "cfg.csv"
        config_to_csv(cfg, path, model="renewal(gamma,theta=3)", seed="2:5")
        back = config_from_csv(path)
        assert back.R == cfg.R
        assert back.d == cfg.d
        np.testing.assert_array_equal(back.points, cfg.points)
        text = path.read_text()
        assert "# model=renewal(gamma,theta=3)" in text
        assert "# seed=2:5" in text
        assert "# center" not in text  # the window is always the centred cube
