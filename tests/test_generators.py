import math
import sys
from pathlib import Path

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
from rieszlab.generators import GapLawKind, Variant, _draw_bernoulli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import THETA_GRID  # noqa: E402  (the shapes of the benchmark's freemin scan)

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
# every variant, in every dimension its sampler has, and both renewal gap laws
SCHEDULE_MODELS = ALL_MODELS + [
    ProcessModel.poisson(3),
    ProcessModel.lattice(3),
    ProcessModel.bernoulli_block(2, 3),
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

    @pytest.mark.parametrize("make, field", [
        (lambda: ProcessModel(Variant.BERNOULLI_BLOCK, 1, k=2, gap=GapLaw.gamma(2.0)), "gap"),
        (lambda: ProcessModel(Variant.VIBRATING_LATTICE, 1, k=4, gap=GapLaw.gamma(2.0)), "gap"),
        (lambda: ProcessModel(Variant.POISSON, 1, gap=GapLaw.gamma(2.0)), "gap"),
        (lambda: ProcessModel(Variant.RENEWAL, 1, k=5, gap=GapLaw.gamma(2.0)), "k"),
        (lambda: GapLaw(GapLawKind.UNIFORM_HAT, theta=2.0, k=3), "theta"),
        (lambda: GapLaw(GapLawKind.GAMMA, theta=2.0, k=3), "k"),
    ], ids=["block_gap", "vibrating_gap", "poisson_gap", "renewal_k", "hat_theta", "gamma_k"])
    def test_stray_parameter_rejected(self, make, field):
        # a parameter the variant or gap-law kind does not take is an error,
        # named in the message, not a field that is ignored
        with pytest.raises(ArgumentError, match=f"takes no {field}$"):
            make()

    @pytest.mark.parametrize("make, field", [
        (lambda: ProcessModel(Variant.BERNOULLI_BLOCK, 2), "k"),
        (lambda: ProcessModel(Variant.VIBRATING_LATTICE, 1), "k"),
        (lambda: GapLaw(GapLawKind.GAMMA), "theta"),
        (lambda: GapLaw(GapLawKind.UNIFORM_HAT), "k"),
    ], ids=["block_k", "vibrating_k", "gamma_theta", "hat_k"])
    def test_missing_parameter_rejected(self, make, field):
        # a missing parameter is an argument error; a k out of range stays a
        # domain error (test_gap_laws)
        with pytest.raises(ArgumentError, match=f"requires {field}$"):
            make()

    def test_gap_law_normalization(self):
        from scipy import integrate, stats

        # scipy.stats' laws of mean 1: Gamma(theta) at rate theta, and the
        # triangle of half-width 2/k = 1/2 about 1
        laws = [(GapLaw.exponential(), stats.expon()),
                (GapLaw.gamma(3.0), stats.gamma(3.0, scale=1.0 / 3.0)),
                (GapLaw.uniform_hat(4), stats.triang(0.5, loc=0.5, scale=1.0))]
        x = np.linspace(0.0, 4.0, 33)
        for law, ref in laws:
            np.testing.assert_allclose(law.cdf(x), ref.cdf(x), rtol=0.0, atol=1e-14)
            first_moment = [integrate.quad(lambda t: t * ref.pdf(t), 0.0, b,
                                           points=[0.5, 1.0, 1.5])[0] for b in x[1:]]
            np.testing.assert_allclose(law.partial_mean(x[1:]), first_moment, rtol=0.0,
                                       atol=1e-12)
            assert float(law.cdf(np.array([40.0]))[0]) == pytest.approx(1.0, abs=1e-12)
            assert float(law.partial_mean(np.array([40.0]))[0]) == pytest.approx(1.0, abs=1e-12)


def _numpy_rng(master: int, replica: int) -> np.random.Generator:
    """Stream ``Seed(master, replica)`` built by numpy alone, independent of
    the seeding code under test."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master, spawn_key=(replica,)))


def _reference_draw(model: ProcessModel, R: float, rng: np.random.Generator) -> np.ndarray:
    """One replica drawn from ``rng`` replica by replica, as the samplers drew
    before they drew whole batches: the reference for the batch draws."""
    half, d = R / 2.0, model.d
    if model.variant is Variant.POISSON:
        n = rng.poisson(R**d)
        return rng.uniform(-half, half, size=(n, d))
    if model.variant is Variant.LATTICE:
        u = rng.uniform(0.0, 1.0, d)
        axes = [np.arange(math.ceil(-half - u[a]), math.floor(half - u[a]) + 1, dtype=float)
                + u[a] for a in range(d)]
        return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    if model.variant is Variant.BERNOULLI_BLOCK:
        k = model.k
        u = rng.uniform(0.0, float(k), d)
        ranges = [np.arange(math.floor((-half - u[a]) / k), math.floor((half - u[a]) / k) + 1)
                  for a in range(d)]
        grids = np.meshgrid(*ranges, indexing="ij")
        origins = np.stack([g.ravel() for g in grids], axis=1) * float(k)
        pts = rng.uniform(0.0, float(k), size=(origins.shape[0], k**d, d))
        pts = (pts + origins[:, None, :] + u[None, None, :]).reshape(-1, d)
        return pts[np.all(np.abs(pts) <= half, axis=1)]
    if model.variant is Variant.VIBRATING_LATTICE:
        amp = 1.0 / model.k
        u = rng.uniform(0.0, 1.0)
        m = np.arange(math.ceil(-half - u - amp), math.floor(half - u + amp) + 1, dtype=float)
        pts = m + u + rng.uniform(-amp, amp, m.size)
        return pts[np.abs(pts) <= half][:, None]
    gap = model.gap
    margin = float(math.ceil(max(10.0, 10.0 * gap.std)))
    u = rng.uniform(0.0, margin)
    start, target = -half - margin, half + margin
    gaps = np.empty(0)
    while not gaps.size or start + np.cumsum(gaps)[-1] < target:
        gaps = np.concatenate([gaps, _reference_gaps(gap, rng, 64)])
    pts = np.concatenate([[start], start + np.cumsum(gaps)]) + u
    return pts[(pts >= -half) & (pts <= half)][:, None]


def _reference_gaps(gap: GapLaw, rng: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` gaps of ``gap`` from ``rng``, one after another."""
    if gap.kind is GapLawKind.GAMMA:
        return rng.gamma(gap.theta, 1.0 / gap.theta, count)
    v = rng.uniform(-1.0 / gap.k, 1.0 / gap.k, 2 * count)
    return 1.0 + v[0::2] - v[1::2]


class TestSampling:
    def test_determinism_bit_identical(self):
        for model in ALL_MODELS:
            a = sample(model, 9.0, 1, Seed(77, 3))[0]
            b = sample(model, 9.0, 1, Seed(77, 3))[0]
            assert np.array_equal(a.points, b.points)
            c = sample(model, 9.0, 1, Seed(77, 4))[0]
            if a.n == c.n:
                assert not np.array_equal(a.points, c.points)

    def test_exponential_is_gamma_one(self):
        # Gamma(1) draws the exponential stream bit for bit, so renewal
        # configurations and the generate headers are those of the exponential law
        exponential = ProcessModel.renewal(GapLaw.exponential())
        gamma_one = ProcessModel.renewal(GapLaw.gamma(1.0))
        assert exponential.describe() == gamma_one.describe() == "renewal(exponential)"
        a = sample(exponential, 40.0, 5, Seed(9))
        b = sample(gamma_one, 40.0, 5, Seed(9))
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.points, b.points)
        for j in range(5):
            # the margin is 10 mean gaps; 1000 gaps reach far past the window
            rng = _numpy_rng(9, j)
            u = rng.uniform(0.0, 10.0)
            pts = (-30.0 + np.cumsum(rng.exponential(1.0, 1000))) + u
            assert b[j].points.tobytes() == pts[(pts >= -20.0) & (pts <= 20.0)].tobytes()

    @pytest.mark.parametrize("model", SCHEDULE_MODELS, ids=lambda m: m.describe())
    def test_replicas_follow_the_seed_schedule(self, model):
        # replica j of a batch from Seed(77, first) draws stream first + j,
        # the points of a one-replica draw from that stream bit for bit.  The
        # sides are R = 0.5 (a batch with empty replicas), integer and
        # non-integer R, and R at a tile boundary and just past it (the tile
        # side is k for blocks, else 1)
        tile = model.k if model.variant is Variant.BERNOULLI_BLOCK else 1
        for R in (0.5, 4.0, 6.5, 3.0 * tile, 3.0 * tile + 1e-9):
            for n, firsts in ((1, (5, 6)), (2, (5, 7)), (257, (262,))):
                for first in firsts:
                    batch = sample(model, R, n, Seed(77, first))
                    assert len(batch) == n and batch.R == R and batch.d == model.d
                    assert batch.n == batch.points.shape[0] == batch.counts.sum()
                    for j in range(n):
                        ref = _reference_draw(model, R, _numpy_rng(77, first + j))
                        assert batch[j].R == R
                        assert batch[j].points.tobytes() == ref.tobytes()
                        assert batch.counts[j] == len(ref)

    @pytest.mark.parametrize("model", [ProcessModel.bernoulli_block(4),
                                       ProcessModel.bernoulli_block(2, 2),
                                       ProcessModel.bernoulli_block(2, 3),
                                       ProcessModel.vibrating_lattice(8)],
                             ids=lambda m: m.describe())
    def test_grid_draws_read_again_when_rounding_adds_a_cell(self, model, monkeypatch):
        # the grid draws read the words of the most tiles R allows and read
        # again when a replica needs more; too small a bound only costs time
        expected = [sample(model, R, 9, Seed(8, 9)) for R in (6.0, 7.5, 16.0)]
        monkeypatch.setattr(generators, "_span_cells", lambda length: math.ceil(length) - 1)
        for R, want in zip((6.0, 7.5, 16.0), expected):
            got = sample(model, R, 9, Seed(8, 9))
            np.testing.assert_array_equal(got.offsets, want.offsets)
            assert got.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("gap", [GapLaw.gamma(0.4), GapLaw.gamma(2.0),
                                     GapLaw.uniform_hat(4)],
                             ids=["gamma0.4", "gamma2", "hat4"])
    def test_renewal_replicas_whose_first_block_falls_short(self, gap, monkeypatch):
        # a first read of a tenth of the gaps leaves replicas short of the
        # window's far side, and the batch is read again with twice the gaps
        # until every replica reaches the far end; a first read of three times
        # the gaps reaches it at once.  Gaps are read and summed in turn and
        # positions past the far end are clipped, so no point moves
        model, R, n = ProcessModel.renewal(gap), 6.0, 128
        want = sample(model, R, n, Seed(4))
        for j in range(n):
            ref = _reference_draw(model, R, _numpy_rng(4, j))
            assert want[j].points.tobytes() == ref.tobytes()
        block = generators._renewal_block
        margin = float(math.ceil(max(10.0, 10.0 * gap.std)))
        first = int(0.1 * block(R + 2.0 * margin))
        ends = []
        for j in range(n):
            rng = _numpy_rng(4, j)
            rng.uniform(0.0, margin)  # the phase
            ends.append(-R / 2.0 - margin + np.cumsum(_reference_gaps(gap, rng, first))[-1])
        assert min(ends) < R / 2.0
        for factor in (0.1, 3.0):
            monkeypatch.setattr(generators, "_renewal_block",
                                lambda span, factor=factor: int(factor * block(span)))
            got = sample(model, R, n, Seed(4))
            np.testing.assert_array_equal(got.offsets, want.offsets)
            assert got.points.tobytes() == want.points.tobytes()
            for j in range(n):
                alone = sample(model, R, 1, Seed(4, j))
                assert alone.points.tobytes() == got[j].points.tobytes()

    def test_poisson_rung_with_empty_replicas(self):
        batch = sample(ProcessModel.poisson(1), 0.5, 40, Seed(3, 40))
        assert (batch.counts == 0).any() and (batch.counts > 0).any()
        for j in range(len(batch)):
            ref = _reference_draw(ProcessModel.poisson(1), 0.5, _numpy_rng(3, 40 + j))
            assert batch[j].points.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
    def test_a_replica_does_not_depend_on_its_batch(self, model):
        # replicas 3..8 of a batch of 12 are the batch of 6 that starts at its
        # stream 3
        whole = sample(model, 7.0, 12, Seed(5, 2 + 12))
        part = sample(model, 7.0, 6, Seed(5, 2 + 12 + 3))
        rows = whole.offsets[3:10]
        np.testing.assert_array_equal(rows - rows[0], part.offsets)
        assert whole.points[rows[0]:rows[-1]].tobytes() == part.points.tobytes()

    def test_replica_count_must_be_positive(self):
        for n in (0, -1, 2.0):
            with pytest.raises(ArgumentError, match="number of replicas"):
                sample(ProcessModel.poisson(1), 4.0, n, Seed(0))

    @pytest.mark.parametrize("model,R", [
        (ProcessModel.bernoulli_block(1000, 3), 1.0),
        (ProcessModel.lattice(3), 1e4),
        (ProcessModel.vibrating_lattice(4), 1e12),
        (ProcessModel.renewal(GapLaw.gamma(2.0)), 1e9),
        (ProcessModel.renewal(GapLaw.uniform_hat(4)), 1e9),
        (ProcessModel.poisson(3), 1e7),
        (ProcessModel.poisson(1), 2.0**28),
        (ProcessModel.poisson(2), 1e200),
        (ProcessModel.lattice(1), 1e19),
        (ProcessModel.lattice(1), 1e20),
        (ProcessModel.lattice(2), 1e300),
    ], ids=["block_words", "lattice_cells", "vibrating_words", "gamma_gaps", "hat_gaps",
            "poisson_mean_past_numpy", "poisson_words", "poisson_mean_past_floats",
            "lattice_side_1e19", "lattice_side_1e20", "lattice_2d_side_1e300"])
    def test_a_batch_too_large_is_rejected_before_allocation(self, model, R):
        # each needs far more than 2**27 words: 3 * 10**9 for a block of side
        # 1000 in d = 3 however small the window, 3 * 10**12 for the lattice
        # cells, and a word per site or gap of a line 10**9 or 10**12 long;
        # a Poisson window holds about R**d points of d words, 3 * 10**21
        # (past what numpy's Poisson draw takes), 2**28 or 10**400; a lattice
        # window past 2**63 cells a side is rejected before its int64 bounds
        with pytest.raises(DomainError, match="a batch may hold"):
            sample(model, R, 1, Seed(0))

    def test_seed_words_too_many_are_rejected_before_allocation(self,
                                                                rejected_before_allocation):
        # 2**28 replicas of 4 seed words each, however small the window
        rejected_before_allocation(
            lambda: sample(ProcessModel.lattice(1), 0.5, 2**28, Seed(0)))

    def test_poisson_bound_counts_every_replica(self):
        # a batch holds 2**27 words: 128 replicas of 2**20 mean words, not 200
        assert len(sample(ProcessModel.poisson(1), 2.0**20, 2, Seed(0))) == 2
        with pytest.raises(DomainError, match="a batch may hold"):
            sample(ProcessModel.poisson(1), 2.0**20, 200, Seed(0))

    def test_side_must_be_positive(self):
        for R in (0.0, -2.0):
            with pytest.raises(DomainError, match="window side must be positive"):
                sample(ProcessModel.poisson(1), R, 1, Seed(0))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
    def test_unit_intensity(self, model):
        R = 16.0 if model.d == 1 else 8.0
        n_rep = 400
        counts = sample(model, R, n_rep, Seed(5)).counts.astype(float)
        vol = R**model.d
        stderr = max(counts.std(ddof=1) / math.sqrt(n_rep), 1e-12)
        assert abs(counts.mean() - vol) <= max(3.0 * stderr, 1e-9 * vol)

    def test_poisson_2d_mean_count(self):
        # mean count over replicas stays inside the 3 sigma Monte Carlo band
        counts = sample(ProcessModel.poisson(2), 10.0, 10_000, Seed(11)).counts.astype(float)
        band = 3.0 * counts.std(ddof=1) / 100.0
        assert abs(counts.mean() - 100.0) < band

    def test_lattice_exact_count(self):
        assert sample(ProcessModel.lattice(1), 7.0, 1, Seed(1)).n == 7

    def test_lattice_rigidity(self):
        cfg = sample(ProcessModel.lattice(1), 64.0, 1, Seed(9))[0]
        x = np.sort(cfg.points[:, 0])
        rng = np.random.default_rng(4)
        for _ in range(200):
            L = rng.uniform(0.5, 20.0)
            lo = rng.uniform(-32.0, 32.0 - L)
            n_in = int(np.sum((x >= lo) & (x <= lo + L)))
            assert math.floor(L) <= n_in <= math.ceil(L)

    def test_bernoulli_tiles_hold_exactly_k_points(self, monkeypatch):
        # all tile points before the clip (no point is outside), less the shift
        # u (the stream's first draw)
        monkeypatch.setattr(generators, "in_window",
                            lambda pts, half: np.ones(pts.shape[:-1], bool))
        k, R = 3, 18.0
        pts, counts = _draw_bernoulli(ProcessModel.bernoulli_block(k), R,
                                      generators._seed_states(21, 0, 3))
        for j, replica in enumerate(np.split(pts[:, 0], np.cumsum(counts)[:-1])):
            x = replica - _numpy_rng(21, j).uniform(0.0, float(k), 1)[0]
            _, per_tile = np.unique(np.floor(x / k), return_counts=True)
            assert np.all(per_tile == k)

    def test_block_mass_deficit(self):
        # normalized pair integral over the window approaches -1 with an
        # O(1/R) boundary correction, measured through the count variance
        model = ProcessModel.bernoulli_block(4, 1)
        R = 32.0
        counts = sample(model, R, 3000, Seed(31)).counts.astype(float)
        pair_integral = np.mean(counts * (counts - 1.0)) - R * R
        assert abs(pair_integral / R - (-1.0)) < 0.25  # k/(3R) + MC wiggle

    def test_vibrating_stays_near_lattice(self):
        k = 8
        cfg = sample(ProcessModel.vibrating_lattice(k), 32.0, 1, Seed(13))[0]
        gaps = np.diff(np.sort(cfg.points[:, 0]))
        assert np.all(gaps >= 1.0 - 2.0 / k - 1e-12)
        assert np.all(gaps <= 1.0 + 2.0 / k + 1e-12)


class TestSeedStreams:
    MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    # (first replica, batch size): the ids 0, 1, 2**31, 2**32 - 1, 2**32 and
    # 2**33 + 7, with batches that cross 2**32 and 2**64
    BATCHES = [(0, 2), (2**31, 1), (2**32 - 2, 4), (2**33 + 7, 1), (2**64 - 1, 2)]

    def test_domain(self):
        with pytest.raises(ArgumentError, match="nonnegative"):
            Seed(1, -1)
        for master, replica in [(1.0, 0), (1, 2.0), ("1", 0), (True, 0), (1, None)]:
            with pytest.raises(ArgumentError, match="must be an integer"):
                Seed(master, replica)
        assert Seed(np.int64(3), np.uint32(2)) == Seed(3, 2)
        assert type(Seed(np.int64(3)).master) is int

    def test_states_are_numpys_seed_sequence_states(self):
        for master in self.MASTERS:
            for first, n in self.BATCHES:
                states = generators._seed_states(master, first, n)
                assert states.shape == (n, 4) and states.dtype == np.uint64
                for j in range(n):
                    ref = np.random.SeedSequence(entropy=master, spawn_key=(first + j,))
                    assert states[j].tobytes() == ref.generate_state(4, np.uint64).tobytes()

    def test_one_replica_calls_with_a_cached_pool(self):
        # the master's pool is cached and read-only: repeated calls, and
        # masters equal mod 2**64, keep numpy's states bit for bit
        for _ in range(2):
            for master in (0, 2**32 + 5, 2**64 + 7, -1):
                for first, n in ((0, 1), (9, 3)):
                    states = generators._seed_states(master, first, n)
                    for j in range(n):
                        ref = np.random.SeedSequence(master % 2**64, spawn_key=(first + j,))
                        assert states[j].tobytes() == ref.generate_state(4, np.uint64).tobytes()
        assert not generators._master_pool(5).flags.writeable

    def test_masters_are_taken_mod_2_to_the_64(self):
        np.testing.assert_array_equal(generators._seed_states(-3, 5, 3),
                                      generators._seed_states(2**64 - 3, 5, 3))

    def test_streams_draw_as_numpy_default_rng(self):
        # a stream's bit generator reads the raw words of numpy's default_rng,
        # and a Generator on it draws as default_rng does
        for master in self.MASTERS:
            for first, n in self.BATCHES:
                for j, state in enumerate(generators._seed_states(master, first, n)):
                    raw = generators._stream(state).random_raw(100)
                    ref = _numpy_rng(master, first + j).bit_generator.random_raw(100)
                    assert raw.tobytes() == ref.tobytes()
                    rng = np.random.Generator(generators._stream(state))
                    ref = _numpy_rng(master, first + j).random(100)
                    assert rng.random(100).tobytes() == ref.tobytes()

    def test_raw_words_convert_as_generator_uniform(self):
        # Generator.uniform(low, high) is low + (high - low) * (word >> 11) * 2**-53
        # on the stream's raw words, bit for bit: scalar draws and (m, d)
        # shapes, at the bounds the samplers use
        bounds = [(0.0, 1.0), (0.0, 3.0), (0.0, 4.0), (-3.25, 3.25), (-32.0, 32.0),
                  (-1.0 / 7.0, 1.0 / 7.0), (-0.25, 0.25), (0.0, 10.0), (0.0, 12.0)]
        for j in range(2000):
            low, high = bounds[j % len(bounds)]
            ref, raw = _numpy_rng(5, j), _numpy_rng(5, j).bit_generator
            got = generators._uniform(raw.random_raw(1), low, high)
            assert got.tobytes() == np.float64(ref.uniform(low, high)).tobytes()
            shape = (j % 5, 1 + j % 3)
            got = generators._uniform(raw.random_raw(shape), low, high)
            assert got.shape == shape
            assert got.tobytes() == ref.uniform(low, high, shape).tobytes()

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
    def test_sample_builds_no_seed_sequence(self, model, monkeypatch):
        # no SeedSequence per replica: once the master's pool is cached, a
        # batch builds none at all
        def refuse(*args, **kwargs):
            raise AssertionError("sample built a SeedSequence")

        expected = sample(model, 6.0, 5, Seed(4, 19))
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        batch = sample(model, 6.0, 5, Seed(4, 19))
        np.testing.assert_array_equal(batch.offsets, expected.offsets)
        assert batch.points.tobytes() == expected.points.tobytes()


    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
    def test_a_cold_pool_builds_one_seed_sequence(self, model, monkeypatch):
        # the master's pool is numpy's SeedSequence(master).pool: one build
        # for a batch of 257 replicas, none per replica, and the same points
        warm = sample(model, 6.0, 257, Seed(12, 3))
        built, real = [], np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        generators._master_pool.cache_clear()
        monkeypatch.setattr(np.random, "SeedSequence", counting)
        cold = sample(model, 6.0, 257, Seed(12, 3))
        assert built == [(12,)]
        np.testing.assert_array_equal(cold.offsets, warm.offsets)
        assert cold.points.tobytes() == warm.points.tobytes()


def _full_deposit(gap, m):
    """The cloud-in-cell deposit of ``gap`` onto nodes 0 .. m, built from the
    law's cdf and partial mean on all m + 2 edges of the grid."""
    h = generators._RENEWAL_STEP
    edges = np.arange(m + 2) * h
    mass = np.diff(gap.cdf(edges))
    moment = np.diff(gap.partial_mean(edges))
    q = np.zeros(m + 2)
    idx = np.nonzero(mass > 0.0)[0]
    frac = np.clip(moment[idx] / mass[idx] / h - idx, 0.0, 1.0)
    np.add.at(q, idx, mass[idx] * (1.0 - frac))
    np.add.at(q, idx + 1, mass[idx] * frac)
    return q[: m + 1]


def _spy_gap_law_reads(monkeypatch):
    """The largest point of each call to ``GapLaw.cdf`` and ``partial_mean``."""
    args = []
    for name in ("cdf", "partial_mean"):
        real = getattr(GapLaw, name)

        def spy(self, x, real=real):
            args.append(float(np.max(x)))
            return real(self, x)

        monkeypatch.setattr(GapLaw, name, spy)
    return args


class TestRho2Analytic:
    def test_poisson_flat(self):
        r2 = rho2_analytic(ProcessModel.poisson(1))
        v = np.linspace(0, 10, 11)
        assert np.all(r2.continuous_part(v) == 1.0)

    @pytest.mark.parametrize("k,d", [(2, 1), (4, 1), (2, 2)])
    def test_block_same_tile_value(self, k, d):
        r2 = rho2_analytic(ProcessModel.bernoulli_block(k, d))
        if d == 1:
            value = float(r2.continuous_part(np.array([0.0]))[0])
        else:
            # d >= 2 routes read the block side: rho2(0) = 1 - k^-d prod_i (1 - 0/k)
            value = 1.0 - r2.block ** -d
        assert value == pytest.approx(1.0 - 1.0 / k**d, rel=1e-14)

    @pytest.mark.parametrize("model", [ProcessModel.poisson(2), ProcessModel.poisson(3),
                                       ProcessModel.bernoulli_block(2, 2)],
                             ids=lambda m: m.describe())
    def test_continuous_part_is_one_dimensional(self, model):
        # in d >= 2 no route reads the density; a call must not return the d = 1 formula
        with pytest.raises(NotApplicableError, match="d = 1 only"):
            rho2_analytic(model).continuous_part(np.zeros((3, model.d)))

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

    @pytest.mark.parametrize("model, positions", [
        (ProcessModel.lattice(1), lambda r2, limit: r2.atoms_upto(limit)),
        (ProcessModel.vibrating_lattice(4), lambda r2, limit: r2.nodes_upto(limit)),
    ], ids=["lattice_atoms", "vibrating_nodes"])
    def test_ladder_too_long_is_rejected_before_allocation(self, model, positions):
        # a unit atom per integer up to 2**37, or four nodes per integer up to
        # 2**26, is more than 2**27 words; the rung of 2**18 stays far below
        import tracemalloc

        r2 = rho2_analytic(model)
        assert positions(r2, 2.0**18).size >= 2**18
        for limit in (2.0**26 if model.variant is Variant.VIBRATING_LATTICE else 2.0**28,
                      2.0**37):
            tracemalloc.start()
            try:
                with pytest.raises(DomainError, match="a batch may hold"):
                    positions(r2, limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16

    def test_renewal_exponential_is_flat(self):
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.exponential()))
        v = np.linspace(0.05, 30.0, 777)
        assert np.max(np.abs(r2.continuous_part(v) - 1.0)) < 5e-3
        assert np.max(np.abs(r2.continuous_part(v[v > 0.5]) - 1.0)) < 1e-9

    def test_renewal_gamma2_closed_form(self):
        # shape-2 gaps admit the closed renewal density 1 - exp(-4x)
        r2 = rho2_analytic(ProcessModel.renewal(GapLaw.gamma(2.0)))
        v = np.arange(1, 7000) * 2.0**-8
        err = np.abs(r2.continuous_part(v) - (1.0 - np.exp(-4.0 * v)))
        assert err.max() < 1e-4

    @pytest.mark.parametrize(
        "gap",
        [GapLaw.gamma(0.2), GapLaw.gamma(0.4), GapLaw.gamma(0.75), GapLaw.gamma(1.0),
         GapLaw.gamma(2.0), GapLaw.gamma(8.0), GapLaw.gamma(32.0), GapLaw.gamma(48.0),
         GapLaw.uniform_hat(2), GapLaw.uniform_hat(3), GapLaw.uniform_hat(8)],
        ids=["gamma0.2", "gamma0.4", "gamma0.75", "gamma1", "gamma2", "gamma8", "gamma32",
             "gamma48", "hat2", "hat3", "hat8"])
    def test_renewal_grid_solves_the_recursion(self, gap):
        # the same cloud-in-cell deposit q, then u = q + q * u solved node by
        # node: (1 - q_0) u_n = q_n + sum_{0 < j <= n} q_j u_{n - j}; the
        # deposit's trailing zeros are left out of the filter, which they do
        # not change
        from scipy import signal

        grid, vals, _ = generators._renewal_density_grid(gap)
        h, m = grid[1], len(grid) - 1
        q = np.trim_zeros(_full_deposit(gap, m), "b")
        impulse = np.zeros(m + 1)
        impulse[0] = 1.0
        exact = signal.lfilter(q, np.r_[1.0 - q[0], -q[1:]], impulse) / h
        assert np.max(np.abs(vals[1:] - np.maximum(exact[1:], 0.0))) < 1e-12

    @pytest.mark.parametrize("gap", [GapLaw.gamma(0.2), GapLaw.gamma(0.4), GapLaw.gamma(2.0),
                                     GapLaw.uniform_hat(3)],
                             ids=["gamma0.2", "gamma0.4", "gamma2", "hat3"])
    def test_renewal_plateau_is_the_root_near_one(self, gap):
        # lam solves sum_j q_j lam^-j = 1 (found here by bracketing), and c is
        # 1 / sum_j j q_j lam^-j; a deposit of full mass has lam = 1 exactly
        from scipy import optimize

        m = int(generators._RENEWAL_V_MAX / generators._RENEWAL_STEP)
        q = _full_deposit(gap, m)
        j = np.arange(m + 1)
        lam, c = generators._renewal_plateau(q)
        if q.sum() == 1.0:
            assert lam == 1.0
        else:
            root = optimize.brentq(lambda x: q @ x ** -j - 1.0, 0.99, 1.0 + 1e-9, xtol=1e-16)
            assert abs(lam - root) < 1e-15
        assert abs(c * (j * q @ lam ** -j) - 1.0) < 1e-13

    @pytest.mark.parametrize("gap", [GapLaw.gamma(0.4), GapLaw.gamma(2.0), GapLaw.gamma(32.0),
                                     GapLaw.uniform_hat(4)],
                             ids=["gamma0.4", "gamma2", "gamma32", "hat4"])
    def test_renewal_grid_reads_gap_law_up_to_v_max(self, gap, monkeypatch):
        # gaps are positive, so the density on [0, v_max] needs the law there only
        args = _spy_gap_law_reads(monkeypatch)
        grid, _, _ = generators._renewal_density_grid(gap)
        assert max(args) <= grid[-1] + generators._RENEWAL_STEP

    @pytest.mark.parametrize("gap", [GapLaw.gamma(32.0), GapLaw.uniform_hat(4)],
                             ids=["gamma32", "hat4"])
    def test_renewal_grid_reads_gap_law_only_where_it_has_mass(self, gap, monkeypatch):
        # past Gamma's 2^-60 upper quantile, or the hat's support, every cell's
        # mass is 0 in floating point, so the law is not read there
        from scipy import stats

        if gap.kind is GapLawKind.GAMMA:
            end = stats.gamma.isf(2.0**-60, gap.theta, scale=1.0 / gap.theta)
        else:
            end = 1.0 + 2.0 / gap.k
        args = _spy_gap_law_reads(monkeypatch)
        generators._renewal_density_grid(gap)
        assert max(args) <= end + generators._RENEWAL_STEP

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_renewal_deposit_is_the_full_deposit_bit_for_bit(self, theta):
        # the cells left unread would have deposited exactly nothing
        gap = GapLaw.gamma(theta)
        grid, _, _ = generators._renewal_density_grid(gap)
        m = len(grid) - 1
        q, first_mass = generators._renewal_deposit(gap, m)
        assert np.array_equal(q, _full_deposit(gap, m))
        assert first_mass == gap.cdf(grid[1]) - gap.cdf(0.0)

    def test_fft_length_is_scipys_next_fast_len(self):
        # scipy serves as the oracle here only: the package uses numpy's FFT
        from scipy.fft import next_fast_len

        for target in range(1, 2**16 + 1):
            assert generators._fft_length(target) == next_fast_len(target), target
        for v_max in range(32, generators._RENEWAL_V_LIMIT + 1):
            target = 3 * (int(v_max / generators._RENEWAL_STEP) + 1)
            assert generators._fft_length(target) == next_fast_len(target), v_max

    @pytest.mark.parametrize("gap", [GapLaw.gamma(0.75), GapLaw.gamma(2.0), GapLaw.gamma(32.0),
                                     GapLaw.uniform_hat(3)],
                             ids=["gamma0.75", "gamma2", "gamma32", "hat3"])
    def test_renewal_grid_divides_in_place_bit_for_bit(self, gap, monkeypatch):
        # the spectrum the inverse FFT reads is F / (1 - F) out of place, bit
        # for bit, at scipy's fast length, and the grid is its inverse FFT
        # less the closed-form wrap-around of the plateau
        from scipy.fft import next_fast_len

        spectra, inverses = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def rfft_spy(a, n):
            spectra.append(rfft(a, n))
            return spectra[-1].copy()

        def irfft_spy(a, n):
            inverses.append((a.copy(), n))
            return irfft(a, n)

        monkeypatch.setattr(np.fft, "rfft", rfft_spy)
        monkeypatch.setattr(np.fft, "irfft", irfft_spy)
        grid, vals, _ = generators._renewal_density_grid(gap)
        monkeypatch.undo()
        (F,), ((divided, n),) = spectra, inverses
        m = len(grid) - 1
        assert n == next_fast_len(3 * (m + 1))
        assert np.array_equal(divided, F / (1.0 - F))
        eps = generators._RENEWAL_DAMPING
        damp = eps ** (np.arange(m + 1) / m)
        lam, c = generators._renewal_plateau(_full_deposit(gap, m))
        r = eps ** (n / m) * lam**n
        wrap = c * r / (1.0 - r) * lam ** np.arange(m + 1)
        u = (np.fft.irfft(F / (1.0 - F), n)[: m + 1] / damp - wrap) / grid[1]
        assert np.array_equal(vals[1:], np.maximum(u, 0.0)[1:])

    def test_renewal_grid_rejects_narrow_gap_laws(self):
        # the grid would outgrow memory; reject before allocating it
        with pytest.raises(DomainError, match="too narrow"):
            rho2_analytic(ProcessModel.renewal(GapLaw.uniform_hat(200)))

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
        assert atoms.ndim == 1 and np.all(atoms > 0.0)

    @pytest.mark.parametrize("R", [0.5, 1.0, 7.5, 12.0])
    def test_lattice_atoms_are_unit_masses_at_the_integers(self, R):
        atoms = rho2_analytic(ProcessModel.lattice(1)).atoms_upto(R)
        assert atoms.shape == (math.floor(R),)
        assert atoms.tobytes() == np.arange(1.0, math.floor(R) + 1.0).tobytes()

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
        d2 = (replicas(model, R, 4000, master=33).counts - R) ** 2
        stderr = d2.std(ddof=1) / math.sqrt(d2.size)
        assert abs(d2.mean() - expected) < 4.0 * stderr


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        cfg = sample(ProcessModel.renewal(GapLaw.gamma(3.0)), 12.0, 1, Seed(2, 5))[0]
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
