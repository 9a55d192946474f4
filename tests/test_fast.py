"""The blocked pair kernels against a naive double loop over i < j."""

import math

import numpy as np
import pytest

from rieszlab import _fast, log_kernel, riesz_kernel

N_MULTI_BLOCK = 300  # spans several blocks of _fast._PAIR_BUDGET pairs


def _kernel(family, s):
    # family 0 is the logarithmic kernel, 1 the Riesz kernel with exponent s;
    # pair_sum reads only g of the squared distance, so a d = 1 kernel serves
    # points of every dimension
    return log_kernel(1) if family == 0 else riesz_kernel(s, 1)


def _naive_pair_sum(pts, family, s):
    total, min_r2 = 0.0, math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            r2 = float(np.sum((pts[j] - pts[i]) ** 2))
            min_r2 = min(min_r2, r2)
            if r2 > 0.0:
                total += -0.5 * math.log(r2) if family == 0 else r2 ** (-0.5 * s)
    return total, min_r2


def _naive_signed(x, v_max, n_bins, R):
    # each unordered pair is binned at its separation |v| >= 0 and mirrored,
    # as if x were sorted; order matters only on a bin edge
    acc = np.zeros(n_bins)
    bw = 2.0 * v_max / n_bins
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            v = abs(x[j] - x[i])
            if v < v_max:
                idx = min(max(math.floor((v + v_max) / bw), 0), n_bins - 1)
                acc[idx] += 1.0 / (R - v)
                acc[n_bins - 1 - idx] += 1.0 / (R - v)
    return acc


def _naive_radial(pts, v_max, n_bins, R):
    acc = np.zeros(n_bins)
    bw = v_max / n_bins
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = pts[j] - pts[i]
            r = math.sqrt(float(np.sum(diff**2)))
            if 0.0 < r < v_max:
                acc[min(math.floor(r / bw), n_bins - 1)] += 2.0 / float(np.prod(R - np.abs(diff)))
    return acc


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


def test_multi_block_size_spans_several_blocks():
    assert N_MULTI_BLOCK * (N_MULTI_BLOCK - 1) // 2 > 2 * _fast._PAIR_BUDGET


@pytest.mark.parametrize("n", [0, 1, 2, N_MULTI_BLOCK])
@pytest.mark.parametrize("family,s", [(0, 0.0), (1, 0.5)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_sum_matches_naive(rng, n, family, s, d):
    pts = rng.uniform(-10, 10, size=(n, d))
    total, min_r2 = _fast.pair_sum(pts, _kernel(family, s))
    ref_total, ref_min = _naive_pair_sum(pts, family, s)
    assert total == pytest.approx(ref_total, rel=1e-12, abs=1e-300)
    assert min_r2 == pytest.approx(ref_min, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, N_MULTI_BLOCK])
def test_bin_pairs_signed_matches_naive(rng, n):
    # unsorted input: the kernel sorts it, so the order of x does not matter
    x = rng.uniform(-32, 32, n)
    if n == 2:
        x = np.array([2.5, -1.0])  # one pair inside v_max, on a bin edge
    got = _fast.bin_pairs_signed(x, 8.0, 64, 64.0)
    np.testing.assert_allclose(got, _naive_signed(x, 8.0, 64, 64.0), rtol=1e-12, atol=0.0)
    assert got.tobytes() == _fast.bin_pairs_signed(np.sort(x), 8.0, 64, 64.0).tobytes()
    if n >= 2:
        assert got.sum() > 0.0


@pytest.mark.parametrize("n", [0, 1, 2, N_MULTI_BLOCK])
@pytest.mark.parametrize("d", [2, 3])
def test_bin_pairs_radial_matches_naive(rng, n, d):
    pts = rng.uniform(-8, 8, size=(n, d))
    if n == 2:
        pts = np.array([[0.0] * d, [1.5] * d])
    got = _fast.bin_pairs_radial(pts, 4.0, 32, 16.0)
    np.testing.assert_allclose(got, _naive_radial(pts, 4.0, 32, 16.0), rtol=1e-12, atol=0.0)
    if n >= 2:
        assert got.sum() > 0.0


@pytest.mark.parametrize("family,s", [(0, 0.0), (1, 0.5)])
def test_coincident_pair_is_left_out(family, s):
    pts = np.array([[1.0], [1.0], [2.0], [4.0]])
    total, min_r2 = _fast.pair_sum(pts, _kernel(family, s))
    assert min_r2 == 0.0
    assert math.isfinite(total)
    ref_total, _ = _naive_pair_sum(pts, family, s)
    assert total == pytest.approx(ref_total, rel=1e-12)


def test_coincident_pair_in_a_later_block(rng):
    pts = rng.uniform(-10, 10, size=(N_MULTI_BLOCK, 2))
    pts[-1] = pts[-2]
    total, min_r2 = _fast.pair_sum(pts, riesz_kernel(0.5, 1))
    assert min_r2 == 0.0
    assert total == pytest.approx(_naive_pair_sum(pts, 1, 0.5)[0], rel=1e-12)


EXACT_KERNELS = [log_kernel(1), log_kernel(2), riesz_kernel(0.25, 1), riesz_kernel(0.5, 1),
                 riesz_kernel(1.0, 2), riesz_kernel(1.5, 3)]
EXACT_IDS = ["log1d", "log2d", "riesz0.25_1d", "riesz0.5_1d", "riesz1_2d", "riesz1.5_3d"]


def _exact_pair_sum(pts, kernel):
    i, j = np.triu_indices(len(pts), 1)
    r = np.sqrt(np.sum((pts[j] - pts[i]) ** 2, axis=1))
    return math.fsum(kernel.g(r[r > 0.0]))


@pytest.mark.parametrize("kernel", EXACT_KERNELS, ids=EXACT_IDS)
def test_pair_sums_match_exact_sum(rng, kernel):
    # a ragged batch: empty and single sets, sets of equal size stacked
    # together, the largest set whose triangle is one block, the next size,
    # and a set walked in several blocks; one set holds a coincident pair
    sizes = [0, 1, 2, 7, 7, 7, 40, 3, 40, 181, 182, 400]
    assert 181**2 <= _fast._SUM_BUDGET < 182**2 and 400 * 399 // 2 > 2 * _fast._SUM_BUDGET
    batch = [rng.uniform(-10, 10, size=(n, kernel.d)) for n in sizes]
    batch[4][5] = batch[4][2]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    sums, min_r2 = _fast.pair_sums(np.concatenate(batch), offsets, kernel)
    for b, pts in enumerate(batch):
        assert sums[b] == pytest.approx(_exact_pair_sum(pts, kernel), rel=1e-13, abs=1e-300)
        if len(pts) > 1:
            i, j = np.triu_indices(len(pts), 1)
            assert min_r2[b] == pytest.approx(np.min(np.sum((pts[j] - pts[i]) ** 2, axis=1)),
                                              rel=1e-15)
        else:
            assert min_r2[b] == math.inf
        assert _fast.pair_sum(pts, kernel) == (sums[b], min_r2[b])
    assert min_r2[4] == 0.0 and math.isfinite(sums[4])


def test_coincident_pair_is_not_binned():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    got = _fast.bin_pairs_radial(pts, 4.0, 8, 16.0)
    np.testing.assert_allclose(got, _naive_radial(pts, 4.0, 8, 16.0), rtol=1e-12, atol=0.0)


def _frozen_full_walk(pts, budget):
    # the every-pair block schedule that pair_sums has always walked, kept
    # here as the reference for the default reach of _upper_pairs
    n = pts.shape[-1]
    i0 = 0
    while i0 < n - 1:
        rows = min(n - i0, max(1, budget // (n - i0)))
        i1 = i0 + rows
        block = pts[..., i0:i1]
        if rows > 1:
            i, j = np.triu_indices(rows, 1)
            yield np.take(block, j, axis=-1) - np.take(block, i, axis=-1)
        if i1 < n:
            rect = pts[..., None, i1:] - block[..., :, None]
            yield rect.reshape(*pts.shape[:-1], -1)
        i0 = i1


@pytest.mark.parametrize("shape", [(1, 2), (2, 181), (3, 182), (1, 2048), (2, 4, 7),
                                   (1, 3, 181), (3, 2, 182)])
def test_full_walk_keeps_its_block_schedule(rng, shape):
    # with the default reach the blocks, their order and their values are
    # those of the frozen schedule, so pair_sums and every energy ladder stay
    # bit-identical
    pts = rng.uniform(-10, 10, size=shape)
    got = list(_fast._upper_pairs(pts, _fast._SUM_BUDGET))
    ref = list(_frozen_full_walk(pts, _fast._SUM_BUDGET))
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()


def _banded(x, reach):
    # (separation, index distance) of every walked pair within reach, sorted
    pts = np.stack([x, np.arange(len(x), dtype=float)])
    found = []
    for diff in _fast._upper_pairs(pts, reach=reach):
        assert diff.shape[1] <= 2 * _fast._PAIR_BUDGET
        found += zip(*diff[:, diff[0] <= reach])
    return sorted(found)


def test_band_walk_is_bounded_and_complete(rng):
    # a sparse stretch, one partner per row, then a dense cluster: the blocks
    # that reach into the cluster are halved until they fit, and every pair
    # within reach is walked exactly once
    x = np.sort(np.concatenate([rng.uniform(0.0, 1000.0, 200),
                                rng.uniform(1000.0, 1000.5, 600)]))
    i, j = np.triu_indices(len(x), 1)
    near = x[j] - x[i] <= 1.0
    assert _banded(x, 1.0) == sorted(zip((x[j] - x[i])[near], (j - i)[near].astype(float)))


def _band_check(pts, v_max, n_bins, R):
    # both kernels (the signed one in d = 1) against the naive double loops
    if pts.shape[1] == 1:
        got = _fast.bin_pairs_signed(pts[:, 0], v_max, n_bins, R)
        ref = _naive_signed(pts[:, 0], v_max, n_bins, R)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    got = _fast.bin_pairs_radial(pts, v_max, n_bins, R)
    ref = _naive_radial(pts, v_max, n_bins, R)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    return got


@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_edge_separation(d):
    # about every base point b, a pair exactly v_max apart is not binned and
    # a pair one step of the float grid closer is binned, also where it
    # straddles the end of a block (rows 127 and 128); no other pair lies
    # within v_max
    v_max, R = 0.75, 4.0
    base = 10.0 * np.arange(100)
    closer = np.nextafter(base + v_max, -np.inf)
    pts = np.zeros((1 + 3 * len(base), d))
    pts[:, 0] = np.concatenate([[-100.0], base - v_max, base, closer])
    got = _band_check(pts, v_max, 8, R)
    tents = (R - (closer - base)) * R ** (d - 1)
    assert got.sum() == pytest.approx(np.sum(2.0 / tents), rel=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_edge_is_decided_on_r(d):
    # r**2 = 2 lies below v_max**2, but r rounds to v_max: not binned
    v_max = math.sqrt(2.0)
    assert 2.0 < v_max * v_max and math.sqrt(2.0) == v_max
    pts = np.zeros((2, d))
    pts[1, :2] = 1.0
    assert not _band_check(pts, v_max, 8, 4.0).any()


def _assert_band_rows_capped():
    # the band walk asks only for powers of two up to isqrt(_PAIR_BUDGET)
    # rows: adding every such row count to the cache leaves exactly those
    # entries when no other row count was asked for since the cache was
    # cleared
    allowed = [2**p for p in range(1, math.isqrt(_fast._PAIR_BUDGET).bit_length())]
    assert allowed[-1] == math.isqrt(_fast._PAIR_BUDGET)
    for rows in allowed:
        _fast._triangle(rows)
    assert _fast._triangle.cache_info().currsize == len(allowed)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_just_below_the_window(rng, d):
    # the band spans every pair, more than 128 points per row
    R = 8.0
    pts = rng.uniform(-R / 2, R / 2, size=(300, d))
    _fast._triangle.cache_clear()
    assert _band_check(pts, np.nextafter(R, 0.0), 16, R).sum() > 0.0
    _assert_band_rows_capped()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_with_coincident_points(rng, d):
    pts = rng.uniform(-4.0, 4.0, size=(60, d))
    pts[10:15] = pts[3]
    pts[40:42, 0] = pts[3, 0]
    _band_check(pts, 1.5, 12, 16.0)


def _rowwise_signed(x, v_max, n_bins, R):
    # the naive reference with its inner loop over j vectorized
    acc = np.zeros(n_bins)
    bw = 2.0 * v_max / n_bins
    for i in range(len(x)):
        v = np.abs(x[i + 1:] - x[i])
        v = v[v < v_max]
        idx = np.clip(np.floor((v + v_max) / bw).astype(np.int64), 0, n_bins - 1)
        np.add.at(acc, idx, 1.0 / (R - v))
        np.add.at(acc, n_bins - 1 - idx, 1.0 / (R - v))
    return acc


def test_narrow_band_over_many_points(rng):
    # about one partner per row: blocks are capped at isqrt(_PAIR_BUDGET)
    # rows, a power of two, so no block asks for a large triangle
    R, v_max, n_bins = 64.0, 0.01, 10
    x = rng.uniform(-R / 2, R / 2, 4000)
    _fast._triangle.cache_clear()
    got = _fast.bin_pairs_signed(x, v_max, n_bins, R)
    ref = _rowwise_signed(x, v_max, n_bins, R)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    assert got.sum() > 0.0
    radial = _fast.bin_pairs_radial(x[:, None], v_max, n_bins // 2, R)
    np.testing.assert_allclose(radial, ref[n_bins // 2:] + ref[n_bins // 2 - 1::-1],
                               rtol=1e-12, atol=0.0)
    _assert_band_rows_capped()
