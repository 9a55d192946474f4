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
    acc = np.zeros(n_bins)
    bw = 2.0 * v_max / n_bins
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            v = x[j] - x[i]
            if abs(v) < v_max:
                idx = min(max(math.floor((v + v_max) / bw), 0), n_bins - 1)
                acc[idx] += 1.0 / (R - abs(v))
                acc[n_bins - 1 - idx] += 1.0 / (R - abs(v))
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
    x = np.sort(rng.uniform(-32, 32, n))
    if n == 2:
        x = np.array([-1.0, 2.5])  # one pair inside v_max, so a bin is filled
    got = _fast.bin_pairs_signed(x, 8.0, 64, 64.0)
    np.testing.assert_allclose(got, _naive_signed(x, 8.0, 64, 64.0), rtol=1e-12, atol=0.0)
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
