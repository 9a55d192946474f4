"""The blocked pair kernels against a naive double loop over i < j."""

import math
import tracemalloc

import numpy as np
import pytest

from rieszlab import _fast, log_kernel, riesz_kernel

N_MULTI_BLOCK = 300  # spans several blocks of _fast._SUM_BUDGET pairs
# the side of C_R passed with point sets drawn in [-10, 10]; it shapes only
# the box cut of d = 1 sets of at least _fast._FAR_MIN points
SIDE = 20.0


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
    # each unordered pair at separation 0 < |v| < v_max is binned at
    # n_bins / 2 + floor(|v| / bw) and mirrored about 0
    acc = np.zeros(n_bins)
    bw = 2.0 * v_max / n_bins
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            v = abs(x[j] - x[i])
            if 0.0 < v < v_max:
                idx = n_bins // 2 + min(math.floor(v / bw), n_bins // 2 - 1)
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


@pytest.fixture
def blocks(monkeypatch):
    # the squared radii of every block that pair_sums hands to the kernel,
    # copied before the kernel overwrites them
    seen = []
    kernel_sums = _fast._kernel_sums

    def spy(r2, kernel, coincident):
        seen.append(r2.copy())
        return kernel_sums(r2, kernel, coincident)

    monkeypatch.setattr(_fast, "_kernel_sums", spy)
    return seen


def test_multi_block_size_spans_several_blocks(blocks):
    # the 150 circular diagonals of 301 entries each fill two blocks
    assert N_MULTI_BLOCK // 2 * (N_MULTI_BLOCK + 1) > _fast._SUM_BUDGET
    _fast.pair_sum(np.arange(N_MULTI_BLOCK, dtype=float)[:, None], riesz_kernel(0.5, 1),
                   float(N_MULTI_BLOCK))
    assert [b.shape for b in blocks] == [(1, 75 * (N_MULTI_BLOCK + 1))] * 2


def _one(pts):
    # the offsets of a batch holding the single replica pts
    return np.array([0, len(pts)])


@pytest.mark.parametrize("n", [0, 1, 2, N_MULTI_BLOCK])
@pytest.mark.parametrize("family,s", [(0, 0.0), (1, 0.5)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_sum_matches_naive(rng, n, family, s, d):
    pts = rng.uniform(-10, 10, size=(n, d))
    total, min_r2 = _fast.pair_sum(pts, _kernel(family, s), SIDE)
    ref_total, ref_min = _naive_pair_sum(pts, family, s)
    assert total == pytest.approx(ref_total, rel=1e-12, abs=1e-300)
    assert min_r2 == pytest.approx(ref_min, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, N_MULTI_BLOCK])
def test_bin_pairs_signed_matches_naive(rng, n):
    # unsorted input: the kernel sorts it, so the order of x does not matter
    x = rng.uniform(-32, 32, n)
    if n == 2:
        x = np.array([2.5, -1.0])  # one pair inside v_max, on a bin edge
    got = _fast.bin_pairs_signed(x[:, None], _one(x), 8.0, 64, 64.0)[0]
    np.testing.assert_allclose(got, _naive_signed(x, 8.0, 64, 64.0), rtol=1e-12, atol=0.0)
    assert got.tobytes() == _fast.bin_pairs_signed(np.sort(x)[:, None], _one(x), 8.0, 64,
                                                   64.0)[0].tobytes()
    if n >= 2:
        assert got.sum() > 0.0


@pytest.mark.parametrize("n", [0, 1, 2, N_MULTI_BLOCK])
@pytest.mark.parametrize("d", [2, 3])
def test_bin_pairs_radial_matches_naive(rng, n, d):
    pts = rng.uniform(-8, 8, size=(n, d))
    if n == 2:
        pts = np.array([[0.0] * d, [1.5] * d])
    got = _fast.bin_pairs_radial(pts, _one(pts), 4.0, 32, 16.0)[0]
    np.testing.assert_allclose(got, _naive_radial(pts, 4.0, 32, 16.0), rtol=1e-12, atol=0.0)
    if n >= 2:
        assert got.sum() > 0.0


@pytest.mark.parametrize("family,s", [(0, 0.0), (1, 0.5)])
def test_coincident_pair_is_left_out(family, s):
    pts = np.array([[1.0], [1.0], [2.0], [4.0]])
    total, min_r2 = _fast.pair_sum(pts, _kernel(family, s), SIDE)
    assert min_r2 == 0.0
    assert math.isfinite(total)
    ref_total, _ = _naive_pair_sum(pts, family, s)
    assert total == pytest.approx(ref_total, rel=1e-12)


def test_coincident_pair_in_a_later_block(rng):
    pts = rng.uniform(-10, 10, size=(N_MULTI_BLOCK, 2))
    pts[-1] = pts[-2]
    total, min_r2 = _fast.pair_sum(pts, riesz_kernel(0.5, 1), SIDE)
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
    # together, and sizes on both sides of the walk's boundaries: 181 is the
    # largest stacked two to a stack (two such sets), 255 the largest walked
    # in one block, 256 and 257 take two blocks and 400 three; one set holds
    # a coincident pair
    sizes = [0, 1, 2, 7, 7, 7, 40, 3, 40, 181, 182, 400, 255, 256, 257, 181]
    assert 181**2 <= _fast._SUM_BUDGET < 182**2 and 400 * 399 // 2 > 2 * _fast._SUM_BUDGET
    assert 2 * 90 * 182 <= _fast._SUM_BUDGET < 2 * 91 * 183
    assert 127 * 256 <= _fast._SUM_BUDGET < 128 * 257
    batch = [rng.uniform(-10, 10, size=(n, kernel.d)) for n in sizes]
    batch[4][5] = batch[4][2]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    sums, min_r2 = _fast.pair_sums(np.concatenate(batch), offsets, kernel, SIDE)
    for b, pts in enumerate(batch):
        assert sums[b] == pytest.approx(_exact_pair_sum(pts, kernel), rel=1e-13, abs=1e-300)
        if len(pts) > 1:
            i, j = np.triu_indices(len(pts), 1)
            assert min_r2[b] == pytest.approx(np.min(np.sum((pts[j] - pts[i]) ** 2, axis=1)),
                                              rel=1e-15)
        else:
            assert min_r2[b] == math.inf
        assert _fast.pair_sum(pts, kernel, SIDE) == (sums[b], min_r2[b])
    assert min_r2[4] == 0.0 and math.isfinite(sums[4])


def test_coincident_pair_is_not_binned():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    got = _fast.bin_pairs_radial(pts, _one(pts), 4.0, 8, 16.0)[0]
    np.testing.assert_allclose(got, _naive_radial(pts, 4.0, 8, 16.0), rtol=1e-12, atol=0.0)


def test_coincident_pair_is_not_binned_in_1d():
    # the pair at 0.5 is left out of both central bins, as in every d; only
    # the two pairs 1.5 apart are binned, in bins 4 +- 1 of width 1
    x = np.array([0.5, 0.5, 2.0])
    got = _fast.bin_pairs_signed(x[:, None], _one(x), 4.0, 8, 16.0)[0]
    np.testing.assert_allclose(got, _naive_signed(x, 4.0, 8, 16.0), rtol=1e-12, atol=0.0)
    assert got[3] == got[4] == 0.0
    assert got[2] == got[5] == 2.0 / (16.0 - 1.5)
    assert got.sum() == 4.0 / (16.0 - 1.5)


def _squared_radii(diff):
    # sum of squares over the first axis, in the order of the walk
    sq = diff * diff
    r2 = sq[0]
    for c in sq[1:]:
        r2 = r2 + c
    return r2


def _frozen_circular_walk(pts, budget):
    # the blocks of the circular walk over the sets pts, shape (d, m, n), from
    # explicit indices: stacks of as many sets as fit the budget; row j of
    # the block at k0 holds the pairs (i, i + k0 + j mod n), then a pad of
    # +inf, and the second half of the diagonal n / 2 is +inf
    d, m, n = pts.shape
    half, row = n // 2, n + 1
    w = -(-half // -(-half * row // budget))
    stack = max(1, budget // (w * row))
    i = np.arange(n)
    for s0 in range(0, m, stack):
        x = pts[:, s0:s0 + stack]
        for k0 in range(1, half + 1, w):
            rows = []
            for k in range(k0, min(k0 + w, half + 1)):
                r2 = _squared_radii(x[..., (i + k) % n] - x[..., i])
                if 2 * k == n:
                    r2[:, half:] = np.inf
                rows += [r2, np.full((len(r2), 1), np.inf)]
            yield np.concatenate(rows, axis=1)


@pytest.mark.parametrize("shape", [(1, 2), (2, 181), (3, 182), (2, 2048), (2, 4, 7),
                                   (1, 3, 181), (3, 2, 182)])
def test_full_walk_keeps_its_block_schedule(rng, blocks, shape):
    # the stacks, blocks, their order and their values are those of the
    # frozen circular schedule, so a set's pair sum depends on its own points
    pts = rng.uniform(-10, 10, size=shape).reshape(shape[0], -1, shape[-1])
    d, m, n = pts.shape
    _fast.pair_sums(pts.transpose(1, 2, 0).reshape(-1, d), n * np.arange(m + 1),
                    riesz_kernel(0.5, 1), SIDE)
    ref = list(_frozen_circular_walk(pts, _fast._SUM_BUDGET))
    assert len(blocks) == len(ref)
    for g, r in zip(blocks, ref):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("family,s", [(0, 0.0), (1, 0.5)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_circular_walk_visits_every_pair_once(rng, blocks, family, s, d):
    # each row's squared radii, pads left out, are those of its pairs i < j,
    # each once: three stacked sets of every n = 2 .. 12, and single sets of
    # 401 and 402 points, which take three blocks
    pad = 1.0 if family == 0 else np.inf
    for n, m in [(n, 3) for n in range(2, 13)] + [(401, 1), (402, 1)]:
        blocks.clear()
        sets = rng.uniform(-10, 10, size=(m, n, d))
        _fast.pair_sums(sets.reshape(-1, d), n * np.arange(m + 1), _kernel(family, s), SIDE)
        assert all(len(b) == m for b in blocks) and len(blocks) == (3 if n > 400 else 1)
        for row, pts in zip(np.concatenate(blocks, axis=1), sets):
            i, j = np.triu_indices(n, 1)
            ref = np.sort(_squared_radii((pts[j] - pts[i]).T))
            assert not (ref == pad).any()
            assert np.sort(row[row != pad]).tobytes() == ref.tobytes()


@pytest.mark.parametrize("family,s", [(0, 0.0), (1, 0.5)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,i,j", [(8, 1, 5), (9, 1, 8)])
def test_coincident_pair_on_half_or_wrapped_diagonal(rng, n, i, j, family, s, d):
    # (1, 5) lies on the diagonal n / 2 = 4 of n = 8; (1, 8) of n = 9 is
    # walked from i = 8 to 8 + 2 mod 9 = 1
    pts = rng.uniform(-10, 10, size=(n, d))
    pts[j] = pts[i]
    total, min_r2 = _fast.pair_sum(pts, _kernel(family, s), SIDE)
    assert min_r2 == 0.0 and math.isfinite(total)
    assert total == pytest.approx(_naive_pair_sum(pts, family, s)[0], rel=1e-12)


@pytest.mark.parametrize("sets,n,d", [(1, 20000, 1), (2000, 50, 2)])
def test_pair_sums_memory_is_bounded(rng, sets, n, d):
    # t1, t2 and the block of a stack of sets of n points take at most about
    # 3 * _SUM_BUDGET + 5 n entries per coordinate, whatever the number of
    # points or sets: no triangle of pairs is ever held.  The d = 1 set of
    # 20000 points takes the near/far split, whose far-field blocks hold
    # about 3.5 * _SUM_BUDGET entries, its near blocks and basis chunks
    # about _SUM_BUDGET each, and its per-point arrays a few n
    points = rng.uniform(-10, 10, size=(sets * n, d))
    tracemalloc.start()
    try:
        _fast.pair_sums(points, n * np.arange(sets + 1), log_kernel(1), SIDE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _fast._SUM_BUDGET * d * 8 + points.nbytes


@pytest.mark.parametrize("kernel", [_fast.bin_pairs_signed, _fast.bin_pairs_radial],
                         ids=["signed", "radial"])
def test_binning_rows_too_large_are_rejected_before_allocation(kernel, rng,
                                                               rejected_before_allocation):
    points = rng.uniform(-4, 4, size=(20, 1))
    rejected_before_allocation(
        lambda: kernel(points, np.array([0, 10, 20]), 1.0, 10**14, 8.0))


FAR_KERNELS = [log_kernel(1), riesz_kernel(0.25, 1), riesz_kernel(0.5, 1),
               riesz_kernel(0.75, 1)]
FAR_IDS = ["log1d", "riesz0.25", "riesz0.5", "riesz0.75"]


def _fsum_pair_sum(x, kernel):
    # the correctly rounded sum of g over the pairs of the d = 1 row x,
    # coincident pairs left out, and the sum of |g|, row by row
    x = np.sort(x)
    scale = 0.0

    def terms():
        nonlocal scale
        for i in range(len(x) - 1):
            r = x[i + 1:] - x[i]
            g = kernel.g(r[r > 0.0])
            scale += float(np.abs(g).sum())
            yield from g.tolist()

    return math.fsum(terms()), scale


def _assert_far_field_exact(x, kernel, R):
    # the near/far split within 1e-14 of sum |g| of the exact sum, and the
    # minimal squared distance of neighbours exactly
    total, min_r2 = _fast.pair_sum(x[:, None], kernel, R)
    exact, scale = _fsum_pair_sum(x, kernel)
    assert abs(total - exact) <= 1e-14 * scale
    assert min_r2 == np.min(np.diff(np.sort(x)) ** 2)
    return total, min_r2


@pytest.mark.parametrize("n", [_fast._FAR_MIN, 1500, 4096])
@pytest.mark.parametrize("kernel", FAR_KERNELS, ids=FAR_IDS)
def test_far_field_matches_exact_sum(rng, kernel, n):
    # unsorted rows of n uniform points in C_R at unit density, so that
    # boxes hold uneven counts, from the threshold to 4096 points
    R = float(n)
    _assert_far_field_exact(rng.uniform(-R / 2, R / 2, n), kernel, R)


@pytest.mark.parametrize("kernel", FAR_KERNELS, ids=FAR_IDS)
def test_far_field_of_the_closest_far_pairs(rng, kernel):
    # one point in box 0 and one in box 2 of width 16, at most 3.6 apart
    # beyond the box between them: there the interpolation error
    # (3 + 2 sqrt 2)^-p is largest, and _CHEB_P nodes take it to rounding
    # (18 nodes leave 3e-14, 16 leave 1e-12)
    h, boxes = 16.0, 8
    transfer = _fast._far_transfer(kernel, h, boxes)
    ends = [(h - 1e-9, 2 * h)] + [(h * rng.uniform(0.9, 1.0), h * rng.uniform(2.0, 2.125))
                                   for _ in range(100)]
    for a, b in ends:
        x = np.array([a, b])
        far = _fast._far_sum(x, (x // h).astype(np.intp), 0.0, h, transfer)
        assert abs(far - kernel.g(b - a)) <= 4e-15 * abs(kernel.g(b - a))


def test_only_rows_below_the_threshold_walk_the_circle(rng, blocks):
    for n, walked in [(_fast._FAR_MIN - 1, True), (_fast._FAR_MIN, False)]:
        blocks.clear()
        _fast.pair_sum(rng.uniform(-n / 2, n / 2, (n, 1)), riesz_kernel(0.5, 1), float(n))
        assert bool(blocks) == walked


@pytest.mark.parametrize("kernel", FAR_KERNELS, ids=FAR_IDS)
def test_far_field_points_on_box_edges(rng, kernel):
    # 1024 points in C_R of side 1024 make boxes of width 1024 / B, a power
    # of two; a point sits on every box edge, both ends of C_R among them
    R, n = 1024.0, 1024
    boxes = min(_fast._MAX_BOXES, round(n / _fast._BOX_POINTS))
    edges = -R / 2 + (R / boxes) * np.arange(boxes + 1)
    assert edges[-1] == R / 2
    x = np.concatenate([edges, rng.uniform(-R / 2, R / 2, n - edges.size)])
    _assert_far_field_exact(rng.permutation(x), kernel, R)


@pytest.mark.parametrize("where", ["inside_a_box", "on_a_box_edge"])
@pytest.mark.parametrize("kernel", [log_kernel(1), riesz_kernel(0.5, 1)],
                         ids=["log1d", "riesz0.5"])
def test_far_field_leaves_a_coincident_pair_out(rng, kernel, where):
    R, n = 1024.0, 1024
    x = rng.uniform(-R / 2, R / 2, n)
    boxes = min(_fast._MAX_BOXES, round(n / _fast._BOX_POINTS))
    x[[5, 700]] = 3.3 if where == "inside_a_box" else -R / 2 + (R / boxes) * 40
    total, min_r2 = _assert_far_field_exact(x, kernel, R)
    assert min_r2 == 0.0 and math.isfinite(total)


def test_far_field_rows_do_not_depend_on_their_batch(rng):
    # a ragged batch of unsorted rows on both sides of the threshold, one of
    # them reaching past C_R: each row's values are those of the row alone,
    # bit for bit, and a long row's do not depend on its order
    kernel, n0, R = riesz_kernel(0.5, 1), _fast._FAR_MIN, 2048.0
    sizes = [n0 + 1, 0, 300, n0, 2000, n0 - 1, 1, n0, 2000, 7]
    rows = [rng.uniform(-1024.0, 1024.0, n) for n in sizes]
    rows[3] *= 1.25
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    sums, min_r2 = _fast.pair_sums(np.concatenate(rows)[:, None], offsets, kernel, R)
    for b, x in enumerate(rows):
        assert _fast.pair_sum(x[:, None], kernel, R) == (sums[b], min_r2[b])
        if len(x) >= n0:
            assert _fast.pair_sum(x[::-1, None], kernel, R) == (sums[b], min_r2[b])
    _assert_far_field_exact(rows[3], kernel, R)


def test_basis_on_a_node_is_that_nodes_unit_vector():
    u = np.array([_fast._NODES[3], 0.1, -1.0, 1.0])
    basis = _fast._basis(u)
    assert basis[0].tolist() == np.eye(_fast._CHEB_P)[3].tolist()
    np.testing.assert_allclose(basis.sum(axis=1), 1.0, rtol=1e-14)


def _banded(points, offsets, reach, R):
    # (replica, separation, index distance) of every pair in the counted band
    # of the d = 1 walk, sorted, and the number of diagonals walked; the
    # batch is one block, so diagonal k leaves k copies out of its band
    assert len(points) <= _fast._BAND_ROWS
    found, diagonals = [], 0
    for rows, band, diff in _fast._band_diagonals(points, offsets, reach, R):
        k = len(points) - len(band)
        found += zip(rows[band], diff[0, band], [k] * int(band.sum()))
        diagonals += 1
        assert diagonals == k
    return sorted(found), diagonals


def test_band_walk_is_bounded_and_complete(rng):
    # a sparse stretch, one partner per row, then a dense cluster, shuffled,
    # and a second replica of every seventh point: every pair within reach
    # is walked exactly once, and the walk ends with the diagonal of the
    # widest band
    x = np.concatenate([rng.uniform(0.0, 1000.0, 200), rng.uniform(1000.0, 1000.5, 600)])
    x = rng.permutation(x)
    reps = [np.sort(x), np.sort(x[::7])]
    ref = []
    for r, xs in enumerate(reps):
        i, j = np.triu_indices(len(xs), 1)
        near = xs[j] - xs[i] <= 1.0
        ref += zip([r] * int(near.sum()), (xs[j] - xs[i])[near], j[near] - i[near])
    points = np.concatenate([x, x[::7]])[:, None]
    found, diagonals = _banded(points, np.array([0, 800, 800 + len(x[::7])]), 1.0, 2000.0)
    assert found == sorted(ref)
    assert diagonals == max(k for _, _, k in ref)


def _band_check(pts, v_max, n_bins, R):
    # both kernels (the signed one in d = 1) against the naive double loops
    if pts.shape[1] == 1:
        got = _fast.bin_pairs_signed(pts, _one(pts), v_max, n_bins, R)[0]
        ref = _naive_signed(pts[:, 0], v_max, n_bins, R)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    got = _fast.bin_pairs_radial(pts, _one(pts), v_max, n_bins, R)[0]
    ref = _naive_radial(pts, v_max, n_bins, R)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    return got


@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_edge_separation(d):
    # about every base point b, a pair exactly v_max apart is not binned and
    # a pair one step of the float grid closer is binned; no other pair lies
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_just_below_the_window(rng, d):
    # the band spans every pair, so the walk runs to the last diagonal
    R = 8.0
    pts = rng.uniform(-R / 2, R / 2, size=(300, d))
    assert _band_check(pts, np.nextafter(R, 0.0), 16, R).sum() > 0.0


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
        v = v[(v > 0.0) & (v < v_max)]
        idx = n_bins // 2 + np.minimum(np.floor(v / bw).astype(np.int64), n_bins // 2 - 1)
        np.add.at(acc, idx, 1.0 / (R - v))
        np.add.at(acc, n_bins - 1 - idx, 1.0 / (R - v))
    return acc


def test_narrow_band_over_many_points(rng):
    # about one partner per row: the walk stops after a few diagonals
    R, v_max, n_bins = 64.0, 0.01, 10
    x = rng.uniform(-R / 2, R / 2, 4000)
    got = _fast.bin_pairs_signed(x[:, None], _one(x), v_max, n_bins, R)[0]
    ref = _rowwise_signed(x, v_max, n_bins, R)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    assert got.sum() > 0.0
    radial = _fast.bin_pairs_radial(x[:, None], _one(x), v_max, n_bins // 2, R)[0]
    np.testing.assert_allclose(radial, ref[n_bins // 2:] + ref[n_bins // 2 - 1::-1],
                               rtol=1e-12, atol=0.0)


def _ragged_batch(rng, d):
    # replicas of 0, 1 and 2 points, a dense cluster next to a sparse
    # stretch with a coincident pair, and points tied in the first
    # coordinate, each in random order
    mixed = np.concatenate([rng.uniform(-30.0, 0.0, (40, d)), rng.uniform(0.0, 0.5, (150, d))])
    mixed[5] = mixed[60]
    ties = rng.uniform(-4.0, 4.0, (50, d))
    ties[::5, 0] = ties[0, 0]
    ties[1::5, 0] = ties[1, 0] + 1.0
    reps = [np.empty((0, d)), rng.uniform(-4.0, 4.0, (1, d)), np.full((2, d), 0.5), mixed,
            np.empty((0, d)), ties]
    reps[2][1, 0] = 1.75
    return [rng.permutation(pts) for pts in reps]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ragged_batch_matches_naive(rng, d):
    # each row of a batch against the naive double loop over its replica,
    # and byte for byte against the same replica binned alone
    v_max, n_bins, R = 2.0, 16, 64.0
    reps = _ragged_batch(rng, d)
    points = np.concatenate(reps)
    offsets = np.concatenate([[0], np.cumsum([len(pts) for pts in reps])])
    kernels = [(_fast.bin_pairs_radial, _naive_radial)]
    if d == 1:
        kernels.append((_fast.bin_pairs_signed, lambda p, *a: _naive_signed(p[:, 0], *a)))
    for kernel, naive in kernels:
        got = kernel(points, offsets, v_max, n_bins, R)
        assert got.shape == (len(reps), n_bins)
        for row, pts in zip(got, reps):
            np.testing.assert_allclose(row, naive(pts, v_max, n_bins, R), rtol=1e-12, atol=0.0)
            assert row.tobytes() == kernel(pts, _one(pts), v_max, n_bins, R)[0].tobytes()
        assert not got[[0, 1, 4]].any() and got[[2, 3, 5]].any(axis=1).all()


@pytest.mark.parametrize("sizes", [[0, 5, 0, 7, 7, 1, 0], [40] * 9, [300, 2, 0, 1, 250], [0, 0]],
                         ids=["padded_empty_replicas", "padded_equal", "ragged", "empty"])
def test_sort_batch_is_lexsort(rng, sizes):
    # grouped batches with empty replicas, values tied within a replica and
    # across replicas, and signed zeros, read as the strided first column the
    # kernels pass: the padded table's permutation (or, for the ragged batch,
    # lexsort's own) is lexsort's, bit for bit
    replica = np.repeat(np.arange(len(sizes)), sizes)
    pts = rng.integers(-3, 4, size=(replica.size, 2)).astype(float)
    pts[::7, 0] = -0.0
    x = pts[:, 0]
    assert np.array_equal(_fast.sort_batch(x, replica), np.lexsort((x, replica)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ratio,fit,strips", [(1.5, 1, 1), (2.5, 2, 1), (3.0, 2, 1), (3.5, 3, 3),
                                              (8.0, 7, 7)])
def test_strip_windows_match_naive(rng, d, ratio, fit, strips):
    # R / v_max of 1.5, 2.5, 3, 3.5 and 8 fit 1, 2, 2, 3 and 7 strips at
    # least reach = v_max (1 + 1e-9) wide (three strips of exactly v_max
    # would be one rounding from too narrow); fewer than three make one
    # window.  Points lie on every strip edge (y = +-R/2 among them), each
    # with a partner just under v_max above it and one just under v_max
    # below it (across the edge), and some coincide
    v_max = 2.0
    R, reach = ratio * v_max, v_max * (1.0 + 1e-9)
    assert int(R // reach) == fit and _fast._strips(R, reach, d) == strips
    assert _fast._strips(math.inf, reach, d) == 1
    edges = -R / 2 + (R / fit) * np.arange(fit + 1)
    e = edges.size
    pts = rng.uniform(-R / 2, R / 2, size=(120, d))
    pts[:e, 1] = edges
    for m, sign in [(1, 1.0), (2, -1.0)]:
        pts[m * e:(m + 1) * e, 0] = pts[:e, 0]
        pts[m * e:(m + 1) * e, 1] = np.clip(edges + sign * np.nextafter(v_max, 0.0), -R / 2, R / 2)
    pts[100:104] = pts[2]
    pts[104:106] = pts[e - 1]
    got = _fast.bin_pairs_radial(pts, _one(pts), v_max, 12, R)[0]
    np.testing.assert_allclose(got, _naive_radial(pts, v_max, 12, R), rtol=1e-12, atol=0.0)
    assert got.sum() > 0.0


@pytest.mark.parametrize("kernel,d,v_max", [(_fast.bin_pairs_signed, 1, 64.0),
                                            (_fast.bin_pairs_radial, 2, 4.0),
                                            (_fast.bin_pairs_radial, 3, 3.0)],
                         ids=["signed", "radial_2d", "radial_3d"])
def test_binning_memory_is_bounded(rng, kernel, d, v_max):
    # the sorted copies (at most two per point) take d + 4 words or fewer
    # each while the band is counted, and a diagonal's arrays at most about
    # _BAND_ROWS entries per coordinate each, whatever the number of points
    # or replicas: the 25 to 64 pairs per point within v_max here, held at
    # once, would take 13 to 32 MiB
    reps, n = 32, 2048
    R = n ** (1.0 / d)
    points = rng.uniform(-R / 2, R / 2, size=(reps * n, d))
    tracemalloc.start()
    try:
        kernel(points, n * np.arange(reps + 1), v_max, 16, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * points.nbytes + 16 * _fast._BAND_ROWS * d * 8
