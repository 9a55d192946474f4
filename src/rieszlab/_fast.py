"""Hot numeric loops: pairwise kernel sums and tent-weighted pair binning.

``pair_sums`` walks every unordered pair along the circular diagonals
(i, i + k mod n), k = 1 .. n // 2, of a stack of point sets with n points.
A block of consecutive diagonals is one flat subtraction of two periodic
copies of the points, built once per stack in one scratch arena; blocks
hold about ``_SUM_BUDGET`` entries per coordinate, so memory stays bounded
for any number of points.  The binning kernels keep only separations below
``v_max``: they sort a whole batch by (replica, first coordinate) and walk
its diagonals, adding one ``bincount`` over (replica, bin) per diagonal.
Every sum runs in an order set by the points of its own set or replica, so
results are reproducible and a replica's row is the same in any batch.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .core import Kernel

# entries per coordinate in a block of pair_sums.  Timed at 2**13..2**17 on
# the energy workloads' sets (n = 64, 128, 512, 2048 in d = 1, Poisson n ~ 256
# in d = 2): 2**15 and 2**16 tie within a shared 2-vCPU host's noise, 2**13
# is 15-57% slower and 2**17 up to 9%; 2**15 needs half the memory
_SUM_BUDGET = 2**15


def _kernel_sums(r2: np.ndarray, kernel: Kernel, coincident: bool) -> np.ndarray:
    """Sums of ``kernel.g`` over the last axis of squared radii ``r2``,
    evaluated in place: ``-1/2 sum log r2`` with one scale per sum, or the
    sum of ``kernel.g_sq``.  With ``coincident`` set, squared radii of 0 add
    nothing."""
    if coincident:
        # the squared radius at which the kernel term below is exactly 0
        r2[r2 == 0.0] = 1.0 if kernel.is_log else np.inf
    if kernel.is_log:
        return -0.5 * np.log(r2, out=r2).sum(axis=-1)
    return kernel.g_sq(r2).sum(axis=-1)


def _circular_sums(x: np.ndarray, w: int, arena: np.ndarray,
                   kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """``pair_sums`` of the m point sets ``x``, shape ``(d, m, n)``, walked
    along the circular diagonals k = 1 .. n // 2 in blocks of ``w``."""
    d, m, n = x.shape
    half, row = n // 2, n + 1
    # t1 is x repeated (period n) and t2 is (x, -inf) repeated (period n + 1),
    # so t1[k0 + t] - t2[t] at t = j * row + i is x[i + k0 + j mod n] - x[i]:
    # row j of a block is the diagonal k0 + j, and its last entry is +inf
    t1 = arena[:d * m * (w + 2) * n].reshape(d, m, w + 2, n)
    t2 = arena[t1.size:t1.size + d * m * w * row].reshape(d, m, w, row)
    t1[...] = x[:, :, None]
    t2[..., :n] = x[:, :, None]
    t2[..., n] = -np.inf
    t1, t2 = t1.reshape(d, m, -1), t2.reshape(d, m, -1)
    block = arena[t1.size + t2.size:]
    sums = np.zeros(m)
    min_r2 = np.full(m, np.inf)
    for k0 in range(1, half + 1, w):
        span = min(w, half + 1 - k0) * row
        r2 = block[:d * m * span].reshape(d, m, span)
        np.subtract(t1[..., k0:k0 + span], t2[..., :span], out=r2)
        np.multiply(r2, r2, out=r2)
        for c in r2[1:]:
            r2[0] += c
        r2 = r2[0]
        # the diagonal n / 2 of an even n meets each pair twice: keep i < n / 2
        twice = slice(span - row + half if n % 2 == 0 and k0 + w > half else span, span)
        r2[:, twice] = np.inf
        block_min = r2.min(axis=1)
        np.minimum(min_r2, block_min, out=min_r2)
        if kernel.is_log:
            # g is 0 at r2 = 1 for the log kernel, and at r2 = inf otherwise
            r2[:, n::row] = r2[:, twice] = 1.0
        sums += _kernel_sums(r2, kernel, block_min.min() == 0.0)
    return sums, min_r2


def pair_sums(points: np.ndarray, offsets: np.ndarray,
              kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Per point set ``points[offsets[j]:offsets[j + 1]]`` of the ``(N, d)``
    array ``points``: the sum of ``kernel.g`` over its unordered pairs and
    its minimal squared pair distance.

    Sets are grouped by point count n and stacked, coordinates first, as
    many as fit ``_SUM_BUDGET`` entries (at least one) at a time, so that
    every step is a flat array operation.  A set of n points walks its
    n // 2 circular diagonals in blocks of w, about ``_SUM_BUDGET / n`` of
    them; w depends on n alone and each set sums its own row, so a set's
    values depend only on its own points.  Coincident pairs are left out of
    the sum and show up as a minimal squared distance of 0; sets of fewer
    than 2 points give 0 and inf.
    """
    counts = np.diff(offsets)
    sums = np.zeros(counts.size)
    min_r2 = np.full(counts.size, np.inf)
    # the sets of each size n, in order, as runs of a stable sort by size
    order = np.argsort(counts, kind="stable")
    sizes = counts[order]
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
    plan = []
    for a, b in zip(starts, starts[1:] + [counts.size]):
        n = int(sizes[a])
        if n > 1:
            # the n // 2 diagonals of n + 1 entries, in blocks of equal width
            blocks = -(-(n // 2) * (n + 1) // _SUM_BUDGET)
            w = -(-(n // 2) // blocks)
            plan.append((order[a:b], n, w, min(b - a, max(1, _SUM_BUDGET // (w * (n + 1))))))
    coords = np.ascontiguousarray(points.T)
    # one scratch arena holds t1, t2 and the block of every stack in turn
    arena = np.empty(len(coords) * max(
        [rows * ((w + 2) * n + 2 * w * (n + 1)) for _, n, w, rows in plan], default=0))
    for members, n, w, rows in plan:
        for k in range(0, len(members), rows):
            group = members[k:k + rows]
            x = coords[:, offsets[group, None] + np.arange(n)]
            sums[group], min_r2[group] = _circular_sums(x, w, arena, kernel)
    return sums, min_r2


def pair_sum(pts: np.ndarray, kernel: Kernel) -> tuple[float, float]:
    """``pair_sums`` of the single point set ``pts``."""
    sums, min_r2 = pair_sums(pts, np.array([0, len(pts)]), kernel)
    return float(sums[0]), float(min_r2[0])


def sort_batch(points: np.ndarray, replica: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(N, d)`` rows ``points`` and their replica ids ``replica``,
    sorted by (replica, first coordinate); ties keep their order."""
    along = np.lexsort((points[:, 0], replica))
    return points[along], replica[along]


def _band_diagonals(points: np.ndarray, offsets: np.ndarray, reach: float
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per diagonal k = 1, 2, ... of the batch sorted by ``sort_batch``: the
    replica of each i, the ``band`` mask of the pairs (i, i + k) of one
    replica with first coordinates at most ``reach`` apart, and the
    differences ``pts[i + k] - pts[i]``, shape ``(d, N - k)``.  The walk
    stops at the first diagonal with an empty band, which is exact: within a
    replica the sorted gaps only grow with k."""
    replica = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    pts, replica = sort_batch(points, replica)
    coords = np.ascontiguousarray(pts.T)
    for k in range(1, len(replica)):
        diff = coords[:, k:] - coords[:, :-k]
        band = (replica[k:] == replica[:-k]) & (diff[0] <= reach)
        if not band.any():
            return
        yield replica[:-k], band, diff


def bin_pairs_signed(points: np.ndarray, offsets: np.ndarray, v_max: float, n_bins: int,
                     R: float) -> np.ndarray:
    """Tent-corrected weights of signed 1d separations, both pair orders, one
    row per replica ``points[offsets[j]:offsets[j + 1], 0]``."""
    acc = np.zeros((offsets.size - 1) * n_bins)
    bw = 2.0 * v_max / n_bins
    # sorted, every separation v in the band is >= 0; |v| < v_max decides,
    # on the superset of pairs in the band
    for rows, band, diff in _band_diagonals(points, offsets, v_max * (1.0 + 1e-9)):
        near = np.flatnonzero(band & (diff[0] < v_max))
        v = diff[0, near]
        idx = np.floor((v + v_max) / bw).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        acc += np.bincount(rows[near] * n_bins + idx, 1.0 / (R - v), minlength=acc.size)
    acc = acc.reshape(-1, n_bins)
    # the pair order j, i has separation -v and lands in the mirrored bin
    return acc + acc[:, ::-1]


def bin_pairs_radial(points: np.ndarray, offsets: np.ndarray, v_max: float, n_bins: int,
                     R: float) -> np.ndarray:
    """Tent-corrected radial pair weights (ordered pairs), one row per
    replica ``points[offsets[j]:offsets[j + 1]]``."""
    acc = np.zeros((offsets.size - 1) * n_bins)
    bw = v_max / n_bins
    reach = v_max * (1.0 + 1e-9)
    for rows, band, diff in _band_diagonals(points, offsets, reach):
        r2 = diff[0] * diff[0]
        for c in diff[1:]:
            r2 += c * c
        # 0 < r < v_max decides, on the superset of pairs with r**2 <= reach**2
        near = np.flatnonzero(band & (r2 <= reach * reach))
        r = np.sqrt(r2[near])
        keep = (r < v_max) & (r > 0.0)
        near, r = near[keep], r[keep]
        tent = R - np.abs(diff[0, near])
        for c in diff[1:]:
            tent *= R - np.abs(c[near])
        idx = np.floor(r / bw).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        acc += np.bincount(rows[near] * n_bins + idx, 2.0 / tent, minlength=acc.size)
    return acc.reshape(-1, n_bins)
