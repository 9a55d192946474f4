"""Hot numeric loops: pairwise kernel sums and tent-weighted pair binning.

``pair_sums`` walks every unordered pair i < j through ``_upper_pairs``,
which hands out the differences ``pts[j] - pts[i]`` in row blocks of about
``_SUM_BUDGET`` pairs, so memory stays bounded for any number of points; it
also stacks small point sets of equal size into one matrix of triangles.
The binning kernels keep only separations below ``v_max``: they sort a whole
batch by (replica, first coordinate) and walk its diagonals, adding one
``bincount`` over (replica, bin) per diagonal.  Every sum runs in an order
set by the points of its own set or replica, so results are reproducible
and a replica's row is the same in any batch.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .core import Kernel

# pairs per block of pair_sums, whose in-place kernel gains from larger
# blocks; chosen by timing 2**13..2**17 at n = 64..2048 in d = 1
_SUM_BUDGET = 2**15


@functools.lru_cache(maxsize=None)
def _triangle(rows: int) -> tuple[np.ndarray, np.ndarray]:
    # the pairs i < j within a block, row by row: how often each row i
    # repeats and the column indices j; shared read-only by every call.  The
    # walk of pair_sums asks for at most isqrt(_SUM_BUDGET) = 181 rows, so
    # the whole cache stays below 8 MB
    repeats = np.arange(rows - 1, -1, -1)
    j = np.triu_indices(rows, 1)[1]
    repeats.flags.writeable = j.flags.writeable = False
    return repeats, j


def _upper_pairs(pts: np.ndarray) -> Iterator[np.ndarray]:
    """Differences ``pts[..., j] - pts[..., i]`` over the pairs i < j of the
    last axis, block by block, flattened into the last axis of each block.

    A block of rows ``i0:i1`` holds about ``_SUM_BUDGET`` pairs: it yields
    its in-block triangle, then its rectangle against the columns ``i1:n``;
    empty pieces are skipped.  With ``n * n <= _SUM_BUDGET`` the one block is
    the whole triangle.  Leading axes (coordinates, stacked point sets) are
    carried along.
    """
    n = pts.shape[-1]
    i0 = 0
    while i0 < n - 1:
        rows = min(n - i0, max(1, _SUM_BUDGET // (n - i0)))
        i1 = i0 + rows
        block = pts[..., i0:i1]
        if rows > 1:
            repeats, j = _triangle(rows)
            diff = np.take(block, j, axis=-1)
            diff -= np.repeat(block, repeats, axis=-1)
            yield diff
        if i1 < n:
            rect = pts[..., None, i1:] - block[..., :, None]
            yield rect.reshape(*pts.shape[:-1], -1)
        i0 = i1


def _kernel_sums(r2: np.ndarray, kernel: Kernel, coincident: bool) -> np.ndarray:
    """Sums of ``kernel.g`` over the last axis of squared radii ``r2``,
    evaluated in place: ``-1/2 sum log r2`` with one scale per sum, or
    ``sum exp(-(s/2) log r2)``.  With ``coincident`` set, squared radii of 0
    add nothing."""
    if coincident:
        # the squared radius at which the kernel term below is exactly 0
        r2[r2 == 0.0] = 1.0 if kernel.is_log else np.inf
    np.log(r2, out=r2)
    if kernel.is_log:
        return -0.5 * r2.sum(axis=-1)
    np.multiply(r2, -0.5 * kernel.s, out=r2)
    np.exp(r2, out=r2)
    return r2.sum(axis=-1)


def _stack_sums(coords: np.ndarray, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """``pair_sums`` of the m point sets of ``coords``, shape ``(d, m, n)``."""
    sums = np.zeros(coords.shape[1])
    min_r2 = np.full(coords.shape[1], np.inf)
    for diff in _upper_pairs(coords):
        diff *= diff
        r2 = diff.sum(axis=0) if len(diff) > 1 else diff[0]
        block_min = r2.min(axis=1)
        np.minimum(min_r2, block_min, out=min_r2)
        sums += _kernel_sums(r2, kernel, block_min.min() == 0.0)
    return sums, min_r2


def pair_sums(points: np.ndarray, offsets: np.ndarray,
              kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Per point set ``points[offsets[j]:offsets[j + 1]]`` of the ``(N, d)``
    array ``points``: the sum of ``kernel.g`` over its unordered pairs and
    its minimal squared pair distance.

    Sets are grouped by point count and stacked, coordinates first, as many
    as fit ``_SUM_BUDGET`` pairs (at least one) at a time, so that every
    step is a flat array operation.  A stack of several sets has
    ``n * n <= _SUM_BUDGET``, so it is one ``_upper_pairs`` block with one
    set's triangle per row, and a row sum equals that row's own sum bit for
    bit; a larger set walks ``_upper_pairs`` alone.  So each set's values
    depend only on its own points.  Coincident pairs are left out of the
    sum and show up as a minimal squared distance of 0; sets of fewer than
    2 points give 0 and inf.
    """
    counts = np.diff(offsets)
    sums = np.zeros(counts.size)
    min_r2 = np.full(counts.size, np.inf)
    for n in np.unique(counts[counts > 1]):
        members = np.flatnonzero(counts == n)
        rows = max(1, _SUM_BUDGET // (n * (n - 1) // 2))
        for k in range(0, len(members), rows):
            group = members[k:k + rows]
            # coordinates first: (d, sets, n)
            coords = np.moveaxis(points[offsets[group, None] + np.arange(n)], 2, 0)
            sums[group], min_r2[group] = _stack_sums(np.ascontiguousarray(coords), kernel)
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
