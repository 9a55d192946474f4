"""Hot numeric loops: pairwise kernel sums and tent-weighted pair binning.

All three kernels walk unordered pairs i < j through ``_upper_pairs``, which
hands out the differences ``pts[j] - pts[i]`` in row blocks of a bounded
number of pairs, so each block is a few vectorized numpy calls and memory
stays bounded for any number of points.  ``pair_sums`` walks every pair and
also stacks small point sets of equal size into one matrix of triangles.
The binning kernels keep only separations below ``v_max``, so they sort
their points along the first coordinate and walk only the band of pairs
whose first coordinates lie within ``v_max`` of each other.  The order of
summation depends only on the points, so results are reproducible.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .core import Kernel

# pairs per block of the binning kernels; chosen by timing 2**12..2**16 at
# n = 64..2048 in d = 1 and n = 1024 in d = 2
_PAIR_BUDGET = 2**14
# pairs per block of pair_sums, whose in-place kernel gains from larger
# blocks; chosen by timing 2**13..2**17 at n = 64..2048 in d = 1
_SUM_BUDGET = 2**15


@functools.lru_cache(maxsize=None)
def _triangle(rows: int) -> tuple[np.ndarray, np.ndarray]:
    # the pairs i < j within a block, row by row: how often each row i
    # repeats and the column indices j; shared read-only by every call.  The
    # full walk asks for at most sqrt(_SUM_BUDGET) rows and the band walk
    # only for powers of two up to sqrt(_PAIR_BUDGET), so the whole cache
    # stays below 8 MB
    repeats = np.arange(rows - 1, -1, -1)
    j = np.triu_indices(rows, 1)[1]
    repeats.flags.writeable = j.flags.writeable = False
    return repeats, j


def _upper_pairs(pts: np.ndarray, budget: int = _PAIR_BUDGET,
                 reach: float = math.inf) -> Iterator[np.ndarray]:
    """Differences ``pts[..., j] - pts[..., i]`` over the pairs i < j of the
    last axis, block by block, flattened into the last axis of each block.

    A block of rows ``i0:i1`` yields its in-block triangle, then its
    rectangle against the columns ``i1:end``; empty pieces are skipped.
    With the default infinite ``reach`` every pair is walked: ``end = n``,
    a block holds about ``budget`` pairs, and with ``n * n <= budget`` the
    one block is the whole triangle.  Leading axes (coordinates, stacked
    point sets) are carried along.

    With a finite ``reach``, ``pts`` is ``(d, n)`` sorted along ``pts[0]``,
    and the walk covers at least every pair whose first coordinates are at
    most ``reach`` apart: ``end`` is the band end of the block's last row.
    Rows per block are ``budget`` over the first row's band, at most
    ``isqrt(budget)`` and rounded down to a power of two, so few triangles
    are ever cached; a block whose band widens along the axis is halved
    until it holds at most ``2 * budget`` pairs or is one row.
    """
    n = pts.shape[-1]
    if reach < math.inf:
        hi = np.searchsorted(pts[0], pts[0] + reach, "right").tolist()
        cap = math.isqrt(budget)
    i0 = 0
    while i0 < n - 1:
        if reach < math.inf:
            rows = max(1, min(n - i0, cap, budget // (hi[i0] - i0)))
            rows = 1 << (rows.bit_length() - 1)
            while rows > 1 and rows * (hi[i0 + rows - 1] - i0) > 2 * budget:
                rows //= 2
            end = hi[i0 + rows - 1]
        else:
            rows = min(n - i0, max(1, budget // (n - i0)))
            end = n
        i1 = i0 + rows
        block = pts[..., i0:i1]
        if rows > 1:
            repeats, j = _triangle(rows)
            diff = np.take(block, j, axis=-1)
            diff -= np.repeat(block, repeats, axis=-1)
            yield diff
        if i1 < end:
            rect = pts[..., None, i1:end] - block[..., :, None]
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
    for diff in _upper_pairs(coords, _SUM_BUDGET):
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


def bin_pairs_signed(x: np.ndarray, v_max: float, n_bins: int, R: float) -> np.ndarray:
    """Tent-corrected weights of signed 1d separations, both pair orders."""
    acc = np.zeros(n_bins)
    bw = 2.0 * v_max / n_bins
    # sorted, every walked separation v is >= 0; |v| < v_max decides, on the
    # superset of pairs in the band
    for v in _upper_pairs(np.sort(x)[None], reach=v_max * (1.0 + 1e-9)):
        v = v[0]
        v = v[v < v_max]
        idx = np.floor((v + v_max) / bw).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        acc += np.bincount(idx, 1.0 / (R - v), minlength=n_bins)
    # the pair order j, i has separation -v and lands in the mirrored bin
    return acc + acc[::-1]


def bin_pairs_radial(pts: np.ndarray, v_max: float, n_bins: int, R: float) -> np.ndarray:
    """Tent-corrected radial pair weights for d >= 2 (ordered pairs)."""
    acc = np.zeros(n_bins)
    bw = v_max / n_bins
    reach = v_max * (1.0 + 1e-9)
    coords = np.ascontiguousarray(pts[np.argsort(pts[:, 0], kind="stable")].T)
    for diff in _upper_pairs(coords, reach=reach):
        r2 = diff[0] * diff[0]
        for c in diff[1:]:
            r2 += c * c
        # 0 < r < v_max decides, on the superset of pairs with r**2 <= reach**2
        near = np.flatnonzero(r2 <= reach * reach)
        r = np.sqrt(r2[near])
        keep = (r < v_max) & (r > 0.0)
        near, r = near[keep], r[keep]
        tent = R - np.abs(diff[0, near])
        for c in diff[1:]:
            tent *= R - np.abs(c[near])
        idx = np.floor(r / bw).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        acc += np.bincount(idx, 2.0 / tent, minlength=n_bins)
    return acc
