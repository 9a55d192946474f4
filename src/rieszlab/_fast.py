"""Hot numeric loops: pairwise kernel sums and tent-weighted pair binning.

All three kernels walk the unordered pairs i < j through ``_upper_pairs``,
which hands out the differences ``pts[j] - pts[i]`` in row blocks of about
``_PAIR_BUDGET`` pairs, so each block is a few vectorized numpy calls and
memory stays bounded for any number of points.  The order of summation
depends only on the number of points, so results are reproducible.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .core import Kernel

# pairs per block handed out by _upper_pairs; chosen by timing 2**12..2**16
# at n = 64..2048 in d = 1 and n = 1024 in d = 2
_PAIR_BUDGET = 2**14


@functools.lru_cache(maxsize=None)
def _triangle(rows: int) -> tuple[np.ndarray, np.ndarray]:
    # index pairs i < j within a block, shared read-only by every call;
    # _upper_pairs never asks for more than sqrt(_PAIR_BUDGET) rows, so the
    # whole cache stays below a few MB
    i, j = np.triu_indices(rows, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _upper_pairs(pts: np.ndarray) -> Iterator[np.ndarray]:
    """Flat differences ``pts[j] - pts[i]`` over all i < j, block by block.

    A block of rows ``i0:i1`` yields its in-block triangle, then its
    rectangle against the rows ``i1:``; empty pieces are skipped.  ``pts``
    is ``(n,)`` or ``(n, d)``; the yielded arrays have the same trailing
    shape.
    """
    n = pts.shape[0]
    i0 = 0
    while i0 < n - 1:
        rows = min(n - i0, max(1, _PAIR_BUDGET // (n - i0)))
        i1 = i0 + rows
        block = pts[i0:i1]
        if rows > 1:
            i, j = _triangle(rows)
            yield block[j] - block[i]
        if i1 < n:
            yield (pts[None, i1:] - block[:, None]).reshape(-1, *pts.shape[1:])
        i0 = i1


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", diff, diff)


def pair_sum(pts: np.ndarray, kernel: Kernel) -> tuple[float, float]:
    """Sum of ``kernel.g`` over unordered pairs and the minimal squared pair
    distance.

    Coincident pairs (distance 0) are left out of the sum and show up as a
    minimal squared distance of 0.
    """
    total = 0.0
    min_r2 = np.inf
    for diff in _upper_pairs(pts):
        r2 = _sq_norms(diff)
        m = r2.min()
        if m == 0.0:
            r2 = r2[r2 > 0.0]
        min_r2 = min(min_r2, m)
        total += float(kernel.g_sq(r2).sum())
    return total, float(min_r2)


def bin_pairs_signed(x: np.ndarray, v_max: float, n_bins: int, R: float) -> np.ndarray:
    """Tent-corrected weights of signed 1d separations, both pair orders."""
    acc = np.zeros(n_bins)
    bw = 2.0 * v_max / n_bins
    for v in _upper_pairs(x):
        v = v[np.abs(v) < v_max]
        idx = np.floor((v + v_max) / bw).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        acc += np.bincount(idx, 1.0 / (R - np.abs(v)), minlength=n_bins)
    # the pair order j, i has separation -v and lands in the mirrored bin
    return acc + acc[::-1]


def bin_pairs_radial(pts: np.ndarray, v_max: float, n_bins: int, R: float) -> np.ndarray:
    """Tent-corrected radial pair weights for d >= 2 (ordered pairs)."""
    acc = np.zeros(n_bins)
    bw = v_max / n_bins
    for diff in _upper_pairs(pts):
        r = np.sqrt(_sq_norms(diff))
        keep = (r < v_max) & (r > 0.0)
        tent = np.prod(R - np.abs(diff[keep]), axis=1)
        idx = np.floor(r[keep] / bw).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        acc += np.bincount(idx, 2.0 / tent, minlength=n_bins)
    return acc
