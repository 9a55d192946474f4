"""Hot numeric loops: pairwise kernel sums and tent-weighted pair binning.

``pair_sums`` walks every unordered pair along the circular diagonals
(i, i + k mod n), k = 1 .. n // 2, of a stack of point sets with n points.
A block of consecutive diagonals is one flat subtraction of two periodic
copies of the points, built once per stack in one scratch arena; blocks
hold about ``_SUM_BUDGET`` entries per coordinate, so memory stays bounded
for any number of points.  A d = 1 set of at least ``_FAR_MIN`` points is
split instead (Dutt, Gu & Rokhlin, SIAM J. Numer. Anal. 33, 1996): sorted
and cut into equal boxes, its pairs in the same or adjacent boxes are
summed directly along the sorted diagonals (i, i + k), and the others,
where g is smooth, through ``_CHEB_P`` Chebyshev nodes per box, whose
interpolation error (3 + 2 sqrt 2)^-p is below 1e-16: with m the box sums
of the basis at the points, the far field is m . G m for the block-Toeplitz
G of g between the nodes, one FFT along the boxes.  One binning walk,
``bin_pairs_radial``, serves every d, and ``bin_pairs_signed`` is its d = 1
rows halved and mirrored about 0.  It keeps only separations 0 < r <
``v_max``, so coincident pairs are left out in every d, as ``pair_sums``
leaves them out.  It sorts each replica by its first coordinate in one
padded ``argsort`` for the whole batch, and in d >= 2 copies each point
into windows of two adjacent strips of the second coordinate, so
that a pair within ``v_max`` meets in one window (cell lists; Allen &
Tildesley, *Computer Simulation of Liquids*, 1987).  Each row then counts
the later rows of its window within ``v_max`` in the first coordinate, and
diagonal k reads only the rows whose count reaches k; each diagonal adds
one ``bincount`` over (replica, bin).  Besides the output, a walk holds a
few words per copy and a diagonal's arrays, bounded by ``_BAND_ROWS``
entries unless one replica is larger.  Every sum runs in an order set by
the points of its own set or replica, without BLAS, so results are
reproducible and a replica's row is the same in any batch.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Kernel, _check_batch, _replica_histogram, _replica_ids

# entries per coordinate in a block of pair_sums.  Timed at 2**13..2**17 on
# the energy workloads' sets (n = 64, 128, 512, 2048 in d = 1, Poisson n ~ 256
# in d = 2): 2**15 and 2**16 tie within a shared 2-vCPU host's noise, 2**13
# is 15-57% slower and 2**17 up to 9%; 2**15 needs half the memory
_SUM_BUDGET = 2**15

# d = 1 sets of at least _FAR_MIN points take the near/far split, in boxes
# of about _BOX_POINTS points, at most _MAX_BOXES of them.  Timed on 30 rows
# of n jittered lattice points, best of 15 on a shared 2-vCPU host: the
# split overtakes the circular walk at about 360 points for Riesz s = 0.5
# and 490 for log1d, and at 512 takes 10.7 against 15.0 ms and 10.3 against
# 11.0 ms.  Boxes of 16 points beat 8, 12, 24 and 32 by 5-30% from n = 512
# to 4096.  128 boxes keep the far-field blocks under 1 MiB; 256 would be
# 15% faster at n = 4096 and 35% at 8192
_FAR_MIN = 512
_BOX_POINTS = 16
_MAX_BOXES = 128
# Chebyshev nodes per box: interpolation between boxes one box apart
# converges at the rate (3 + 2 sqrt 2)^-p, which is <= 1e-16 from p = 21
_CHEB_P = math.ceil(16 / math.log10(3 + 2 * math.sqrt(2)))
_THETA = [(2 * a + 1) * math.pi / (2 * _CHEB_P) for a in range(_CHEB_P)]
# the first-kind nodes and their barycentric weights, from math's cos and
# sin: numpy's would map its trigonometric loops into every process at
# import, 0.4 MiB of resident memory
_NODES = np.array([math.cos(t) for t in _THETA])
_WEIGHTS = np.array([(-1) ** a * math.sin(t) for a, t in enumerate(_THETA)])

# the binning walk's diagonals take blocks of whole replicas of about
# _BAND_ROWS copies.  Timed at 2**14, 2**15, 2**16 and unblocked on the
# correlation_stats rho2 batches (d = 1 and 2) and on Poisson in d = 2 and 3:
# the times tie within a shared 2-vCPU host's noise, and 2**14 keeps the
# d = 2 batch's tracemalloc peak at its window set-up (2.2 MiB, against 3.0
# at 2**15 and 4.2 unblocked)
_BAND_ROWS = 2**14
# at most 2**20 strips: a strip index is then off by rounding less than the
# 1e-9 of v_max by which a strip is wider than the widest pair it must hold
_MAX_STRIPS = 2**20


def _g_sum(r2: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Sums of ``kernel.g`` over the last axis of squared radii ``r2``,
    evaluated in place: ``-1/2 sum log r2`` with one scale per sum, or the
    sum of ``kernel.g_sq``."""
    if kernel.is_log:
        return -0.5 * np.log(r2, out=r2).sum(axis=-1)
    return kernel.g_sq(r2).sum(axis=-1)


def _kernel_sums(r2: np.ndarray, kernel: Kernel, coincident: bool) -> np.ndarray:
    """``_g_sum`` of the circular walk's block ``r2``; with ``coincident``
    set, squared radii of 0 add nothing."""
    if coincident:
        # the squared radius at which the kernel term is exactly 0
        r2[r2 == 0.0] = 1.0 if kernel.is_log else np.inf
    return _g_sum(r2, kernel)


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


def _far_transfer(kernel: Kernel, h: float, boxes: int) -> np.ndarray:
    """The conjugate ``rfft``, over 2 ``boxes`` box offsets, of the far-field
    blocks ``G[delta][a, b] = g(h delta + h/2 (t_b - t_a))`` at the Chebyshev
    nodes t of boxes of width ``h``, for 2 <= delta < ``boxes`` and 0 at every
    other offset: shape ``(boxes + 1, p, p)``, built one row a at a time."""
    p = _NODES.size
    out = np.empty((boxes + 1, p, p), complex)
    col = np.zeros((2 * boxes, p))
    delta = np.arange(2, boxes)[:, None]
    for a in range(p):
        col[2:boxes] = kernel.g(h * delta + (0.5 * h) * (_NODES - _NODES[a]))
        np.conjugate(np.fft.rfft(col, axis=0), out=out[:, a])
    return out


def _basis(u: np.ndarray) -> np.ndarray:
    """The p Chebyshev-Lagrange basis functions at the box coordinates ``u``
    in [-1, 1], shape ``(len(u), p)``, by the barycentric formula; a point on
    a node takes that node's unit vector."""
    basis = u[:, None] - _NODES
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_WEIGHTS, basis, out=basis)
        total = basis.sum(axis=1)
        basis /= total[:, None]
    on = ~np.isfinite(total)
    if on.any():
        basis[on] = u[on, None] == _NODES
    return basis


def _near_sum(x: np.ndarray, box: np.ndarray, kernel: Kernel) -> tuple[float, float]:
    """The sum of ``kernel.g`` over the pairs of the sorted d = 1 row ``x``
    whose boxes ``box`` are equal or adjacent, walked along the diagonals
    (i, i + k) in blocks of about ``_SUM_BUDGET`` entries, coincident pairs
    left out, and the row's minimal squared pair distance."""
    n = x.size
    # sorted, the closest pair is a pair of neighbours
    gaps = np.diff(x)
    min_r2 = float(np.min(gaps * gaps))
    # point i meets the points i + 1 .. i + reach[i] of its own and the next box
    ends = np.cumsum(np.bincount(box))
    reach = ends[np.minimum(box + 1, len(ends) - 1)] - np.arange(1, n + 1)
    last = int(reach.max())
    w = max(1, min(last, _SUM_BUDGET // n))
    # row k of the windows is x[i + k] - x[i], i < n, with x[i + k] = inf
    # past the row's end
    windows = sliding_window_view(np.concatenate([x, np.full(last + w, np.inf)]), n)
    total = 0.0
    for k0 in range(1, last + 1, w):
        r2 = windows[k0:k0 + w] - x
        np.multiply(r2, r2, out=r2)
        near = reach >= np.arange(k0, k0 + w)[:, None]
        if min_r2 == 0.0:
            near &= r2 > 0.0
        total += _g_sum(r2[near], kernel)
    return total, min_r2


def _far_sum(x: np.ndarray, box: np.ndarray, lo: float, h: float,
             transfer: np.ndarray) -> float:
    """The sum of g over the pairs of the sorted d = 1 row ``x`` whose boxes
    [lo + i h, lo + (i + 1) h), i < B, of ``transfer`` (``_far_transfer``)
    are two or more apart: sum_i m_i . sum_{delta >= 2} G[delta] m_{i + delta},
    with m the sums of the basis over each box's points, through the FFT of
    m along the boxes."""
    boxes = transfer.shape[0] - 1
    u = box + 0.5
    u *= h
    u += lo
    np.subtract(x, u, out=u)
    u *= 2.0 / h
    m = np.zeros((boxes, _NODES.size))
    # the basis in chunks of about _SUM_BUDGET entries; each chunk's boxes
    # are runs of the sorted row
    chunk = max(1, _SUM_BUDGET // _NODES.size)
    for c0 in range(0, x.size, chunk):
        b = box[c0:c0 + chunk]
        first = np.flatnonzero(np.diff(b, prepend=-1))
        m[b[first]] += np.add.reduceat(_basis(u[c0:c0 + chunk]), first, axis=0)
    mh = np.fft.rfft(m, 2 * boxes, axis=0)
    terms = (mh.conj() * np.einsum("fab,fb->fa", transfer, mh)).real
    # the DFT pairs f, 2B - f hold conjugate terms; f = 0 and B stand alone
    terms[1:boxes] *= 2.0
    return float(terms.sum()) / (2 * boxes)


def pair_sums(points: np.ndarray, offsets: np.ndarray, kernel: Kernel,
              R: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point set ``points[offsets[j]:offsets[j + 1]]`` of the ``(N, d)``
    array ``points``: the sum of ``kernel.g`` over its unordered pairs and
    its minimal squared pair distance.

    Sets are grouped by point count n.  Below ``_FAR_MIN`` points, and in
    every d >= 2, they are stacked, coordinates first, as many as fit
    ``_SUM_BUDGET`` entries (at least one) at a time, so that every step is
    a flat array operation.  A set of n points walks its n // 2 circular
    diagonals in blocks of w, about ``_SUM_BUDGET / n`` of them; w depends
    on n alone and each set sums its own row, so a set's values depend only
    on its own points.

    A d = 1 set of at least ``_FAR_MIN`` points is sorted and cut into B
    equal boxes of about ``_BOX_POINTS`` points (at most ``_MAX_BOXES``)
    spanning C_R, or C_R widened to the set's span when it reaches past C_R.
    Pairs in the same or adjacent boxes are summed directly
    (``_near_sum``), the rest through p = ``_CHEB_P`` Chebyshev nodes per
    box and one FFT (``_far_sum``), within about (3 + 2 sqrt 2)^-p <= 1e-16
    of their sum of |g|, below the direct sum's rounding.  The far-field
    blocks depend on (B, box width, kernel) alone and are built once per
    call, under 1 MiB; the other temporaries of a set take about
    ``_SUM_BUDGET`` entries per block besides a few arrays of n.  Such a
    set's values depend only on its own points, ``R`` and the kernel.

    Coincident pairs are left out of the sum and show up as a minimal
    squared distance of 0; sets of fewer than 2 points give 0 and inf.
    """
    counts = np.diff(offsets)
    sums = np.zeros(counts.size)
    min_r2 = np.full(counts.size, np.inf)
    # the sets of each size n, in order, as runs of a stable sort by size
    order = np.argsort(counts, kind="stable")
    sizes = counts[order]
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
    plan, long_sets = [], []
    for a, b in zip(starts, starts[1:] + [counts.size]):
        n = int(sizes[a])
        if points.shape[1] == 1 and n >= _FAR_MIN:
            long_sets.extend(order[a:b].tolist())
        elif n > 1:
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
    # the far-field blocks of the last box cut; sets of nearby sizes share
    # one cut
    cut = transfer = None
    for j in long_sets:
        x = np.sort(coords[0, offsets[j]:offsets[j + 1]])
        lo, hi = min(-R / 2, x[0]), max(R / 2, x[-1])
        boxes = min(_MAX_BOXES, round(x.size / _BOX_POINTS))
        h = (hi - lo) / boxes or 1.0
        if cut != (h, boxes):
            cut, transfer = (h, boxes), _far_transfer(kernel, h, boxes)
        box = np.minimum(((x - lo) / h).astype(np.intp), boxes - 1)
        near, min_r2[j] = _near_sum(x, box, kernel)
        sums[j] = near + _far_sum(x, box, lo, h, transfer)
    return sums, min_r2


def pair_sum(pts: np.ndarray, kernel: Kernel, R: float) -> tuple[float, float]:
    """``pair_sums`` of the single point set ``pts``.  No library code calls
    it: it stays only as the function that perfbench's tracer hooks, until
    that hook moves to ``pair_sums``."""
    sums, min_r2 = pair_sums(pts, np.array([0, len(pts)]), kernel, R)
    return float(sums[0]), float(min_r2[0])


def sort_batch(x: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts the values ``x`` by (group, value)
    when the ids ``group`` never decrease: ``np.lexsort((x, group))`` bit for
    bit.  Each run of equal ids is one row of a table padded with NaN, which
    sorts after every value, and one stable ``argsort`` along the rows sorts
    every run at once.  A batch so ragged that the padding would outgrow the
    values goes to ``np.lexsort`` itself."""
    n = x.size
    new = np.ones(n, bool)
    np.not_equal(group[1:], group[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    lengths = np.diff(starts, append=n)
    width = int(lengths.max(initial=0))
    if starts.size * width > 2 * n:
        return np.lexsort((x, group))
    table = np.full((starts.size, width), np.nan)
    at = np.repeat(width * np.arange(starts.size) - starts, lengths)
    at += np.arange(n)
    table.ravel()[at] = x
    del at
    order = table.argsort(axis=1, kind="stable")
    del table
    order += starts[:, None]
    return order[np.arange(width) < lengths[:, None]]


def _strips(R: float, reach: float, d: int) -> int:
    """How many strips of width at least ``reach`` cut the second coordinate
    of C_R: ``floor(R / reach)``, at most ``_MAX_STRIPS``; 1 (no cut) in
    d = 1, for an infinite side, and where fewer than three fit, since two
    strips make one window."""
    strips = min(int(R // reach), _MAX_STRIPS) if d > 1 and 0.0 < reach < R < math.inf else 1
    return strips if strips > 2 else 1


def _counted_band(x: np.ndarray, group: np.ndarray, reach: float) -> np.ndarray:
    """For each row i of the values ``x``, sorted within each run of equal
    ids ``group`` (which never decrease): how many later rows j of its run
    have ``x[j] <= x[i] + reach``.  Rounding may count a few rows past
    ``reach``, never fewer, and never a row of another run.  Unsigned, in the
    narrowest dtype that holds the largest count."""
    n = x.size
    if n == 0:
        return np.zeros(0, np.uint8)
    # one search over keys that rise through the runs: run g is shifted by
    # g * gap.  Every key is within 2 u K of its exact value (u the unit
    # roundoff, K the largest key), so a margin of 4 u K or more keeps every
    # row within reach, and a gap of 2 (top + room) keeps each query below
    # the next run's keys
    top = float(np.abs(x).max()) + reach
    room = 8.0 * np.spacing(4.0 * (float(group[-1]) + 2.0) * top)
    key = group * (2.0 * (top + room))
    key += x
    cnt = np.searchsorted(key, key + (reach + room), side="right")
    del key
    cnt -= np.arange(1, n + 1)
    return cnt.astype(np.min_scalar_type(int(cnt.max())))


def _windows(points: np.ndarray, offsets: np.ndarray, reach: float, R: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """The copies of a batch's points that the band walk reads, sorted by
    (replica, window, first coordinate): their coordinates, shape ``(d, m)``,
    their replica, the mask of the copies marked upper (None without
    strips), and their counted band (``_counted_band``).

    Without strips (``_strips``) each replica is one window and each point
    one copy.  With S strips, window w < S - 1 holds the strips w and w + 1:
    a point of an inner strip s has a copy in window s - 1, marked upper, and
    one in window s; a point of strip 0 or S - 1 has one copy, unmarked.  A
    pair of points in the same or adjacent strips then meets in exactly one
    window where its copies are not both upper (the window of its lower
    strip, or the last window), and every pair of a replica within ``reach``
    of each other lies in the same or adjacent strips."""
    d = points.shape[1]
    replica = _replica_ids(offsets)
    src = sort_batch(points[:, 0], replica)
    strips = _strips(R, reach, d)
    upper = None
    if strips > 1:
        windows = strips - 1
        strip = np.clip(np.floor((points[src, 1] + R / 2) / (R / strips)), 0, windows)
        strip = strip.astype(np.intp)
        inner = (strip > 0) & (strip < windows)
        copies = inner + 1
        # the (replica, window) id of each copy, in x order within a replica
        group = (replica * windows + np.minimum(strip, windows - 1)).astype(
            np.min_scalar_type((offsets.size - 1) * windows))
        group = np.repeat(group, copies)
        src = np.repeat(src, copies)
        first = (np.cumsum(copies) - copies)[inner]
        del strip, inner, copies
        group[first] -= 1
        upper = np.zeros(src.size, bool)
        upper[first] = True
        del first
        # stable, so x stays sorted within each group
        regroup = np.argsort(group, kind="stable")
        src, group, upper = src[regroup], group[regroup], upper[regroup]
        del regroup
        replica = group // windows
    else:
        group = replica
    coords = np.empty((d, src.size))
    for c in range(d):
        np.take(points[:, c], src, out=coords[c])
    del src
    return coords, replica, upper, _counted_band(coords[0], group, reach)


def _band_diagonals(points: np.ndarray, offsets: np.ndarray, reach: float, R: float
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of whole replicas and diagonal k = 1 .. the block's largest
    counted band, over the copies of ``_windows``: the replica of each i, the
    ``band`` mask of the pairs (i, i + k) in i's counted band whose copies
    are not both upper, and the differences ``pts[i + k] - pts[i]``, shape
    ``(d, m - k)``.  Every pair of a replica at most ``reach`` apart is in
    exactly one band.  A block holds the replicas whose
    first copy lies in the same stretch of ``_BAND_ROWS`` copies, so the
    arrays of a diagonal are bounded unless one replica is larger."""
    coords, replica, upper, cnt = _windows(points, offsets, reach, R)
    starts = np.searchsorted(replica, np.arange(offsets.size - 1))
    edges = starts[np.flatnonzero(np.diff(starts // _BAND_ROWS, prepend=-1))].tolist()
    for a, b in zip(edges, edges[1:] + [replica.size]):
        pts, rows, band_of = coords[:, a:b], replica[a:b], cnt[a:b]
        for k in range(1, int(band_of.max(initial=0)) + 1):
            band = band_of[:-k] >= k
            if upper is not None:
                band &= ~(upper[a:b - k] & upper[a + k:b])
            yield rows[:-k], band, pts[:, k:] - pts[:, :-k]


def bin_pairs_signed(points: np.ndarray, offsets: np.ndarray, v_max: float, n_bins: int,
                     R: float) -> np.ndarray:
    """Tent-corrected weights of signed 1d separations on ``n_bins`` (even)
    bins of [-v_max, v_max], both pair orders, one row per replica
    ``points[offsets[j]:offsets[j + 1], 0]``: the radial rows of
    ``n_bins // 2`` bins (``bin_pairs_radial``), halved, since each order
    of a pair lands on its own side of 0, and mirrored about 0.  A
    separation v lands in bin n_bins // 2 + floor(|v| / bw) or its mirror,
    and coincident pairs are left out, as in every d."""
    half = bin_pairs_radial(points, offsets, v_max, n_bins // 2, R)
    half *= 0.5
    return np.concatenate([half[:, ::-1], half], axis=1)


def bin_pairs_radial(points: np.ndarray, offsets: np.ndarray, v_max: float, n_bins: int,
                     R: float) -> np.ndarray:
    """Tent-corrected radial pair weights (ordered pairs), one row per
    replica ``points[offsets[j]:offsets[j + 1]]``.

    In d >= 2 the second coordinate is cut into strips at least ``v_max``
    wide and each replica into windows of two adjacent strips
    (``_windows``), about two copies per point, so the walk reads the pairs
    within ``v_max`` in the first coordinate inside one window, not across
    the whole replica; each diagonal adds one ``bincount`` over (replica,
    bin), and the windows depend on ``R`` and ``v_max`` alone, so a
    replica's row is the same bytes in any batch.  Besides its output it
    holds about d + 2 words per copy and, per diagonal, a few arrays of at
    most ``_BAND_ROWS`` entries per coordinate or one replica's copies."""
    n = offsets.size - 1
    _check_batch(n, n_bins)
    acc = np.zeros((n, n_bins))
    bw = v_max / n_bins
    reach = v_max * (1.0 + 1e-9)
    for rows, band, diff in _band_diagonals(points, offsets, reach, R):
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
        acc += _replica_histogram(rows[near], idx, n, n_bins, 2.0 / tent)
    return acc
