"""Kernels, point configurations, window counts and the replica reduction.

The pairwise interaction ``Kernel(d, s)`` is named, as in the paper, by its
dimension d and exponent s alone: ``-log|x|`` when s is None, in dimension 1
or 2, or the inverse power ``|x|**-s`` with ``max(0, d-2) <= s < d``.
Following the paper, every window is the centred cube ``C_R = [-R/2, R/2]^d``,
which a configuration names by its side R, and every energy is a limit over
an increasing ladder of sides R (``ladder``).  ``Replicas`` holds the
replicas of one rung as one batch, a ``PointConfiguration`` is a batch of
one, ``_check_batch`` bounds every batch array, ``in_window`` is the one
closed-window test, ``counts_in_cube`` gives every window count,
``_replica_histogram`` every (replica, bin) histogram, and ``mean_stderr``
reduces every estimate over replicas; ``_is_int`` is the one test of every
integer field.  All operations are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np


class ArgumentError(ValueError):
    """An argument is malformed (wrong shape, missing field, bad pairing)."""


class DomainError(ValueError):
    """A numeric argument lies outside the documented domain."""


class SingularConfigurationError(ValueError):
    """A configuration contains coincident points, making the energy infinite."""


class NotApplicableError(ValueError):
    """The requested quantity is undefined for this kernel family."""


class DivergenceError(RuntimeError):
    """A quadrature or limit was diagnosed as divergent; no value is reported."""


def _is_int(x) -> bool:
    """Whether ``x`` is an integer (``int`` or a numpy integer), not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Kernel:
    """Radial interaction kernel in dimension ``d``: ``-log|x|`` when ``s``
    is None, in d = 1 or 2, else ``|x|**-s`` with ``max(0, d-2) <= s < d``
    and ``s > 0`` (``s = 0`` is not a synonym for the log kernel here).
    """

    d: int
    s: float | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.d) and 1 <= self.d <= 3):
            raise ArgumentError(f"dimension must be an integer in [1, 3], got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))  # a plain int, whose powers stay exact
        if self.s is None:
            if self.d == 3:
                raise ArgumentError("log kernels take d = 1 or 2")
        elif not max(0.0, self.d - 2.0) <= self.s < self.d:
            raise DomainError(
                f"Riesz exponent must satisfy max(0, d-2) <= s < d, got s={self.s}, d={self.d}"
            )
        elif self.s <= 0.0:  # d <= 2 here, as s >= 1 in d = 3
            raise DomainError("Riesz exponent must be positive in dimensions 1 and 2")

    @property
    def is_log(self) -> bool:
        return self.s is None

    @property
    def family(self) -> str:
        """The kernel's tag in a spec: "log1d", "log2d" or "riesz"."""
        return f"log{self.d}d" if self.is_log else "riesz"

    def g(self, r):
        """Evaluate the kernel at radius ``r`` (vectorized, r > 0 assumed)."""
        r = np.asarray(r, dtype=float)
        if self.is_log:
            return -np.log(r)
        return r ** (-self.s)

    def g_sq(self, r2: np.ndarray) -> np.ndarray:
        """The kernel at the squared radii of the float array ``r2``, evaluated
        in place and returned: ``-log(r2) / 2`` or ``exp(-(s/2) log r2)``,
        which saves a square root and is faster than the power."""
        np.log(r2, out=r2)
        np.multiply(r2, -0.5 if self.is_log else -0.5 * self.s, out=r2)
        return r2 if self.is_log else np.exp(r2, out=r2)


def log_kernel(d: int = 1) -> Kernel:
    return Kernel(d)


def riesz_kernel(s: float, d: int = 1) -> Kernel:
    return Kernel(d, float(s))


def _side(R) -> float:
    """``R`` as the side of the window C_R, checked to be positive."""
    if not R > 0:
        raise DomainError(f"window side must be positive, got {R}")
    return float(R)


def in_window(points: np.ndarray, half: float) -> np.ndarray:
    """Which points of ``points`` (``(..., d)``) lie in the closed cube
    ``[-half, half]^d``: exact comparisons, one axis at a time; NaN is outside."""
    inside = (points[..., 0] >= -half) & (points[..., 0] <= half)
    for a in range(1, points.shape[-1]):
        inside &= (points[..., a] >= -half) & (points[..., a] <= half)
    return inside


def _window_points(points, R: float) -> np.ndarray:
    """``points`` as a contiguous ``(n, d)`` float64 array, checked to lie
    inside C_R (``in_window``) with d in [1, 3]."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or not 1 <= pts.shape[1] <= 3:
        raise ArgumentError(f"points must have shape (n, d <= 3), got {np.shape(points)}")
    if np.isnan(pts).any():
        raise ArgumentError("points contain NaN coordinates")
    if not in_window(pts, R / 2.0).all():
        raise DomainError("points fall outside the window")
    return np.ascontiguousarray(pts)


class Replicas:
    """The replicas of one rung as one ragged batch inside C_R.

    ``points`` holds every replica's points, replica j in the rows
    ``offsets[j]:offsets[j + 1]``; ``counts`` are the rows per replica, ``n``
    is the total number of points and ``len(batch)`` the number of replicas.
    ``batch[j]`` is replica j as a ``PointConfiguration``.  The points are
    checked once for the whole batch: d in [1, 3] columns, no NaN, inside C_R.
    """

    __slots__ = ("R", "points", "offsets")

    def __init__(self, points, offsets, R: float):
        self.R = _side(R)
        self.points = _window_points(points, self.R)
        offsets = np.asarray(offsets)
        if (offsets.ndim != 1 or offsets.size == 0 or offsets.dtype.kind not in "iu"
                or offsets[0] != 0 or offsets[-1] != self.points.shape[0]
                or (np.diff(offsets) < 0).any()):
            raise ArgumentError("offsets must rise from 0 to the number of points")
        self.offsets = offsets.astype(np.int64)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, key: int) -> PointConfiguration:
        j = range(len(self))[key]  # negative from the end; IndexError past it
        return PointConfiguration(self.points[self.offsets[j]:self.offsets[j + 1]], self.R)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(len={len(self)}, n={self.n}, d={self.d}, R={self.R})"


class PointConfiguration(Replicas):
    """Finite point set inside the centred cube C_R of side ``R``: a batch of
    one replica, offsets ``[0, n]``.  Duplicate points are permitted but make
    any pair energy infinite, so ``energy.hint_R`` rejects them."""

    __slots__ = ()

    def __init__(self, points, R: float):
        super().__init__(points, [0, len(np.atleast_1d(points))], R)


def ladder(R_list) -> list[float]:
    """The sides of an R ladder as floats, checked to be positive and increasing."""
    R_list = [_side(R) for R in R_list]
    if any(b <= a for a, b in zip(R_list, R_list[1:])):
        raise ArgumentError("R_list must be increasing")
    return R_list


def _require_replicas(n: int) -> None:
    if n < 2:
        raise ArgumentError("at least 2 replicas are required for a standard error")


def mean_stderr(per) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the n replicas on axis 0 of ``per`` and its standard error
    (sample standard deviation over sqrt(n)), the one replica reduction."""
    per = np.asarray(per, dtype=float)
    _require_replicas(len(per))
    return per.mean(axis=0), per.std(axis=0, ddof=1) / math.sqrt(len(per))


def in_cube(config: Replicas, R: float) -> np.ndarray:
    """Mask of the points of ``config`` (a configuration or a batch) inside
    the centered cube of side R (closed faces)."""
    if R > config.R:
        raise DomainError("cube side exceeds the configuration window")
    return in_window(config.points, R / 2.0)


# the most 8-byte words one batch array may hold (1 GiB): a draw, grid or
# histogram that needs more raises DomainError before numpy is asked for it
_BATCH_LIMIT = 2**27


def _check_batch(n: int, count: float) -> None:
    """Raise ``DomainError`` when ``n`` rows of ``count`` 8-byte words
    exceed ``_BATCH_LIMIT``."""
    if n * count > _BATCH_LIMIT:
        # an int count from a spec may be past the float range
        size = f"{count:.15g}" if isinstance(count, float) else f"{Decimal(count):.15g}"
        raise DomainError(f"{n} x {size} words are more than the "
                          f"{_BATCH_LIMIT} a batch may hold")


def _replica_ids(offsets: np.ndarray) -> np.ndarray:
    """The replica of each row of a batch with row offsets ``offsets``."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _replica_histogram(rows: np.ndarray, bins: np.ndarray, n: int, width: int,
                       weights: np.ndarray | None = None) -> np.ndarray:
    """The ``(n, width)`` histogram of the pairs (replica ``rows``, ``bins``),
    one row per replica, each cell adding its ``weights`` (or 1) in their
    order; checked against ``_BATCH_LIMIT`` before it allocates.  ``rows``
    may have any integer dtype: the cell index is formed in int64."""
    _check_batch(n, width)
    return np.bincount(rows.astype(np.int64) * width + bins, weights,
                       minlength=n * width).reshape(n, width)


def counts_in_cube(batch: Replicas, R: float, tiles: int) -> np.ndarray:
    """One row per replica of ``batch``: its point counts in ``tiles`` equal
    slabs, along the first axis, of the centered cube of side R (closed
    faces).  A slab boundary counts in the upper slab, the upper face in the last."""
    inside = in_cube(batch, R)
    _check_batch(len(batch), tiles)  # before the slab edges
    edges = np.linspace(-R / 2.0, R / 2.0, tiles + 1)
    tile = np.clip(np.searchsorted(edges, batch.points[inside, 0], side="right") - 1,
                   0, tiles - 1)
    return _replica_histogram(_replica_ids(batch.offsets)[inside], tile, len(batch), tiles)
