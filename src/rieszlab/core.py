"""Kernels, point configurations, window counts and the replica reduction.

The pairwise interaction is ``-log|x|`` in dimension 1 or 2, or the inverse
power ``|x|**-s`` with ``max(0, d-2) <= s < d``.  Following the paper, every
window is the centred cube ``C_R = [-R/2, R/2]^d``, which a configuration
names by its side R, and every energy is a limit over an increasing ladder of
sides R (``ladder``).  ``Replicas`` holds the replicas of one rung as one
batch, ``in_cube`` gives every window count, and ``mean_stderr`` reduces
every estimate over replicas.
All operations are pure functions of their arguments, so safe in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


class KernelFamily(Enum):
    LOG1D = "log1d"
    LOG2D = "log2d"
    RIESZ = "riesz"


@dataclass(frozen=True)
class Kernel:
    """Radial interaction kernel.

    ``LOG1D``/``LOG2D`` are the logarithmic kernels in d=1 and d=2; ``RIESZ``
    is ``|x|**-s`` and requires ``max(0, d-2) <= s < d`` with ``s > 0`` in
    dimensions 1 and 2 (``s = 0`` is not a synonym for the log kernels here).
    """

    family: KernelFamily
    d: int
    s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or not (1 <= self.d <= 3):
            raise ArgumentError(f"dimension must be an integer in [1, 3], got {self.d!r}")
        if self.family is KernelFamily.LOG1D:
            if self.d != 1:
                raise ArgumentError("log kernel in variant LOG1D requires d = 1")
            if self.s is not None:
                raise ArgumentError("log kernels carry no exponent")
        elif self.family is KernelFamily.LOG2D:
            if self.d != 2:
                raise ArgumentError("log kernel in variant LOG2D requires d = 2")
            if self.s is not None:
                raise ArgumentError("log kernels carry no exponent")
        else:
            if self.s is None:
                raise ArgumentError("Riesz kernel requires an exponent s")
            lo = max(0.0, self.d - 2.0)
            if not (lo <= self.s < self.d):
                raise DomainError(
                    f"Riesz exponent must satisfy max(0, d-2) <= s < d, got s={self.s}, d={self.d}"
                )
            if self.d <= 2 and self.s <= 0.0:
                raise DomainError("Riesz exponent must be positive in dimensions 1 and 2")

    @property
    def is_log(self) -> bool:
        return self.family is not KernelFamily.RIESZ

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
    return Kernel(KernelFamily.LOG1D if d == 1 else KernelFamily.LOG2D, d)


def riesz_kernel(s: float, d: int = 1) -> Kernel:
    return Kernel(KernelFamily.RIESZ, d, float(s))


def _side(R) -> float:
    """``R`` as the side of the window C_R, checked to be positive."""
    if not R > 0:
        raise DomainError(f"window side must be positive, got {R}")
    return float(R)


def _window_points(points, R: float) -> np.ndarray:
    """``points`` as a contiguous ``(n, d)`` float64 array, checked to lie
    inside C_R (closed faces, exact comparison) with d in [1, 3]."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or not 1 <= pts.shape[1] <= 3:
        raise ArgumentError(f"points must have shape (n, d <= 3), got {np.shape(points)}")
    if np.isnan(pts).any():
        raise ArgumentError("points contain NaN coordinates")
    if ((pts < -R / 2.0) | (pts > R / 2.0)).any():
        raise DomainError("points fall outside the window")
    return np.ascontiguousarray(pts)


class PointConfiguration:
    """Finite point set inside the centred cube C_R of side ``R``.

    Points are stored as an ``(n, d)`` float64 array, d its column count.
    Membership is checked with closed intervals and exact comparison;
    duplicate points are permitted at construction but make any pair energy
    infinite, so the energy routes reject them (``energy.hint_R`` raises
    ``SingularConfigurationError``).
    """

    __slots__ = ("R", "points")

    def __init__(self, points, R: float):
        self.R = _side(R)
        self.points = _window_points(points, self.R)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PointConfiguration(n={self.n}, d={self.d}, R={self.R})"


class Replicas:
    """The replicas of one rung as one ragged batch inside C_R.

    ``points`` holds every replica's points, replica j in the rows
    ``offsets[j]:offsets[j + 1]``; ``counts`` are the rows per replica.  As
    for a ``PointConfiguration``, ``n`` is the total number of points, while
    ``len(batch)`` is the number of replicas.  ``batch[j]`` is replica j as a
    ``PointConfiguration`` and ``batch[a:b]`` the replicas a..b-1 as a batch.
    The points are checked once for the whole batch, as a configuration's are.
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

    def __getitem__(self, key):
        if isinstance(key, slice):
            a, b, step = key.indices(len(self))
            if step != 1:
                raise ArgumentError("replica slices take consecutive replicas")
            offsets = self.offsets[a:max(a, b) + 1]
            return Replicas(self.points[offsets[0]:offsets[-1]], offsets - offsets[0], self.R)
        j = range(len(self))[key]  # an int, negative from the end; IndexError past it
        return PointConfiguration(self.points[self.offsets[j]:self.offsets[j + 1]], self.R)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Replicas(len={len(self)}, n={self.n}, d={self.d}, R={self.R})"


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


def in_cube(config: PointConfiguration | Replicas, R: float) -> np.ndarray:
    """Mask of the points of ``config`` (a configuration or a batch) inside
    the centered cube of side R (closed faces)."""
    if R > config.R:
        raise DomainError("cube side exceeds the configuration window")
    return np.all(np.abs(config.points) <= R / 2.0, axis=1)


def points_in_cube(config: PointConfiguration, R: float) -> np.ndarray:
    """Points of ``config`` inside the centered cube of side R (closed faces)."""
    return config.points[in_cube(config, R)]


def counts_in_cube(batch: Replicas, R: float) -> np.ndarray:
    """Per replica of ``batch``, its number of points inside the centered
    cube of side R (closed faces)."""
    inside = np.concatenate([[0], np.cumsum(in_cube(batch, R))])
    return np.diff(inside[batch.offsets])

