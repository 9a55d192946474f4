"""One-dimensional theory: k-th neighbor correlation functions, the
crystallization gap functional, renewal entropy rates, and free-energy
minimization over the Gamma renewal family.

The Gamma family is the working one-parameter testbed: shape 1 is the
memoryless process, shape -> infinity concentrates the gaps at 1, so both
asymptotic regimes of the free energy are reachable on one axis.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _fast
from .core import (
    ArgumentError,
    DivergenceError,
    DomainError,
    Kernel,
    Replicas,
    _check_batch,
    _is_int,
    _replica_histogram,
    _replica_ids,
    _require_replicas,
    in_cube,
    ladder,
    mean_stderr,
)
from .energy import wint_from_rho2
from .generators import GapLaw, GapLawKind, ProcessModel, rho2_analytic


@dataclass
class NeighborDensity:
    """Histogram density of the distance to the k-th neighbor on the right.

    Bin centers sit on ``j * step`` (binary steps keep integer gap locations
    exactly on centers); values integrate to ``total_mass``, which approaches
    1 from below as ``x_max`` grows.
    """

    k: int
    centers: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    step: float
    total_mass: float
    n_replicas: int

    def mean_position(self) -> float:
        return float(np.sum(self.centers * self.values) * self.step)

    def variance(self) -> float:
        m = self.mean_position() / max(self.total_mass, 1e-300)
        return float(np.sum((self.centers - m) ** 2 * self.values) * self.step)


@dataclass(frozen=True)
class GapFunctionalValue:
    """Quadratic-displacement functional of the neighbor densities; zero
    exactly on lattice inputs, strictly positive otherwise.  The overall
    constant of the underlying bound is unknown, so only orderings and joint
    vanishing are meaningful."""

    s_exponent: float
    k_max: int
    value: float
    truncation_bound: float


@dataclass
class FreeEnergyScan:
    beta: float
    family: str
    entries: list[tuple[float, float, float, float, bool]]  # (theta, w, ers, f, feasible)
    argmin_theta: float
    bracket: tuple[float, float]


def kth_neighbor_density(samples: Replicas, k: Sequence[int], L: float, x_max: float,
                         step: float = 1.0 / 32.0) -> list[NeighborDensity]:
    """Edge-corrected histograms of k-th neighbor distances in [-L/2, L/2],
    one per order in the sequence ``k``: each the mean of one histogram per
    replica of the batch ``samples``.

    A point y is the k-th neighbor of x when x < y and [x, y] contains
    exactly k + 1 points; restricting to the window is exact because [x, y]
    is contained in it.  Each pair is weighted by ``1 / (L (1 - x/L))``,
    which removes the boundary bias of the window.  One sort orders every
    replica's points; one bincount adds each replica's gaps to its own row in
    their order along the line, as a loop over replicas would add them.  The
    densities of every order come from that one sort, in the order of ``k``.
    """
    if not x_max < L:
        raise DomainError("x_max must be smaller than the window length L")
    if not (step > 0.0 and x_max >= 0.0):
        raise DomainError("the neighbor grid needs step > 0 and x_max >= 0")
    _require_replicas(len(samples))
    _check_batch(len(samples), x_max / step + 1.0)  # the per-replica rows, before any grid
    n_bins = int(round(x_max / step)) + 1
    _check_batch(len(k), n_bins)  # one density per order, before the orders are listed
    orders = list(k)
    if not orders or not all(_is_int(order) and order >= 1 for order in orders):
        raise ArgumentError("neighbor order k must be an integer of at least 1")
    if samples.d != 1:
        raise ArgumentError("neighbor densities are one-dimensional")
    inside = in_cube(samples, L)
    x, replica = samples.points[inside, 0], _replica_ids(samples.offsets)[inside]
    x = x[_fast.sort_batch(x, replica)]
    densities = []
    for order in orders:
        gaps = x[order:] - x[:-order]
        keep = (replica[order:] == replica[:-order]) & (gaps < min(x_max + step / 2.0, L))
        gaps, rows = gaps[keep], replica[order:][keep]
        idx = np.clip(np.rint(gaps / step).astype(np.int64), 0, n_bins - 1)
        per = _replica_histogram(rows, idx, len(samples), n_bins,
                                 1.0 / (L * (1.0 - gaps / L) * step))
        values, stderr = mean_stderr(per)
        densities.append(NeighborDensity(
            k=order, centers=step * np.arange(n_bins), values=values, stderr=stderr, step=step,
            total_mass=float(values.sum() * step), n_replicas=len(samples),
        ))
    return densities


def crystallization_gap(densities: list[NeighborDensity], s_exponent: float,
                        k_max: int) -> GapFunctionalValue:
    """Sum over neighbor orders of ``int min((x - k)^2 / k^(s+2), 1)`` against
    the k-th neighbor density, the quantitative distance to the lattice."""
    if not 0.0 <= s_exponent < 1.0:
        raise DomainError("s_exponent must lie in [0, 1)")
    if not _is_int(k_max):
        raise ArgumentError(f"k_max must be an integer, got {k_max!r}")
    by_k = {d.k: d for d in densities}
    if not 1 <= k_max <= len(by_k) or any(k not in by_k for k in range(1, k_max + 1)):
        raise ArgumentError(f"k_max = {k_max} needs the neighbor densities of k = 1 to "
                            f"{k_max}, got k = {sorted(by_k)}")
    total = 0.0
    for k in range(1, k_max + 1):
        d = by_k[k]
        phi = np.minimum((d.centers - k) ** 2 / k ** (s_exponent + 2.0), 1.0)
        total += float(np.sum(phi * d.values) * d.step)
    spread = max(by_k[k_max].variance(), 0.0)
    trunc = spread / ((s_exponent + 1.0) * k_max ** (s_exponent + 1.0))
    return GapFunctionalValue(s_exponent=s_exponent, k_max=k_max,
                              value=total, truncation_bound=trunc)


def renewal_entropy_rate(gap: GapLaw) -> float:
    """Per-gap relative entropy ``int f log f + 1`` against memoryless gaps.

    Nonnegative, zero exactly at the exponential law; grows like ``log k``
    for the narrow triangular laws, matching the blow-up of the entropy of
    the underlying displacement noise.  ``int f log f`` is minus the
    differential entropy h, in closed form: ``h = theta - log theta +
    lnGamma(theta) + (1 - theta) psi(theta)`` for Gamma(theta, rate theta)
    (theta = 1 is the exponential law) and ``h = 1/2 + log(2/k)`` for the
    triangle of half-width 2/k.  The rate is a relative entropy, so it is
    clamped at 0: next to theta = 1 the closed form rounds to -2e-16.
    """
    if gap.kind is GapLawKind.UNIFORM_HAT:
        return 0.5 + math.log(gap.k / 2.0)
    theta = gap.theta
    entropy = (theta - math.log(theta) + special.gammaln(theta)
               + (1.0 - theta) * special.digamma(theta))
    return max(0.0, 1.0 - float(entropy))


# default energy ladder of the scan, and the relative bracket width at which
# the golden-section refinement stops
SCAN_R_LIST = (128.0, 256.0, 512.0, 1024.0)
_REFINE_TOL = 0.02


@functools.lru_cache(maxsize=1024)
def _shape_parts(theta: float, kernel: Kernel,
                 R_list: tuple[float, ...]) -> tuple[float, float] | None:
    """The beta-free parts of the free energy of the Gamma(theta) renewal
    shape: its rho2-route energy on ``R_list`` and its entropy rate, or None
    when the energy quadrature diverges.

    Cached per process, so scans at several betas evaluate each shape once;
    only scalars are kept.  Any other error, such as the ``DomainError`` of a
    gap law too narrow for the density grid, is raised again on every call.
    """
    gap = GapLaw.gamma(theta)
    try:
        rep = wint_from_rho2(rho2_analytic(ProcessModel.renewal(gap)), kernel, R_list)
    except DivergenceError:
        return None
    return rep.extrapolated, renewal_entropy_rate(gap)


def _golden_section(fn, lo: float, hi: float, tol: float) -> tuple[float, float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)) / 2.0:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b), a, b


def free_energy_scan(beta: float, kernel: Kernel, theta_grid,
                     R_list=SCAN_R_LIST) -> FreeEnergyScan:
    """Scan ``beta * energy + entropy rate`` over Gamma gap shapes and refine
    the minimizer by golden section inside the bracketing grid interval.  Each
    energy is the rho2 route on the ladder ``R_list``; neither part depends on
    beta, so both come from the per-process cache ``_shape_parts``.

    Shapes whose energy quadrature diverges (too much clustering for the
    kernel) are marked infeasible and excluded from the minimization.
    """
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    thetas = [float(t) for t in theta_grid]
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ArgumentError("theta_grid must be increasing")
    if not any(t == 1.0 for t in thetas):
        raise ArgumentError("theta_grid must include theta = 1")
    R_list = tuple(ladder(R_list))

    entries = []
    feas = []
    for t in thetas:
        p = _shape_parts(t, kernel, R_list)
        if p is None:
            entries.append((t, math.nan, math.nan, math.nan, False))
        else:
            w, e = p
            entries.append((t, w, e, beta * w + e, True))
            feas.append((beta * w + e, t))
    if not feas:
        raise DivergenceError("no feasible shape in the scan grid")
    _, t_best = min(feas)
    idx = thetas.index(t_best)

    def f_of(theta: float) -> float:
        p = _shape_parts(theta, kernel, R_list)
        return math.inf if p is None else beta * p[0] + p[1]

    if idx == len(thetas) - 1 or not entries[idx + 1][4]:
        argmin, bracket = thetas[idx], (thetas[max(idx - 1, 0)], thetas[idx])
    elif idx == 0 or not entries[idx - 1][4]:
        argmin, bracket = thetas[idx], (thetas[idx], thetas[idx + 1])
    else:
        argmin, lo, hi = _golden_section(f_of, thetas[idx - 1], thetas[idx + 1],
                                         _REFINE_TOL)
        bracket = (lo, hi)
    return FreeEnergyScan(beta=beta, family="gamma", entries=entries,
                          argmin_theta=argmin, bracket=bracket)
