"""Samplers for the concrete stationary processes and their analytic
two-point correlation functions.

All models have intensity 1.  Samplers are pure functions of
``(model, R, seed)``: the same triple yields a bit-identical configuration in
C_R, and distinct replica indices give independent streams, so replicas can
be generated by any number of workers without shared state.  ``replicas`` is
the one seed schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np
from scipy import special
from scipy.fft import next_fast_len

from .core import (
    ArgumentError,
    DomainError,
    NotApplicableError,
    PointConfiguration,
    _side,
)


# ---------------------------------------------------------------------------
# gap laws for renewal models (all normalized to mean 1)
# ---------------------------------------------------------------------------

class GapLawKind(Enum):
    GAMMA = "gamma"
    UNIFORM_HAT = "uniform_hat"


@dataclass(frozen=True)
class GapLaw:
    """Mean-1 law of the i.i.d. gaps of a renewal process.

    ``GAMMA`` has shape ``theta`` and rate ``theta`` (theta = 1 is the
    exponential law); ``UNIFORM_HAT(k)`` is the law of ``1 + V' - V`` with V, V'
    independent uniform on [-1/k, 1/k], a triangular density supported on
    [1 - 2/k, 1 + 2/k] (k >= 2 so that gaps stay nonnegative).
    """

    kind: GapLawKind
    theta: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind is GapLawKind.GAMMA:
            if self.theta is None or not self.theta > 0:
                raise DomainError("Gamma gap law requires shape theta > 0")
        elif self.kind is GapLawKind.UNIFORM_HAT:
            if self.k is None or not (isinstance(self.k, (int, np.integer)) and self.k >= 2):
                raise DomainError("UniformHat gap law requires integer k >= 2")

    @staticmethod
    def exponential() -> "GapLaw":
        return GapLaw.gamma(1.0)

    @staticmethod
    def gamma(theta: float) -> "GapLaw":
        return GapLaw(GapLawKind.GAMMA, theta=float(theta))

    @staticmethod
    def uniform_hat(k: int) -> "GapLaw":
        return GapLaw(GapLawKind.UNIFORM_HAT, k=k)

    @property
    def std(self) -> float:
        if self.kind is GapLawKind.GAMMA:
            return self.theta**-0.5
        return math.sqrt(2.0 / 3.0) / self.k

    @property
    def head_exponent(self) -> float:
        """Power alpha with density ~ x**alpha as x -> 0 (0 when bounded)."""
        if self.kind is GapLawKind.GAMMA:
            return self.theta - 1.0
        return 0.0

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            out = np.maximum(0.0, 1.0 - np.abs(x - 1.0) / w) / w
            return out
        theta = self.theta
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        out[pos] = np.exp(
            theta * math.log(theta)
            - special.gammaln(theta)
            + (theta - 1.0) * np.log(xp)
            - theta * xp
        )
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            t = np.clip((x - 1.0) / w, -1.0, 1.0)
            return np.where(t < 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)
        return special.gammainc(self.theta, self.theta * np.maximum(x, 0.0))

    def partial_mean(self, x) -> np.ndarray:
        """Cumulative first moment ``int_0^x t f(t) dt`` (reaches 1 at infinity)."""
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            inv_w2 = 1.0 / (w * w)
            lo, hi = 1.0 - w, 1.0 + w

            def ileft(t):
                return (t**3 / 3.0 - lo * t**2 / 2.0) * inv_w2

            def iright(t):
                return (hi * t**2 / 2.0 - t**3 / 3.0) * inv_w2

            t = np.clip(x, lo, hi)
            left = ileft(np.minimum(t, 1.0)) - ileft(lo)
            right = np.where(t > 1.0, iright(t) - iright(1.0), 0.0)
            return left + right
        # for a mean-1 gamma law, E[X 1_{X <= x}] is the regularized lower
        # incomplete gamma with shape theta + 1
        return special.gammainc(self.theta + 1.0, self.theta * np.maximum(x, 0.0))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind is GapLawKind.GAMMA:
            return rng.gamma(self.theta, 1.0 / self.theta, n)
        half = 1.0 / self.k
        return 1.0 + rng.uniform(-half, half, n) - rng.uniform(-half, half, n)


# ---------------------------------------------------------------------------
# process models and seeds
# ---------------------------------------------------------------------------

class Variant(Enum):
    POISSON = "poisson"
    LATTICE = "lattice"
    BERNOULLI_BLOCK = "bernoulli_block"
    VIBRATING_LATTICE = "vibrating_lattice"
    RENEWAL = "renewal"


@dataclass(frozen=True)
class ProcessModel:
    variant: Variant
    d: int = 1
    k: int | None = None
    gap: GapLaw | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or not (1 <= self.d <= 3):
            raise ArgumentError(f"dimension must be an integer in [1, 3], got {self.d!r}")
        v = self.variant
        if v is Variant.BERNOULLI_BLOCK:
            if self.k is None or not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
                raise DomainError("block model requires integer block side k >= 1")
        elif v is Variant.VIBRATING_LATTICE:
            if self.d != 1:
                raise ArgumentError("vibrating lattice is one-dimensional")
            if self.k is None or not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
                raise DomainError("vibrating lattice requires integer k >= 1")
        elif v is Variant.RENEWAL:
            if self.d != 1:
                raise ArgumentError("renewal models are one-dimensional")
            if self.gap is None:
                raise ArgumentError("renewal model requires a gap law")
        elif self.k is not None or self.gap is not None:
            raise ArgumentError(f"{v.value} model takes no extra parameters")

    @staticmethod
    def poisson(d: int = 1) -> "ProcessModel":
        return ProcessModel(Variant.POISSON, d)

    @staticmethod
    def lattice(d: int = 1) -> "ProcessModel":
        return ProcessModel(Variant.LATTICE, d)

    @staticmethod
    def bernoulli_block(k: int, d: int = 1) -> "ProcessModel":
        return ProcessModel(Variant.BERNOULLI_BLOCK, d, k=k)

    @staticmethod
    def vibrating_lattice(k: int) -> "ProcessModel":
        return ProcessModel(Variant.VIBRATING_LATTICE, 1, k=k)

    @staticmethod
    def renewal(gap: GapLaw) -> "ProcessModel":
        return ProcessModel(Variant.RENEWAL, 1, gap=gap)

    def describe(self) -> str:
        if self.variant is Variant.BERNOULLI_BLOCK:
            return f"bernoulli_block(k={self.k},d={self.d})"
        if self.variant is Variant.VIBRATING_LATTICE:
            return f"vibrating_lattice(k={self.k})"
        if self.variant is Variant.RENEWAL:
            g = self.gap
            if g.kind is GapLawKind.UNIFORM_HAT:
                return f"renewal(uniform_hat,k={g.k})"
            if g.theta == 1.0:
                return "renewal(exponential)"
            return f"renewal(gamma,theta={g.theta:g})"
        return f"{self.variant.value}(d={self.d})"


@dataclass(frozen=True)
class Seed:
    """(master, replica) pair; distinct replicas give independent streams."""

    master: int
    replica: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.master) & (2**64 - 1),
                                   spawn_key=(int(self.replica),))
        )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample_poisson(R: float, d: int, rng: np.random.Generator) -> np.ndarray:
    n = rng.poisson(R**d)
    half = R / 2.0
    return rng.uniform(-half, half, size=(n, d))


def _sample_lattice(R: float, d: int, rng: np.random.Generator) -> np.ndarray:
    half = R / 2.0
    u = rng.uniform(0.0, 1.0, d)
    axes = []
    for a in range(d):
        lo = math.ceil(-half - u[a])
        hi = math.floor(half - u[a])
        axes.append(np.arange(lo, hi + 1, dtype=float) + u[a])
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _sample_bernoulli_raw(k: int, R: float, d: int, rng: np.random.Generator):
    """All tile points before clipping, plus the stationarizing shift."""
    half = R / 2.0
    u = rng.uniform(0.0, float(k), d)
    ranges = []
    for a in range(d):
        lo = math.floor((-half - u[a]) / k)
        hi = math.floor((half - u[a]) / k)
        ranges.append(np.arange(lo, hi + 1))
    grids = np.meshgrid(*ranges, indexing="ij")
    origins = np.stack([g.ravel() for g in grids], axis=1) * float(k)
    n_tiles = origins.shape[0]
    pts = rng.uniform(0.0, float(k), size=(n_tiles, k**d, d))
    pts = pts + origins[:, None, :] + u[None, None, :]
    return pts.reshape(-1, d), u


def _sample_bernoulli(k: int, R: float, d: int, rng: np.random.Generator) -> np.ndarray:
    pts, _ = _sample_bernoulli_raw(k, R, d, rng)
    half = R / 2.0
    keep = np.all(np.abs(pts) <= half, axis=1)
    return pts[keep]


def _sample_vibrating(k: int, R: float, rng: np.random.Generator) -> np.ndarray:
    half = R / 2.0
    amp = 1.0 / k
    u = rng.uniform(0.0, 1.0)
    lo = math.ceil(-half - u - amp)
    hi = math.floor(half - u + amp)
    m = np.arange(lo, hi + 1, dtype=float)
    pts = m + u + rng.uniform(-amp, amp, m.size)
    pts = pts[np.abs(pts) <= half]
    return pts[:, None]


def _sample_renewal(gap: GapLaw, R: float, rng: np.random.Generator) -> np.ndarray:
    # oversample well past the window and apply a uniform phase shift over an
    # integer number of mean gaps; the margin covers the mixing length of the
    # gap law (verified downstream by the empirical-intensity invariant)
    half = R / 2.0
    margin = float(math.ceil(max(10.0, 10.0 * gap.std)))
    u = rng.uniform(0.0, margin)
    start = -half - margin
    target = half + margin
    span = target - start
    positions = [np.array([start])]
    pos = start
    while pos < target:
        n = int(span * 1.25) + int(10.0 * math.sqrt(span)) + 16
        gaps = gap.sample(rng, n)
        block = positions[-1][-1] + np.cumsum(gaps)
        positions.append(block)
        pos = block[-1]
        span = target - pos
    pts = np.concatenate(positions) + u
    pts = pts[(pts >= -half) & (pts <= half)]
    return pts[:, None]


def sample(model: ProcessModel, R: float, seed: Seed) -> PointConfiguration:
    """Draw one configuration of ``model`` in the centred cube of side ``R``.

    The marginal law inside the window is exact for every variant: block and
    lattice models generate one tile of margin and clip, the renewal model
    oversamples an enlarged interval and applies a uniform shift.
    """
    R = _side(R)
    rng = seed.rng()
    v = model.variant
    if v is Variant.POISSON:
        pts = _sample_poisson(R, model.d, rng)
    elif v is Variant.LATTICE:
        pts = _sample_lattice(R, model.d, rng)
    elif v is Variant.BERNOULLI_BLOCK:
        pts = _sample_bernoulli(model.k, R, model.d, rng)
    elif v is Variant.VIBRATING_LATTICE:
        pts = _sample_vibrating(model.k, R, rng)
    else:
        pts = _sample_renewal(model.gap, R, rng)
    return PointConfiguration(pts, R)


def replicas(model: ProcessModel, R: float, n: int, seed: Seed,
             rung: int = 0) -> Iterator[PointConfiguration]:
    """The ``n`` replicas of ``model`` in C_R on rung ``rung`` of an R ladder, drawn
    lazily; replica j draws ``Seed(seed.master, seed.replica + rung * n + j)``."""
    for j in range(n):
        yield sample(model, R, Seed(seed.master, seed.replica + rung * n + j))


# ---------------------------------------------------------------------------
# analytic two-point correlation functions
# ---------------------------------------------------------------------------

class Rho2Analytic:
    """Two-point correlation of a stationary model in dimension ``d``: a
    continuous density and atoms on the positive half-line (mirrored by
    symmetry).  ``continuous_part(v)`` gives one density value per separation,
    ``v`` of shape (..., d) in d >= 2; the energy routes consume ``nodes_upto``
    whose piecewise-linear interpolation is exact for every built-in model.
    """

    def __init__(
        self,
        d: int,
        continuous_part: Callable[[np.ndarray], np.ndarray],
        nodes_fn: Callable[[float], np.ndarray],
        atoms_fn: Callable[[float], np.ndarray] | None = None,
        head_exponent: float = 0.0,
        tail_flat: bool = True,
    ):
        self.d = d
        self.continuous_part = continuous_part
        self._nodes_fn = nodes_fn
        self._atoms_fn = atoms_fn or (lambda limit: np.empty((0, 2)))
        self.head_exponent = head_exponent
        self.tail_flat = tail_flat

    def nodes_upto(self, limit: float) -> np.ndarray:
        nodes = np.asarray(self._nodes_fn(limit), dtype=float)
        nodes = nodes[(nodes >= 0.0) & (nodes <= limit)]
        nodes = np.unique(np.concatenate([nodes, [0.0, limit]]))
        return nodes

    def atoms_upto(self, limit: float) -> np.ndarray:
        atoms = np.asarray(self._atoms_fn(limit), dtype=float).reshape(-1, 2)
        if atoms.size:
            atoms = atoms[(atoms[:, 0] > 0.0) & (atoms[:, 0] <= limit)]
        return atoms


def _rho2_poisson(d: int) -> Rho2Analytic:
    def cont(v):
        shape = np.shape(v)
        return np.ones(shape if d == 1 else shape[:-1])

    return Rho2Analytic(
        d=d,
        continuous_part=cont,
        nodes_fn=lambda limit: np.array([0.0, limit]),
    )


def _rho2_lattice(d: int) -> Rho2Analytic:
    if d != 1:
        # the energy routes integrate atoms in d = 1 only
        raise NotApplicableError("atomic two-point parts are supported in d = 1 only")

    def atoms_fn(limit: float) -> np.ndarray:
        locs = np.arange(1.0, math.floor(limit) + 1.0)
        return np.stack([locs, np.ones_like(locs)], axis=1)

    return Rho2Analytic(
        d=1,
        continuous_part=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        nodes_fn=lambda limit: np.array([0.0, limit]),
        atoms_fn=atoms_fn,
    )


def _rho2_bernoulli(k: int, d: int) -> Rho2Analytic:
    kk = float(k)

    def cont(v):
        v = np.asarray(v, dtype=float)
        if d == 1:
            return 1.0 - np.maximum(0.0, 1.0 - np.abs(v) / kk) / kk
        # product structure over coordinates for vector input
        v2 = np.atleast_2d(v)
        prof = np.prod(np.maximum(0.0, 1.0 - np.abs(v2) / kk), axis=-1)
        return 1.0 - prof / kk**d

    return Rho2Analytic(
        d=d,
        continuous_part=cont,
        nodes_fn=lambda limit: np.array([0.0, kk, limit]),
    )


def _rho2_vibrating(k: int) -> Rho2Analytic:
    w = 2.0 / k
    reach = int(math.ceil(w)) + 1

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        out = np.zeros_like(v)
        base = np.rint(v)
        for off in range(-reach, reach + 1):
            m = base + off
            valid = np.abs(m) >= 0.5  # the m = 0 bump does not exist
            t = np.where(valid, 1.0 - np.abs(v - m) / w, 0.0)
            out += np.maximum(0.0, t) / w
        return out

    def nodes_fn(limit: float) -> np.ndarray:
        ms = np.arange(1.0, math.floor(limit + w) + 1.0)
        pts = np.concatenate([ms - w, ms, ms + w, w - ms])
        return pts[(pts >= 0.0) & (pts <= limit)]

    return Rho2Analytic(
        d=1,
        continuous_part=cont,
        nodes_fn=nodes_fn,
    )


# extent and step of the renewal density grid (the extent grows with the
# mixing length of the gap law, up to _RENEWAL_V_LIMIT)
_RENEWAL_V_MAX = 32.0
_RENEWAL_STEP = 2.0**-8
_RENEWAL_V_LIMIT = 4096
# damping eps of the grid's series: its wrap-around is eps^8 = 1e-16, and
# undamping scales the round-off by at most 1/eps (grid error below 1e-13)
_RENEWAL_DAMPING = 1e-2


def _renewal_density_grid(gap: GapLaw) -> tuple[np.ndarray, np.ndarray, bool]:
    """Renewal density ``u = sum_j f^{*j}`` on a uniform grid of [0, v_max].

    Gaps are positive, so u solves the causal renewal equation u = f + f * u
    and needs the gap law on [0, v_max] only.  It is deposited onto the nodes
    keeping mass and first moment per cell (cloud-in-cell), so the lattice
    renewal rate matches the continuous one to O(h^2), where a cell histogram
    would bias it by h/2.  Damping node j by eps^(j/m) keeps the transform F
    of the deposit inside the unit disk: u = F / (1 - F) is one FFT pass with
    no singular frequency and, at length 8 (m + 1), a wrap-around of eps^8.
    """
    h = _RENEWAL_STEP
    mixing = 3.0 / gap.std**2 + 10.0 * gap.std
    v_max = max(_RENEWAL_V_MAX, math.ceil(mixing))
    if v_max > _RENEWAL_V_LIMIT:
        raise DomainError(f"renewal gap law too narrow: its density grid needs "
                          f"v_max = {v_max} > {_RENEWAL_V_LIMIT}")
    m = int(round(v_max / h))
    edges = np.arange(m + 2) * h
    mass = np.diff(gap.cdf(edges))
    moment = np.diff(gap.partial_mean(edges))
    q = np.zeros(m + 2)
    keep = mass > 0.0
    idx = np.nonzero(keep)[0]
    frac = np.clip(moment[keep] / mass[keep] / h - idx, 0.0, 1.0)
    np.add.at(q, idx, mass[keep] * (1.0 - frac))
    np.add.at(q, idx + 1, mass[keep] * frac)
    damp = _RENEWAL_DAMPING ** (np.arange(m + 1) / m)
    n = next_fast_len(8 * (m + 1))
    F = np.fft.rfft(q[: m + 1] * damp, n)
    u = np.fft.irfft(F / (1.0 - F), n)[: m + 1] / (damp * h)
    vals = np.maximum(u, 0.0)  # clear the FFT round-off floor
    # node 0: the head is dominated by the gap density itself; pick the value
    # that preserves the integral of the interpolant over the first cell
    vals[0] = max(0.0, 2.0 * mass[0] / h - vals[1])
    tail_flat = bool(np.max(np.abs(vals[int(0.9 * m) :] - 1.0)) < 1e-5)
    return edges[: m + 1], vals, tail_flat


def _renewal_nodes(grid: np.ndarray):
    # one extra node just past the grid closes the deficit to exactly zero;
    # without it the integrator would bridge any residual linearly to the
    # far tent edge and amplify it by sqrt(R)
    h = grid[1] - grid[0]

    def nodes_fn(limit: float) -> np.ndarray:
        nodes = grid[grid <= limit]
        if limit > grid[-1]:
            nodes = np.append(nodes, min(limit, grid[-1] + h))
        return nodes

    return nodes_fn


def _rho2_renewal(gap: GapLaw) -> Rho2Analytic:
    grid, vals, tail_flat = _renewal_density_grid(gap)

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        return np.interp(v, grid, vals, right=1.0)

    return Rho2Analytic(
        d=1,
        continuous_part=cont,
        nodes_fn=_renewal_nodes(grid),
        head_exponent=gap.head_exponent,
        tail_flat=tail_flat,
    )


_HARDCORE_TRANSITION = 2.0**-20


def rho2_hardcore() -> Rho2Analytic:
    """Pair correlation ``1 - 1_B`` of the hypothetical hardcore benchmark,
    with B the ball of unit volume (d = 1: [-1/2, 1/2]).  The jump at 1/2 is
    smoothed over ``_HARDCORE_TRANSITION`` so the piecewise-linear profile
    stays exact to O(transition^2) under the energy quadratures."""
    t = _HARDCORE_TRANSITION

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        return np.clip((v - 0.5) / t + 0.5, 0.0, 1.0)

    return Rho2Analytic(
        d=1,
        continuous_part=cont,
        nodes_fn=lambda limit: np.array([0.0, 0.5 - t / 2.0, 0.5 + t / 2.0, limit]),
    )


def rho2_analytic(model: ProcessModel) -> Rho2Analytic:
    """Analytic (or numerically convolved, for renewal gaps) two-point
    correlation of ``model``, normalized so that Poisson gives identically 1.
    """
    v = model.variant
    if v is Variant.POISSON:
        return _rho2_poisson(model.d)
    if v is Variant.LATTICE:
        return _rho2_lattice(model.d)
    if v is Variant.BERNOULLI_BLOCK:
        return _rho2_bernoulli(model.k, model.d)
    if v is Variant.VIBRATING_LATTICE:
        return _rho2_vibrating(model.k)
    return _rho2_renewal(model.gap)
