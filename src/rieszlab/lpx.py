"""Discretized exploration of the minimal tent-weighted energy over
admissible pair-correlation deficits.

A candidate is a grid profile T2 with the two realizability-necessary
constraints ``T2 >= -1`` (direct domain) and ``T2_hat >= -1`` (frequency
domain).  The objective is linear, so the solver is projected subgradient
descent with Dykstra-corrected alternating projections between the two
constraint sets.  Outputs are lower-bound explorations, not processes: no
further realizability condition is enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .core import ArgumentError, DivergenceError, DomainError, Kernel
from .quadrature import pwlinear_weights

# subgradient step t is _STEP_SCALE / (max|w| n_half sqrt(t + 1)); a Dykstra
# projection stops after _DYKSTRA_ROUNDS rounds or at violation <= _DYKSTRA_TOL
_STEP_SCALE = 0.5
_DYKSTRA_ROUNDS = 64
_DYKSTRA_TOL = 1e-10


@dataclass(frozen=True)
class Discretization:
    """Symmetric uniform grid on [-v_max, v_max] (step a power of two keeps
    reference profiles exactly on nodes) plus the tent parameter R and the
    implied cosine-transform frequency grid."""

    v_max: float
    step: float = 2.0**-8
    R: float | None = None

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and self.v_max > 0.0):
            raise DomainError("grid requires positive step and extent")
        n = self.v_max / self.step
        if abs(n - round(n)) > 1e-9:
            raise ArgumentError("v_max must be an integer multiple of step")
        object.__setattr__(self, "R", float(self.R) if self.R is not None else self.v_max)
        if self.R < self.v_max:
            raise DomainError("tent parameter R must be at least v_max")

    @property
    def n_half(self) -> int:
        return int(round(self.v_max / self.step))

    @property
    def grid(self) -> np.ndarray:
        return self.step * np.arange(-self.n_half, self.n_half + 1)

    @property
    def half_grid(self) -> np.ndarray:
        return self.step * np.arange(self.n_half + 1)


def cosine_transform(disc: Discretization, half_values: np.ndarray) -> np.ndarray:
    """Samples of ``int T2(v) cos(2 pi xi v) dv`` on the frequency grid,
    trapezoid-accurate (DCT-I of the half profile scaled by the step).

    Applying the transform twice scales the input by ``2 * n_half * step**2``
    (the DCT-I involution constant times the squared step)."""
    return disc.step * sfft.dct(np.asarray(half_values, dtype=float), type=1)


def inverse_cosine_transform(disc: Discretization, freq_values: np.ndarray) -> np.ndarray:
    return sfft.idct(np.asarray(freq_values, dtype=float), type=1) / disc.step


@dataclass
class CandidateT2:
    values: np.ndarray          # full symmetric grid
    objective: float
    feasible_direct: bool
    feasible_fourier: bool
    max_violation: float
    R: float
    # Lipschitz bound on the transform, 2 pi int |v T2(v)| dv: caps how much
    # the band constraint can be violated between frequency samples
    fourier_lipschitz: float = 0.0


def _half_profile(disc: Discretization, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (2 * disc.n_half + 1,):
        raise ArgumentError(
            f"values must live on the full grid of {2 * disc.n_half + 1} nodes"
        )
    if not np.allclose(values, values[::-1], atol=1e-12):
        raise ArgumentError("candidate profiles must be even in v")
    return values[disc.n_half :]


def objective_weights(disc: Discretization, kernel: Kernel) -> np.ndarray:
    """Node weights w with ``w . half_values = int g T2 (1 - |v|/R) dv`` for
    the even piecewise-linear interpolant: twice the half-line integral."""
    if kernel.d != 1:
        raise ArgumentError("the exploration grid is one-dimensional")
    return (2.0 / disc.R) * pwlinear_weights(kernel, disc.half_grid, disc.R)


def evaluate_candidate(values, disc: Discretization, kernel: Kernel) -> CandidateT2:
    """Objective and feasibility of a grid profile."""
    half = _half_profile(disc, values)
    w = objective_weights(disc, kernel)
    objective = float(w @ half)
    that = cosine_transform(disc, half)
    direct_viol = float(max(0.0, -1.0 - float(np.min(values))))
    fourier_viol = float(max(0.0, -1.0 - float(np.min(that))))
    lip = float(4.0 * math.pi * disc.step * np.sum(disc.half_grid * np.abs(half)))
    return CandidateT2(
        values=np.asarray(values, dtype=float).copy(),
        objective=objective,
        feasible_direct=direct_viol <= 1e-9,
        feasible_fourier=fourier_viol <= 1e-9,
        max_violation=max(direct_viol, fourier_viol),
        R=disc.R,
        fourier_lipschitz=lip,
    )


def hardcore_candidate(disc: Discretization) -> np.ndarray:
    """Deficit ``-1`` on the unit-volume ball, with the jump split across the
    node at 1/2 (half-sample convention keeps the interpolant unbiased)."""
    v = disc.grid
    vals = np.where(np.abs(v) < 0.5, -1.0, 0.0)
    on_edge = np.isclose(np.abs(v), 0.5)
    vals[on_edge] = -0.5
    return vals


def _project_band(disc: Discretization, half: np.ndarray) -> np.ndarray:
    that = cosine_transform(disc, half)
    np.maximum(that, -1.0, out=that)
    return inverse_cosine_transform(disc, that)


def _dykstra(disc: Discretization, half: np.ndarray) -> tuple[np.ndarray, float, list[float]]:
    """Alternating clipped projections with Dykstra correction terms."""
    x = half.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    trace: list[float] = []
    for _ in range(_DYKSTRA_ROUNDS):
        y = np.maximum(x + p, -1.0)
        p = x + p - y
        x = _project_band(disc, y + q)
        q = y + q - x
        viol = max(0.0, -1.0 - float(np.min(x)))
        trace.append(viol)
        if viol <= _DYKSTRA_TOL:
            break
    that = cosine_transform(disc, x)
    total = max(max(0.0, -1.0 - float(np.min(x))),
                max(0.0, -1.0 - float(np.min(that))))
    return x, total, trace


def minimize_t2(disc: Discretization, kernel: Kernel, iterations: int) -> CandidateT2:
    """Projected subgradient descent on the linear objective over the two
    constraint sets, warm-started at the hardcore profile; the best feasible
    iterate is tracked so the result can only improve on the references."""
    if iterations < 1:
        raise ArgumentError("at least one iteration is required")
    w = objective_weights(disc, kernel)
    step0 = _STEP_SCALE / float(np.max(np.abs(w)) * disc.n_half)

    def full_from_half(half: np.ndarray) -> np.ndarray:
        return np.concatenate([half[::-1], half[1:]])

    half = _half_profile(disc, hardcore_candidate(disc))
    half, viol, trace = _dykstra(disc, half)
    if viol > 1e-6:
        raise DivergenceError(
            f"projection loop failed to converge; violation trace: {trace}"
        )
    best_half = half.copy()
    best_obj = float(w @ half)
    x = half.copy()
    for t in range(iterations):
        x = x - step0 / math.sqrt(t + 1.0) * w
        x, viol, trace = _dykstra(disc, x)
        if viol > 1e-6:
            raise DivergenceError(
                f"projection loop failed to converge at iteration {t}; "
                f"violation trace: {trace}"
            )
        obj = float(w @ x)
        if obj < best_obj:
            best_obj = obj
            best_half = x.copy()
    return evaluate_candidate(full_from_half(best_half), disc, kernel)
