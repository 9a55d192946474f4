"""Monte Carlo estimators: pair correlations, number variance, the
logarithmic discrepancy term, and total-variation / Pinsker diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _fast
from .core import (
    ArgumentError,
    DomainError,
    Kernel,
    NotApplicableError,
    Replicas,
    _check_batch,
    _is_int,
    _require_replicas,
    _side,
    counts_in_cube,
    ladder,
    mean_stderr,
)
from .generators import ProcessModel, Seed, sample


@dataclass(frozen=True)
class GridSpec:
    """Uniform separation grid: signed [-v_max, v_max] in d=1 (n_bins even),
    radial [0, v_max] in the isotropic mode for d >= 2."""

    v_max: float
    n_bins: int

    def __post_init__(self) -> None:
        if not (self.v_max > 0.0 and _is_int(self.n_bins) and self.n_bins >= 2):
            raise DomainError("grid spec requires v_max > 0 and n_bins >= 2")


@dataclass
class CorrelationEstimate:
    d: int
    centers: np.ndarray
    values: np.ndarray          # estimate of rho2(v) - 1 per bin
    stderr: np.ndarray
    n_replicas: int
    mode: str                   # "signed" or "radial"
    bin_width: float


@dataclass
class VarianceCurve:
    entries: list[tuple[float, float, float]]  # (R, mean D_R^2, stderr)
    fitted_exponent: float
    exponent_ci: tuple[float, float]


@dataclass(frozen=True)
class TvReport:
    tv_lower: float
    pinsker_upper: float
    window_R: float
    satisfied: bool


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the pair-integral / number-variance identity.

    ``lhs`` and ``rhs`` use the nominal intensity (background R^d); the
    identity holds exactly once the empirical mean count replaces the nominal
    one, which is what ``algebraic_gap`` reports (zero up to rounding).
    ``statistical_gap`` is the residual left by the intensity-1 assumption.
    """

    lhs: float
    rhs: float
    algebraic_gap: float
    statistical_gap: float


def estimate_rho2(samples: Replicas, bins: GridSpec) -> CorrelationEstimate:
    """Tent-corrected estimate of ``rho2(v) - 1`` from the replicas of one batch.

    Every ordered pair in the window contributes ``1 / (bin volume *
    prod_i (R - |v_i|))`` to the bin of its separation; the tent factor is
    the exact volume of translated pairs, so the estimator is unbiased
    bin-average-wise.  The whole batch is binned in one kernel call, one row
    per replica; standard errors are across replicas.
    """
    _require_replicas(len(samples))
    d, R = samples.d, samples.R
    if not bins.v_max < R:
        raise DomainError("v_max must be smaller than the window side R")

    n_bins = bins.n_bins
    if d == 1 and n_bins % 2:
        raise ArgumentError(f"n_bins must be even in d = 1, where the bins mirror about 0, "
                            f"got {n_bins}")
    _check_batch(len(samples), n_bins)  # the per-replica rows, before any grid
    if d == 1:
        bw = 2.0 * bins.v_max / n_bins
        centers = -bins.v_max + bw * (np.arange(n_bins) + 0.5)
        kernel, norm, mode = _fast.bin_pairs_signed, bw, "signed"
    else:
        bw = bins.v_max / n_bins
        centers = bw * (np.arange(n_bins) + 0.5)
        edges = bw * np.arange(n_bins + 1)
        if d == 2:
            norm = math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
        else:
            norm = 4.0 * math.pi / 3.0 * (edges[1:] ** 3 - edges[:-1] ** 3)
        kernel, mode = _fast.bin_pairs_radial, "radial"

    acc = kernel(samples.points, samples.offsets, bins.v_max, n_bins, R)
    values, stderr = mean_stderr(acc / norm - 1.0)
    return CorrelationEstimate(d, centers, values, stderr, len(samples), mode, bw)


def _discrepancy_moments(model: ProcessModel, R_list: list[float], n_replicas: int,
                         seed: Seed) -> list[tuple[float, float, float]]:
    # (R, mean D_R^2, stderr) per window size
    entries = []
    for i, R in enumerate(R_list):
        batch = sample(model, R, n_replicas, Seed(seed.master, seed.replica + i * n_replicas))
        d2 = (batch.counts - R**model.d) ** 2
        mean, stderr = mean_stderr(d2)
        entries.append((R, float(mean), float(stderr)))
    return entries


def number_variance_curve(model: ProcessModel, R_list, n_replicas: int,
                          seed: Seed) -> VarianceCurve:
    """Mean squared discrepancy per window size, with a log-log slope fit;
    rung i is one batch from streams ``seed.replica + i * n_replicas`` on."""
    R_list = ladder(R_list)
    if len(R_list) < 4 or R_list[-1] < 10.0 * R_list[0]:
        raise ArgumentError("R_list needs at least 4 values spanning at least one decade")
    entries = _discrepancy_moments(model, R_list, n_replicas, seed)
    exponent, ci = _fit_loglog_slope(entries)
    return VarianceCurve(entries, exponent, ci)


def _fit_loglog_slope(entries) -> tuple[float, tuple[float, float]]:
    pts = [(R, v) for R, v, _ in entries if v > 0.0]
    if len(pts) < 2:
        raise ArgumentError("degenerate fit: fewer than 2 positive variances")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    n = len(pts)
    if n > 2 and res.size:
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        se = math.sqrt(float(res[0]) / (n - 2) / sxx)
    else:
        se = 0.0
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def discrepancy_identity_check(samples: Replicas, R: float) -> IdentityCheck:
    """Estimate both sides of the pair-integral identity from one batch."""
    _require_replicas(len(samples))
    counts = counts_in_cube(samples, R, 1)[:, 0].astype(float)
    vol = float(R) ** samples.d
    m1 = counts.mean()
    m2 = (counts**2).mean()
    lhs = m2 - m1 - vol * vol
    rhs = float(np.mean((counts - vol) ** 2)) - vol
    # same identity with the empirical mean as background: two different
    # expression trees for the same number
    lhs_c = float((counts * (counts - 1.0)).mean()) - m1 * m1
    rhs_c = float(np.mean((counts - m1) ** 2)) - m1
    return IdentityCheck(
        lhs=float(lhs),
        rhs=float(rhs),
        algebraic_gap=float(lhs_c - rhs_c),
        statistical_gap=float(lhs - rhs),
    )


@dataclass
class DlogCurve:
    entries: list[tuple[float, float, float]]  # (R, value, stderr)
    trend: str                                 # "bounded->0" | "bounded->positive" | "diverging"
    c_log: float

    @classmethod
    def from_variance(cls, entries, d: int, c_log: float) -> "DlogCurve":
        """The ``(R, mean D_R^2, stderr)`` entries of a variance curve in
        dimension d, scaled by ``c_log * log R / R^d`` (the stderr by its
        absolute value, as that factor is negative below R = 1), with their trend;
        ``c_log`` > 0, as the trend fits the scaled values' logarithms."""
        if not c_log > 0.0:
            raise DomainError(f"c_log must be positive, got {c_log}")
        scaled = []
        for R, mean, stderr in entries:
            scale = c_log * math.log(R) / R**d
            scaled.append((R, mean * scale, stderr * abs(scale)))
        return cls(scaled, _classify_trend(scaled), c_log)


def dlog_estimate(model: ProcessModel, kernel: Kernel, R_list, n_replicas: int,
                  seed: Seed, c_log: float = 1.0) -> DlogCurve:
    """Sequence ``c_log * (E[D_R^2] / R^d) * log R`` with a trend classifier.

    The limsup of this sequence is the extra logarithmic term of the energy;
    only its finiteness or vanishing matters downstream, so the constant is a
    free positive parameter.  Classification: the log-log slope of the
    last decade's positive values (zero at R = 1) above 0.1 is "diverging",
    below -0.1 is "bounded->0", otherwise "bounded->positive".
    """
    if kernel.d != model.d:
        raise ArgumentError("kernel and model dimensions differ")
    if not kernel.is_log:
        raise NotApplicableError("the logarithmic discrepancy term needs a log kernel")
    entries = _discrepancy_moments(model, ladder(R_list), n_replicas, seed)
    return DlogCurve.from_variance(entries, model.d, c_log)


def _classify_trend(entries) -> str:
    R_last = entries[-1][0]
    decade = [e for e in entries if e[0] >= R_last / 10.0]
    if len(decade) < 2:
        decade = entries[-2:]
    if entries[-1][1] <= 1e-12:
        return "bounded->0"
    slope, _ = _fit_loglog_slope(decade)
    if slope > 0.1:
        return "diverging"
    if slope < -0.1:
        return "bounded->0"
    return "bounded->positive"


def tv_lower_bound(samples_p: Replicas, samples_q: Replicas,
                   window_R: float, tile_count: int) -> float:
    """Total variation between the count-vector laws over a tile partition.

    Counts are a measurable function of the restriction to the window, so
    this lower-bounds the total variation of the restricted processes; no
    density estimation is involved.  Tiles are slabs along the first axis.
    """
    window_R = _side(window_R)
    if not (_is_int(tile_count) and tile_count >= 1):
        raise ArgumentError(f"tile_count must be an integer of at least 1, got {tile_count!r}")
    _require_replicas(min(len(samples_p), len(samples_q)))
    if min(samples_p.R, samples_q.R) < window_R:
        raise DomainError("samples were drawn on a window smaller than requested")
    n_p, n_q = len(samples_p), len(samples_q)
    rows = np.concatenate([counts_in_cube(samples_p, window_R, tile_count),
                           counts_in_cube(samples_q, window_R, tile_count)])
    support, cell = np.unique(rows, axis=0, return_inverse=True)
    cp = np.bincount(cell[:n_p], minlength=len(support))
    cq = np.bincount(cell[n_p:], minlength=len(support))
    n_min = min(n_p, n_q)
    if n_min < 10 * len(support):
        warnings.warn(
            f"count-vector histogram is sparse ({len(support)} cells, {n_min} samples); "
            "the TV estimate may be upward biased",
            RuntimeWarning,
            stacklevel=2,
        )
    # 1/2 sum |cp/n_p - cq/n_q| over the cells, in integers up to one division
    return int(np.abs(cp * n_q - cq * n_p).sum()) / (2 * n_p * n_q)


def pinsker_check(ers: float, tv_lower: float, R: float) -> TvReport:
    """Compare a TV lower bound against the entropy-rate upper bound
    ``sqrt(ers / 2) * R^(1/2)`` for the window of length R (d = 1, where the
    entropy rate is defined)."""
    if ers < 0.0:
        raise ArgumentError("the specific relative entropy is nonnegative")
    upper = math.sqrt(ers / 2.0) * float(R) ** 0.5
    return TvReport(tv_lower=float(tv_lower), pinsker_upper=upper,
                    window_R=float(R), satisfied=bool(tv_lower <= upper))
