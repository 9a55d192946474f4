"""Energy of stationary point processes: the per-volume interaction of a
configuration-minus-background against itself, computed along three routes.

``PairSumMC`` expands the window double integral into point-point,
point-background, and background-background terms and averages over sampled
replicas.  ``Rho2Quadrature`` integrates the tent-weighted pair correlation
deficit (the explicit formula of Borodin & Serfaty).  ``LatticeSeries`` is
the same formula for the atomic two-point function of the unit lattice in
d = 1.  Each route hands its ladder of centred cubes C_R (``core.ladder``) to
``_report``, which extrapolates it in 1/R with an honest residual, never a
bare limit claim.

In d = 1 one ladder of profile integrals, ``_rho2_ladder_1d``, evaluates
that formula for the rho2 route and the lattice series, always with the tent
``R - v``.  Once the deficit has decayed, its limit in R is the plain
integral ``2 int_0^inf g(v) (rho2(v) - 1) dv``, so no tent-free route is
needed.  In d >= 2 the deficit is 0 or the separable block deficit, and
``_rho2_value_general`` is one exact box integral per rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fast, quadrature
from .core import (
    ArgumentError,
    DivergenceError,
    Kernel,
    PointConfiguration,
    SingularConfigurationError,
    ladder,
    mean_stderr,
    points_in_cube,
)
from .generators import ProcessModel, Rho2Analytic, Seed, rho2_analytic, sample


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def richardson(R_values, values, stderr=None, depth: int | None = None):
    """Richardson extrapolation of ``values`` to 1/R -> 0.

    Returns ``(extrapolated, extrapolation_error, extrapolated_stderr)``.
    The estimate at depth j is the Lagrange extrapolant at 1/R = 0 through
    the last j + 1 rungs, with weights ``prod_{m != k} x_m / (x_m - x_k)``,
    x = 1/R; ``depth`` caps j (keep it small for Monte Carlo inputs).  The
    error is the largest distance to the estimates of the two shallower
    depths; the propagated standard error assumes independent per-R noise.
    """
    x = 1.0 / np.asarray(R_values, dtype=float)
    y = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        return float(y[-1]), math.inf, 0.0 if stderr is None else float(stderr[-1])
    depth = n - 1 if depth is None else min(depth, n - 1)
    estimates = []
    for j in range(max(0, depth - 2), depth + 1):
        weights = np.zeros(n)
        for k in range(n - 1 - j, n):
            others = np.delete(x[n - 1 - j:], k - (n - 1 - j))
            weights[k] = np.prod(others / (others - x[k]))
        estimates.append(float(weights @ y))
    err = max(abs(estimates[-1] - e) for e in estimates)
    s = np.zeros(n) if stderr is None else np.asarray(stderr, dtype=float)
    sig = float(np.sqrt(np.sum((weights * s) ** 2)))
    return estimates[-1], err, sig


@dataclass
class EnergyReport:
    route: str                      # "PairSumMC" | "Rho2Quadrature" | "LatticeSeries"
    kernel: Kernel
    entries: list[tuple[float, float, float | None]]  # (R, value, stderr or None)
    extrapolated: float
    extrapolation_error: float
    extrapolated_stderr: float = 0.0
    n_discarded: int = 0


def _report(route: str, kernel: Kernel, R_list: list[float], values: list[float],
            depth: int, stderr: list[float] | None = None, discarded: int = 0) -> EnergyReport:
    """The ladder ``values`` on ``R_list`` and its extrapolation to depth ``depth``."""
    ex, err, sig = richardson(R_list, values, stderr=stderr, depth=depth)
    entries = list(zip(R_list, values, stderr or [None] * len(values)))
    return EnergyReport(route, kernel, entries, ex, err, sig, discarded)


# ---------------------------------------------------------------------------
# per-configuration interaction energy
# ---------------------------------------------------------------------------

_COINCIDENT = "coincident points inside the energy window"


def _window_energies(points: np.ndarray, offsets: np.ndarray, R: float, kernel: Kernel,
                     bb: float) -> tuple[np.ndarray, np.ndarray]:
    """``hint_R`` of every point set ``points[offsets[j]:offsets[j + 1]]``
    (each inside C_R), given the background term ``bb``, and a mask of the
    sets with coincident points.

    One ``_fast.pair_sums`` call and one ``point_background`` call on all
    the points cover every set.  The point terms of the sets with n points
    are summed as the rows of one matrix, and a row sum equals that row's
    own sum bit for bit, so a set's energy depends only on its own points.
    """
    pair, min_r2 = _fast.pair_sums(points, offsets, kernel)
    terms = quadrature.point_background(kernel, points, R)
    counts = np.diff(offsets)
    pb = np.zeros(counts.size)
    for n in np.unique(counts[counts > 0]):
        sets = np.flatnonzero(counts == n)
        pb[sets] = terms[offsets[sets, None] + np.arange(n)].sum(axis=1)
    return 2.0 * pair - 2.0 * pb + bb, min_r2 == 0.0


def hint_R(config: PointConfiguration, R: float, kernel: Kernel) -> float:
    """Interaction of points minus unit background, diagonal excluded:
    ``sum_{p != q} g(p - q) - 2 sum_p pb(p) + bb`` over points in the
    centered cube of side R."""
    if kernel.d != config.d:
        raise ArgumentError("kernel and configuration dimensions differ")
    pts = points_in_cube(config, R)
    energy, singular = _window_energies(pts, np.array([0, len(pts)]), R, kernel,
                                        quadrature.background_pair_integral(kernel, R))
    if singular[0]:
        raise SingularConfigurationError(_COINCIDENT)
    return float(energy[0])


# ---------------------------------------------------------------------------
# route 1: Monte Carlo over replicas
# ---------------------------------------------------------------------------

# replicas per block of window energies in wint_monte_carlo
_REPLICA_BLOCK = 256


def wint_monte_carlo(model: ProcessModel, kernel: Kernel, R_list, n_replicas: int,
                     seed: Seed) -> EnergyReport:
    """Per-volume mean window energy along an R ladder, extrapolated in 1/R.

    Each rung draws and evaluates its replicas in blocks of
    ``_REPLICA_BLOCK``: one ``sample`` batch and one ``_window_energies``
    call per block.  Block j0 draws the streams of replicas j0, j0 + 1, ...
    of the rung, so the result does not depend on the block size.  Replicas
    with coincident points are discarded and counted; more than 1% of them
    aborts the run.
    """
    R_list = ladder(R_list)
    if n_replicas < 30:
        raise ArgumentError("at least 30 replicas are required")
    if kernel.d != model.d:
        raise ArgumentError("kernel and configuration dimensions differ")
    means = []
    stderrs = []
    discarded = 0
    planned = n_replicas * len(R_list)
    for i, R in enumerate(R_list):
        bb = quadrature.background_pair_integral(kernel, R)
        vals = []
        for j0 in range(0, n_replicas, _REPLICA_BLOCK):
            block = sample(model, R, min(_REPLICA_BLOCK, n_replicas - j0),
                           Seed(seed.master, seed.replica + i * n_replicas + j0))
            # a replica drawn in C_R lies inside it, so all its points count
            energies, singular = _window_energies(block.points, block.offsets, R, kernel, bb)
            for j in np.flatnonzero(singular):
                discarded += 1
                if discarded > 0.01 * planned:
                    exc = SingularConfigurationError(_COINCIDENT)
                    raise SingularConfigurationError(
                        f"Monte Carlo aborted: {discarded} of {i * n_replicas + j0 + j + 1} "
                        f"replicas attempted so far were discarded ({exc}), more than "
                        f"the 1% threshold of {0.01 * planned:g} of {planned} planned"
                    ) from exc
            vals.append(energies[~singular] / R**model.d)
        mean, stderr = mean_stderr(np.concatenate(vals))
        means.append(float(mean))
        stderrs.append(float(stderr))
    return _report("PairSumMC", kernel, R_list, means, 2, stderrs, discarded)


# ---------------------------------------------------------------------------
# route 2: quadrature against an analytic two-point function
# ---------------------------------------------------------------------------

def _head_convergence_check(rho2: Rho2Analytic, kernel: Kernel) -> None:
    # integrability of g * (rho2 - 1) near 0 in d dimensions: the deficit
    # density may blow up like |v|**alpha with alpha = head_exponent < 0
    if kernel.is_log:
        return
    if kernel.s - rho2.head_exponent >= kernel.d:
        raise DivergenceError(
            "pair deficit grows too fast at the origin: "
            f"s = {kernel.s}, head exponent = {rho2.head_exponent}"
        )


def _rho2_ladder_1d(rho2: Rho2Analytic, kernel: Kernel, R_list: list[float]) -> list[float]:
    """``(2/R) int_0^R g(v) (rho2(v) - 1) (R - v) dv`` for every R of the
    ladder: the continuous deficit exactly as the piecewise-linear profile on
    ``rho2.nodes_upto(R)``, plus the atoms.

    For every built-in model ``nodes_upto(R)`` is the part of the top rung's
    nodes below R, then R, and ``atoms_upto(R)`` the top rung's atoms up to
    R.  So the deficit, the kernel moments of the cells and the kernel at the
    atoms are evaluated once, on the top rung; each rung computes only its
    last cell [a, R] again, and its values equal those of a rung on its own
    bit for bit.
    """
    nodes = rho2.nodes_upto(R_list[-1])
    deficit = np.asarray(rho2.continuous_part(nodes), dtype=float) - 1.0
    moments = quadrature.g_moments(kernel, nodes[:-1], nodes[1:])
    ends = np.asarray(R_list)
    below = np.searchsorted(nodes, ends)  # nodes[:below] lie below the rung's R
    end_deficit = np.asarray(rho2.continuous_part(ends), dtype=float) - 1.0
    end_moments = quadrature.g_moments(kernel, nodes[below - 1], ends)
    atoms = rho2.atoms_upto(R_list[-1])
    g_atoms = kernel.g(atoms[:, 0])
    upto = np.searchsorted(atoms[:, 0], ends, side="right")
    values = []
    for i, R in enumerate(R_list):
        n = below[i]
        total = quadrature.integrate_g_pwlinear(
            kernel, np.append(nodes[:n], R), np.append(deficit[:n], end_deficit[i]), R,
            moments=[np.append(m[:n - 1], e[i]) for m, e in zip(moments, end_moments)])
        if upto[i]:
            # in place, so a rung holds one temporary the size of its atoms
            weight = R - atoms[:upto[i], 0]
            weight *= g_atoms[:upto[i]]
            weight *= atoms[:upto[i], 1]
            total += float(np.sum(weight))
        values.append(2.0 * total / R)
    return values


def _rho2_value_general(rho2: Rho2Analytic, kernel: Kernel, R: float) -> float:
    """``R^-d int_{[-R, R]^d} g(v) (rho2(v) - 1) prod_i (R - |v_i|) dv`` in
    d >= 2, where the deficit is 0 or the block's ``-k^-d prod_i (1 -
    |v_i|/k)_+``: one box integral of side ``min(k, R)`` with the per-axis
    polynomial ``(1 - x/k)(R - x)``."""
    k = rho2.block
    if k is None:
        return 0.0
    p = (R, -1.0 - R / k, 1.0 / k)
    return -quadrature.box_kernel_integral(kernel, min(k, R), p) / (k * R) ** kernel.d


def wint_from_rho2(rho2: Rho2Analytic, kernel: Kernel, R_list) -> EnergyReport:
    """Tent-weighted quadrature of the pair-correlation deficit on an R ladder.

    Exact up to rounding in every d: in d = 1 a piecewise-linear profile
    times closed-form kernel moments, in d >= 2 one box integral exact in
    the radial variable.  A head check rejects deficits that are not
    integrable against the kernel; a ladder check flags non-convergence in R
    instead of fabricating a number.
    """
    R_list = ladder(R_list)
    if rho2.d != kernel.d:
        raise ArgumentError("two-point function and kernel dimensions differ")
    _head_convergence_check(rho2, kernel)
    if not rho2.tail_flat:
        raise DivergenceError("pair deficit has not decayed over the available grid")
    if kernel.d == 1:
        values = _rho2_ladder_1d(rho2, kernel, R_list)
    else:
        values = [_rho2_value_general(rho2, kernel, R) for R in R_list]
    if len(values) >= 3:
        steps = np.abs(np.diff(values))
        if steps[-1] > 4.0 * (steps[0] + 1e-15) and steps[-1] > 1e-9:
            raise DivergenceError(
                f"ladder increments grow with R: {list(map(float, steps))}"
            )
    return _report("Rho2Quadrature", kernel, R_list, values, 2)


# ---------------------------------------------------------------------------
# route 3: the lattice series in d = 1
# ---------------------------------------------------------------------------

def wint_lattice_series(kernel: Kernel, R_list) -> EnergyReport:
    """The rho2 formula for the unit lattice, ``(2/R) [sum_{1 <= k <= R}
    g(k) (R - k) - int_0^R g(v) (R - v) dv]``, extrapolated to depth 4."""
    if kernel.d != 1:
        raise ArgumentError("the lattice series is one-dimensional")
    R_list = ladder(R_list)
    lattice = rho2_analytic(ProcessModel.lattice(1))
    return _report("LatticeSeries", kernel, R_list, _rho2_ladder_1d(lattice, kernel, R_list), 4)
