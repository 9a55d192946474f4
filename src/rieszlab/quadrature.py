"""Deterministic quadrature helpers for singular radial kernels.

Everything here is exact or spectrally accurate, and deterministic.  In d = 1
every closed form derives from one primitive, ``_g_primitive``:
``P_j(v) = int_0^v g(t) t^j dt``.  The point-background integral is a sum of
two P_0 values, the background-background integral ``2 (R P_0(R) - P_1(R))``,
and ``pwlinear_weights`` turns the cell moments ``P_j(b) - P_j(a)``, j <= 2
(``g_moments``, in a form free of cancellation), into node weights for the
exact integral of g against a piecewise-linear profile, with or without the
tent ``R - v``: the d = 1 energy routes and the LP objective are those
weights applied to node values.  In d = 2, 3 there is
a corner antiderivative for the planar log kernel and one corner-mapped
(Duffy) Gauss-Legendre rule, ``_corner_rule``, for boxes with the origin at
a corner.

A box containing the origin splits into its 2^d orthant boxes.  The corner
map ``v = tau * (e_k, e_j u, ...)`` turns each orthant into d pyramids, each
a radial sum over tau times an angular sum over u (and v).
``_orthant_integral`` evaluates the full tensor rule against any weight; it
serves the background-background and the d >= 2 pair-correlation integrals.

In d = 2, 3 the point-background integral is batched over all points of a
call.  The window seen from a point p splits into 2^d orthant boxes with p
at a corner and edges ``R/2 +- p_i``; the log kernel in d = 2 takes the
corner antiderivative on all of them at once.  A Riesz kernel is homogeneous,
``g(tau rho) = tau^-s g(rho)``, so ``_riesz_orthants`` takes the radial sum
of the same rule as one constant shared by every orthant and evaluates only
the (d-1)-dimensional angular sums per orthant.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import ArgumentError, Kernel, KernelFamily

# angular quadrature nodes per chunk of the batched point-background integral,
# which bounds its temporaries for any number of points; chosen by timing
# 2**12..2**18 at n = 64 and 256 in d = 3 and n = 1024 in d = 2
_NODE_BUDGET = 2**15

# corner-rule orders of the point-background and background-pair integrals
_POINT_BACKGROUND_ORDER = 32
_BACKGROUND_PAIR_ORDER = 48


# ---------------------------------------------------------------------------
# d = 1: one primitive of g and the closed forms derived from it
# ---------------------------------------------------------------------------

def _g_primitive(kernel: Kernel, v, j: int):
    """``P_j(v) = int_0^v g(t) t^j dt`` for v >= 0, scalar or array: the one
    spelling of the kernel's closed forms in d = 1."""
    p = j + 1.0
    if kernel.is_log:
        # v^p (1/p^2 - log(v)/p), which tends to 0 at v = 0; the floor on v
        # makes it exactly 0 there and changes no value by more than 1e-297
        return v**p * (1.0 / (p * p) - np.log(np.maximum(v, 1e-300)) / p)
    e = p - kernel.s  # positive, as s < 1
    return v**e / e


def g_moments(kernel: Kernel, a, b) -> list[np.ndarray]:
    """Moments ``int_a^b g(v) v^j dv`` for j = 0, 1, 2, vectorized over cells.

    A cell [0, b] gives P_j(b).  For a > 0, P_j(b) - P_j(a) would lose about
    ``log10(a / (b - a))`` digits to cancellation, so it is taken from
    ``t = log1p((b - a) / a)`` and ``E = expm1(p t)``, p = j + 1:
    ``a^e expm1(e t) / e`` (Riesz, e = p - s) and
    ``a^p [E (1/p^2 - log(a)/p) - (1 + E) t/p]`` (log).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    at_0 = a <= 0.0
    a1 = np.where(at_0, 1.0, a)  # any positive stand-in on the cells at 0
    t = np.log1p((b - a) / a1)
    if kernel.is_log:
        log_a, power = np.log(a1), a1
    else:
        power = a1 ** (1.0 - kernel.s)  # a^e for j = 0
    moments = []
    for j in range(3):
        p = j + 1.0
        if kernel.is_log:
            E = np.expm1(p * t)
            m = power * (E * (1.0 / (p * p) - log_a / p) - (1.0 + E) * t / p)
        else:
            e = p - kernel.s
            m = power * np.expm1(e * t) / e
        m[at_0] = _g_primitive(kernel, b[at_0], j)
        moments.append(m)
        power = power * a1
    return moments


def point_background_1d(kernel: Kernel, p, R: float) -> np.ndarray:
    """``int_{-R/2}^{R/2} g(p - y) dy = P_0(R/2 + p) + P_0(R/2 - p)`` for
    points p in the closed interval."""
    p = np.asarray(p, dtype=float)
    return _g_primitive(kernel, R / 2.0 + p, 0) + _g_primitive(kernel, R / 2.0 - p, 0)


def tent_kernel_integral_1d(kernel: Kernel, R: float) -> float:
    """``int_{-R}^{R} g(v) (R - |v|) dv = 2 (R P_0(R) - P_1(R))``."""
    return float(2.0 * (R * _g_primitive(kernel, R, 0) - _g_primitive(kernel, R, 1)))


def pwlinear_weights(kernel: Kernel, nodes, tent_R: float | None = None) -> np.ndarray:
    """Node weights w with ``w @ values = int g(v) L(v) w(v) dv`` over
    [nodes[0], nodes[-1]], where L interpolates ``values`` linearly between
    the nodes and ``w(v) = tent_R - v``, or 1 when ``tent_R`` is None.

    Exact up to rounding: on a cell [a, b] each hat function, ``(b - v)/(b - a)``
    or ``(v - a)/(b - a)``, times w is a quadratic, integrated through the
    kernel moments of ``g_moments``, also on cells touching 0.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ArgumentError("nodes must be a 1d array of length >= 2")
    if np.any(np.diff(nodes) <= 0.0) or nodes[0] < 0.0:
        raise ArgumentError("nodes must be strictly increasing and nonnegative")
    a, b = nodes[:-1], nodes[1:]
    M0, M1, M2 = g_moments(kernel, a, b)
    if tent_R is None:
        left, right = b * M0 - M1, M1 - a * M0
    else:
        left = b * tent_R * M0 - (b + tent_R) * M1 + M2
        right = (a + tent_R) * M1 - a * tent_R * M0 - M2
    w = np.zeros(nodes.size)
    w[:-1] += left / (b - a)
    w[1:] += right / (b - a)
    return w


def integrate_g_pwlinear(kernel: Kernel, nodes, values, tent_R: float | None = None) -> float:
    """``int g(v) L(v) w(v) dv`` as in ``pwlinear_weights``, for the profile
    with node values ``values``."""
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(nodes):
        raise ArgumentError("nodes and values must be matching 1d arrays")
    return float(pwlinear_weights(kernel, nodes, tent_R) @ values)


# ---------------------------------------------------------------------------
# planar log kernel: corner antiderivative of  iint log|v| dv
# ---------------------------------------------------------------------------

def _corner_log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # mixed primitive G with d2G/dxdy = log sqrt(x^2 + y^2); odd in x and y,
    # continuous (and zero) on both axes
    out = np.zeros(x.shape)
    nz = (x != 0.0) & (y != 0.0)
    xs = x[nz]
    ys = y[nz]
    out[nz] = (
        0.5 * xs * ys * np.log(xs * xs + ys * ys)
        - 1.5 * xs * ys
        + 0.5 * xs * xs * np.arctan(ys / xs)
        + 0.5 * ys * ys * np.arctan(xs / ys)
    )
    return out


def _log_boxes_2d(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # iint log|v| dv over the boxes [lo_k, hi_k], lo and hi of shape (n, 2)
    xs = np.stack([hi[:, 0], lo[:, 0], hi[:, 0], lo[:, 0]], axis=1)
    ys = np.stack([hi[:, 1], hi[:, 1], lo[:, 1], lo[:, 1]], axis=1)
    sgn = np.array([1.0, -1.0, -1.0, 1.0])
    return np.sum(sgn * _corner_log(xs, ys), axis=1)


# ---------------------------------------------------------------------------
# corner-mapped Gauss-Legendre for boxes with the origin at a corner, d = 2, 3
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    # shared by every caller, hence read-only
    x, w = np.polynomial.legendre.leggauss(order)
    t, wt = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _power_map(kernel: Kernel, extra: float) -> int:
    # t-exponent of the mapped integrand is extra - s (Riesz); pick a power
    # substitution making it at least cubic so Gauss-Legendre converges fast
    if kernel.is_log:
        return 3
    gap = extra + 1.0 - kernel.s
    m = int(np.ceil(4.0 / max(gap, 0.25)))
    return max(2, min(m, 12))


@functools.lru_cache(maxsize=16)
def _corner_rule(d: int, order: int, m: int) -> tuple:
    """Nodes and weights of the corner map, shared read-only by every caller.

    An orthant box with edges e and the origin at a corner splits into d
    pyramids; pyramid k has major axis k and minor axes ``(k + i) mod d``,
    i = 1..d-1, and maps ``v_k = e_k tau``, ``v_(k+i) = e_(k+i) tau u_i``.
    Returns the radial nodes ``tau = t^m`` with weights that include the
    Jacobian ``tau^(d-1) m t^(m-1)``, and the tensor angular grid: a tuple of
    d-1 sparse node arrays u_i (axis i-1 of an ``(order,) * (d-1)`` grid)
    and the flattened weights of that grid.  The mapped volume element also
    carries the edge product, which the callers apply.
    """
    t, wt = _gl_nodes(order)
    tau = t**m
    w_tau = wt * m * t ** (m - 1) * tau ** (d - 1)
    u = tuple(np.meshgrid(*[t] * (d - 1), indexing="ij", sparse=True))
    w_u = functools.reduce(np.multiply.outer, [wt] * (d - 1)).ravel()
    for a in (tau, w_tau, w_u) + u:
        a.flags.writeable = False
    return tau, w_tau, u, w_u


def _rho_sq(edges: np.ndarray, k: int, u: tuple) -> np.ndarray:
    # |v|^2 / tau^2 = e_k^2 + sum_i (e_(k+i) u_i)^2 in pyramid k, for rows of
    # edges (N, d) on the angular grid u, flattened to shape (N, order^(d-1))
    n, d = edges.shape
    lead = (n,) + (1,) * (d - 1)
    r2 = np.square(edges[:, k]).reshape(lead)
    for i in range(1, d):
        r2 = r2 + np.square(edges[:, (k + i) % d].reshape(lead) * u[i - 1])
    return r2.reshape(n, -1)


def _orthant_integral(kernel: Kernel, edges: np.ndarray, signs: np.ndarray, weight, order: int) -> float:
    """Integral of g(|v|) * weight(v) over the orthant box [0, e1] x ... with
    the origin at a corner, evaluated in original (signed) coordinates: the
    corner rule summed over the d pyramids."""
    d = edges.size
    tau, w_tau, u, w_u = _corner_rule(d, order, _power_map(kernel, float(d - 1)))
    shape = (tau.size, w_u.size)
    total = 0.0
    for k in range(d):
        f = kernel.g(tau[:, None] * np.sqrt(_rho_sq(edges[None, :], k, u)))
        if weight is not None:
            coords = [None] * d
            coords[k] = np.broadcast_to(signs[k] * edges[k] * tau[:, None], shape)
            for i in range(1, d):
                j = (k + i) % d
                u_i = np.broadcast_to(u[i - 1], (order,) * (d - 1)).ravel()
                coords[j] = signs[j] * edges[j] * tau[:, None] * u_i
            f = f * weight(*coords)
        total += float(w_tau @ f @ w_u)
    return float(np.prod(edges)) * total


def box_kernel_integral(kernel: Kernel, lo, hi, weight=None, order: int = 32) -> float:
    """``int_box g(|v|) weight(v) dv`` for an axis-aligned box that contains
    the origin, in d = 2 or 3.

    The box splits into its 2^d orthant boxes, each with the origin at a
    corner and integrated by the corner rule; orthants of zero width are
    skipped.  ``weight`` is called with one array per coordinate.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.size not in (2, 3):
        raise ArgumentError("corner-mapped quadrature supports d = 2 or 3")
    if np.any(lo > 0.0) or np.any(hi < 0.0):
        raise ArgumentError("the box must contain the origin")
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=lo.size):
        signs = np.array(signs)
        edges = np.where(signs > 0.0, hi, -lo)
        if np.all(edges > 0.0):
            total += _orthant_integral(kernel, edges, signs, weight, order)
    return total


# ---------------------------------------------------------------------------
# background integrals for any supported (kernel, d)
# ---------------------------------------------------------------------------

def background_pair_integral(kernel: Kernel, R: float) -> float:
    """``iint_{C_R^2} g(x - y) dx dy``, computed as the tent-weighted integral
    ``int_{[-R, R]^d} g(v) prod_i (R - |v_i|) dv``; in d = 2, 3 by scaling the
    cached R = 1 value (v = R w): ``R^(2d-s) bb(1)`` for Riesz kernels and
    ``R^(2d) (bb(1) - log R)`` for the log kernel, whose unit tent has mass 1."""
    d = kernel.d
    if d == 1:
        return tent_kernel_integral_1d(kernel, R)
    unit = _unit_background_pair_integral(kernel)
    if kernel.is_log:
        return R ** (2 * d) * (unit - float(np.log(R)))
    return R ** (2 * d - kernel.s) * unit


@functools.lru_cache(maxsize=64)
def _unit_background_pair_integral(kernel: Kernel) -> float:
    def tent(*coords):
        return functools.reduce(np.multiply, [1.0 - np.abs(c) for c in coords])

    return box_kernel_integral(kernel, -np.ones(kernel.d), np.ones(kernel.d),
                               weight=tent, order=_BACKGROUND_PAIR_ORDER)


def _riesz_orthants(kernel: Kernel, edges: np.ndarray) -> np.ndarray:
    """``_orthant_integral`` of a Riesz kernel without weight, for every row of
    ``edges`` (shape (N, d), all entries positive).

    In each pyramid of the corner rule ``|v| = tau rho(u)``, so ``g(|v|) =
    tau^-s g(rho)``: the radial sum is one constant for every row, and only
    the angular sums over u are evaluated per row, in chunks of about
    ``_NODE_BUDGET`` nodes.
    """
    n, d = edges.shape
    tau, w_tau, u, w_u = _corner_rule(d, _POINT_BACKGROUND_ORDER, _power_map(kernel, d - 1.0))
    radial = float(np.sum(w_tau * tau ** -kernel.s))
    out = np.empty(n)
    step = max(1, _NODE_BUDGET // w_u.size)
    for i0 in range(0, n, step):
        e = edges[i0:i0 + step]
        ang = sum(np.einsum("ij,j->i", kernel.g_sq(_rho_sq(e, k, u)), w_u) for k in range(d))
        out[i0:i0 + step] = radial * np.prod(e, axis=1) * ang
    return out


def point_background(kernel: Kernel, pts: np.ndarray, R: float) -> np.ndarray:
    """``int_{C_R} g(p - y) dy`` for each point p of the closed window C_R.

    d = 1 is closed form.  In d = 2, 3 the window seen from p is the union of
    2^d orthant boxes with p at a corner and edges ``R/2 -+ p_i``, and one
    batched evaluation covers the boxes of all points: the corner
    antiderivative for the planar log kernel, and for Riesz kernels the
    corner rule with its radial sum factored out (``_riesz_orthants``).
    Boxes of zero width, from points on a face, contribute nothing and are
    skipped.
    """
    d = kernel.d
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if d == 1:
        return point_background_1d(kernel, pts[:, 0], R)
    if kernel.family is KernelFamily.LOG2D:
        return -_log_boxes_2d(-R / 2.0 - pts, R / 2.0 - pts)
    if np.any(np.abs(pts) > R / 2.0):
        raise ArgumentError("points must lie in the closed window")
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    edges = (R / 2.0 + pts[:, None, :] * signs).reshape(-1, d)
    keep = np.all(edges > 0.0, axis=1)
    vals = np.zeros(edges.shape[0])
    vals[keep] = _riesz_orthants(kernel, edges[keep])
    return vals.reshape(-1, 2**d).sum(axis=1)
