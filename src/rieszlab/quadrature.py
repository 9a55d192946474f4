"""Deterministic quadrature helpers for singular radial kernels.

Everything here is exact or spectrally accurate, and deterministic.  In d = 1
every closed form derives from one primitive, ``_g_primitive``:
``P_j(v) = int_0^v g(t) t^j dt``.  The point-background integral is a sum of
two P_0 values, the background-background integral ``2 (R P_0(R) - P_1(R))``,
and ``pwlinear_weights`` turns the cell moments ``P_j(b) - P_j(a)``, j <= 2
(``g_moments``, in a form free of cancellation), into node weights for the
exact integral of g against a piecewise-linear profile times the tent
``R - v``: the d = 1 energy routes and the LP objective are those weights
applied to node values.

In d = 2, 3 the planar log kernel has a corner antiderivative, and
``box_kernel_integral`` takes every box term: g against a product of one
polynomial per axis over a centred cube, which is the background-background
tent and the block deficit of the pair-correlation route.  By symmetry it is
d 2^d times one pyramid ``v = a tau (1, u, w)``; there the weight is a
polynomial in tau, each power of tau integrates in closed form, and one
smooth angular sum is left.

For the point-background integral of a Riesz kernel, ``div(y |y|^-s) =
(d - s) |y|^-s`` gives ``(d - s) pb(p) = sum_f h_f int_f |y - p|^-s dS``
over the faces f at distance h_f.  The foot of p splits each face into
half-edges (d = 2) or right triangles (d = 3); ``u = h sinh w`` along a
half-edge, or ``tan theta = sinh w`` across a triangle after its radial
integral in closed form, makes each piece one integral analytic in the
strip ``|Im w| < pi/2`` whatever its shape (Johnston & Elliott, Int. J.
Numer. Meth. Engng 62, 2005).  Gauss-Legendre panels of order 12 and width
<= 1.5 are then exact to rounding, also next to a face, an edge or a
corner; every piece is positive, so the sum cancels nothing.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import ArgumentError, Kernel, in_window

# point-background panels: nodes per chunk, which bounds the temporaries for
# any number of points, and the Gauss-Legendre order and largest width
_PANEL_NODE_BUDGET = 2**15
_PANEL_ORDER = 12
_PANEL_WIDTH = 1.5

# Gauss-Legendre order per minor axis of the angular sum of box integrals
_ANGULAR_ORDER = 48


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


def pwlinear_weights(kernel: Kernel, nodes, tent_R: float, moments=None) -> np.ndarray:
    """Node weights w with ``w @ values = int g(v) L(v) (tent_R - v) dv`` over
    [nodes[0], nodes[-1]], where L interpolates ``values`` linearly between
    the nodes.

    Exact up to rounding: on a cell [a, b] each hat function, ``(b - v)/(b - a)``
    or ``(v - a)/(b - a)``, times the tent is a quadratic, integrated through
    the kernel moments of ``g_moments``, also on cells touching 0.  A caller
    that already holds those moments of the cells passes them as ``moments``.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ArgumentError("nodes must be a 1d array of length >= 2")
    if np.any(np.diff(nodes) <= 0.0) or nodes[0] < 0.0:
        raise ArgumentError("nodes must be strictly increasing and nonnegative")
    a, b = nodes[:-1], nodes[1:]
    M0, M1, M2 = g_moments(kernel, a, b) if moments is None else moments
    left = b * tent_R * M0 - (b + tent_R) * M1 + M2
    right = (a + tent_R) * M1 - a * tent_R * M0 - M2
    w = np.zeros(nodes.size)
    w[:-1] += left / (b - a)
    w[1:] += right / (b - a)
    return w


def integrate_g_pwlinear(kernel: Kernel, nodes, values, tent_R: float,
                         moments=None) -> float:
    """``int g(v) L(v) (tent_R - v) dv`` as in ``pwlinear_weights``, for the
    profile with node values ``values``.  The dot is numpy's pairwise sum of
    the products, whose order depends only on the length: a BLAS dot splits
    long sums across threads, and its result then depends on how many run."""
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(nodes):
        raise ArgumentError("nodes and values must be matching 1d arrays")
    return float(np.sum(pwlinear_weights(kernel, nodes, tent_R, moments) * values))


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
# d = 2, 3: box integrals with a per-axis polynomial weight
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    # shared by every caller, hence read-only
    x, w = np.polynomial.legendre.leggauss(order)
    t, wt = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def box_kernel_integral(kernel: Kernel, a: float, p) -> float:
    """``int_{[-a, a]^d} g(|v|) prod_i p(|v_i|) dv`` in d = 2, 3, for the
    per-axis polynomial ``p(x) = sum_j p[j] x^j``, exact up to the angular sum.

    The integrand is symmetric in the signs and the order of the
    coordinates, so the box is d 2^d copies of pyramid 0, ``v = a tau x``
    with ``x = (1, u_1, ...)``, tau and u_i in [0, 1], volume element
    ``a^d tau^(d-1)``.  There ``prod_i p(a tau x_i) = sum_m c_m(u) tau^m``
    and each ``tau^(d-1+m) g(a tau |x|)`` integrates over tau in closed
    form; the angular sum left is smooth, by Gauss-Legendre per minor axis.
    """
    d = kernel.d
    if d not in (2, 3):
        raise ArgumentError("box integrals support d = 2 or 3")
    t, wt = _gl_nodes(_ANGULAR_ORDER)
    u = np.meshgrid(*[t] * (d - 1), indexing="ij", sparse=True)  # u_i along axis i - 1
    w_u = functools.reduce(np.multiply.outer, [wt] * (d - 1)).ravel()
    c = [1.0]
    for x in [1.0, *u]:
        px = [p_j * (a * x) ** j for j, p_j in enumerate(p)]
        c = [sum(px[j] * c[m - j] for j in range(len(px)) if 0 <= m - j < len(c))
             for m in range(len(c) + len(px) - 1)]
    rho2 = 1.0 + sum(np.square(x) for x in u)
    if kernel.is_log:
        # int_0^1 tau^(n-1) (-log(a rho) - log tau) dtau = -log(a rho)/n + 1/n^2
        log_ar = -0.5 * np.log(rho2) - np.log(a)
        f = sum(c_m * (log_ar / (d + m) + 1.0 / (d + m) ** 2) for m, c_m in enumerate(c))
        scale = a**d
    else:
        f = rho2 ** (-0.5 * kernel.s) * sum(c_m / (d + m - kernel.s) for m, c_m in enumerate(c))
        scale = a ** (d - kernel.s)
    return d * 2**d * scale * float(w_u @ f.ravel())


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
    return box_kernel_integral(kernel, 1.0, (1.0, -1.0))  # the unit tent 1 - x


def _face_integrals(kernel: Kernel, pieces: list[np.ndarray]) -> np.ndarray:
    """The face pieces of ``point_background``, one column per coordinate,
    all positive: in d = 2 the half-edge ``(h, l)``, ``h^(2-s) / (2-s)
    int_0^W cosh^(1-s) w dw`` with ``W = asinh(l/h)``; in d = 3 the triangle
    ``(h, a, b)`` with legs a, b at distance h, ``h^(3-s) / ((3-s) 2q)
    int_0^W expm1(q log1p((a cosh w / h)^2)) / cosh w dw`` with
    ``W = asinh(b/a)``, ``q = 1 - s/2`` (``log1p / 2`` at q = 0).  Each piece
    sums its own row (``einsum``; a BLAS product depends on the row's place
    in the chunk), so its value is the same in any batch."""
    d, h, s = len(pieces), pieces[0], kernel.s
    W = np.arcsinh(pieces[-1] / pieces[-2])
    if d == 2 and s == 1.0:
        return W * h  # the integrand is 1
    q = 1.0 - 0.5 * s
    c = np.square(pieces[1] / h)[:, None] if d == 3 else None  # (a/h)^2
    panels = np.ceil(W / _PANEL_WIDTH).astype(np.int16)  # 16 bits: radix argsort
    rows, counts = np.argsort(panels, kind="stable"), np.bincount(panels)
    t, wt = _gl_nodes(_PANEL_ORDER)
    buf = np.empty((2, max(_PANEL_NODE_BUDGET, t.size * counts.size)))
    out = np.empty(h.size)
    for n in np.flatnonzero(counts):
        x, w = ((np.arange(n)[:, None] + t) / n).ravel(), np.tile(wt / n, n)
        step = max(1, _PANEL_NODE_BUDGET // x.size)
        for r in (rows[i:i + step] for i in range(0, counts[n], step)):
            ch, f = (b[:r.size * x.size].reshape(r.size, x.size) for b in buf)
            np.cosh(np.multiply.outer(W[r], x, out=ch), out=ch)
            if d == 2:
                np.exp(np.multiply(np.log(ch, out=f), 1.0 - s, out=f), out=f)
            else:
                np.log1p(np.multiply(np.square(ch, out=f), c[r], out=f), out=f)
                if q:
                    np.expm1(np.multiply(f, q, out=f), out=f)
                f /= ch
            out[r] = np.einsum("ij,j->i", f, w)
        rows = rows[counts[n]:]
    return out * W * h ** (d - s) * (1.0 / (2.0 - s) if d == 2 else 0.5 / ((3.0 - s) * (q or 1.0)))


def point_background(kernel: Kernel, pts: np.ndarray, R: float) -> np.ndarray:
    """``int_{C_R} g(p - y) dy`` for each point p, a row of the ``(N,
    kernel.d)`` array ``pts``, of the closed window C_R (``core.in_window``);
    another shape, or a point outside C_R or with a NaN, raises ``ArgumentError``.

    d = 1 and the planar log kernel are closed forms.  For Riesz kernels in
    d = 2, 3 each orthant box with p at a corner gives d! face pieces, one
    per ordering of its edges (the face's distance, then the triangle's
    legs); boxes of zero width, from points on a face, are skipped.
    """
    d = kernel.d
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ArgumentError(f"points must have shape (N, {d}), got {pts.shape}")
    if not in_window(pts, R / 2.0).all():
        raise ArgumentError("points must lie in the closed window")
    if d == 1:
        return point_background_1d(kernel, pts[:, 0], R)
    if kernel.is_log:
        return -_log_boxes_2d(-R / 2.0 - pts, R / 2.0 - pts)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    perms = np.array(list(itertools.permutations(range(d))))
    edges = R / 2.0 + pts[:, None, :] * signs
    pieces = [edges[:, :, perms[:, i]].ravel() for i in range(d)]
    keep = np.logical_and.reduce([e > 0.0 for e in pieces])
    vals = np.zeros(keep.size)
    vals[keep] = _face_integrals(kernel, [e[keep] for e in pieces])
    return vals.reshape(-1, signs.shape[0] * perms.shape[0]).sum(axis=1)
