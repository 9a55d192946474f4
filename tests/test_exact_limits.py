"""Exact energy limits, one table, and the check that each reported error
covers the true one.

A row is a model, a kernel, a route, an R ladder, the exact limit of the
ladder and the source of that value.  The energy is ``W = int g(v) (rho2(v)
- 1) dv`` with ``g = -log|v|`` or ``|v|**-s``.  A row joins the table when
its route covers it today: ``|value - exact| <= extrapolation_error``.
"""

import math

import mpmath
import pytest

from rieszlab import GapLaw, ProcessModel, log_kernel, rho2_analytic, riesz_kernel
from rieszlab.energy import wint_from_rho2

EULER_GAMMA = 0.5772156649015329
BLOCK_LADDER = [64.0, 128.0, 256.0, 512.0]
GAMMA_LADDER = [128.0, 256.0, 512.0, 1024.0]
GAMMA_TWO = ProcessModel.renewal(GapLaw.gamma(2.0))

# the block deficit -(1 - |v|/k)_+ / k against the kernel
BLOCK_SOURCE = "closed form: int over [-k, k] of the tent deficit times the kernel"
# Gamma(2) gaps (shape and rate 2) have the renewal density 1 - exp(-4 v)
GAMMA_SOURCE = "closed form: -int exp(-4|v|) g(v) dv, the Gamma(2) renewal deficit"
# lattice points moved by independent uniforms U on [-1/k, 1/k]
VIBRATING_SOURCE = ("closed form: the lattice sum of the transform of |v|^-s against the "
                    "squared sinc of U, by residues mod k, less E|U - U'|^-s")
VIBRATING_LOG_SOURCE = "the s-derivative at s = 0 of the vibrating-lattice Riesz closed form"


def _vibrating_energy(k, s):
    """W of the vibrating lattice of parameter k under |v|^-s, in mpmath: the
    transform C |2 pi xi|^(s - 1), C = 2 Gamma(1 - s) sin(pi s / 2), summed
    over the nonzero integers m against sinc^2(2 pi m / k), whose terms of
    m = r mod k sum to Hurwitz zeta values, less the mean of |U - U'|^-s over
    the triangle of half-width 2/k."""
    pi = mpmath.pi
    c = 2 * mpmath.gamma(1 - s) * mpmath.sin(pi * s / 2)
    k = mpmath.mpf(k)
    residues = mpmath.fsum(mpmath.sin(2 * pi * r / k) ** 2 * mpmath.zeta(3 - s, r / k)
                           for r in range(1, int(k) + 1))
    lattice_sum = 2 * c * (2 * pi) ** (s - 1) * (k / (2 * pi)) ** 2 * k ** (s - 3) * residues
    return lattice_sum - 2 * (k / 2) ** s / ((1 - s) * (2 - s))


def vibrating_limit(k, s):
    """``_vibrating_energy`` at 40 digits, as a float."""
    with mpmath.workdps(40):
        return float(_vibrating_energy(k, mpmath.mpf(s)))


def vibrating_log_limit(k):
    """W of the vibrating lattice under -log|v|, the s-derivative at 0 of
    its Riesz energy, at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.diff(lambda s: _vibrating_energy(k, s), 0))

LIMITS = [
    *[(ProcessModel.bernoulli_block(k), log_kernel(1), "rho2", BLOCK_LADDER,
       math.log(k) - 1.5, BLOCK_SOURCE) for k in (2, 4, 8)],
    *[(ProcessModel.bernoulli_block(k), riesz_kernel(0.5), "rho2", BLOCK_LADDER,
       -2.0 * k**-0.5 / ((1.0 - 0.5) * (2.0 - 0.5)), BLOCK_SOURCE) for k in (2, 4, 8)],
    (ProcessModel.bernoulli_block(2, 2), log_kernel(2), "rho2", [8.0, 16.0, 32.0, 64.0],
     math.pi / 3.0 + 4.0 / 3.0 * math.log(2.0) - 25.0 / 12.0,
     "closed form: log k + 4 int_[0,1]^2 (1 - u)(1 - w) log|(u, w)| at k = 2"),
    *[(GAMMA_TWO, riesz_kernel(s), "rho2", GAMMA_LADDER,
       -math.gamma(1.0 - s) * 4.0 ** (s - 0.5), GAMMA_SOURCE) for s in (0.25, 0.5, 0.75)],
    (GAMMA_TWO, log_kernel(1), "rho2", GAMMA_LADDER, -EULER_GAMMA / 2.0 - math.log(2.0),
     GAMMA_SOURCE),
    (ProcessModel.poisson(1), log_kernel(1), "rho2", BLOCK_LADDER, 0.0,
     "rho2 = 1: no deficit"),
    *[(ProcessModel.vibrating_lattice(k), riesz_kernel(s), "rho2", BLOCK_LADDER,
       vibrating_limit(k, s), VIBRATING_SOURCE) for s in (0.25, 0.5, 0.75) for k in (4, 8, 16)],
    *[(ProcessModel.vibrating_lattice(k), log_kernel(1), "rho2", BLOCK_LADDER,
       vibrating_log_limit(k), VIBRATING_LOG_SOURCE) for k in (4, 8)],
]


def _energy(model, kernel, route, R_list):
    assert route == "rho2"  # the one route of the rows so far
    return wint_from_rho2(rho2_analytic(model), kernel, R_list)


def _row_id(row) -> str:
    model, kernel, route = row[:3]
    name = kernel.family if kernel.is_log else f"riesz{kernel.s:g}"
    return f"{model.describe()}/{name}/{route}"


@pytest.mark.parametrize("model, kernel, route, R_list, exact, source", LIMITS,
                         ids=[_row_id(row) for row in LIMITS])
def test_reported_error_covers_the_exact_limit(model, kernel, route, R_list, exact, source):
    rep = _energy(model, kernel, route, R_list)
    assert abs(rep.extrapolated - exact) <= rep.extrapolation_error, source


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_vibrating_limit_nears_the_lattice_at_rate_two(s):
    # the rate that acceptance c06 fits from the route, here from the closed
    # form: W(k) - 2 zeta(s), the excess over the lattice, falls like k^-2
    lattice = 2.0 * float(mpmath.zeta(s))
    rate = math.log2((vibrating_limit(8, s) - lattice) / (vibrating_limit(16, s) - lattice))
    assert abs(rate - 2.0) <= 0.05
