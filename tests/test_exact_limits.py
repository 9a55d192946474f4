"""Exact energy limits, one table, and the check that each reported error
covers the true one.

A row is a model, a kernel, a route, an R ladder, the exact limit of the
ladder and the source of that value.  The energy is ``W = int g(v) (rho2(v)
- 1) dv`` with ``g = -log|v|`` or ``|v|**-s``.  A row joins the table when
its route covers it today: ``|value - exact| <= extrapolation_error``.
"""

import math

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
