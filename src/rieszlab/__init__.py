"""rieszlab: numerical laboratory for logarithmic and inverse-power pair
energies of stationary point processes.

The package computes per-volume interaction energies from samples and from
analytic two-point correlation functions, estimates correlation and
number-variance statistics, and explores the one-dimensional free-energy
tradeoff between energy and entropy rate.
"""

__version__ = "0.1.0"

from .core import (
    ArgumentError,
    DivergenceError,
    DomainError,
    Kernel,
    KernelFamily,
    NotApplicableError,
    PointConfiguration,
    SingularConfigurationError,
    log_kernel,
    riesz_kernel,
)
from .generators import (
    GapLaw,
    GapLawKind,
    ProcessModel,
    Rho2Analytic,
    Seed,
    Variant,
    replicas,
    rho2_analytic,
    rho2_hardcore,
    sample,
)
from .estimators import (
    CorrelationEstimate,
    GridSpec,
    TvReport,
    VarianceCurve,
    discrepancy_identity_check,
    dlog_estimate,
    estimate_rho2,
    number_variance_curve,
    pinsker_check,
    tv_lower_bound,
)
from .energy import (
    EnergyReport,
    hint_R,
    richardson,
    wint_from_rho2,
    wint_lattice_series,
    wint_monte_carlo,
)
from .onedim import (
    FreeEnergyScan,
    GapFunctionalValue,
    NeighborDensity,
    crystallization_gap,
    free_energy_scan,
    kth_neighbor_density,
    renewal_entropy_rate,
)
from .lpx import (
    CandidateT2,
    Discretization,
    evaluate_candidate,
    hardcore_candidate,
    minimize_t2,
)
