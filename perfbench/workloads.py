"""The four benchmark workloads, as lists of CLI experiments.

Pure Python and free of ``rieszlab`` imports, so the orchestrator can build
plans without paying for numpy.  Every spec seed is derived from the workload
seed; the program sees only the generated specs.  The reasons for each
workload and its sizes are in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

RIESZ_HALF = {"family": "riesz", "s": 0.5, "d": 1}
LOG1D = {"family": "log1d"}
LOG2D = {"family": "log2d"}
THETA_GRID = [0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]


@dataclass(frozen=True)
class Experiment:
    """One CLI call: ``rieszlab <command> --config <spec>``, checked by ``gate``
    (a name in ``gates.GATES``)."""

    command: str
    spec: dict
    gate: str


def _energy_mc_1d() -> list[tuple[str, dict, str]]:
    return [
        ("energy", {"model": {"variant": "bernoulli_block", "k": 4, "d": 1},
                    "kernel": LOG1D, "R_list": [64, 128], "n_replicas": 750,
                    "route": "mc"}, "mc_vs_rho2"),
        ("energy", {"model": {"variant": "vibrating_lattice", "k": 8},
                    "kernel": RIESZ_HALF, "R_list": [512, 1024, 2048],
                    "n_replicas": 30, "route": "mc"}, "mc_vs_rho2"),
    ]


def _energy_mc_nd() -> list[tuple[str, dict, str]]:
    return [
        ("energy", {"model": {"variant": "poisson", "d": 2},
                    "kernel": {"family": "riesz", "s": 1.0, "d": 2},
                    "R_list": [8, 16], "n_replicas": 30, "route": "mc"}, "poisson_zero"),
        ("energy", {"model": {"variant": "poisson", "d": 2}, "kernel": LOG2D,
                    "R_list": [8, 16], "n_replicas": 30, "route": "mc"}, "poisson_zero"),
        ("energy", {"model": {"variant": "poisson", "d": 3},
                    "kernel": {"family": "riesz", "s": 1.5, "d": 3},
                    "R_list": [2, 3], "n_replicas": 30, "route": "mc"}, "poisson_zero"),
    ]


def _correlation_stats() -> list[tuple[str, dict, str]]:
    return [
        ("rho2", {"model": {"variant": "bernoulli_block", "k": 4, "d": 1},
                  "R": 256, "n_replicas": 150, "v_max": 16, "n_bins": 64}, "rho2_block"),
        ("rho2", {"model": {"variant": "bernoulli_block", "k": 2, "d": 2},
                  "R": 32, "n_replicas": 30, "v_max": 4, "n_bins": 32}, "rho2_block"),
        ("variance", {"model": {"variant": "bernoulli_block", "k": 4, "d": 1},
                      "R_list": [8, 16, 32, 64, 128], "n_replicas": 600,
                      "c_log": 1.0}, "variance_c04"),
        ("crystal", {"model": {"variant": "vibrating_lattice", "k": 4}, "L": 48,
                     "n_replicas": 250, "k_max": 8, "x_max": 20,
                     "s_exponent": 0.5}, "crystal_c05"),
        ("pinsker", {"model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 2}},
                     "R_list": [2, 4, 8], "n_replicas": 1200, "tile_count": 2},
         "pinsker_c08"),
    ]


def _analytic_routes() -> list[tuple[str, dict, str]]:
    ladder = [256, 512, 1024, 2048]
    exps = [("energy", {"model": {"variant": "vibrating_lattice", "k": k},
                        "kernel": RIESZ_HALF, "R_list": ladder, "route": "rho2"},
             "vibrating_rate_c06") for k in (2, 4, 8, 16)]
    exps += [
        ("energy", {"model": {"variant": "renewal", "gap": {"law": "gamma", "theta": 2}},
                    "kernel": LOG1D, "R_list": [128, 256, 512, 1024], "route": "rho2"},
         "log_between_lattice_and_poisson"),
        ("energy", {"model": {"variant": "bernoulli_block", "k": 2, "d": 2},
                    "kernel": LOG2D, "R_list": [8, 16, 32], "route": "rho2"}, "finite"),
        ("energy", {"kernel": RIESZ_HALF, "R_list": [2 ** j for j in range(12, 19)],
                    "route": "series"}, "series_zeta"),
    ]
    exps += [("freemin", {"kernel": RIESZ_HALF, "beta": beta, "theta_grid": THETA_GRID},
              "freemin_c07") for beta in (0.01, 1.0, 100.0)]
    exps.append(("lp", {"kernel": RIESZ_HALF, "R": 1024}, "lp_c10"))
    return exps


WORKLOADS = {
    "energy_mc_1d": _energy_mc_1d,
    "energy_mc_nd": _energy_mc_nd,
    "correlation_stats": _correlation_stats,
    "analytic_routes": _analytic_routes,
}


def experiments(workload: str, seed: int) -> list[Experiment]:
    """The workload's experiments; spec ``i`` gets seed ``1000 * seed + i``."""
    try:
        build = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}") from None
    return [Experiment(command, {**spec, "seed": 1000 * seed + i}, gate)
            for i, (command, spec, gate) in enumerate(build())]
