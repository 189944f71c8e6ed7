"""Consensus dynamics on activity-driven temporal networks.

Closed-form expected heat kernels, certified geometric decay bounds for
the sparse and fast-switching regimes, a reproducible Monte Carlo
survival-curve estimator, and exact enumeration oracles that gate all of
the closed forms.
"""

from .adn_model import (
    UNIFORM_TIE_BREAK,
    VARIANTS,
    FastSwitch,
    Full,
    ModelParams,
    Snapshot,
    Sparse,
    TieBreakRule,
    generate_snapshot,
    snapshot_count,
    snapshot_laplacian,
)
from .closed_form import activation_expectation, star_exponential
from .graph_core import StarSpec, expm_sym, star_laplacian, star_laplacian_power, symmetrize
from .mc_sim import (
    DecayFit,
    SurvivalCurve,
    fit_decay_stats,
    off_consensus_sq,
    project_off_consensus,
    run_paths,
    step,
)
from .spectral import (
    DecayBound,
    convergence_bound,
    decay_bound,
    gamma_fs,
    gamma_sp,
    lambda_second_largest,
    sparse_expected_exponential,
    survivor_rates,
    weighted_expected_exponential,
)
from .validation import (
    FastSwitchReport,
    GapSample,
    enumerate_expected_exponential,
    verify_fast_switch_inequality,
)
