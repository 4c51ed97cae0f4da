"""High-SNR rate analysis for the MIMO broadcast channel.

Closed-form asymptotic rates in the dual uplink, duality-derived
block-diagonalization precoding in the downlink, the instantaneous and
ergodic rate loss of linear filtering below dirty paper coding, a finite
power sum-capacity baseline, and Monte Carlo machinery that confirms the
closed forms.
"""

from .baseline import (
    CurvePoint,
    SumCapacityResult,
    dual_mac_sum_capacity,
    generate_curves,
    waterfill,
)
from .bc import (
    BcSolution,
    asymptotic_receiver,
    bc_covariance,
    bc_exact_user_rate,
    bc_precoder,
    decorrelation_basis,
    eigenbasis_optimality_check,
    mmse_receiver_exact,
    scaling_factors,
    solve_bc,
)
from .channel import (
    COND_LIMIT,
    ChannelRealization,
    CorrelationModel,
    SystemProfile,
    block_index_range,
    derive_seed,
    make_profile,
    sample_channel,
)
from .ergodic import (
    EULER_GAMMA,
    MonteCarloEstimate,
    RateLossCell,
    default_trials,
    digamma_int,
    ergodic_block_logdet,
    ergodic_dpc_logdet,
    ergodic_rate_loss,
    ergodic_rate_loss_equal,
    monte_carlo_rate_loss,
    power_offset_db,
    rate_loss_grid,
)
from .errors import (
    ConfigurationError,
    DegeneracyError,
    DomainError,
    MimoBcError,
    NumericalRankError,
    ValidationError,
)
from .mac import (
    MacAsymptoticSolution,
    MacCovarianceSet,
    RateReport,
    asymptotic_rate_report,
    asymptotic_user_rate,
    asymptotic_weighted_sum_rate,
    dpc_asymptotic_sum_rate,
    exact_rate_report,
    exact_user_rate,
    exact_user_rate_gram_form,
    instantaneous_rate_loss,
    optimal_power_split,
)
from .validation import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "BcSolution",
    "COND_LIMIT",
    "ChannelRealization",
    "CheckResult",
    "ConfigurationError",
    "CorrelationModel",
    "CurvePoint",
    "DegeneracyError",
    "DomainError",
    "EULER_GAMMA",
    "MacAsymptoticSolution",
    "MacCovarianceSet",
    "MimoBcError",
    "MonteCarloEstimate",
    "NumericalRankError",
    "RateLossCell",
    "RateReport",
    "SumCapacityResult",
    "SystemProfile",
    "ValidationError",
    "asymptotic_rate_report",
    "asymptotic_receiver",
    "asymptotic_user_rate",
    "asymptotic_weighted_sum_rate",
    "bc_covariance",
    "bc_exact_user_rate",
    "bc_precoder",
    "block_index_range",
    "decorrelation_basis",
    "default_trials",
    "derive_seed",
    "digamma_int",
    "dpc_asymptotic_sum_rate",
    "dual_mac_sum_capacity",
    "eigenbasis_optimality_check",
    "ergodic_block_logdet",
    "ergodic_dpc_logdet",
    "ergodic_rate_loss",
    "ergodic_rate_loss_equal",
    "exact_rate_report",
    "exact_user_rate",
    "exact_user_rate_gram_form",
    "generate_curves",
    "instantaneous_rate_loss",
    "make_profile",
    "mmse_receiver_exact",
    "monte_carlo_rate_loss",
    "optimal_power_split",
    "power_offset_db",
    "rate_loss_grid",
    "run_all_checks",
    "sample_channel",
    "scaling_factors",
    "solve_bc",
    "waterfill",
]
