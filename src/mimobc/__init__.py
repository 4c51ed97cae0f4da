"""High-SNR rate analysis for the MIMO broadcast channel.

Closed-form asymptotic rates in the dual uplink, duality-derived
block-diagonalization precoding in the downlink, the instantaneous and
ergodic rate loss of linear filtering below dirty paper coding, a finite
power sum-capacity baseline, and Monte Carlo machinery that confirms the
closed forms.
"""

from .baseline import dual_mac_sum_capacity
from .bc import solve_bc
from .channel import (
    COND_LIMIT,
    ChannelRealization,
    CorrelationModel,
    derive_seed,
    make_profile,
    sample_channel,
)
from .ergodic import (
    digamma_int,
    ergodic_block_logdet,
    ergodic_dpc_logdet,
    ergodic_rate_loss,
    monte_carlo_rate_loss,
    power_offset_db,
)
from .errors import MimoBcError, NumericalRankError, ValidationError
from .mac import instantaneous_rate_loss
from .validation import run_all_checks

__version__ = "0.1.0"

__all__ = [
    "COND_LIMIT",
    "ChannelRealization",
    "CorrelationModel",
    "MimoBcError",
    "NumericalRankError",
    "ValidationError",
    "derive_seed",
    "digamma_int",
    "dual_mac_sum_capacity",
    "ergodic_block_logdet",
    "ergodic_dpc_logdet",
    "ergodic_rate_loss",
    "instantaneous_rate_loss",
    "make_profile",
    "monte_carlo_rate_loss",
    "power_offset_db",
    "run_all_checks",
    "sample_channel",
    "solve_bc",
]
