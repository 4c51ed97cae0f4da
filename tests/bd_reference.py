"""References for the block-diagonalization (BD) rates of one channel."""

import mpmath as mp
import numpy as np


def bd_asymptote(channel, power):
    """r log2(P / r) - sum_k log2|[G^-1]_kk|, the high-power BD sum rate of the channel."""
    r = channel.profile.total_antennas
    return r * np.log2(power / r) - sum(channel.inverse_block_logdet2)


def mpmath_bd_rate(channel, power, user):
    """User's BD rate log2 |I + (P / r) B^-1| in 50 digits, from the float block B of G^-1."""
    with mp.workdps(50):
        block = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in channel.gram_inverse_block(user)])
        gain = mp.mpf(power) / channel.profile.total_antennas
        value = mp.det(mp.eye(block.rows) + gain * block**-1)
        return float(mp.log(mp.re(value), 2))
