"""Property tests of the rate-loss kernel on generated channels.

Profiles have at most 8 base antennas; channels are complex Gaussian, scaled
over 60 orders of magnitude, and optionally made near-collinear by mixing one
column into another.  Examples are derandomized so the suite stays
deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimobc import ChannelRealization, NumericalRankError, instantaneous_rate_loss, make_profile
from mimobc._linalg import LN2, hermitize
from mimobc.channel import _factor_grams, _well_conditioned

#: The numpy reference (LU determinant and inverse) is trusted to 1e-9 bits up
#: to this condition number; beyond it only the rank verdict is compared.
REFERENCE_CONDITION = 1e5


@st.composite
def channels(draw):
    antennas = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda a: sum(a) <= 8)
    )
    r = sum(antennas)
    n = draw(st.integers(r, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    if r > 1 and draw(st.booleans()):
        source, target = draw(st.permutations(range(r)))[:2]
        h[:, target] = h[:, source] + 10.0 ** -draw(st.integers(0, 14)) * h[:, target]
    h *= 10.0 ** draw(st.integers(-30, 30))
    return make_profile(n, antennas), h


def in_a_stack(h):
    """``h`` first in a stack of r + 1 channels, the rest unit-variance Gaussian draws."""
    n, r = h.shape
    rng = np.random.default_rng(r)
    others = rng.standard_normal((r, n, r)) + 1j * rng.standard_normal((r, n, r))
    return np.concatenate([h[None], others])


def reference_rate_loss(gram, profile):
    """slogdet(G) + sum_k slogdet([inv(G)]_kk), in bits."""
    inverse = np.linalg.inv(gram)
    total = np.linalg.slogdet(gram)[1]
    for sl in profile.block_slices:
        total += np.linalg.slogdet(hermitize(inverse[sl, sl]))[1]
    return total / LN2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(channels())
def test_kernel_matches_the_eigenvalue_rule_and_the_lu_reference(case):
    profile, h = case
    gram = hermitize(h.conj().T @ h)
    eigenvalues = np.linalg.eigvalsh(gram)
    full_rank = bool(_well_conditioned(eigenvalues))
    # r <= 8, so forward substitution inverts the factors of both the stack of one and of r + 1
    factors = _factor_grams(h[None], profile)
    assert bool(factors.full_rank[0]) == full_rank
    stack = in_a_stack(h)
    stacked = _factor_grams(stack, profile)
    assert bool(stacked.full_rank[0]) == full_rank

    blocks = [h[:, sl] for sl in profile.block_slices]
    channel = ChannelRealization(profile, blocks)
    if not full_rank:
        with pytest.raises(NumericalRankError):
            instantaneous_rate_loss(channel)
        return
    loss = float(factors.rate_loss[0])
    assert instantaneous_rate_loss(channel) == loss
    if eigenvalues[-1] <= REFERENCE_CONDITION * eigenvalues[0]:
        reference = reference_rate_loss(gram, profile)
        assert abs(loss - reference) <= 1e-9
        assert abs(float(stacked.rate_loss[0]) - reference) <= 1e-9
