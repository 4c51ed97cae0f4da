import numpy as np
import pytest
from scipy.linalg import block_diag

from mimobc import (
    ChannelRealization,
    ConfigurationError,
    CorrelationModel,
    ValidationError,
    block_index_range,
    derive_seed,
    make_profile,
    sample_channel,
)
from mimobc.channel import _draw

from conftest import random_hpd


class TestMakeProfile:
    def test_reference_setup(self):
        profile = make_profile(5, [2, 2])
        assert profile.total_antennas == 4
        assert profile.weights == (1.0, 1.0)

    def test_minimal_square_case(self):
        assert make_profile(2, [1, 1]).total_antennas == 2

    def test_too_few_base_antennas(self):
        with pytest.raises(ConfigurationError, match="3.*4|4.*3"):
            make_profile(3, [2, 2])

    def test_nonpositive_antenna_count(self):
        with pytest.raises(ValidationError):
            make_profile(4, [2, 0])

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            make_profile(4, [2, 2], weights=[1.0, -0.5])
        with pytest.raises(ValidationError):
            make_profile(4, [2, 2], weights=[0.0, 0.0])
        with pytest.raises(ValidationError):
            make_profile(4, [2, 2], weights=[1.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="finite"):
                make_profile(4, [2, 2], weights=[1.0, bad])


class TestBlockIndexRange:
    def test_cumulative_ranges(self):
        profile = make_profile(4, [1, 2])
        assert block_index_range(profile, 0) == slice(0, 1)
        assert block_index_range(profile, 1) == slice(1, 3)
        assert block_index_range(make_profile(4, [2, 2]), 0) == slice(0, 2)

    def test_identity_block_selection(self):
        profile = make_profile(6, [2, 3, 1])
        eye = np.eye(profile.total_antennas)
        for k, r_k in enumerate(profile.user_antennas):
            sl = block_index_range(profile, k)
            np.testing.assert_array_equal(eye[sl, sl], np.eye(r_k))

    def test_out_of_range(self):
        profile = make_profile(4, [2, 2])
        with pytest.raises(IndexError):
            block_index_range(profile, 2)
        with pytest.raises(IndexError):
            block_index_range(profile, -1)


class TestCorrelationModel:
    def test_identity_and_scalar(self):
        profile = make_profile(5, [2, 3])
        identity = CorrelationModel.identity(profile)
        assert identity.antennas == (2, 3)
        nearfar = CorrelationModel.scalar(profile, [1.0, 2.0])
        np.testing.assert_allclose(nearfar.blocks[1], 2.0 * np.eye(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            CorrelationModel.from_blocks([np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="positive definite"):
            CorrelationModel.from_blocks([np.diag([1.0, -0.5])])

    def test_rejects_nonpositive_gain(self):
        profile = make_profile(4, [2, 2])
        with pytest.raises(ValidationError):
            CorrelationModel.scalar(profile, [1.0, 0.0])

    def test_sqrt_roundtrip(self, checks):
        assert checks["channel_sqrt_roundtrip"].passed

    def test_composite_is_block_diagonal(self):
        profile = make_profile(5, [2, 1])
        model = CorrelationModel.scalar(profile, [2.0, 3.0])
        np.testing.assert_allclose(block_diag(*model.blocks), np.diag([2.0, 2.0, 3.0]))


class TestSampleChannel:
    def test_deterministic_for_fixed_seed(self, checks):
        assert checks["channel_determinism"].passed

    def test_second_moment_scaling(self, checks):
        assert checks["channel_second_moment"].passed

    def test_reference_near_far_setup(self):
        profile = make_profile(5, [2, 2])
        correlation = CorrelationModel.from_blocks([np.eye(2), 2.0 * np.eye(2)])
        channel = sample_channel(profile, correlation, seed=0)
        assert channel.composite.shape == (5, 4)
        assert channel.gram_condition < 1e12

    def test_single_draw_is_the_sample_channel_stream(self):
        # the batch sampler with count 1 reproduces sample_channel bit for bit
        profile = make_profile(6, [1, 2, 3])
        correlation = CorrelationModel.from_blocks(
            [random_hpd(np.random.default_rng(k), r) for k, r in enumerate(profile.user_antennas)]
        )
        for seed in range(20):
            drawn = _draw(np.random.default_rng(seed), profile, correlation.sqrt_blocks, 1)
            blocks = sample_channel(profile, correlation, seed).blocks
            for stack, block in zip(drawn, blocks):
                assert stack.shape == (1,) + block.shape
                assert stack[0].tobytes() == block.tobytes()

    def test_correlation_dimension_mismatch(self):
        profile = make_profile(5, [2, 2])
        other = CorrelationModel.identity(make_profile(5, [1, 2]))
        with pytest.raises(ValidationError, match="do not match"):
            sample_channel(profile, other, seed=0)

    def test_row_covariance_matches_correlation(self):
        # rows of a real-correlation block have covariance C_k
        profile = make_profile(4, [2])
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        correlation = CorrelationModel.from_blocks([c])
        rows = []
        for t in range(4000):
            channel = sample_channel(profile, correlation, derive_seed(9, t))
            rows.append(channel.blocks[0])
        stacked = np.concatenate(rows, axis=0)
        empirical = stacked.conj().T @ stacked / stacked.shape[0]
        assert np.linalg.norm(empirical.T - c) < 0.05

    def test_gram_expectation_matches_composite_correlation(self):
        profile = make_profile(5, [1, 2])
        correlation = CorrelationModel.scalar(profile, [3.0, 0.5])
        total = np.zeros((3, 3), dtype=complex)
        trials = 3000
        for t in range(trials):
            total += sample_channel(profile, correlation, derive_seed(13, t)).gram
        average = total / (trials * profile.base_antennas)
        assert np.linalg.norm(average - block_diag(*correlation.blocks)) < 0.05


class TestChannelRealization:
    def test_composite_assembly_exact(self, checks):
        assert checks["channel_composite_assembly"].passed

    def test_gram_is_hermitian_psd(self):
        channel = sample_channel(make_profile(6, [2, 3]), seed=8)
        gram = channel.gram
        assert np.linalg.norm(gram - gram.conj().T) == 0.0
        assert np.linalg.eigvalsh(gram)[0] > 0

    def test_from_blocks_validates_shapes(self):
        profile = make_profile(4, [2, 2])
        good = [np.zeros((4, 2)), np.zeros((4, 2))]
        ChannelRealization.from_blocks(profile, good)
        with pytest.raises(ValidationError, match="shape"):
            ChannelRealization.from_blocks(profile, [np.zeros((4, 2)), np.zeros((4, 1))])

    def test_from_blocks_rejects_non_finite_entries(self):
        profile = make_profile(4, [2, 2])
        bad = np.ones((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ChannelRealization.from_blocks(profile, [np.ones((4, 2)), bad])

    def test_blocks_are_read_only(self):
        channel = sample_channel(make_profile(4, [2, 2]), seed=0)
        with pytest.raises(ValueError):
            channel.blocks[0][0, 0] = 1.0

    def test_pseudo_inverse_identity(self):
        channel = sample_channel(make_profile(6, [2, 2]), seed=17)
        product = channel.pseudo_inverse @ channel.composite
        assert np.linalg.norm(product - np.eye(4)) < 1e-10


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        seeds = {derive_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)
