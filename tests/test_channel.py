import csv

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import block_diag

import mimobc.channel as channel_module
from mimobc import (
    ChannelRealization,
    ConfigurationError,
    CorrelationModel,
    NumericalRankError,
    ValidationError,
    derive_seed,
    ergodic_block_logdet,
    make_profile,
    sample_channel,
)
from mimobc._linalg import SUBSTITUTION_MAX_SIZE, haar_unitary, hermitize, invert_lower
from mimobc.channel import (
    _draw,
    _factor_grams,
    _sample_blocks,
    _well_conditioned,
    block_index_range,
)
from mimobc.bc import bc_covariance, mmse_receiver_exact
from mimobc.cli import main
from mimobc.mac import (
    MacCovarianceSet,
    _batch_rate_loss,
    asymptotic_user_rate,
    instantaneous_rate_loss,
)
from mimobc.validation import random_hpd


def per_user_draw(rng, profile, sqrt_blocks, count):
    """The sampler as one normal-variate call per user, the stream definition of ``_draw``."""
    n = profile.base_antennas
    blocks = []
    for k, r_k in enumerate(profile.user_antennas):
        parts = rng.standard_normal((count, 2, n, r_k))
        raw = (parts[:, 0] + 1j * parts[:, 1]) * np.sqrt(0.5)
        if sqrt_blocks is not None:
            raw = (raw.reshape(count * n, r_k) @ sqrt_blocks[k]).reshape(count, n, r_k)
        blocks.append(raw)
    return blocks


def gram_stack(channels):
    return hermitize(channels.conj().swapaxes(-1, -2) @ channels)


def conditioned_channels(rng, n, r, conditions):
    """Channels H = U diag(s) V^H whose Gram matrices have the given condition numbers."""
    out = []
    for cond in conditions:
        u = haar_unitary(n, rng)[:, :r]
        s = np.geomspace(1.0, cond**-0.5, r)
        out.append((u * s) @ haar_unitary(r, rng).conj().T)
    return np.array(out)


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

    def test_base_antenna_count_is_at_most_two_to_the_53(self):
        assert make_profile(2**53, [1]).base_antennas == 2**53
        for base in (2**53 + 1, 10**400):
            with pytest.raises(ValidationError, match=r"in \[1, 2\*\*53\]"):
                make_profile(base, [1])

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

    @pytest.mark.parametrize("user", [-1, 2])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda channel, k: asymptotic_user_rate(channel, 1.0, k),
            lambda channel, k: bc_covariance(channel, 1.0, k),
            lambda channel, k: mmse_receiver_exact(
                channel, MacCovarianceSet.uniform(channel.profile, 1.0), k
            ),
            lambda channel, k: ergodic_block_logdet(channel.profile, None, k),
            lambda channel, k: CorrelationModel.identity(channel.profile).block_logdet2(k),
        ],
        ids=[
            "asymptotic_user_rate", "bc_covariance", "mmse_receiver_exact", "ergodic_block_logdet",
            "CorrelationModel.block_logdet2",
        ],
    )
    def test_every_entry_point_rejects_a_user_outside_the_profile(self, entry, user):
        channel = sample_channel(make_profile(4, [2, 2]), seed=1)
        with pytest.raises(IndexError, match=f"user index {user} out of range for 2 users"):
            entry(channel, user)


class TestCorrelationModel:
    def test_identity_and_scalar(self):
        profile = make_profile(5, [2, 3])
        identity = CorrelationModel.identity(profile)
        assert identity.antennas == (2, 3)
        nearfar = CorrelationModel.scalar(profile, [1.0, 2.0])
        np.testing.assert_allclose(nearfar.blocks[1], 2.0 * np.eye(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            CorrelationModel([np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="positive definite"):
            CorrelationModel([np.diag([1.0, -0.5])])

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
        correlation = CorrelationModel([np.eye(2), 2.0 * np.eye(2)])
        channel = sample_channel(profile, correlation, seed=0)
        assert channel.composite.shape == (5, 4)
        assert channel.gram_condition < 1e12

    def test_single_draw_is_the_sample_channel_stream(self):
        # the batch sampler with count 1 reproduces sample_channel bit for bit
        profile = make_profile(6, [1, 2, 3])
        correlation = CorrelationModel(
            [random_hpd(np.random.default_rng(k), r) for k, r in enumerate(profile.user_antennas)]
        )
        for seed in range(20):
            drawn = _draw(np.random.default_rng(seed), profile, correlation, 1)
            blocks = sample_channel(profile, correlation, seed).blocks
            assert drawn.shape == (1, profile.base_antennas, profile.total_antennas)
            for sl, block in zip(profile.block_slices, blocks):
                assert drawn[0][:, sl].shape == block.shape
                assert np.ascontiguousarray(drawn[0][:, sl]).tobytes() == block.tobytes()

    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize(
        "base, antennas",
        [(7, (1, 3, 2)), (80, (4,) * 16), (6, (1,) * 6), (8, (2, 2, 1, 1, 2))],
        ids=["mixed", "16x4", "6x1", "runs"],
    )
    def test_one_normal_call_keeps_the_per_user_stream(self, base, antennas, correlated):
        # one standard_normal call split in user order, with each run of equal-size
        # users shaped at once, is the per-user loop, bit for bit
        profile = make_profile(base, antennas)
        correlation = roots = None
        if correlated:
            correlation = CorrelationModel(
                [random_hpd(np.random.default_rng(k), r) for k, r in enumerate(profile.user_antennas)]
            )
            roots = correlation.sqrt_blocks
        for seed in range(10):
            reference = per_user_draw(np.random.default_rng(seed), profile, roots, 1)
            blocks = sample_channel(profile, correlation, seed).blocks
            assert [b.tobytes() for b in blocks] == [b[0].tobytes() for b in reference]
        for count in (1, 7, 200):
            key = derive_seed(3, count)
            rng = np.random.Generator(np.random.Philox(key=key))
            drawn = _draw(rng, profile, correlation, count)
            reference = per_user_draw(
                np.random.Generator(np.random.Philox(key=key)), profile, roots, count
            )
            assert drawn.shape == (count, base, profile.total_antennas)
            assert drawn.tobytes() == np.concatenate(reference, axis=-1).tobytes()

    def test_correlation_dimension_mismatch(self):
        profile = make_profile(5, [2, 2])
        other = CorrelationModel.identity(make_profile(5, [1, 2]))
        with pytest.raises(ValidationError, match="do not match"):
            sample_channel(profile, other, seed=0)

    def test_row_covariance_matches_correlation(self):
        # rows of a real-correlation block have covariance C_k
        profile = make_profile(4, [2])
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        correlation = CorrelationModel([c])
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

    def test_constructor_validates_shapes(self):
        profile = make_profile(4, [2, 2])
        good = [np.zeros((4, 2)), np.zeros((4, 2))]
        ChannelRealization(profile, good)
        with pytest.raises(ValidationError, match="shape"):
            ChannelRealization(profile, [np.zeros((4, 2)), np.zeros((4, 1))])

    def test_constructor_rejects_non_finite_entries(self):
        profile = make_profile(4, [2, 2])
        bad = np.ones((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ChannelRealization(profile, [np.ones((4, 2)), bad])

    def test_constructors_copy_the_callers_arrays(self):
        # complex C-contiguous inputs are the very arrays np.asarray returns; each
        # value type keeps read-only copies and leaves the caller's arrays writeable
        profile = make_profile(4, [2, 2])
        h = [np.eye(4, 2, dtype=complex), np.eye(4, 2, k=-2, dtype=complex)]
        c = [np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)]
        channel = ChannelRealization(profile, iter(h))
        correlation = CorrelationModel(iter(c))
        for stored, given in ((channel.blocks, h), (correlation.blocks, c)):
            assert type(stored) is tuple and len(stored) == 2
            for kept, array in zip(stored, given):
                assert not kept.flags.writeable and not np.shares_memory(kept, array)
                array[0, 0] = 7.0
                assert kept[0, 0] != 7.0

    def test_blocks_are_read_only(self):
        channel = sample_channel(make_profile(4, [2, 2]), seed=0)
        with pytest.raises(ValueError):
            channel.blocks[0][0, 0] = 1.0

    def test_sampled_blocks_are_views_of_the_drawn_composite(self):
        profile = make_profile(5, [2, 1, 2])
        channel = sample_channel(profile, seed=4)
        np.testing.assert_array_equal(channel.composite, _sample_blocks(profile, None, 4))
        assert not channel.composite.flags.writeable
        for block, sl in zip(channel.blocks, profile.block_slices):
            assert np.shares_memory(block, channel.composite)
            np.testing.assert_array_equal(block, channel.composite[:, sl])
        rebuilt = ChannelRealization(profile, channel.blocks)
        np.testing.assert_array_equal(rebuilt.gram, channel.gram)

    def test_composite_channel_is_checked(self):
        profile = make_profile(4, [2, 2])
        with pytest.raises(ValidationError, match="shape"):
            ChannelRealization._from_composite(profile, np.ones((4, 3)))
        bad = np.ones((4, 4))
        bad[2, 3] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            ChannelRealization._from_composite(profile, bad)

    def test_pseudo_inverse_identity(self):
        channel = sample_channel(make_profile(6, [2, 2]), seed=17)
        product = channel.pseudo_inverse @ channel.composite
        assert np.linalg.norm(product - np.eye(4)) < 1e-10


def mpmath_complex(a):
    return mp.matrix([[mp.mpc(float(x.real), float(x.imag)) for x in row] for row in a])


def mpmath_inverse(a):
    """The inverse of a float matrix, at 60 digits, rounded to complex128."""
    with mp.workdps(60):
        return np.array((mpmath_complex(a) ** -1).tolist(), dtype=complex)


def mpmath_rate_loss(h, profile):
    """The rate loss of channel ``h`` in bits and its inverse Gram matrix, at 60 digits."""
    with mp.workdps(60):
        big = mpmath_complex(h)
        gram = big.H * big
        inverse = gram**-1
        total = mp.log(mp.re(mp.det(gram)))
        for sl in profile.block_slices:
            total += mp.log(mp.re(mp.det(inverse[sl.start : sl.stop, sl.start : sl.stop])))
        return float(total / mp.log(2)), np.array(inverse.tolist(), dtype=complex)


class TestFactorGrams:
    """The rate-loss kernel: its rank verdict is the eigenvalue rule on every draw."""

    @pytest.mark.parametrize("cond_limit, low, high", [(1e12, 8, 13), (1e5, 1, 6)])
    def test_verdict_is_the_eigenvalue_rule_near_the_limits(
        self, monkeypatch, cond_limit, low, high
    ):
        # condition numbers straddle both COND_LIMIT and the trace-bound margin below it
        monkeypatch.setattr(channel_module, "COND_LIMIT", cond_limit)
        rng = np.random.default_rng(11)
        conditions = np.geomspace(10.0**low, 10.0**high, 61)
        verdicts, cheap = [], 0
        profiles = (make_profile(4, [1, 1]), make_profile(6, [2, 1, 2]), make_profile(8, [3, 3]))
        for profile in profiles:
            channels = conditioned_channels(
                rng, profile.base_antennas, profile.total_antennas, conditions
            )
            grams = gram_stack(channels)
            expected = _well_conditioned(np.linalg.eigvalsh(grams))
            factors = _factor_grams(channels, profile)
            assert factors.full_rank.tolist() == expected.tolist()
            assert len(factors.chol) == int(expected.sum())
            for i in range(len(grams)):
                one = _factor_grams(channels[i : i + 1], profile)
                assert bool(one.full_rank[0]) == bool(expected[i])
            bound = np.trace(grams, axis1=-2, axis2=-1).real * np.trace(
                np.linalg.inv(grams), axis1=-2, axis2=-1
            ).real
            cheap += int(np.sum(bound <= channel_module._TRACE_MARGIN * cond_limit))
            verdicts += expected.tolist()
        assert cheap > 0 and True in verdicts and False in verdicts
        assert cheap < verdicts.count(True)  # some accepted draws needed their eigenvalues

    def test_ill_conditioned_draws_match_mpmath(self):
        # a Cholesky of G = H^H H alone loses about cond(G) eps: 1e-6 bits at cond(G) = 1e11
        for profile in (make_profile(6, [2, 2, 2]), make_profile(7, [1, 3, 2])):
            channels = conditioned_channels(
                np.random.default_rng(5), profile.base_antennas, profile.total_antennas,
                np.geomspace(1e2, 1e11, 10),
            )
            factors = _factor_grams(channels, profile)
            assert factors.full_rank.all()
            for h, loss in zip(channels, factors.rate_loss):
                expected_loss, expected_inverse = mpmath_rate_loss(h, profile)
                assert abs(loss - expected_loss) <= 1e-10
                blocks = [h[:, sl] for sl in profile.block_slices]
                inverse = ChannelRealization(profile, blocks).gram_inverse
                error = np.linalg.norm(inverse - expected_inverse)
                assert error <= 1e-10 * np.linalg.norm(expected_inverse)

    @pytest.mark.parametrize(
        "antennas, copies, blocked",
        [
            ((3, 3, 4), 1, True),
            ((4, 4, 4, 4, 4), 1, True),
            ((2, 2, 2), 1, False),
            ((2, 2, 2), 6, False),
        ],
        ids=["block", "ragged-block", "short-substitution", "substitution"],
    )
    def test_both_inverse_loops_match_mpmath(self, block_inverses, antennas, copies, blocked):
        # a stack of one inverts its factor by blocks above SUBSTITUTION_MAX_SIZE: r = 10 in one
        # padded block, r = 20 in a full block and a ragged one of 4; a stack of at least r, or
        # of smaller factors (r = 6), by forward substitution
        r = sum(antennas)
        assert (r > SUBSTITUTION_MAX_SIZE) == blocked
        profile = make_profile(r, list(antennas))
        channels = conditioned_channels(
            np.random.default_rng(7), r, r, np.geomspace(1e2, 1e11, 8)
        )
        qr_factored = 0
        for h in channels:
            stack = np.repeat(h[None], copies, axis=0)
            factors = _factor_grams(stack, profile)
            assert factors.full_rank.all()
            assert bool(block_inverses) == blocked
            for factor, inverse in zip(factors.chol, factors.inv_chol):
                expected = mpmath_inverse(factor)
                assert np.linalg.norm(inverse - expected) <= 1e-12 * np.linalg.norm(expected)
                # an LU inverse of these factors leaves rounding above the diagonal
                assert np.array_equal(inverse, np.tril(inverse))
            expected_loss, expected_inverse = mpmath_rate_loss(h, profile)
            assert np.all(np.abs(factors.rate_loss - expected_loss) <= 1e-10)
            errors = np.linalg.norm(factors.inverse - expected_inverse, axis=(-2, -1))
            assert np.all(errors <= 1e-10 * np.linalg.norm(expected_inverse))
            bound = np.linalg.norm(factors.chol[0]) ** 2 * np.linalg.norm(factors.inv_chol[0]) ** 2
            qr_factored += bool(bound > channel_module._QR_BOUND * r)
        assert qr_factored > 0  # some draws took their factor from a QR of H

    @pytest.mark.parametrize(
        "base, antennas",
        [(6, (3, 3)), (6, (2, 2, 2)), (12, (4, 3, 3))],
        ids=["3,3/6", "2,2,2/6", "4,3,3/12"],
    )
    @pytest.mark.parametrize("scaled", [False, True], ids=["identity", "scalar"])
    def test_a_realization_and_a_row_give_the_same_bits(self, base, antennas, scaled):
        # both form G = H^H H by the kernel's one product, so no value may move in its last bit
        profile = make_profile(base, antennas)
        gains = np.linspace(0.5, 2.0, len(antennas))
        correlation = CorrelationModel.scalar(profile, gains) if scaled else None
        for seed in range(50):
            channel = sample_channel(profile, correlation, seed)
            row = _batch_rate_loss(_sample_blocks(profile, correlation, seed)[None], profile)
            assert instantaneous_rate_loss(channel) == row.rate_loss[0]
            assert channel.gram_logdet2 == row.logdet2[0]
            assert channel.inverse_block_logdet2 == tuple(row.block_logdet2[0].tolist())

    def test_a_stack_of_singular_grams_has_no_factors(self):
        profile = make_profile(5, [2, 2])
        rng = np.random.default_rng(6)
        block = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
        channels = np.concatenate([block, block[:, :, ::-1]], axis=-1)
        factors = _factor_grams(channels, profile)
        assert factors.full_rank.tolist() == [False] * 3
        assert factors.chol.shape == factors.inv_chol.shape == (0, 4, 4)
        assert factors.rate_loss.shape == (0,)
        assert invert_lower(factors.chol).shape == (0, 4, 4)

    def test_singular_gram_in_a_stack_is_flagged(self):
        # numpy's Cholesky raises for a whole stack; the kernel flags the one singular draw
        profile = make_profile(5, [1, 2])
        rng = np.random.default_rng(4)
        raised = 0
        for _ in range(6):
            channels = rng.standard_normal((8, 5, 3)) + 1j * rng.standard_normal((8, 5, 3))
            channels[3, :, 2] = channels[3, :, 0]
            grams = gram_stack(channels)
            try:
                np.linalg.cholesky(grams)
            except np.linalg.LinAlgError:
                raised += 1
            factors = _factor_grams(channels, profile)
            assert factors.full_rank.tolist() == [i != 3 for i in range(8)]
            keep = np.arange(8) != 3
            regular = _factor_grams(channels[keep], profile)
            np.testing.assert_allclose(factors.rate_loss, regular.rate_loss, rtol=0, atol=1e-12)
        assert 0 < raised < 6  # both the raising and the non-raising Cholesky are covered

    @pytest.mark.parametrize(
        "read",
        [
            lambda c: c.require_full_rank(),
            lambda c: c.gram_logdet2,
            lambda c: c.gram_inverse,
            lambda c: c.pseudo_inverse,
            lambda c: c.inverse_block_logdet2,
            lambda c: c.gram_inverse_block(0),
        ],
        ids=[
            "require_full_rank", "gram_logdet2", "gram_inverse", "pseudo_inverse",
            "inverse_block_logdet2", "gram_inverse_block",
        ],
    )
    def test_duplicated_columns_raise_the_rank_error(self, tmp_path, monkeypatch, read):
        profile = make_profile(5, [2, 2])
        rng = np.random.default_rng(2)
        block = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        with pytest.raises(NumericalRankError):
            read(ChannelRealization(profile, [block, block[:, ::-1]]))

    def test_rate_loss_row_of_a_duplicated_column_channel_is_flagged(
        self, tmp_path, monkeypatch, capsys
    ):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        monkeypatch.setattr(
            "mimobc.cli._sample_blocks",
            lambda profile, correlation, seed: np.concatenate([block, block[:, ::-1]], axis=1),
        )
        config = tmp_path / "c.json"
        config.write_text('{"N": 5, "antennas": [2, 2]}')
        out = tmp_path / "x.csv"
        assert main(["rate-loss", "--config", str(config), "--trials", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith("(2 rank-deficient)\n")
        with open(out) as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        assert [row["status"] for row in rows] == ["rank_deficient", "rank_deficient"]
        assert all(row["rate_loss_bits"] == "" for row in rows)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        seeds = {derive_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)
