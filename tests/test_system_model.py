"""Channel model, realification, SNR mapping, and RNG stream contracts."""

import math

import numpy as np
import pytest

from hsmimo.system_model import (
    NoiseModel,
    RngStream,
    SystemDims,
    derealify_vector,
    realify_channel,
    realify_vector,
    sample_channel,
    sample_signal,
    snr_to_sigma2,
    transmit,
)


def test_dims_validation():
    d = SystemDims(50, 32)
    assert (d.N, d.M) == (100, 64)
    assert d.overloaded
    assert not SystemDims(4, 4).overloaded
    with pytest.raises(ValueError):
        SystemDims(0, 3)
    with pytest.raises(ValueError):
        SystemDims(3, -1)


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(987, 3).generator().standard_normal(16)
        b = RngStream(987, 3).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(987, 0).generator().standard_normal(16)
        b = RngStream(987, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_children_are_reproducible_and_distinct(self):
        root = RngStream(11)
        np.testing.assert_array_equal(root.child(2, 5).generator().standard_normal(8),
                                      root.child(2, 5).generator().standard_normal(8))
        assert not np.array_equal(root.child(2, 5).generator().standard_normal(8),
                                  root.child(2, 6).generator().standard_normal(8))

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            RngStream(-1)
        with pytest.raises(ValueError, match="stream_id must be non-negative, got -2"):
            RngStream(5, -2)


class TestSampleChannel:
    def test_shapes_and_finiteness(self):
        hc = sample_channel(SystemDims(50, 32), RngStream(1))
        assert hc.shape == (32, 50)
        assert np.all(np.isfinite(hc.real)) and np.all(np.isfinite(hc.imag))

    def test_determinism(self):
        dims = SystemDims(3, 2)
        np.testing.assert_array_equal(sample_channel(dims, RngStream(5, 1)),
                                      sample_channel(dims, RngStream(5, 1)))

    def test_unit_entry_variance(self):
        # E|h|^2 = 1 to within 2% over 1e5 draws (sample-moment oracle)
        gen = np.random.default_rng(42)
        dims = SystemDims(1, 1)
        draws = np.array([sample_channel(dims, gen)[0, 0] for _ in range(100_000)])
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02
        # real/imag parts carry variance 1/2 each
        assert abs(np.var(draws.real) - 0.5) < 0.02


class TestRealify:
    def test_real_identity_case(self):
        np.testing.assert_array_equal(realify_channel(np.array([[1.0 + 0j]])), np.eye(2))

    def test_pure_imaginary_rotation(self):
        np.testing.assert_array_equal(realify_channel(np.array([[1j]])),
                                      np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_matches_complex_multiplication(self):
        # realify(H) @ realify(x) == realify(H x) -- complex arithmetic oracle
        gen = np.random.default_rng(3)
        for _ in range(20):
            hc = gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))
            xc = gen.standard_normal(3) + 1j * gen.standard_normal(3)
            lhs = realify_channel(hc) @ realify_vector(xc)
            rhs = realify_vector(hc @ xc)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_block_structure_of_generated_channels(self):
        dims = SystemDims(5, 3)
        hc = sample_channel(dims, RngStream(9))
        H = realify_channel(hc)
        m, n = dims.m, dims.n
        np.testing.assert_array_equal(H[:m, :n], H[m:, n:])
        np.testing.assert_array_equal(H[:m, n:], -H[m:, :n])

    def test_vector_roundtrip(self):
        np.testing.assert_array_equal(realify_vector(np.array([1 + 2j])), [1.0, 2.0])
        np.testing.assert_array_equal(realify_vector(np.array([0j])), [0.0, 0.0])
        v = np.array([0.3 - 1j, 2.5 + 0.1j, -4j])
        np.testing.assert_array_equal(derealify_vector(realify_vector(v)), v)


class TestSnrMapping:
    @pytest.mark.parametrize("snr_db,n,expected", [(0.0, 1, 1.0), (20.0, 50, 0.5), (10.0, 100, 10.0)])
    def test_direct_inversion(self, snr_db, n, expected):
        assert snr_to_sigma2(snr_db, n) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_snr(self):
        grid = np.linspace(-10, 40, 51)
        vals = [snr_to_sigma2(s, 8) for s in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_linear_in_n(self):
        assert snr_to_sigma2(13.0, 12) == pytest.approx(12 * snr_to_sigma2(13.0, 1), rel=1e-12)

    def test_noiseless_model(self):
        noise = NoiseModel.noiseless()
        assert noise.sigma2 == 0.0
        assert math.isinf(noise.snr_db)

    def test_plus_infinity_is_the_noiseless_limit(self):
        assert snr_to_sigma2(math.inf, 4) == 0.0

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -4000.0])
    def test_snr_without_a_finite_noise_variance_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            snr_to_sigma2(snr_db, 4)
        with pytest.raises(ValueError, match="snr_db"):
            NoiseModel.from_snr(snr_db, 4)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -1.0])
    def test_noise_variance_must_be_finite_and_nonnegative(self, sigma2):
        with pytest.raises(ValueError, match="noise variance"):
            NoiseModel(snr_db=0.0, sigma2=sigma2)


class TestSampleSignal:
    def test_membership(self):
        x = sample_signal(SystemDims(2, 2), RngStream(7))
        assert x.shape == (4,)
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_determinism(self):
        dims = SystemDims(6, 4)
        np.testing.assert_array_equal(sample_signal(dims, RngStream(1, 2)),
                                      sample_signal(dims, RngStream(1, 2)))

    def test_batch_columns_are_rows_of_one_vector_major_draw(self):
        dims = SystemDims(6, 4)
        X = sample_signal(dims, RngStream(1, 3), 5)
        signs = RngStream(1, 3).generator().integers(0, 2, size=(5, dims.N))
        np.testing.assert_array_equal(X, 1.0 - 2.0 * signs.T)
        # a one-column batch is the single vector of the same stream
        np.testing.assert_array_equal(sample_signal(dims, RngStream(1, 3), 1)[:, 0],
                                      sample_signal(dims, RngStream(1, 3)))

    def test_batches_continue_a_shared_generator(self):
        dims = SystemDims(6, 4)
        gen = RngStream(1, 4).generator()
        parts = np.hstack([sample_signal(dims, gen, 3), sample_signal(dims, gen, 4)])
        np.testing.assert_array_equal(parts, sample_signal(dims, RngStream(1, 4), 7))

    def test_zero_mean(self):
        gen = np.random.default_rng(10)
        dims = SystemDims(1, 1)
        draws = np.array([sample_signal(dims, gen) for _ in range(100_000)])
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02


class TestTransmit:
    def test_noiseless_is_exact(self):
        dims = SystemDims(4, 3)
        H = realify_channel(sample_channel(dims, RngStream(2)))
        x = sample_signal(dims, RngStream(2, 1))
        sample = transmit(H, x, NoiseModel.noiseless(), RngStream(2, 2))
        np.testing.assert_array_equal(sample.y, H @ x)

    def test_noiseless_stream_builds_no_generator(self, monkeypatch):
        dims = SystemDims(4, 3)
        H = realify_channel(sample_channel(dims, RngStream(2)))
        x = sample_signal(dims, RngStream(2, 1))

        def refuse(self):
            raise AssertionError("noiseless transmit drew from its stream")

        monkeypatch.setattr(RngStream, "generator", refuse)
        sample = transmit(H, x, NoiseModel.noiseless(), RngStream(2, 2))
        np.testing.assert_array_equal(sample.y, H @ x)

    def test_noiseless_raw_generator_still_advances(self):
        # a caller sharing one Generator sees the same later draws as when
        # the noise was drawn and scaled by zero: M normals are consumed
        dims = SystemDims(4, 3)
        H = realify_channel(sample_channel(dims, RngStream(5)))
        x = sample_signal(dims, RngStream(5, 1))
        gen = np.random.default_rng(21)
        sample = transmit(H, x, NoiseModel.noiseless(), gen)
        twin = np.random.default_rng(21)
        twin.standard_normal(dims.M)
        assert gen.bit_generator.state == twin.bit_generator.state
        np.testing.assert_array_equal(sample.y, H @ x)

    def test_noisy_stream_matches_hand_built_sum(self):
        dims = SystemDims(4, 3)
        H = realify_channel(sample_channel(dims, RngStream(6)))
        x = sample_signal(dims, RngStream(6, 1))
        noise = NoiseModel.from_snr(7.0, dims.n)
        stream = RngStream(6, 2).child(9)
        w = math.sqrt(noise.sigma2 / 2) * stream.generator().standard_normal(dims.M)
        np.testing.assert_array_equal(transmit(H, x, noise, stream).y, H @ x + w)

    def test_batch_noise_columns_are_rows_of_one_vector_major_draw(self):
        # a zero channel leaves y = w, the scaled noise draw itself
        dims = SystemDims(4, 3)
        noise = NoiseModel.from_snr(7.0, dims.n)
        X = sample_signal(dims, RngStream(6, 1), 5)
        stream = RngStream(6, 3)
        sample = transmit(np.zeros((dims.M, dims.N)), X, noise, stream)
        w = math.sqrt(noise.sigma2 / 2) * stream.generator().standard_normal((5, dims.M))
        assert sample.y.shape == (dims.M, 5)
        np.testing.assert_array_equal(sample.y, w.T)

    def test_one_column_batch_equals_single_vector(self):
        dims = SystemDims(50, 32)
        H = realify_channel(sample_channel(dims, RngStream(7)))
        x = sample_signal(dims, RngStream(7, 1))
        noise = NoiseModel.from_snr(10.0, dims.n)
        single = transmit(H, x, noise, RngStream(7, 2))
        batch = transmit(H, x[:, None], noise, RngStream(7, 2))
        np.testing.assert_array_equal(batch.y[:, 0], single.y)

    def test_identity_channel(self):
        H = np.eye(6)
        x = sample_signal(SystemDims(3, 3), RngStream(4))
        sample = transmit(H, x, NoiseModel.noiseless(), RngStream(4, 1))
        np.testing.assert_array_equal(sample.y, x)

    def test_noise_variance(self):
        # empirical variance of y - Hx is sigma2/2 per real component (2%)
        gen = np.random.default_rng(12)
        dims = SystemDims(2, 2)
        H = realify_channel(sample_channel(dims, RngStream(3)))
        x = sample_signal(dims, RngStream(3, 1))
        noise = NoiseModel.from_snr(10.0, dims.n)
        resid = np.concatenate([transmit(H, x, noise, gen).y - H @ x for _ in range(25_000)])
        assert np.var(resid) == pytest.approx(noise.sigma2 / 2.0, rel=0.02)
        assert np.all(np.isfinite(resid))

    def test_shape_mismatch_rejected(self):
        H = np.eye(4)
        with pytest.raises(ValueError):
            transmit(H, np.ones(3), NoiseModel.noiseless(), RngStream(0))
        with pytest.raises(ValueError):
            transmit(H, np.ones((3, 2)), NoiseModel.noiseless(), RngStream(0))
        with pytest.raises(ValueError):
            transmit(H, np.ones((4, 2, 1)), NoiseModel.noiseless(), RngStream(0))
