"""Monte Carlo BER machinery, diagnostics, validators, and report files."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hsmimo.detectors import (
    DetectionResult,
    DetectorDivergenceError,
    HsParams,
    InstanceTooLargeError,
    ThsParams,
    TpgParams,
    brute_force_ml_detect,
    ths_detect,
)
from hsmimo.evaluation import (
    BerCurve,
    BerPoint,
    _MAX_BATCH,
    _MC_CHUNK,
    Detector,
    QuadratureConfig,
    ValidationError,
    _sample_batches,
    bit_flip_ratio,
    brute_force_expectation,
    estimate_ber,
    estimate_ber_paired,
    gradient_amplitude,
    make_hs_detector,
    make_ml_detector,
    make_mmse_detector,
    make_scalable_tpg_detector,
    make_ths_detector,
    make_tpg_detector,
    read_report,
    run_diagnostics,
    sweep_ber,
    sweep_ber_paired,
    verify_hs_identity,
    write_report,
)
from hsmimo.system_model import (NoiseModel, RngStream, SystemDims, TransmissionSample,
                                 realify_channel, sample_channel, sample_signal, transmit)


def perfect_detector(name="perfect"):
    """Noiseless square systems are solved exactly by the MMSE step, so this
    acts as a stub that always returns the transmitted vector."""
    mmse = make_mmse_detector(name=name)
    return mmse


def negated_detector(name="adversary"):
    mmse = make_mmse_detector()

    def run(H, y, sigma2, trace=False):
        res = mmse.run(H, y, sigma2)
        return DetectionResult(soft=-res.soft, hard=-res.hard)

    return Detector(name=name, run=run, traceable=False)


def five_detectors():
    return [
        make_ths_detector(ThsParams.initial(15, eta=0.05, zeta=1.05)),
        make_hs_detector(HsParams(T=15, eta=0.05)),
        make_scalable_tpg_detector(TpgParams.initial(15, gamma=0.05)),
        make_tpg_detector(TpgParams.initial(15, gamma=0.3, variant="lmmse", alpha=1.0)),
        make_mmse_detector(),
    ]


def draw_vector_samples(dims, noise, rng, num_vectors, channel_block):
    """Reference draw of vectors 0..num_vectors-1, one single-vector
    TransmissionSample each, in order, from the public sampling functions and
    the evaluation stream layout: block b = i // channel_block takes its
    channel from rng.child(0, b), and its signals and noise from one
    generator each on rng.child(1, b) and rng.child(2, b), drawn vector-major
    at most _MAX_BATCH vectors at a time.  Each batch's observations come
    from one (M, B) product, as in the sampler: BLAS rounds a column of a
    wider product differently from a single-vector product."""
    for b, lo in enumerate(range(0, num_vectors, channel_block)):
        H = realify_channel(sample_channel(dims, rng.child(0, b)))
        signals, noises = rng.child(1, b).generator(), rng.child(2, b).generator()
        width = min(channel_block, num_vectors - lo)
        for start in range(0, width, _MAX_BATCH):
            batch = transmit(H, sample_signal(dims, signals, min(_MAX_BATCH, width - start)),
                             noise, noises)
            for x, y in zip(batch.x.T, batch.y.T):
                yield TransmissionSample(x=x, y=y, channel=H, noise=noise)


def per_vector_counts(detectors, dims, snr_db, vectors, rng, channel_block):
    """Reference loop: {name: (bit errors, diverged vectors)} over the range
    ``vectors`` of a run of vectors.stop vectors, from single-vector detector
    calls on the reference samples."""
    noise = NoiseModel.from_snr(snr_db, dims.n)
    counts = {det.name: [0, 0] for det in detectors}
    samples = list(draw_vector_samples(dims, noise, rng, vectors.stop, channel_block))
    for i in vectors:
        sample = samples[i]
        for det in detectors:
            try:
                res = det.run(sample.channel, sample.y, noise.sigma2)
                counts[det.name][0] += int(np.count_nonzero(res.hard != sample.x))
            except DetectorDivergenceError:
                counts[det.name][0] += dims.N
                counts[det.name][1] += 1
    return {name: tuple(c) for name, c in counts.items()}


def recording_detector(calls):
    """An MMSE detector that appends (H, batch width) of every call to ``calls``."""
    mmse = make_mmse_detector()

    def run(H, y, sigma2, trace=False):
        calls.append((H, y.shape[1]))
        return mmse.run(H, y, sigma2)

    return Detector(name="recording", run=run, traceable=False)


class TestBatchPlan:
    dims = SystemDims(3, 2)

    def calls(self, num_vectors, channel_block, rng):
        calls = []
        estimate_ber(recording_detector(calls), self.dims, 10.0, num_vectors, rng,
                     channel_block=channel_block)
        return calls

    def test_one_call_per_channel_block(self):
        assert [w for _, w in self.calls(200, 100, RngStream(35))] == [100, 100]

    def test_iid_channels_are_detected_one_vector_at_a_time(self):
        assert [w for _, w in self.calls(50, 1, RngStream(35))] == [1] * 50

    def test_block_wider_than_the_cap_is_split_inside_the_block(self):
        block, rng = _MAX_BATCH + 44, RngStream(36)
        calls = self.calls(2 * block, block, rng)
        assert [w for _, w in calls] == [_MAX_BATCH, 44, _MAX_BATCH, 44]
        lo = 0
        for H, width in calls:
            assert lo // block == (lo + width - 1) // block  # one block per batch
            np.testing.assert_array_equal(
                H, realify_channel(sample_channel(self.dims, rng.child(0, lo // block))))
            lo += width


class TestBatchedEstimate:
    @pytest.mark.parametrize("channel_block, num_vectors", [(1, 200), (7, 200), (100, 200),
                                                            (300, 600)])
    def test_counts_equal_per_vector_loop(self, channel_block, num_vectors):
        # block 100 is one 100-wide batch; block 300 is split where it exceeds _MAX_BATCH
        dims = SystemDims(6, 4)
        rng = RngStream(30)
        points = estimate_ber_paired(five_detectors(), dims, 8.0, num_vectors, rng,
                                     channel_block=channel_block)
        reference = per_vector_counts(five_detectors(), dims, 8.0, range(num_vectors), rng,
                                      channel_block)
        assert {name: (p.bit_errors, p.diverged_vectors) for name, p in points.items()} \
            == reference
        assert all(errors > 0 for errors, _ in reference.values())

    def test_batch_columns_are_the_vector_samples(self):
        # at channel_block 5, vectors 5..9 are block 1: their signals and noise
        # are rows 0..4 of one vector-major draw each on the block's substreams
        dims = SystemDims(3, 2)
        noise = NoiseModel.from_snr(10.0, dims.n)
        rng = RngStream(31)
        batches = list(_sample_batches(dims, noise, rng, 10, 5))
        assert [list(batch) for batch, *_ in batches] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        _, H, X, Y = batches[1]
        np.testing.assert_array_equal(H, realify_channel(sample_channel(dims, rng.child(0, 1))))
        signs = rng.child(1, 1).generator().integers(0, 2, size=(5, dims.N))
        np.testing.assert_array_equal(X, 1.0 - 2.0 * signs.T)
        w = rng.child(2, 1).generator().standard_normal((5, dims.M))
        np.testing.assert_array_equal(
            Y, H @ X + math.sqrt(noise.per_real_component_variance) * w.T)
        sample = transmit(H, sample_signal(dims, rng.child(1, 1), 5), noise, rng.child(2, 1))
        np.testing.assert_array_equal(X, sample.x)
        np.testing.assert_array_equal(Y, sample.y)

    def test_splitting_a_block_does_not_change_its_samples(self, monkeypatch):
        # at a cap of 3 a 10-vector block is drawn in batches of 3, 3, 3 and 1
        # that continue the block's two generators instead of restarting them
        dims, rng = SystemDims(3, 2), RngStream(37)
        noise = NoiseModel.from_snr(5.0, dims.n)

        def draw():
            batches = list(_sample_batches(dims, noise, rng, 10, 10))
            points = estimate_ber_paired(five_detectors(), dims, 5.0, 10, rng, channel_block=10)
            return ([list(batch) for batch, *_ in batches],
                    np.hstack([X for _, _, X, _ in batches]),
                    np.hstack([Y for _, _, _, Y in batches]),
                    {name: (p.bit_errors, p.diverged_vectors) for name, p in points.items()})

        whole = draw()
        monkeypatch.setattr("hsmimo.evaluation._MAX_BATCH", 3)
        split = draw()
        assert whole[0] == [list(range(10))]
        assert split[0] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        np.testing.assert_array_equal(split[1], whole[1])
        # numpy forms a one-column product with gemv, which rounds differently
        # from the same column of a wider gemm; the noise is the same draw
        np.testing.assert_allclose(split[2], whole[2], rtol=0, atol=1e-12)
        assert split[3] == whole[3]

    def test_one_diverging_column_counts_one_vector(self):
        # a huge step overflows only on the column whose observation is huge:
        # the first vector of the single 40-vector batch
        dims = SystemDims(3, 2)
        params = ThsParams.initial(5, eta=1e10)

        def run(H, y, sigma2, trace=False):
            y = np.array(y)
            y[:, 0] = 1e300
            return ths_detect(H, y, params)

        rng = RngStream(33)
        point = estimate_ber(Detector(name="first_blows_up", run=run), dims, 10.0, 40, rng,
                             channel_block=40)
        rest = per_vector_counts([make_ths_detector(params)], dims, 10.0, range(1, 40), rng, 40)
        assert point.diverged_vectors == 1
        assert rest["ths"][1] == 0
        assert point.bit_errors == dims.N + rest["ths"][0]

    def test_ml_detector_scores_a_batch(self):
        dims = SystemDims(2, 2)
        noise = NoiseModel.from_snr(5.0, dims.n)
        _, H, X, Y = next(_sample_batches(dims, noise, RngStream(34), 6, 6))
        res = make_ml_detector().run(H, Y, noise.sigma2)
        assert res.hard.shape == X.shape
        assert not res.diverged.any()
        for j in range(6):
            np.testing.assert_array_equal(res.hard[:, j], brute_force_ml_detect(H, Y[:, j]).hard)
        point = estimate_ber(make_ml_detector(), dims, 5.0, 60, RngStream(34), channel_block=6)
        reference = per_vector_counts([make_ml_detector()], dims, 5.0, range(60), RngStream(34), 6)
        assert (point.bit_errors, point.diverged_vectors) == reference["ml"]


class TestEstimateBer:
    def test_perfect_detector_scores_zero(self):
        # square noiseless system: exact recovery, ber = 0
        point = estimate_ber(perfect_detector(), SystemDims(2, 2), math.inf, 200, RngStream(1))
        assert point.ber == 0.0
        assert point.bit_errors == 0
        assert point.bits_tested == 4 * 200

    def test_adversarial_stub_scores_one(self):
        point = estimate_ber(negated_detector(), SystemDims(2, 2), math.inf, 200, RngStream(1))
        assert point.ber == 1.0

    def test_mmse_square_system_sanity(self):
        # (4,4) at 30 dB: well-conditioned on average, BER below 1e-2
        point = estimate_ber(make_mmse_detector(), SystemDims(4, 4), 30.0, 100_000,
                             RngStream(2))
        assert point.ber < 1e-2
        assert point.bits_tested == 8 * 100_000

    def test_reproducible_bit_exact(self):
        a = estimate_ber(make_mmse_detector(), SystemDims(3, 2), 10.0, 500, RngStream(3))
        b = estimate_ber(make_mmse_detector(), SystemDims(3, 2), 10.0, 500, RngStream(3))
        assert a == b

    def test_paired_detectors_see_identical_samples(self):
        # a detector evaluated alone and within a pair gets the same counts
        dims = SystemDims(3, 2)
        alone = estimate_ber(make_mmse_detector(), dims, 12.0, 300, RngStream(5))
        paired = estimate_ber_paired(
            [make_mmse_detector(), make_hs_detector(HsParams(T=10), name="hs")],
            dims, 12.0, 300, RngStream(5))
        assert paired["mmse"] == alone

    def test_divergence_counts_vector_as_errors(self):
        def run(H, y, sigma2, trace=False):
            raise DetectorDivergenceError("broken", 0)

        broken = Detector(name="broken", run=run)
        point = estimate_ber(broken, SystemDims(2, 2), 10.0, 50, RngStream(6))
        assert point.ber == 1.0
        assert point.diverged_vectors == 50

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_or_minus_infinity_snr_is_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            estimate_ber(make_mmse_detector(), SystemDims(2, 2), snr_db, 10, RngStream(0))

    def test_confidence_shrinks_with_sample_size(self):
        dims = SystemDims(3, 2)
        small = estimate_ber(make_mmse_detector(), dims, 8.0, 1000, RngStream(7))
        large = estimate_ber(make_mmse_detector(), dims, 8.0, 4000, RngStream(7))
        assert large.ci_half_width / small.ci_half_width == pytest.approx(0.5, rel=0.15)


class TestSweep:
    def test_single_point_grid_equals_estimate(self):
        dims = SystemDims(3, 2)
        curve = sweep_ber(make_mmse_detector(), dims, [10.0], 200, RngStream(8))
        assert len(curve.points) == 1
        point = estimate_ber(make_mmse_detector(), dims, 10.0, 200, RngStream(8).child(0))
        assert curve.points[0] == point

    def test_ber_weakly_decreasing_in_snr(self):
        curve = sweep_ber(make_mmse_detector(), SystemDims(4, 4), [0.0, 10.0, 20.0, 30.0],
                          10_000, RngStream(9))
        for a, b in zip(curve.points, curve.points[1:]):
            assert b.ber <= a.ber + 2.0 * (a.ci_half_width + b.ci_half_width)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            sweep_ber(make_mmse_detector(), SystemDims(2, 2), [10.0, 10.0], 10, RngStream(0))

    def test_paired_sweep_shares_samples(self):
        dims = SystemDims(3, 2)
        dets = [make_mmse_detector(), make_hs_detector(HsParams(T=5), name="hs")]
        curves = sweep_ber_paired(dets, dims, [5.0, 10.0], 200, RngStream(10))
        solo = sweep_ber(make_mmse_detector(), dims, [5.0, 10.0], 200, RngStream(10))
        assert curves["mmse"].points == solo.points

    def test_curves_record_the_channel_block(self):
        dims = SystemDims(3, 2)
        assert sweep_ber(make_mmse_detector(), dims, [10.0], 20, RngStream(8)).channel_block == 1
        curve = sweep_ber(make_mmse_detector(), dims, [10.0], 20, RngStream(8), channel_block=7)
        assert curve.channel_block == 7


class TestDiagnosticsOps:
    def test_gradient_amplitude_zero_at_solution(self):
        dims = SystemDims(3, 2)
        H = realify_channel(sample_channel(dims, RngStream(11)))
        x = np.ones(dims.N)
        assert gradient_amplitude(H, H @ x, x) == 0.0

    def test_gradient_amplitude_scalar_oracle(self):
        # H=[2], y=[1], s=[0], N=1: |2*1| / 1 = 2
        assert gradient_amplitude(np.array([[2.0]]), np.array([1.0]), np.array([0.0])) == 2.0

    def test_gradient_amplitude_block_rotation_invariance(self):
        # the real model commutes with multiplication by i: J_M H = H J_N,
        # and G is invariant under applying the rotation to (y, s)
        dims = SystemDims(4, 3)
        H = realify_channel(sample_channel(dims, RngStream(12)))
        gen = np.random.default_rng(13)
        y = gen.standard_normal(dims.M)
        s = gen.standard_normal(dims.N)

        def rot(v):
            half = v.size // 2
            return np.concatenate([-v[half:], v[:half]])

        assert gradient_amplitude(H, rot(y), rot(s)) == pytest.approx(
            gradient_amplitude(H, y, s), abs=1e-12)

    def test_bit_flip_ratio_cases(self):
        s = np.array([0.1, -0.2, 0.3])
        assert bit_flip_ratio(s, s) == 0.0
        assert bit_flip_ratio(s, -s) == 1.0
        assert bit_flip_ratio(s, np.array([-0.1, -0.5, 0.4])) == pytest.approx(1 / 3)
        # tie rule of hard_decision: 0 counts as +1
        assert bit_flip_ratio(np.array([0.0, 0.0]), np.array([1e-9, -1e-9])) == 0.5

    def test_run_diagnostics_single_signal_equals_trace(self):
        dims = SystemDims(3, 2)
        det = make_ths_detector(ThsParams.initial(6, eta=0.1, zeta=1.1))
        rng = RngStream(14)
        rec = run_diagnostics(det, dims, ensemble=1, noiseless=True, rng=rng)
        sample = next(draw_vector_samples(dims, NoiseModel.noiseless(), rng, 1, 1))
        res = det.run(sample.channel, sample.y, 0.0, trace=True)
        np.testing.assert_array_equal(rec.mean_gradient_amplitude,
                                      res.trace.gradient_amplitude[1:])
        np.testing.assert_array_equal(rec.mean_bit_flip_ratio, res.trace.bit_flip_ratio)

    @pytest.mark.parametrize("noiseless", [True, False], ids=["noiseless", "10dB"])
    @pytest.mark.parametrize("det", [
        make_ths_detector(ThsParams.initial(8, eta=0.1, zeta=1.1)),
        make_scalable_tpg_detector(TpgParams.initial(8, gamma=0.1)),
    ], ids=["ths", "scalable_tpg"])
    def test_run_diagnostics_sums_chunk_partials_in_order(self, det, noiseless):
        # 130 vectors are three chunks (64, 64, 2); the result must equal, bitwise,
        # single-vector traced calls summed in per-chunk partials added in order
        dims, ensemble, rng = SystemDims(4, 3), 130, RngStream(15)
        noise = NoiseModel.noiseless() if noiseless else NoiseModel.from_snr(10.0, dims.n)
        rec = run_diagnostics(det, dims, ensemble, noiseless, rng,
                              snr_db=None if noiseless else 10.0)
        samples = list(draw_vector_samples(dims, noise, rng, ensemble, 1))
        partials = []
        for lo in range(0, ensemble, _MC_CHUNK):
            g, flips = np.zeros(det.depth), np.zeros(det.depth)
            for sample in samples[lo:lo + _MC_CHUNK]:
                tr = det.run(sample.channel, sample.y, noise.sigma2, trace=True).trace
                g += tr.gradient_amplitude[1:]
                flips += tr.bit_flip_ratio
            partials.append((g, flips))
        assert len(partials) == 3
        g_total, flip_total = partials[0]
        for g, flips in partials[1:]:
            g_total += g
            flip_total += flips
        np.testing.assert_array_equal(rec.mean_gradient_amplitude, g_total / ensemble)
        np.testing.assert_array_equal(rec.mean_bit_flip_ratio, flip_total / ensemble)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_or_minus_infinity_snr_is_rejected(self, snr_db):
        det = make_ths_detector(ThsParams.initial(3))
        with pytest.raises(ValueError, match="snr_db"):
            run_diagnostics(det, SystemDims(2, 2), 2, False, RngStream(0), snr_db=snr_db)

    def test_untraceable_detector_rejected(self):
        with pytest.raises(ValueError):
            run_diagnostics(make_mmse_detector(), SystemDims(2, 2), 2, True, RngStream(0))


class TestHsIdentity:
    def test_gaussian_normalization(self):
        res = verify_hs_identity(1.0, 0.0)
        assert res.lhs == 1.0
        assert res.residual < 1e-8

    def test_oscillatory_case_against_adaptive_quadrature(self):
        a, x = 2.0, 1.0
        res = verify_hs_identity(a, x)
        assert res.lhs == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert res.residual < 1e-8
        oracle, err = quad(lambda z: math.exp(-z * z / (2 * a)) * math.cos(x * z)
                           / math.sqrt(2 * math.pi * a), -np.inf, np.inf)
        assert res.integral_real == pytest.approx(oracle, abs=1e-10)

    def test_imaginary_part_cancels(self):
        for a, x in [(0.5, -2.0), (1.0, 1.0), (2.0, 2.0)]:
            assert abs(verify_hs_identity(a, x).integral_imag) < 1e-10

    def test_insufficient_range_warns_but_returns(self):
        with pytest.warns(UserWarning):
            res = verify_hs_identity(1.0, 0.0, QuadratureConfig(half_width_sigmas=3.0))
        assert res.residual < 1e-2  # tail truncation inflates the residual

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            verify_hs_identity(0.0, 1.0)


class TestBruteForceExpectation:
    def test_zero_dual_gives_zero_vector(self):
        dims = SystemDims(3, 2)
        H = realify_channel(sample_channel(dims, RngStream(16)))
        out = brute_force_expectation(H, np.zeros(dims.M), beta=1.7)
        np.testing.assert_allclose(out, np.zeros(dims.N), rtol=0, atol=1e-14)

    def test_single_coordinate_matches_two_term_ratio(self):
        H = np.array([[0.7], [-0.4]])
        v = np.array([0.3, 1.1])
        beta = 2.2
        out = brute_force_expectation(H, v, beta)
        u = float((H.T @ v)[0])
        assert out[0] == pytest.approx(math.tanh(beta * u), abs=1e-14)

    def test_random_instances_match_tanh(self):
        rng = RngStream(17)
        for i in range(30):
            dims = SystemDims(6, 5)
            H = realify_channel(sample_channel(dims, rng.child(0, i)))
            v = rng.child(1, i).generator().standard_normal(dims.M)
            beta = float(rng.child(2, i).generator().uniform(0.1, 5.0))
            out = brute_force_expectation(H, v, beta, tol=None)
            assert np.max(np.abs(out - np.tanh(beta * (H.T @ v)))) < 1e-10

    def test_wrong_sign_would_be_caught(self):
        # self-test of the self-test: a sign error in the tanh argument
        # produces a large deviation, so the tolerance check has teeth
        dims = SystemDims(4, 3)
        H = realify_channel(sample_channel(dims, RngStream(18)))
        v = RngStream(18, 1).generator().standard_normal(dims.M)
        out = brute_force_expectation(H, v, beta=1.5, tol=None)
        wrong = np.tanh(-1.5 * (H.T @ v))
        assert np.max(np.abs(out - wrong)) > 0.5

    def test_tolerance_violation_raises(self):
        dims = SystemDims(3, 2)
        H = realify_channel(sample_channel(dims, RngStream(19)))
        v = RngStream(19, 1).generator().standard_normal(dims.M)
        with pytest.raises(ValidationError):
            brute_force_expectation(H, v, beta=1.0, tol=0.0)

    def test_enumeration_guard(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_expectation(np.zeros((2, 17)), np.zeros(2), 1.0)


class TestReports:
    def make_curve(self, detector="mmse", n_points=3, channel_block=1):
        points = [BerPoint.from_counts(float(s), detector, 8000, 40 * (k + 1), 1000)
                  for k, s in enumerate(range(0, 2 * n_points, 2))]
        return BerCurve(detector=detector, n=4, m=4, depth=30, seed=5, stream_id=0,
                        points=points, param_fingerprint="deadbeef", channel_block=channel_block)

    def test_roundtrip_exact(self, tmp_path):
        curves = [self.make_curve("mmse"), self.make_curve("ths", channel_block=100)]
        _, json_path = write_report(curves, tmp_path / "report")
        assert read_report(json_path) == curves
        assert [c.channel_block for c in read_report(json_path)] == [1, 100]

    def test_csv_row_count(self, tmp_path):
        curves = [self.make_curve("mmse", 3), self.make_curve("ths", 3)]
        csv_path, _ = write_report(curves, tmp_path / "report")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 6  # header + one row per point

    def test_empty_report_is_header_only(self, tmp_path):
        csv_path, json_path = write_report([], tmp_path / "empty")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("schema_version,")
        assert read_report(json_path) == []

    def test_curve_invariants(self):
        good = self.make_curve()
        with pytest.raises(ValueError):
            BerCurve(detector="mmse", n=4, m=4, depth=None, seed=0, stream_id=0,
                     points=list(reversed(good.points)))
        with pytest.raises(ValueError):
            BerCurve(detector="other", n=4, m=4, depth=None, seed=0, stream_id=0,
                     points=good.points)
        with pytest.raises(ValueError, match="channel_block"):
            BerCurve(detector="mmse", n=4, m=4, depth=None, seed=0, stream_id=0,
                     channel_block=0)
