"""Property tests of invariants the math guarantees exactly."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmimo.detectors import ThsParams, TpgParams, ths_detect
from hsmimo.evaluation import (
    DETECTOR_TYPES,
    BerCurve,
    BerPoint,
    make_detector,
    read_report,
    write_report,
)
from hsmimo.system_model import (
    RngStream,
    SystemDims,
    derealify_vector,
    realify_channel,
    realify_vector,
    sample_channel,
    sample_signal,
)
from hsmimo.unfolding import (
    _flatten_grads,
    backward_gradients,
    finite_difference_gradient,
    forward_unrolled,
)

SMALL = settings(max_examples=40, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def ths_systems(draw):
    """A small noisy system (H, y) and a bounded THS parameter set."""
    dims = SystemDims(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    stream = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    H = realify_channel(sample_channel(dims, stream.child(0)))
    noise = draw(st.floats(0.0, 1.0))
    w = stream.child(2).generator().standard_normal(dims.M)
    y = H @ sample_signal(dims, stream.child(1)) + noise * w
    T = draw(st.integers(1, 10))
    layer = st.lists(st.floats(0.1, 3.0), min_size=T, max_size=T)
    params = ThsParams(beta=draw(layer), eta=[0.05 * e for e in draw(layer)],
                       zeta=[0.5 + e / 3 for e in draw(layer)])
    return H, y, params


@SMALL
@given(ths_systems())
def test_ths_is_odd_in_the_observation(system):
    H, y, params = system
    np.testing.assert_array_equal(ths_detect(H, -y, params).soft, -ths_detect(H, y, params).soft)


@SMALL
@given(ths_systems())
def test_gradient_amplitude_is_even_in_the_observation(system):
    H, y, params = system
    np.testing.assert_array_equal(ths_detect(H, -y, params, trace=True).trace.gradient_amplitude,
                                  ths_detect(H, y, params, trace=True).trace.gradient_amplitude)


@SMALL
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12))
def test_realify_round_trip(parts):
    v = np.array([complex(re, im) for re, im in parts])
    r = realify_vector(v)
    assert r.dtype == float and r.shape == (2 * v.size,)
    np.testing.assert_array_equal(derealify_vector(r), v)
    np.testing.assert_array_equal(realify_vector(derealify_vector(r)), r)


@SMALL
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
def test_realify_channel_equals_block_formula(m, n, seed):
    gen = np.random.default_rng(seed)
    hc = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
    hc[gen.random((m, n)) < 0.2] = 0.0  # signed zeros must match too
    expected = np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])
    actual = realify_channel(hc)
    assert actual.dtype == expected.dtype and actual.shape == (2 * m, 2 * n)
    assert actual.tobytes() == expected.tobytes()


text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@st.composite
def ber_curves(draw):
    """A list of BER curves with arbitrary counts, metadata and SNR grids."""
    curves = []
    for k in range(draw(st.integers(0, 3))):
        snrs = sorted(set(draw(st.lists(finite, max_size=4))))
        name = f"{draw(text)}#{k}"
        points = []
        for snr in snrs:
            bits = draw(st.integers(1, 10 ** 9))
            errors = draw(st.integers(0, bits))
            points.append(BerPoint.from_counts(snr, name, bits, errors,
                                               draw(st.integers(1, 10 ** 6)),
                                               draw(st.integers(0, 10 ** 6))))
        curves.append(BerCurve(detector=name, n=draw(st.integers(1, 300)),
                               m=draw(st.integers(1, 300)),
                               depth=draw(st.none() | st.integers(1, 100)),
                               seed=draw(st.integers(0, 2 ** 63 - 1)),
                               stream_id=draw(st.integers(0, 2 ** 31)), points=points,
                               param_fingerprint=draw(text),
                               timestamp=draw(st.none() | text),
                               channel_block=draw(st.integers(1, 10 ** 6))))
    return curves


@SMALL
@given(ber_curves())
def test_report_round_trip(curves):
    with tempfile.TemporaryDirectory() as tmp:
        _, json_path = write_report(curves, Path(tmp) / "report")
        assert read_report(json_path) == curves


@st.composite
def negative_theta_batches(draw):
    """A small noisy batch and TPG parameters whose theta are all negative."""
    dims = SystemDims(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    stream = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    H = realify_channel(sample_channel(dims, stream.child(0)))
    gen = stream.child(1).generator()
    x = 1.0 - 2.0 * gen.integers(0, 2, size=(dims.N, 3)).astype(float)
    y = H @ x + 0.2 * gen.standard_normal((dims.M, 3))
    T = draw(st.integers(1, 5))
    gamma = draw(st.lists(st.floats(0.02, 0.3), min_size=T, max_size=T))
    theta = draw(st.lists(st.floats(-2.0, -0.4), min_size=T, max_size=T))
    variant = draw(st.sampled_from(["scalable", "lmmse"]))
    return H, x, y, TpgParams(gamma=gamma, theta=theta, variant=variant, alpha=1.5)


@SMALL
@given(negative_theta_batches())
def test_tpg_backward_matches_finite_differences_for_negative_theta(batch):
    H, x, y, params = batch
    T = params.T
    _, acts = forward_unrolled(H, y, x, params, depth_used=T)
    bp = _flatten_grads(backward_gradients(acts, params, x))
    fd = _flatten_grads(finite_difference_gradient(
        params, 1e-5, lambda p: forward_unrolled(H, y, x, p, T)[0]))
    assert np.linalg.norm(bp - fd) <= 1e-6 * np.linalg.norm(fd) + 1e-10
    # the loss sees |theta| only: flipping every sign negates d_theta exactly
    mirrored = TpgParams(gamma=params.gamma, theta=-params.theta, variant=params.variant,
                         alpha=params.alpha)
    _, acts_m = forward_unrolled(H, y, x, mirrored, depth_used=T)
    grads_m = backward_gradients(acts_m, mirrored, x)
    np.testing.assert_array_equal(grads_m.d_theta, -bp[T:])
    np.testing.assert_array_equal(grads_m.d_gamma, bp[:T])


# Per-iteration constants large enough that T <= 10 layers leave the linear regime.
PERMUTATION_CONSTANTS = {"ths": {"eta": 0.1, "zeta": 1.05}, "hs": {"eta": 0.1},
                         "scalable_tpg": {"gamma": 0.1}, "tpg": {"gamma": 0.5, "theta": 0.5},
                         "mmse": None}


@st.composite
def permuted_systems(draw):
    """A small noisy system (H, y), a permutation of the columns of H and a depth."""
    dims = SystemDims(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    stream = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    H = realify_channel(sample_channel(dims, stream.child(0)))
    w = stream.child(2).generator().standard_normal(dims.M)
    y = H @ sample_signal(dims, stream.child(1)) + 0.3 * w
    perm = np.array(draw(st.permutations(range(dims.N))))
    return H, y, perm, draw(st.integers(1, 10))


@SMALL
@given(permuted_systems(), st.sampled_from(sorted(PERMUTATION_CONSTANTS)))
def test_detectors_are_equivariant_under_column_permutation(system, kind):
    # relabelling the transmit streams relabels the estimates; the matmul
    # summation order changes with it, so equality holds to rounding only
    H, y, perm, T = system
    constants = PERMUTATION_CONSTANTS[kind]
    params = None if constants is None else DETECTOR_TYPES[kind].initial(T, **constants)
    detector = make_detector(kind, params)
    np.testing.assert_allclose(detector.run(H[:, perm], y, 0.1).soft,
                               detector.run(H, y, 0.1).soft[perm], rtol=1e-9, atol=1e-12)
