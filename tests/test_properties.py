"""Property tests of invariants the math guarantees exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmimo.detectors import ThsParams, ths_detect
from hsmimo.system_model import (
    RngStream,
    SystemDims,
    derealify_vector,
    realify_channel,
    realify_vector,
    sample_channel,
    sample_signal,
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
