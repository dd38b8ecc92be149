"""Channel and signal model for the real-valued overloaded MIMO system.

The complex flat Rayleigh channel y~ = H~ x~ + w~ (m receive, n transmit
antennas, entries of H~ i.i.d. CN(0, 1)) is mapped to the equivalent real
model y = Hx + w with N = 2n, M = 2m.  QPSK symbols become independent
+/-1 entries of x, and the complex noise covariance sigma_w^2 I becomes
sigma_w^2 / 2 per real component.

SNR convention: SNR = 10 log10(n / sigma_w^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Real-valued QPSK alphabet: one +/-1 symbol per real dimension.
QPSK_SYMBOLS = (1.0, -1.0)


@dataclass(frozen=True)
class SystemDims:
    """Antenna counts with the derived real-model dimensions N = 2n, M = 2m."""

    n: int  # transmit antennas
    m: int  # receive antennas

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"antenna counts must be positive, got n={self.n}, m={self.m}")

    @property
    def N(self) -> int:
        """Real signal dimension."""
        return 2 * self.n

    @property
    def M(self) -> int:
        """Real observation dimension."""
        return 2 * self.m

    @property
    def overloaded(self) -> bool:
        return self.m < self.n


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream_id) fully determine all draws.

    Backed by numpy's PCG64 seeded through SeedSequence spawn keys, so
    distinct stream ids (and distinct child lineages) yield statistically
    independent streams.  Every operation taking an RngStream is a pure
    function of (inputs, stream): calling it twice with the same stream
    returns bit-identical results.
    """

    seed: int
    stream_id: int = 0
    lineage: tuple = field(default=())

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be non-negative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *self.lineage))
        return np.random.default_rng(ss)

    def child(self, *ids: int) -> "RngStream":
        """Derived substream; children with distinct ids are independent."""
        return RngStream(self.seed, self.stream_id, self.lineage + tuple(ids))


def _as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream (pure, replayable) or a raw Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class NoiseModel:
    """Complex noise variance sigma_w^2 together with the SNR it came from."""

    snr_db: float
    sigma2: float  # variance per complex receive component

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"noise variance must be finite and nonnegative, got {self.sigma2}")

    @property
    def per_real_component_variance(self) -> float:
        return self.sigma2 / 2.0

    @classmethod
    def from_snr(cls, snr_db: float, n: int) -> "NoiseModel":
        return cls(snr_db=snr_db, sigma2=snr_to_sigma2(snr_db, n))

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(snr_db=math.inf, sigma2=0.0)


@dataclass
class TransmissionSample:
    """A transmitted/received pair, or a batch of them as columns, under a
    fixed channel: y = Hx + w."""

    x: np.ndarray  # (N,) or (N, B), entries +/-1
    y: np.ndarray  # (M,) or (M, B)
    channel: np.ndarray  # real M x N channel the sample was sent through
    noise: NoiseModel


def snr_to_sigma2(snr_db: float, n: int) -> float:
    """Invert SNR = 10 log10(n / sigma_w^2) for the complex noise variance;
    snr_db = +inf is the noiseless limit sigma_w^2 = 0."""
    if n < 1:
        raise ValueError(f"transmit antenna count must be >= 1, got {n}")
    try:
        sigma2 = float(n) * 10.0 ** (-snr_db / 10.0)
    except OverflowError:  # 10 ** x beyond the float range
        sigma2 = math.inf
    if not math.isfinite(sigma2):  # NaN, -inf or a finite SNR too low for a float
        raise ValueError(f"snr_db must give a finite noise variance, got {snr_db}")
    return sigma2


def sample_channel(dims: SystemDims, rng) -> np.ndarray:
    """Draw an m x n complex channel, entries i.i.d. CN(0, 1).

    Real and imaginary parts each carry variance 1/2 so that E|h_ij|^2 = 1.
    """
    gen = _as_generator(rng)
    re = gen.standard_normal((dims.m, dims.n))
    im = gen.standard_normal((dims.m, dims.n))
    return (re + 1j * im) / np.sqrt(2.0)


def realify_channel(hc: np.ndarray) -> np.ndarray:
    """Real 2m x 2n block matrix [[Re, -Im], [Im, Re]] of a complex channel,
    filled block by block into one preallocated array."""
    hc = np.asarray(hc)
    m, n = hc.shape[-2:]
    out = np.empty(hc.shape[:-2] + (2 * m, 2 * n), dtype=hc.real.dtype)
    out[..., :m, :n] = hc.real
    np.negative(hc.imag, out=out[..., :m, n:])
    out[..., m:, :n] = hc.imag
    out[..., m:, n:] = hc.real
    return out


def realify_vector(v: np.ndarray) -> np.ndarray:
    """Stack Re(v) above Im(v); doubles the length."""
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag])


def derealify_vector(v: np.ndarray) -> np.ndarray:
    """Inverse of realify_vector: first half becomes Re, second half Im."""
    v = np.asarray(v)
    if v.size % 2 != 0:
        raise ValueError(f"real-stacked vector must have even length, got {v.size}")
    half = v.size // 2
    return v[:half] + 1j * v[half:]


def sample_signal(dims: SystemDims, rng, vectors: Optional[int] = None) -> np.ndarray:
    """Uniform +/-1 signal: one vector of length N, or ``vectors`` of them as
    the columns of an (N, vectors) array.  Column j is row j of one
    vector-major draw, so a one-column batch equals the single vector."""
    gen = _as_generator(rng)
    size = dims.N if vectors is None else (vectors, dims.N)
    return (1.0 - 2.0 * gen.integers(0, 2, size=size).astype(float)).T


def transmit(channel: np.ndarray, x: np.ndarray, noise: NoiseModel, rng) -> TransmissionSample:
    """Send x through the real channel: y = Hx + w.

    ``x`` is one signal (N,) or a batch of signals (N, B), one per column;
    y is then (M,) or (M, B).  Noise components are i.i.d. zero-mean
    Gaussian with variance sigma_w^2 / 2 per real component; column j of a
    batch takes row j of one vector-major (B, M) draw, so a one-column
    batch sees the noise of the single vector.  A noiseless transmission
    from an RngStream draws nothing (the stream is replayable, so skipping
    it moves no other draw); a raw Generator is advanced by M normals per
    vector either way, so callers sharing one generator see the same later
    draws.
    """
    channel = np.asarray(channel)
    x = np.asarray(x, dtype=float)
    M, N = channel.shape
    if x.ndim not in (1, 2) or x.shape[0] != N:
        raise ValueError(f"signal shape {x.shape} does not match channel width {N}")
    y = channel @ x
    if noise.sigma2 != 0 or not isinstance(rng, RngStream):
        gen = _as_generator(rng)
        y += math.sqrt(noise.per_real_component_variance) * gen.standard_normal(y.shape[::-1]).T
    return TransmissionSample(x=x, y=y, channel=channel, noise=noise)
