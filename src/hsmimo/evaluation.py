"""Monte Carlo BER estimation, convergence diagnostics, and validators.

BER runs draw independent (channel, signal, noise) triples from dedicated
substreams, so results are bit-reproducible for a fixed (seed, stream).
When several detectors are evaluated together they see identical samples
(paired comparison).  BER estimation and diagnostics share one batch plan
and one sampler: the vectors that share a channel (``channel_block``; 1 in
diagnostics) are drawn and detected together as the columns of one batch,
at most ``_MAX_BATCH`` wide.  Each channel block draws its channel, its
signals and its noise from one substream each, the signals and the noise
as vector-major draws that a wide block continues across its batches, and
each detector runs once per batch on an (M, B) observation, traced in
diagnostics.  At ``channel_block`` 1 every block is one vector, so each
vector reads the same substreams as when it was drawn on its own.
Diagnostics add each vector's G_t and flip ratios to the
partial sum of its fixed Monte Carlo chunk of ``_MC_CHUNK`` vectors and add
up the partials in chunk order, so the chunk size is part of what makes a
diagnostics result reproducible.

Also houses two numerical self-checks of the math the HS detector rests
on: the Gaussian-integral identity exp(-a x^2 / 2) =
Re \\int (2 pi a)^{-1/2} exp(-z^2/(2a) - i x z) dz, and the factorization
of the hypercube expectation E[x_i] = tanh(beta (H^T v)_i) verified by
exhaustive enumeration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .detectors import (
    DetectionResult,
    DetectorDivergenceError,
    HsParams,
    InstanceTooLargeError,
    ThsParams,
    TpgParams,
    brute_force_ml_detect,
    gradient_amplitudes,
    hs_detect,
    hypercube_vertices,
    mmse_detect,
    scalable_tpg_detect,
    sign_flips,
    ths_detect,
    tpg_detect,
)
from .system_model import NoiseModel, RngStream, SystemDims, realify_channel, sample_channel, sample_signal, transmit

SCHEMA_VERSION = 2

# Substream domains inside one evaluation run.
_CHAN, _SIG, _NOISE = 0, 1, 2

# Fixed Monte Carlo chunk size of run_diagnostics: vector i adds to the
# partial sum of chunk i // _MC_CHUNK, and the partials are added in chunk
# order, so changing it changes floating-point results.
_MC_CHUNK = 64

# Widest BER batch: the vectors of one channel block go to a detector
# together, at most this many columns per call.  It only bounds memory,
# about 1 MB of detector buffers at (50,32).
_MAX_BATCH = 256


class ValidationError(Exception):
    """A mathematical self-check exceeded its tolerance."""


# ---------------------------------------------------------------------------
# Detector wrappers
# ---------------------------------------------------------------------------

@dataclass
class Detector:
    """A named, runnable detector for Monte Carlo evaluation.

    ``run(H, y, sigma2, trace=False)`` must return a DetectionResult.
    Evaluation always passes a batch of observations ``y`` (M, B), one vector
    per column, all sent through the channel ``H``: the vectors of one
    channel block, at most ``_MAX_BATCH`` of them.  ``hard`` is then (N, B)
    and ``diverged`` is a per-column (B,) mask.  Diagnostics pass
    ``trace=True`` and read the (T+1, B) and (T, B) arrays of the trace.
    """

    name: str
    run: Callable
    depth: Optional[int] = None
    traceable: bool = True
    param_fingerprint: str = ""


def _ml_detect(H, y) -> DetectionResult:
    """Exhaustive ML detection of one observation (M,) or of each column of (M, B)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return brute_force_ml_detect(H, y)
    hard = np.stack([brute_force_ml_detect(H, col).hard for col in y.T], axis=1)
    return DetectionResult(soft=hard, hard=hard.copy())


@dataclass(frozen=True)
class DetectorType:
    """One detector type: how it runs and which parameters it takes.

    ``run(params, H, y, sigma2, trace)`` calls its detector function by a
    module-global name looked up at call time, so patching
    ``hsmimo.evaluation.<type>_detect`` reaches every detector built here.
    ``variant`` is the ``TpgParams.variant`` a TPG type runs.
    """

    run: Callable
    params_class: Optional[type] = None
    variant: Optional[str] = None
    traceable: bool = True

    def initial(self, T: int, **constants):
        """Untrained parameters: ``constants`` at each of T layers, class defaults for the rest."""
        if self.params_class is HsParams:
            return HsParams(T, **constants)
        if self.variant is not None:
            constants["variant"] = self.variant
        return self.params_class.initial(T, **constants)


DETECTOR_TYPES = {
    "ths": DetectorType(lambda p, H, y, s2, trace: ths_detect(H, y, p, trace=trace), ThsParams),
    "hs": DetectorType(lambda p, H, y, s2, trace: hs_detect(H, y, p, trace=trace), HsParams),
    "scalable_tpg": DetectorType(
        lambda p, H, y, s2, trace: scalable_tpg_detect(H, y, p, trace=trace),
        TpgParams, variant="scalable"),
    "tpg": DetectorType(lambda p, H, y, s2, trace: tpg_detect(H, y, s2, p, trace=trace),
                        TpgParams, variant="lmmse"),
    "mmse": DetectorType(lambda p, H, y, s2, trace: mmse_detect(H, y, s2), traceable=False),
    "ml": DetectorType(lambda p, H, y, s2, trace: _ml_detect(H, y), traceable=False),
}


def make_detector(kind: str, params=None, name: Optional[str] = None,
                  fingerprint: str = "") -> Detector:
    """A Detector of registered type ``kind``, named ``kind`` unless ``name`` is
    given; a parametrised type needs ``params`` of its class and TPG variant."""
    spec = DETECTOR_TYPES[kind]
    if spec.params_class is not None and not isinstance(params, spec.params_class):
        raise TypeError(f"{kind} detector needs {spec.params_class.__name__}, "
                        f"got {type(params).__name__}")
    if spec.variant is not None and params.variant != spec.variant:
        raise ValueError(f"{kind} detector needs the {spec.variant!r} TPG variant, "
                         f"got {params.variant!r}")

    def run(H, y, sigma2, trace=False):
        if trace and not spec.traceable:
            raise ValueError(f"{kind} detector does not support tracing")
        return spec.run(params, H, y, sigma2, trace)
    return Detector(name=name or kind, run=run, depth=getattr(params, "T", None),
                    traceable=spec.traceable, param_fingerprint=fingerprint)


make_ths_detector = partial(make_detector, "ths")
make_hs_detector = partial(make_detector, "hs")
make_scalable_tpg_detector = partial(make_detector, "scalable_tpg")
make_tpg_detector = partial(make_detector, "tpg")
make_mmse_detector = partial(make_detector, "mmse")
make_ml_detector = partial(make_detector, "ml")


# ---------------------------------------------------------------------------
# BER estimation
# ---------------------------------------------------------------------------

@dataclass
class BerPoint:
    """BER estimate at one SNR: error counts plus a 95% normal-approximation CI."""

    snr_db: float
    detector: str
    bits_tested: int
    bit_errors: int
    ber: float
    ci_half_width: float
    num_vectors: int
    diverged_vectors: int = 0

    @classmethod
    def from_counts(cls, snr_db, detector, bits_tested, bit_errors, num_vectors,
                    diverged_vectors=0) -> "BerPoint":
        p = bit_errors / bits_tested
        ci = 1.96 * math.sqrt(p * (1.0 - p) / bits_tested)
        return cls(snr_db=float(snr_db), detector=detector, bits_tested=int(bits_tested),
                   bit_errors=int(bit_errors), ber=p, ci_half_width=ci,
                   num_vectors=int(num_vectors), diverged_vectors=int(diverged_vectors))


@dataclass
class BerCurve:
    """BER-vs-SNR curve of one detector on one system size."""

    detector: str
    n: int
    m: int
    depth: Optional[int]
    seed: int
    stream_id: int
    points: list = field(default_factory=list)
    param_fingerprint: str = ""
    timestamp: Optional[str] = None  # None keeps report files byte-reproducible
    channel_block: int = 1  # vectors per channel draw; 1 is i.i.d. fading

    def __post_init__(self):
        if self.channel_block < 1:
            raise ValueError(f"channel_block must be >= 1, got {self.channel_block}")
        snrs = [p.snr_db for p in self.points]
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("SNR values must be strictly increasing")
        if any(p.detector != self.detector for p in self.points):
            raise ValueError("all points must share the curve's detector id")


def _sample_batches(dims, noise, rng, num_vectors, channel_block):
    """The one sample path of BER estimation and diagnostics: (batch, H, X, Y)
    for contiguous vector ranges ``batch`` that share one channel and are at
    most ``_MAX_BATCH`` wide, in vector order.

    Vector i of channel block b = i // channel_block takes the channel drawn
    from rng.child(_CHAN, b), and its signal and noise from row
    i - b * channel_block of one vector-major draw each on rng.child(_SIG, b)
    and rng.child(_NOISE, b).  A block wider than ``_MAX_BATCH`` keeps
    drawing from its two generators across its batches.  Column j of X
    (N, B) and Y (M, B) is vector batch[j].
    """
    for b, block_lo in enumerate(range(0, num_vectors, channel_block)):
        block_hi = min(block_lo + channel_block, num_vectors)
        H = realify_channel(sample_channel(dims, rng.child(_CHAN, b)))
        signals = rng.child(_SIG, b).generator()
        noises = rng.child(_NOISE, b)
        if noise.sigma2 != 0:  # a noiseless transmit from an RngStream builds no generator
            noises = noises.generator()
        for lo in range(block_lo, block_hi, _MAX_BATCH):
            batch = range(lo, min(lo + _MAX_BATCH, block_hi))
            X = sample_signal(dims, signals, len(batch))
            yield batch, H, X, transmit(H, X, noise, noises).y


def estimate_ber_paired(detectors: Sequence[Detector], dims: SystemDims, snr_db: float,
                        num_vectors: int, rng: RngStream, channel_block: int = 1) -> dict:
    """BER of several detectors on identical samples at one SNR.

    Draws ``num_vectors`` independent (channel, x, noise) triples -- a
    fresh channel every ``channel_block`` vectors -- and counts
    hard-decision bit errors.  The vectors that share a channel go to each
    detector as one batch of columns, split only where a block is wider
    than ``_MAX_BATCH``.  A vector whose detector state diverges (its
    column in the ``diverged`` mask, or every column of a batch on which
    the detector raised DetectorDivergenceError) scores all its N bits as
    errors and is tallied in ``diverged_vectors``.
    """
    if num_vectors < 1:
        raise ValueError("num_vectors must be >= 1")
    if channel_block < 1:
        raise ValueError("channel_block must be >= 1")
    noise = NoiseModel.from_snr(snr_db, dims.n)
    errors = [0] * len(detectors)
    diverged = [0] * len(detectors)
    for _, H, X, Y in _sample_batches(dims, noise, rng, num_vectors, channel_block):
        for k, det in enumerate(detectors):
            try:
                result = det.run(H, Y, noise.sigma2)
                wrong = np.count_nonzero(result.hard != X, axis=0)
                bad = result.diverged
            except DetectorDivergenceError:
                wrong = np.zeros(X.shape[1], dtype=int)
                bad = np.ones(X.shape[1], dtype=bool)
            wrong[bad] = dims.N
            errors[k] += int(wrong.sum())
            diverged[k] += int(np.count_nonzero(bad))
    bits = dims.N * num_vectors
    return {det.name: BerPoint.from_counts(snr_db, det.name, bits, errors[k], num_vectors,
                                           diverged[k])
            for k, det in enumerate(detectors)}


def estimate_ber(detector: Detector, dims: SystemDims, snr_db: float, num_vectors: int,
                 rng: RngStream, channel_block: int = 1) -> BerPoint:
    """BER of a single detector at one SNR (see estimate_ber_paired)."""
    return estimate_ber_paired([detector], dims, snr_db, num_vectors, rng,
                               channel_block=channel_block)[detector.name]


def sweep_ber_paired(detectors: Sequence[Detector], dims: SystemDims, snr_grid_db: Sequence[float],
                     num_vectors: int, rng: RngStream, channel_block: int = 1) -> dict:
    """One BerCurve per detector over an increasing SNR grid, with shared
    samples per point (independent substream per SNR point)."""
    grid = [float(s) for s in snr_grid_db]
    if not grid:
        raise ValueError("SNR grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    curves = {det.name: BerCurve(detector=det.name, n=dims.n, m=dims.m, depth=det.depth,
                                 seed=rng.seed, stream_id=rng.stream_id,
                                 param_fingerprint=det.param_fingerprint,
                                 channel_block=channel_block)
              for det in detectors}
    for p, snr_db in enumerate(grid):
        points = estimate_ber_paired(detectors, dims, snr_db, num_vectors, rng.child(p),
                                     channel_block=channel_block)
        for det in detectors:
            curves[det.name].points.append(points[det.name])
    return curves


def sweep_ber(detector: Detector, dims: SystemDims, snr_grid_db: Sequence[float],
              num_vectors: int, rng: RngStream, channel_block: int = 1) -> BerCurve:
    return sweep_ber_paired([detector], dims, snr_grid_db, num_vectors, rng,
                            channel_block=channel_block)[detector.name]


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def gradient_amplitude(H, y, s) -> float:
    """G = ||H^T (y - H s)||_2 / N; zero exactly at a consistent solution."""
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    M, N = H.shape
    if y.shape != (M,) or s.shape != (N,):
        raise ValueError("shapes do not match the channel")
    return float(gradient_amplitudes(H, y, s[None, :])[0])


def bit_flip_ratio(s_prev, s_next) -> float:
    """Fraction of indices whose hard decision flips between two soft states."""
    s_prev = np.asarray(s_prev)
    s_next = np.asarray(s_next)
    if s_prev.shape != s_next.shape:
        raise ValueError(f"shape mismatch: {s_prev.shape} vs {s_next.shape}")
    return float(np.mean(sign_flips(s_prev, s_next)))


@dataclass
class DiagnosticsRecord:
    """Ensemble-averaged per-iteration diagnostics of a traced detector.

    Index t of the arrays corresponds to iteration t+1 (iterations 1..T).
    """

    detector: str
    mean_gradient_amplitude: np.ndarray  # (T,)
    mean_bit_flip_ratio: np.ndarray  # (T,)
    ensemble: int
    noiseless: bool
    snr_db: Optional[float] = None

    @property
    def depth(self) -> int:
        return self.mean_gradient_amplitude.size


def run_diagnostics(detector: Detector, dims: SystemDims, ensemble: int, noiseless: bool,
                    rng: RngStream, snr_db: Optional[float] = None) -> DiagnosticsRecord:
    """Average per-iteration G_t and bit-flip ratio over a signal ensemble.

    Every signal gets a fresh channel: the samples are those of
    estimate_ber_paired at channel_block 1, each detected as a traced
    one-column batch.  ``noiseless`` forces sigma_w^2 = 0; otherwise
    ``snr_db`` sets the noise level.  A diverging run raises
    DetectorDivergenceError.
    """
    if not detector.traceable:
        raise ValueError(f"detector {detector.name!r} does not support tracing")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if noiseless:
        noise = NoiseModel.noiseless()
    else:
        if snr_db is None:
            raise ValueError("snr_db required when not noiseless")
        noise = NoiseModel.from_snr(snr_db, dims.n)

    partials = None  # (chunk, [G_t, flip ratio], t): per-chunk sums, added in chunk order
    for batch, H, _, Y in _sample_batches(dims, noise, rng, ensemble, 1):
        tr = detector.run(H, Y, noise.sigma2, trace=True).trace
        if partials is None:
            partials = np.zeros((-(-ensemble // _MC_CHUNK), 2, tr.bit_flip_ratio.shape[0]))
        for j, i in enumerate(batch):
            partials[i // _MC_CHUNK] += tr.gradient_amplitude[1:, j], tr.bit_flip_ratio[:, j]
    g_total, flip_total = partials.sum(axis=0)
    return DiagnosticsRecord(detector=detector.name,
                             mean_gradient_amplitude=g_total / ensemble,
                             mean_bit_flip_ratio=flip_total / ensemble,
                             ensemble=ensemble, noiseless=noiseless,
                             snr_db=None if noiseless else snr_db)


# ---------------------------------------------------------------------------
# Mathematical validators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    """Trapezoidal rule setup for the Gaussian-integral identity check.

    The integration range is +/- half_width_sigmas standard deviations of
    the Gaussian factor (std sqrt(a)) unless ``half_width`` overrides it.
    """

    half_width_sigmas: float = 12.0
    num_points: int = 200_000
    half_width: Optional[float] = None


@dataclass
class HsIdentityResult:
    a: float
    x: float
    lhs: float
    integral_real: float
    integral_imag: float
    residual: float


def verify_hs_identity(a: float, x: float,
                       quadrature: Optional[QuadratureConfig] = None) -> HsIdentityResult:
    """Check exp(-a x^2 / 2) against the oscillatory Gaussian integral.

    Numerically integrates (2 pi a)^{-1/2} exp(-z^2/(2a) - i x z) by the
    trapezoidal rule and returns |Re(integral) - exp(-a x^2 / 2)| together
    with both integral parts.  An under-resolved setup only warns; the
    residual is still returned.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    quad = quadrature or QuadratureConfig()
    half_width = quad.half_width if quad.half_width is not None else quad.half_width_sigmas * math.sqrt(a)
    if half_width < 10.0 * math.sqrt(a):
        warnings.warn(f"quadrature range +/-{half_width:.3g} is below 10 standard deviations "
                      f"of the Gaussian factor; residual may be inflated")
    dz = 2.0 * half_width / (quad.num_points - 1)
    if abs(x) * dz > 0.1:
        warnings.warn(f"quadrature step {dz:.3g} under-resolves the oscillation at x={x}")
    z = np.linspace(-half_width, half_width, quad.num_points)
    integrand = np.exp(-z ** 2 / (2.0 * a) - 1j * x * z) / math.sqrt(2.0 * math.pi * a)
    integral = np.trapezoid(integrand, z)
    lhs = math.exp(-a * x ** 2 / 2.0)
    return HsIdentityResult(a=a, x=x, lhs=lhs,
                            integral_real=float(integral.real),
                            integral_imag=float(integral.imag),
                            residual=abs(float(integral.real) - lhs))


def brute_force_expectation(H, v, beta: float, tol: Optional[float] = 1e-10) -> np.ndarray:
    """Hypercube expectation E[x_i] under weights exp(beta v^T H x), by
    exhaustive enumeration with max-shifted (log-sum-exp) stabilization.

    The weights factorize over coordinates, so the result must equal
    tanh(beta (H^T v)) elementwise; if ``tol`` is given, a larger deviation
    raises ValidationError.  Guarded to N <= 16.
    """
    H = np.asarray(H, dtype=float)
    v = np.asarray(v, dtype=float)
    M, N = H.shape
    if v.shape != (M,):
        raise ValueError(f"v shape {v.shape} does not match channel rows {M}")
    if N > 16:
        raise InstanceTooLargeError(f"enumeration over 2^{N} configurations refused (limit N <= 16)")
    u = H.T @ v
    X = hypercube_vertices(N, 0, 1 << N)
    t = beta * (X @ u)
    w = np.exp(t - t.max())  # shift by the max exponent before summing
    expectation = (X.T @ w) / w.sum()
    if tol is not None:
        closed_form = np.tanh(beta * u)
        resid = float(np.max(np.abs(expectation - closed_form)))
        if resid > tol:
            raise ValidationError(
                f"enumerated expectation deviates from tanh(beta H^T v) by {resid:.3e} > {tol:.1e}")
    return expectation


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

def write_report(curves: Sequence[BerCurve], path_stem) -> tuple:
    """Persist BER curves as ``<stem>.csv`` (one row per point) and
    ``<stem>.json`` (full metadata).  Returns the two paths."""
    import csv
    import json

    stem = Path(path_stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    csv_path = stem.with_suffix(".csv")
    json_path = stem.with_suffix(".json")
    try:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["schema_version", "detector", "n", "m", "T", "snr_db",
                             "bits", "errors", "ber", "ci"])
            for c in curves:
                for p in c.points:
                    writer.writerow([SCHEMA_VERSION, c.detector, c.n, c.m,
                                     c.depth if c.depth is not None else "",
                                     p.snr_db, p.bits_tested, p.bit_errors, p.ber,
                                     p.ci_half_width])
        doc = {"schema_version": SCHEMA_VERSION, "curves": [asdict(c) for c in curves]}
        json_path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing report to {stem}.*: {exc}") from exc
    return csv_path, json_path


def read_report(json_path) -> list:
    """Rebuild BerCurve records from a JSON report written by write_report."""
    import json

    doc = json.loads(Path(json_path).read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version {doc.get('schema_version')}")
    return [BerCurve(**{**cd, "points": [BerPoint(**pd) for pd in cd["points"]]})
            for cd in doc["curves"]]


def write_diagnostics(records: Sequence[DiagnosticsRecord], path_stem) -> Path:
    """Persist diagnostics as CSV: one row per (detector, iteration)."""
    import csv

    stem = Path(path_stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    csv_path = stem.with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", "detector", "iteration",
                         "mean_gradient_amplitude", "mean_bit_flip_ratio"])
        for rec in records:
            for t in range(rec.depth):
                writer.writerow([SCHEMA_VERSION, rec.detector, t + 1,
                                 rec.mean_gradient_amplitude[t], rec.mean_bit_flip_ratio[t]])
    return csv_path
