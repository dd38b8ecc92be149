"""MIMO signal detectors over the real-valued model y = Hx + w, x in {+1,-1}^N.

Implemented detectors:

* ``hs_detect`` -- Hubbard-Stratonovich detector: gradient iteration on the
  dual variable u with a fixed inverse temperature, s = tanh(beta * u).
* ``ths_detect`` -- trainable HS detector: same recursion with per-iteration
  scalars (beta_t, eta_t, zeta_t) meant to be learned by deep unfolding.
* ``scalable_tpg_detect`` / ``tpg_detect`` -- projected-gradient detectors
  with soft tanh projection; the scalable variant uses W = H^T, the full
  variant the regularized pseudo-inverse W = H^T (H H^T + alpha I)^{-1}.
* ``mmse_detect`` -- linear MMSE baseline.
* ``brute_force_ml_detect`` -- exhaustive maximum-likelihood oracle for
  small instances.

All iterative detectors start from the zero state and return soft outputs
in (-1, 1)^N plus the sign-thresholded hard decision (sign(0) := +1).
Their recursions are one layer loop, ``unroll_layers``, which detection,
tracing and training (``hsmimo.unfolding``) share.  Detection feeds it the
residual form A (y - H s), training the Gram form c - P s; a traced run
and training keep every layer's states, plain detection only the last.
Every detector but the ML oracle also takes a batch of observations as the
columns of y (M, B) and returns (N, B) outputs, with the matrix products of
all columns done at once; divergence is then reported per column, and a
traced run keeps every column's states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Enumeration guard for the exhaustive ML oracle.
MAX_EXHAUSTIVE_BITS = 20

_ENUM_CHUNK = 1 << 16


class DetectorError(Exception):
    """Base class for detector failures."""


class DetectorDivergenceError(DetectorError):
    """An iterative detector produced a non-finite state."""

    def __init__(self, detector: str, iteration: int):
        self.detector = detector
        self.iteration = iteration
        super().__init__(f"{detector} detector diverged: non-finite state at iteration {iteration}")


class InstanceTooLargeError(DetectorError):
    """Exhaustive enumeration refused: 2^N hypotheses would be too many."""


class LinearSolveError(DetectorError):
    """A required linear solve hit a singular system."""


@dataclass
class ThsParams:
    """Per-iteration trainable scalars of the trainable HS detector.

    beta[t] is the inverse temperature of the tanh soft decision, eta[t]
    the gradient step size, zeta[t] the momentum weight on the dual state.
    """

    beta: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        if not (self.beta.shape == self.eta.shape == self.zeta.shape) or self.beta.ndim != 1:
            raise ValueError("beta, eta, zeta must be 1-d arrays of equal length")
        if self.beta.size < 1:
            raise ValueError("depth must be >= 1")
        if np.any(self.beta <= 0):
            raise ValueError("all beta values must be positive")

    @property
    def T(self) -> int:
        return self.beta.size

    @classmethod
    def initial(cls, T: int, eta: float = 0.01, beta: float = 1.0, zeta: float = 1.0) -> "ThsParams":
        """Untrained parameter set: constant initial values at every layer."""
        return cls(beta=np.full(T, beta), eta=np.full(T, eta), zeta=np.full(T, zeta))

    def to_dict(self) -> dict:
        return {
            "T": int(self.T),
            "beta": self.beta.tolist(),
            "eta": self.eta.tolist(),
            "zeta": self.zeta.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ThsParams":
        p = cls(beta=d["beta"], eta=d["eta"], zeta=d["zeta"])
        if "T" in d and int(d["T"]) != p.T:
            raise ValueError(f"declared depth {d['T']} does not match array length {p.T}")
        return p


@dataclass
class HsParams:
    """Fixed scalars of the untrained HS detector (shared across iterations)."""

    T: int
    eta: float = 0.1
    lam: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("depth must be >= 1")
        if self.lam <= 0 or self.beta <= 0:
            raise ValueError("lambda and beta must be positive")

    def as_ths(self) -> ThsParams:
        """Constant-parameter THS equivalent: (beta, eta, 1 + eta/lambda)."""
        return ThsParams.initial(self.T, eta=self.eta, beta=self.beta, zeta=1.0 + self.eta / self.lam)


@dataclass
class TpgParams:
    """Per-iteration scalars of the projected-gradient detectors.

    gamma[t] is the step size, theta[t] the softness of the tanh projection
    (soft decision tanh(r / |theta[t]|)).  ``variant`` selects the descent
    matrix: "scalable" uses W = H^T, "lmmse" uses
    W = H^T (H H^T + alpha I)^{-1} with regularizer ``alpha``.
    """

    gamma: np.ndarray
    theta: np.ndarray
    variant: str = "scalable"
    alpha: float = 1.0

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.gamma.shape != self.theta.shape or self.gamma.ndim != 1:
            raise ValueError("gamma and theta must be 1-d arrays of equal length")
        if self.gamma.size < 1:
            raise ValueError("depth must be >= 1")
        if np.any(self.theta == 0):
            raise ValueError("theta values must be nonzero")
        if self.variant not in ("scalable", "lmmse"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "lmmse" and not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    @property
    def T(self) -> int:
        return self.gamma.size

    @classmethod
    def initial(cls, T: int, gamma: float = 0.01, theta: float = 1.0,
                variant: str = "scalable", alpha: float = 1.0) -> "TpgParams":
        return cls(gamma=np.full(T, gamma), theta=np.full(T, theta), variant=variant, alpha=alpha)

    def to_dict(self) -> dict:
        return {
            "T": int(self.T),
            "gamma": self.gamma.tolist(),
            "theta": self.theta.tolist(),
            "variant": self.variant,
            "alpha": float(self.alpha),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TpgParams":
        p = cls(gamma=d["gamma"], theta=d["theta"],
                variant=d.get("variant", "scalable"), alpha=float(d.get("alpha", 1.0)))
        if "T" in d and int(d["T"]) != p.T:
            raise ValueError(f"declared depth {d['T']} does not match array length {p.T}")
        return p


@dataclass
class DetectorTrace:
    """Per-iteration states of a traced detector run.

    ``u`` and ``s`` hold the T+1 states (row t = state after t iterations,
    row 0 the zero initialization).  ``gradient_amplitude[t]`` is
    G_t = ||H^T (y - H s_t)||_2 / N at state t, and ``bit_flip_ratio[t]``
    the fraction of sign flips from s_t to s_{t+1}; both are derived from
    the recorded states once the run ends.  A run on a batch of columns
    y (M, B) adds a trailing B axis to every array, one per column.
    """

    u: np.ndarray  # (T+1, N) or (T+1, N, B)
    s: np.ndarray  # (T+1, N) or (T+1, N, B)
    gradient_amplitude: np.ndarray  # (T+1,) or (T+1, B)
    bit_flip_ratio: np.ndarray  # (T,) or (T, B)


@dataclass
class DetectionResult:
    """Detector output for one observation (M,) or a batch of columns (M, B).

    ``soft`` and ``hard`` have shape (N,) or (N, B).  ``diverged`` marks the
    batch columns whose state went non-finite; their soft and hard outputs
    are NaN.  It has shape soft.shape[1:] and defaults to no diverged column;
    a single-vector or traced detector run raises DetectorDivergenceError
    instead.
    """

    soft: np.ndarray
    hard: np.ndarray
    trace: Optional[DetectorTrace] = None
    diverged: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.diverged is None:
            self.diverged = np.zeros(np.shape(self.soft)[1:], dtype=bool)


def hard_decision(soft: np.ndarray) -> np.ndarray:
    """Elementwise sign with the fixed tie rule sign(0) := +1."""
    return np.where(np.asarray(soft) >= 0, 1.0, -1.0)


def _check_system(H: np.ndarray, y: np.ndarray, batch: bool = True) -> tuple:
    """Validated float (H, y, M, N); ``y`` is (M,) or, if ``batch``, (M, B)."""
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    if H.ndim != 2:
        raise ValueError(f"channel must be a matrix, got ndim={H.ndim}")
    M, N = H.shape
    if y.ndim not in ((1, 2) if batch else (1,)) or y.shape[0] != M:
        raise ValueError(f"observation shape {y.shape} does not match channel rows {M}")
    if not np.isfinite(H).all():
        raise ValueError("channel H has non-finite entries")
    if not np.isfinite(y).all():
        raise ValueError("observation y has non-finite entries")
    return H, y, M, N


def gradient_amplitudes(H: np.ndarray, y: np.ndarray, S: np.ndarray) -> np.ndarray:
    """G = ||H^T (y - H s)||_2 / N for every state s of the stack S: (K,) for
    K states (K, N) of one observation y (M,), (K, B) for states (K, N, B) of
    the columns of y (M, B).  All K*B states go through one (N, K*B) product."""
    batch = S.ndim == 3
    if not batch:
        S, y = S[..., None], y[:, None]
    K, N, B = S.shape
    r = y[:, None, :] - (H @ S.transpose(1, 0, 2).reshape(N, K * B)).reshape(-1, K, B)
    G = np.linalg.norm(H.T @ r.reshape(-1, K * B), axis=0).reshape(K, B) / N
    return G if batch else G[:, 0]


def sign_flips(s_prev, s_next) -> np.ndarray:
    """Elementwise mask of hard-decision changes between two soft states,
    with the tie rule of hard_decision (0 counts as +1)."""
    return (np.asarray(s_prev) >= 0) != (np.asarray(s_next) >= 0)


def ths_step(u, s, H, y, beta_t: float, eta_t: float, zeta_t: float):
    """One trainable-HS update.

    u_next = zeta_t * u + eta_t * H^T (y - H s)
    s_next = tanh(beta_t * u_next)
    """
    H, y, M, N = _check_system(H, y, batch=False)
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if u.shape != (N,) or s.shape != (N,):
        raise ValueError(f"state shapes {u.shape}/{s.shape} do not match channel width {N}")
    u_next = zeta_t * u + eta_t * (H.T @ (y - H @ s))
    s_next = np.tanh(beta_t * u_next)
    return u_next, s_next


def unroll_layers(params, depth: int, p: np.ndarray, s: np.ndarray,
                  residual: Callable[[np.ndarray, int], np.ndarray], name: str,
                  diverged: Optional[np.ndarray] = None) -> None:
    """The one layer loop of the iterative detectors, shared by detection,
    tracing and training.

    Runs layers t = 0..depth-1 of the THS recursion (``params`` a ThsParams)

        p_{t+1} = zeta_t p_t + eta_t g_t,   s_{t+1} = tanh(beta_t p_{t+1})

    or of the TPG recursion (``params`` a TpgParams)

        p_{t+1} = s_t + gamma_t g_t,        s_{t+1} = tanh(p_{t+1} / |theta_t|),

    where g_t = residual(s_t, t) is the layer's residual step, returned in a
    buffer the loop may overwrite.  Detection passes the residual form
    A (y - H s_t), training the Gram form c - P s_t.

    ``p`` and ``s`` are stacks of R rows, row 0 holding the initial state.
    Layer t reads row t % R and writes row (t+1) % R, so R = depth+1 keeps
    every state (training's activations, a traced run's states) and R = 1
    updates one row in place.  A row spans the trailing (N,) or (N, B)
    axes; every step writes into the rows or the residual buffer, so a
    layer allocates nothing.

    A non-finite p_{t+1} raises DetectorDivergenceError(name, t) when
    ``diverged`` is None.  Otherwise the offending columns are flagged in
    ``diverged`` (one flag per column) and restarted from zero, so that
    later layers stay finite.  Columns never mix, so the other columns are
    unaffected.
    """
    ths = isinstance(params, ThsParams)
    if ths:
        zeta, eta, beta = params.zeta.tolist(), params.eta.tolist(), params.beta.tolist()
    else:
        gamma, theta = params.gamma.tolist(), [abs(v) for v in params.theta.tolist()]
    R = len(p)
    p_rows, s_rows = list(p), list(s)
    finite = np.empty(p_rows[0].shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # guarded explicitly below
        for t in range(depth):
            p_t, s_t = p_rows[t % R], s_rows[t % R]
            p_next, s_next = p_rows[(t + 1) % R], s_rows[(t + 1) % R]
            g = residual(s_t, t)
            if ths:
                np.multiply(p_t, zeta[t], out=p_next)
                np.multiply(g, eta[t], out=g)
                np.add(p_next, g, out=p_next)
            else:
                np.multiply(g, gamma[t], out=g)
                np.add(s_t, g, out=p_next)
            if not np.isfinite(p_next, out=finite).all():
                if diverged is None:
                    raise DetectorDivergenceError(name, t)
                bad = ~finite.all(axis=-2)
                diverged |= bad
                np.copyto(p_next, 0.0, where=bad[..., None, :])
            if ths:
                np.multiply(p_next, beta[t], out=s_next)
            else:
                np.divide(p_next, theta[t], out=s_next)
            np.tanh(s_next, out=s_next)


def _detect(H, A, y, params, trace: bool, name: str) -> DetectionResult:
    """Detection from the zero state through unroll_layers, in residual form
    g_t = A (y - H s_t), with A = H^T for THS/HS and scalable TPG and A = W
    for LMMSE TPG.

    ``y`` is one observation (M,) or a batch of columns (M, B).  A single
    vector raises DetectorDivergenceError on a non-finite state; a batch
    marks the offending columns diverged, with NaN outputs.  A traced run,
    of one vector or of a batch, keeps all T+1 states, the trace's u-slots
    holding the p_t, and derives G_t and the flip ratios from them once the
    run ends.  Its states are read afterwards, so a traced batch raises on a
    non-finite state like a single vector instead of restarting the column.
    """
    batch = y.ndim > 1
    # y's shape with N rows in place of M, and one divergence flag per column
    row = y.shape[:-2] + (H.shape[-1],) + y.shape[-1:] if batch else (H.shape[-1],)
    p = np.zeros((params.T + 1 if trace else 1,) + row)
    s = np.zeros_like(p)
    g = np.empty(row)
    r = np.empty_like(y)  # y - H s
    diverged = np.zeros(y.shape[:-2] + y.shape[-1:], dtype=bool) if batch else None

    def residual(s_t, t):
        np.matmul(H, s_t, out=r)
        np.subtract(y, r, out=r)
        return np.matmul(A, r, out=g)

    unroll_layers(params, params.T, p, s, residual, name, None if trace else diverged)
    soft = s[-1]
    hard = hard_decision(soft)
    if batch and diverged.any():
        np.copyto(soft, np.nan, where=diverged[..., None, :])
        np.copyto(hard, np.nan, where=diverged[..., None, :])
    result = DetectionResult(soft=soft, hard=hard, diverged=diverged)
    if trace:
        result.trace = DetectorTrace(u=p, s=s, gradient_amplitude=gradient_amplitudes(H, y, s),
                                     bit_flip_ratio=np.mean(sign_flips(s[:-1], s[1:]), axis=1))
    return result


def ths_detect(H, y, params: ThsParams, trace: bool = False) -> DetectionResult:
    """Run the trainable HS detector for params.T iterations from the zero state.

    ``y`` is one observation (M,) or a batch of columns (M, B) (see _detect).
    """
    H, y, M, N = _check_system(H, y)
    return _detect(H, H.T, y, params, trace, "ths")


def hs_detect(H, y, params: HsParams, trace: bool = False) -> DetectionResult:
    """Run the fixed-parameter HS detector.

    u_{t+1} = (1 + eta/lambda) u_t + eta H^T (y - H s_t)
    s_{t+1} = tanh(beta * u_{t+1})

    This is THS with the constants of ``params.as_ths()``, evaluated with
    the same arithmetic, so the two agree exactly.
    """
    H, y, M, N = _check_system(H, y)
    return _detect(H, H.T, y, params.as_ths(), trace, "hs")


def scalable_tpg_detect(H, y, params: TpgParams, trace: bool = False) -> DetectionResult:
    """Projected-gradient detector with the inversion-free matrix W = H^T."""
    if params.variant != "scalable":
        raise ValueError(f"expected scalable variant, got {params.variant!r}")
    H, y, M, N = _check_system(H, y)
    return _detect(H, H.T, y, params, trace, "scalable_tpg")


def lmmse_like_matrix(H: np.ndarray, alpha: float) -> np.ndarray:
    """W = H^T (H H^T + alpha I)^{-1}, the regularized pseudo-inverse."""
    H = np.asarray(H, dtype=float)
    M = H.shape[0]
    A = H @ H.T + alpha * np.eye(M)
    try:
        return np.linalg.solve(A, H).T
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"H H^T + {alpha} I is singular") from exc


def tpg_detect(H, y, sigma2: float, params: TpgParams, trace: bool = False) -> DetectionResult:
    """Projected-gradient detector with the LMMSE-like matrix, computed once
    per call (so once for a whole batch of columns).

    ``sigma2`` is accepted for a uniform detector signature; the descent
    matrix is regularized by ``params.alpha``, not by the noise level.
    """
    if params.variant != "lmmse":
        raise ValueError(f"expected lmmse variant, got {params.variant!r}")
    H, y, M, N = _check_system(H, y)
    W = lmmse_like_matrix(H, params.alpha)
    return _detect(H, W, y, params, trace, "tpg")


def mmse_detect(H, y, sigma2: float) -> DetectionResult:
    """Linear MMSE baseline: soft = H^T (H H^T + (sigma2/2) I)^{-1} y.

    ``y`` is (M,) or a batch of columns (M, B), solved with one factorization.
    sigma2/2 is the per-real-component noise variance; symbols have unit
    energy per real dimension.
    """
    H, y, M, N = _check_system(H, y)
    A = H @ H.T + (sigma2 / 2.0) * np.eye(M)
    try:
        soft = H.T @ np.linalg.solve(A, y)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError("MMSE solve hit a singular system") from exc
    return DetectionResult(soft=soft, hard=hard_decision(soft))


def ml_objective(H, y, x) -> float:
    """Least-squares detection objective 0.5 * ||y - Hx||^2."""
    H = np.asarray(H, dtype=float)
    return 0.5 * float(np.sum((np.asarray(y) - H @ np.asarray(x, dtype=float)) ** 2))


def hypercube_vertices(N: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic {+1,-1}^N enumeration.

    Row k maps the bits of k (MSB first) to symbols via 0 -> +1, 1 -> -1,
    so ascending k is lexicographic order with +1 before -1.
    """
    ks = np.arange(start, stop, dtype=np.int64)[:, None]
    bits = (ks >> (N - 1 - np.arange(N, dtype=np.int64))) & 1
    return 1.0 - 2.0 * bits.astype(float)


def brute_force_ml_detect(H, y) -> DetectionResult:
    """Exhaustive maximum-likelihood detection: argmin over {+1,-1}^N of
    0.5 ||y - Hx||^2.

    Ties break toward the lexicographically smallest vector (+1 before -1).
    Guarded to N <= MAX_EXHAUSTIVE_BITS.  Takes a single observation (M,).
    """
    H, y, M, N = _check_system(H, y, batch=False)
    if N > MAX_EXHAUSTIVE_BITS:
        raise InstanceTooLargeError(
            f"enumeration over 2^{N} hypotheses refused (limit N <= {MAX_EXHAUSTIVE_BITS})")
    best_val = np.inf
    best_x = None
    for start in range(0, 1 << N, _ENUM_CHUNK):
        X = hypercube_vertices(N, start, min(start + _ENUM_CHUNK, 1 << N))
        resid = y[None, :] - X @ H.T
        vals = 0.5 * np.einsum("ij,ij->i", resid, resid)
        k = int(np.argmin(vals))  # first minimum = lexicographically smallest
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_x = X[k].copy()
    return DetectionResult(soft=best_x, hard=best_x.copy())
