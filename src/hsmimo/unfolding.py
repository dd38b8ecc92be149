"""Deep-unfolding training of the THS and TPG detector parameters.

The unrolled detector recursions are differentiated by hand: the only
trainable quantities are the O(T) per-iteration scalars, so the backward
pass is a short chain of matrix products mirroring the forward pass.  The
forward pass is the detectors' own layer loop, ``detectors.unroll_layers``,
so training and detection apply the same layer update; training keeps
every layer's states and feeds the loop the Gram-form residual below.
Training uses supervised (x, y) mini-batches with a fresh channel per
mini-batch, the MSE loss N^{-1} ||s_out - x||^2 averaged over the batch,
a from-scratch Adam optimizer, and incremental (generation-wise) deepening
of the trained prefix.

Because every column of a mini-batch shares one channel, the unrolled
passes run in Gram form: the residual step A (y - H s) of each layer is
rewritten as c - P s with P = A H (N x N) and c = A y formed once per
mini-batch (A = H^T for THS and scalable TPG, the LMMSE-like matrix W for
TPG).  A layer then costs one N x N x B product, N^2 multiply-adds per
column, against 2MN for the two products with H and A.  This is cheaper
whenever N < 2M, i.e. n < 2m, which holds at every size the paper uses:
(n, m) = (50, 32), (100, 64) and (150, 96).  The per-layer residuals are
not stored; the backward pass recovers their inner products from c.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .detectors import (DetectorDivergenceError, ThsParams, TpgParams, lmmse_like_matrix,
                        unroll_layers)
from .evaluation import DETECTOR_TYPES
from .system_model import RngStream, SystemDims, realify_channel, sample_channel, snr_to_sigma2

Params = Union[ThsParams, TpgParams]

BETA_FLOOR = 1e-6  # positivity floor applied after every optimizer step

TRAINABLE_MODELS = ("ths", "scalable_tpg", "tpg")  # detector types with trainable parameters


class TrainingDivergedError(Exception):
    """Training aborted on a non-finite state; carries the last stable parameters."""

    def __init__(self, generation: int, batch_index: int, last_params: Params, reason: str):
        self.generation = generation
        self.batch_index = batch_index
        self.last_params = last_params
        self.reason = reason
        super().__init__(
            f"training diverged in generation {generation}, batch {batch_index}: {reason}")


@dataclass
class TrainingConfig:
    """Hyperparameters of one deep-unfolding training run.

    ``snr_schedule`` lists the SNR values training batches are drawn at;
    with a single entry every batch uses that SNR, otherwise each
    mini-batch picks one entry uniformly at random.
    """

    dims: SystemDims
    snr_schedule: tuple = (20.0,)
    T: int = 30
    batches_per_generation: int = 200
    batch_size: int = 200
    learning_rate: float = 2e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    init_eta: float = 0.01
    init_beta: float = 1.0
    init_zeta: float = 1.0
    seed: int = 0
    model: str = "ths"  # one of TRAINABLE_MODELS
    init_gamma: float = 0.01
    init_theta: float = 1.0
    alpha: float = 1.0  # LMMSE-like regularizer, fixed during training

    def __post_init__(self):
        if isinstance(self.snr_schedule, (int, float)):
            self.snr_schedule = (float(self.snr_schedule),)
        else:
            self.snr_schedule = tuple(float(s) for s in self.snr_schedule)
        # each message starts with its field, which cmd_train prefixes with "train."
        if not self.snr_schedule:
            raise ValueError("snr_schedule: must not be empty")
        for snr_db in self.snr_schedule:
            try:
                snr_to_sigma2(snr_db, self.dims.n)
            except ValueError as exc:
                raise ValueError(f"snr_schedule: {exc}") from exc
        for name in ("T", "batches_per_generation", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "adam_epsilon", "init_eta",
                     "init_beta", "init_zeta", "init_gamma", "init_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate: must be positive, got {self.learning_rate}")
        if self.model not in TRAINABLE_MODELS:
            raise ValueError(f"model: expected one of {list(TRAINABLE_MODELS)}, got {self.model!r}")
        if not self.init_beta > 0:  # THS inverse temperature
            raise ValueError(f"init_beta: must be positive, got {self.init_beta}")
        if self.init_theta == 0:  # TPG projection divides by |theta|
            raise ValueError(f"init_theta: must be nonzero, got {self.init_theta}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha: must be finite and >= 0, got {self.alpha}")

    def to_dict(self) -> dict:
        return asdict(self)

    def initial_params(self) -> Params:
        kind = DETECTOR_TYPES[self.model]
        if self.model == "ths":
            return kind.initial(self.T, eta=self.init_eta, beta=self.init_beta, zeta=self.init_zeta)
        return kind.initial(self.T, gamma=self.init_gamma, theta=self.init_theta, alpha=self.alpha)


def config_fingerprint(config: TrainingConfig) -> str:
    """Stable hash of the full training configuration."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Parameter gradients and their flat layout
# ---------------------------------------------------------------------------

@dataclass
class ThsGradient:
    """Loss gradients w.r.t. the THS scalars; entries beyond the trained depth are 0."""

    d_beta: np.ndarray
    d_eta: np.ndarray
    d_zeta: np.ndarray


@dataclass
class TpgGradient:
    d_gamma: np.ndarray
    d_theta: np.ndarray


def _flatten_params(params: Params) -> np.ndarray:
    if isinstance(params, ThsParams):
        return np.concatenate([params.beta, params.eta, params.zeta])
    return np.concatenate([params.gamma, params.theta])


def _unflatten_params(template: Params, flat: np.ndarray) -> Params:
    T = template.T
    if isinstance(template, ThsParams):
        return ThsParams(beta=flat[:T].copy(), eta=flat[T:2 * T].copy(), zeta=flat[2 * T:].copy())
    return TpgParams(gamma=flat[:T].copy(), theta=flat[T:].copy(),
                     variant=template.variant, alpha=template.alpha)


def _flatten_grads(grads) -> np.ndarray:
    if isinstance(grads, ThsGradient):
        return np.concatenate([grads.d_beta, grads.d_eta, grads.d_zeta])
    return np.concatenate([grads.d_gamma, grads.d_theta])


# ---------------------------------------------------------------------------
# Forward / backward through the unrolled recursions
# ---------------------------------------------------------------------------

@dataclass
class TrainingWorkspace:
    """Buffers of the unrolled passes, allocated once and reused.

    ``rows`` holds the two (T+1, N, B) state stacks p and s of
    unroll_layers; ``scratch`` the (N, B) arrays of one forward/backward
    pair: c = A y, the layer residual, and the backward pass's ds, w and
    du.  A forward of depth d writes the views [:d+1], so its activations
    stay valid until the next forward on the same workspace.  Training
    allocates one workspace per run, 2 (T+1) N B + 5 N B doubles, instead
    of fresh activations per mini-batch.
    """

    rows: np.ndarray  # (2, T+1, N, B)
    scratch: np.ndarray  # (5, N, B): c, residual, ds, w, du

    @classmethod
    def allocate(cls, T: int, N: int, B: int) -> "TrainingWorkspace":
        return cls(rows=np.empty((2, T + 1, N, B)), scratch=np.empty((5, N, B)))


@dataclass
class Activations:
    """Saved forward states of the unrolled recursion (batch columns).

    Row t of ``p`` and ``s`` is the state after t layers of unroll_layers,
    row 0 the zero start: ``p`` holds THS's dual states u_t, or TPG's
    pre-projection points.
    """

    p: np.ndarray  # (depth+1, N, B)
    s: np.ndarray  # (depth+1, N, B)
    c: np.ndarray  # (N, B), A y; the layer residual is c - P s_t
    H: np.ndarray
    P: np.ndarray  # (N, N) Gram product A H
    depth: int
    workspace: TrainingWorkspace  # owner of the arrays above and of the backward scratch


def _mse_loss(s_out: np.ndarray, x: np.ndarray, scratch: np.ndarray) -> float:
    N, B = x.shape
    np.subtract(s_out, x, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return float(np.sum(scratch)) / (N * B)


def forward_unrolled(H, y, x, params: Params, depth_used: int,
                     workspace: Optional[TrainingWorkspace] = None):
    """Run the unrolled recursion for ``depth_used`` layers on a batch.

    ``y`` is (M, B), ``x`` is (N, B) with one sample per column.  Returns
    the MSE loss (normalized by N and batch size) and the retained
    activations for the backward pass.

    The layers run through ``detectors.unroll_layers``, the loop detection
    uses, keeping all depth_used+1 state rows, in Gram form: with A = H^T
    (THS, scalable TPG) or A = W (LMMSE TPG), the layer residual
    A (y - H s_t) is computed as c - P s_t from P = A H and c = A y, formed
    once per call.  Each layer is then one N x N x B product instead of
    two M x N x B products, cheaper when n < 2m.  Every elementwise step
    writes into the state rows or the scratch of ``workspace``; without
    one, the call allocates its own, so its activations survive later
    calls.  The residuals themselves are not kept: the backward pass
    recovers their inner products from c, s_t and the P^T products it
    forms anyway.
    """
    if not (1 <= depth_used <= params.T):
        raise ValueError(f"depth_used must be in [1, {params.T}], got {depth_used}")
    H = np.asarray(H, dtype=float)
    M, N = H.shape
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    B = x.shape[1]
    if x.shape != (N, B) or y.shape != (M, B):
        raise ValueError("batch shapes do not match the channel")
    ws = workspace if workspace is not None else TrainingWorkspace.allocate(depth_used, N, B)
    if ws.rows.shape[1] <= depth_used or ws.rows.shape[2:] != (N, B):
        raise ValueError(f"workspace {ws.rows.shape} cannot hold depth {depth_used} "
                         f"of an ({N}, {B}) batch")
    c, g, loss_scratch = ws.scratch[:3]  # g: the layer residual c - P s_t
    if isinstance(params, ThsParams):
        A, name = H.T, "ths"
    elif params.variant == "scalable":
        A, name = H.T, "scalable_tpg"
    else:
        A, name = lmmse_like_matrix(H, params.alpha), "tpg"
    P = A @ H
    np.matmul(A, y, out=c)
    p = ws.rows[0, :depth_used + 1]
    s = ws.rows[1, :depth_used + 1]
    p[0] = 0.0
    s[0] = 0.0

    def residual(s_t, t):  # c - P s_t, which is c at layer 0 since s_0 = 0
        if t == 0:
            np.copyto(g, c)
        else:
            np.matmul(P, s_t, out=g)
            np.subtract(c, g, out=g)
        return g

    unroll_layers(params, depth_used, p, s, residual, name)
    acts = Activations(p=p, s=s, c=c, H=H, P=P, depth=depth_used, workspace=ws)
    return _mse_loss(s[depth_used], x, loss_scratch), acts


def backward_gradients(acts, params: Params, x) -> Union[ThsGradient, TpgGradient]:
    """Exact reverse-mode gradients of the MSE loss w.r.t. every layer scalar.

    Gradient arrays have length params.T; layers beyond the unrolled depth
    do not influence the loss and get exact zeros.  The adjoint of a layer
    residual c - P s is -P^T, so each layer costs one N x N x B product.
    The activations are read, never written; the (N, B) adjoints live in
    the scratch of the workspace the activations came from.
    """
    x = np.asarray(x, dtype=float)
    N, B = x.shape
    d = acts.depth
    PT = acts.P.T
    ds, w, du = acts.workspace.scratch[2:]
    np.subtract(acts.s[d], x, out=ds)
    np.multiply(ds, 2.0, out=ds)
    np.divide(ds, N * B, out=ds)

    if isinstance(params, ThsParams):
        d_beta = np.zeros(params.T)
        d_eta = np.zeros(params.T)
        d_zeta = np.zeros(params.T)
        du.fill(0.0)  # carries zeta_t du_{t+1} into layer t
        for t in range(d, 0, -1):
            # s_t = tanh(beta_{t-1} p_t)
            np.multiply(acts.s[t], acts.s[t], out=w)
            np.subtract(1.0, w, out=w)
            np.multiply(ds, w, out=w)
            d_beta[t - 1] = np.vdot(w, acts.p[t])
            np.multiply(w, params.beta[t - 1], out=w)
            np.add(du, w, out=du)
            # p_t = zeta_{t-1} p_{t-1} + eta_{t-1} g_{t-1}
            d_zeta[t - 1] = np.vdot(du, acts.p[t - 1])
            # g_{t-1} = c - P s_{t-1}: <du, g_{t-1}> = <du, c> - <P^T du, s_{t-1}>
            d_eta[t - 1] = np.vdot(du, acts.c)
            if t > 1:  # s_0 = 0 is a constant: no P^T du term, no adjoint needed
                np.matmul(PT, du, out=ds)
                d_eta[t - 1] -= np.vdot(ds, acts.s[t - 1])
                np.multiply(ds, -params.eta[t - 1], out=ds)
                np.multiply(du, params.zeta[t - 1], out=du)
        return ThsGradient(d_beta=d_beta, d_eta=d_eta, d_zeta=d_zeta)

    d_gamma = np.zeros(params.T)
    d_theta = np.zeros(params.T)
    for t in range(d - 1, -1, -1):
        # s_{t+1} = tanh(p_{t+1} / |theta_t|)
        np.multiply(acts.s[t + 1], acts.s[t + 1], out=w)
        np.subtract(1.0, w, out=w)
        np.multiply(ds, w, out=w)
        d_theta[t] = np.vdot(w, acts.p[t + 1]) * (-np.sign(params.theta[t]) / params.theta[t] ** 2)
        np.multiply(w, 1.0 / abs(params.theta[t]), out=w)  # w is now dp_{t+1}
        # p_{t+1} = s_t + gamma_t g_t, g_t = c - P s_t: <dp, g_t> = <dp, c> - <P^T dp, s_t>
        d_gamma[t] = np.vdot(w, acts.c)
        if t > 0:
            np.matmul(PT, w, out=ds)
            d_gamma[t] -= np.vdot(ds, acts.s[t])
            np.multiply(ds, params.gamma[t], out=ds)
            np.subtract(w, ds, out=ds)
    return TpgGradient(d_gamma=d_gamma, d_theta=d_theta)


def finite_difference_gradient(params: Params, eps: float,
                               loss_fn: Callable[[Params], float]):
    """Central-difference gradients of ``loss_fn`` w.r.t. every scalar parameter.

    Testing oracle for ``backward_gradients``; O(parameters) loss
    evaluations, exact to O(eps^2) on smooth losses.
    """
    if eps <= 0:
        raise ValueError("perturbation must be positive")
    flat = _flatten_params(params)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        loss_plus = loss_fn(_unflatten_params(params, bumped))
        bumped[i] = flat[i] - eps
        loss_minus = loss_fn(_unflatten_params(params, bumped))
        grad[i] = (loss_plus - loss_minus) / (2.0 * eps)
    T = params.T
    if isinstance(params, ThsParams):
        return ThsGradient(d_beta=grad[:T], d_eta=grad[T:2 * T], d_zeta=grad[2 * T:])
    return TpgGradient(d_gamma=grad[:T], d_theta=grad[T:])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moment accumulators over the flattened parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def adam_step(params: Params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update; returns (new params, new state).

    After the update, inverse temperatures are re-clamped to stay positive
    (beta_t >= BETA_FLOOR for THS; |theta_t| >= BETA_FLOOR for TPG).
    """
    flat = _flatten_params(params)
    g = _flatten_grads(grads)
    if g.shape != flat.shape:
        raise ValueError(f"gradient size {g.shape} does not match parameters {flat.shape}")
    if not np.all(np.isfinite(g)):
        bad = np.flatnonzero(~np.isfinite(g))
        raise FloatingPointError(f"non-finite gradient entries at flat indices {bad[:8].tolist()}")
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g ** 2
    step = state.step + 1
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    new_flat = flat - lr * m_hat / (np.sqrt(v_hat) + eps)
    T = params.T
    if isinstance(params, ThsParams):
        new_flat[:T] = np.maximum(new_flat[:T], BETA_FLOOR)
    else:
        theta = new_flat[T:]
        signs = np.where(theta >= 0, 1.0, -1.0)
        new_flat[T:] = signs * np.maximum(np.abs(theta), BETA_FLOOR)
    return _unflatten_params(params, new_flat), AdamState(m=m, v=v, step=step)


# ---------------------------------------------------------------------------
# Incremental training
# ---------------------------------------------------------------------------

@dataclass
class TrainingResult:
    params: Params
    loss_log: list  # (generation, batch_index, loss) triples
    config: TrainingConfig

    def fingerprint(self) -> str:
        return config_fingerprint(self.config)


def _draw_minibatch(config: TrainingConfig, stream: RngStream):
    """One supervised mini-batch: fresh channel, batch of (x, y) columns."""
    dims = config.dims
    H = realify_channel(sample_channel(dims, stream.child(0)))
    x = 1.0 - 2.0 * stream.child(1).generator().integers(
        0, 2, size=(dims.N, config.batch_size)).astype(float)
    if len(config.snr_schedule) == 1:
        snr_db = config.snr_schedule[0]
    else:
        idx = int(stream.child(3).generator().integers(len(config.snr_schedule)))
        snr_db = config.snr_schedule[idx]
    sigma2 = snr_to_sigma2(snr_db, dims.n)
    w = math.sqrt(sigma2 / 2.0) * stream.child(2).generator().standard_normal(
        (dims.M, config.batch_size))
    y = H @ x + w
    return H, x, y


def incremental_train(config: TrainingConfig) -> TrainingResult:
    """Train by incrementally deepening the unrolled prefix.

    Generation g (g = 1..T) optimizes the parameters of layers 0..g-1
    against the loss at the layer-g output, running
    ``batches_per_generation`` Adam updates on fresh mini-batches.  Layers
    beyond g keep their initial values until their generation arrives
    (their gradients are exactly zero, so Adam leaves them untouched).
    The optimizer state is reset at each generation boundary.
    """
    params = config.initial_params()
    root = RngStream(config.seed)
    workspace = TrainingWorkspace.allocate(config.T, config.dims.N, config.batch_size)
    log: list = []
    for generation in range(1, config.T + 1):
        state = AdamState.zeros(_flatten_params(params).size)
        for batch_index in range(config.batches_per_generation):
            H, x, y = _draw_minibatch(config, root.child(generation, batch_index))
            try:
                loss, acts = forward_unrolled(H, y, x, params, depth_used=generation,
                                              workspace=workspace)
                grads = backward_gradients(acts, params, x)
                params, state = adam_step(params, grads, state, config.learning_rate,
                                          beta1=config.adam_beta1, beta2=config.adam_beta2,
                                          eps=config.adam_epsilon)
            except (DetectorDivergenceError, FloatingPointError) as exc:
                raise TrainingDivergedError(generation, batch_index, params, str(exc)) from exc
            log.append((generation, batch_index, loss))
    return TrainingResult(params=params, loss_log=log, config=config)


# ---------------------------------------------------------------------------
# Parameter persistence
# ---------------------------------------------------------------------------

def save_params(params: Params, path, fingerprint: str = "") -> None:
    """Write trained parameters as a JSON document."""
    doc = params.to_dict()
    doc["config_fingerprint"] = fingerprint
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_params(path) -> Params:
    """Read a trained-parameter JSON document written by ``save_params``."""
    doc = json.loads(Path(path).read_text())
    if "beta" in doc:
        return ThsParams.from_dict(doc)
    if "gamma" in doc:
        return TpgParams.from_dict(doc)
    raise ValueError(f"{path}: not a recognized parameter document")
