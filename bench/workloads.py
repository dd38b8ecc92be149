"""The four benchmark workloads, driven through the public library API.

Each workload has a ``setup`` (load fixtures, build detectors, one warm-up
call), a ``unit`` (the call the timed loop repeats; unit k draws its
inputs from the run seed and k alone) and ``gates`` (correctness checks
run on the units' outputs after timing stops).  Library entry points are
looked up as module attributes at call time, so the tracing shims apply.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from hsmimo import evaluation, unfolding
from hsmimo.system_model import RngStream, realify_channel, sample_channel, snr_to_sigma2

import specs

TIMED_STREAM, CHECK_STREAM = 0, 1  # RngStream ids of the timed units and of warm-up/gate inputs
WARMUP_VECTORS = 8


class SetupError(Exception):
    """The benchmark's own inputs (fixtures, references) are missing or inconsistent."""


@dataclass
class UnitResult:
    ops: int  # throughput operations: detections, or Adam updates for train_ths
    attempted: int  # what failed_share counts: detections, or training runs for train_ths
    failed: int  # of ``attempted``: diverged or raised
    output: Any  # what the gates check; None for a unit that raised


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


@dataclass
class Workload:
    name: str
    setup: Callable  # (sizes, seed) -> state
    unit: Callable  # (state, seed, k) -> UnitResult
    gates: Callable  # (state, seed, [UnitResult]) -> [Gate]
    failed_unit: Callable  # state -> UnitResult of a unit that raised


def _load_references() -> dict:
    try:
        return json.loads(specs.REFERENCE_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {specs.REFERENCE_PATH}: {exc}") from exc


def load_trained(model: str):
    """Parameter fixture of ``model``, checked against its training config."""
    path = specs.FIXTURE_DIR / f"{model}.json"
    try:
        params = unfolding.load_params(path)
        stamped = json.loads(path.read_text()).get("config_fingerprint")
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot load parameter fixture {path}: {exc}") from exc
    expected = unfolding.config_fingerprint(specs.fixture_config(model))
    if stamped != expected:
        raise SetupError(f"{path}: config_fingerprint {stamped!r} does not match the "
                         f"fixture config ({expected}); rerun bench/make_fixtures.py")
    return params, stamped


def build_eval_detectors(trained: dict) -> list:
    (ths, ths_fp), (stpg, stpg_fp) = trained["ths"], trained["scalable_tpg"]
    return [
        evaluation.make_ths_detector(ths, fingerprint=ths_fp),
        evaluation.make_scalable_tpg_detector(stpg, fingerprint=stpg_fp),
        evaluation.make_hs_detector(specs.HS_PARAMS),
        evaluation.make_tpg_detector(specs.TPG_PARAMS),
        evaluation.make_mmse_detector(),
    ]


# ---------------------------------------------------------------------------
# eval_iid / eval_block: paired BER sweep at 20 dB
# ---------------------------------------------------------------------------

def _eval_workload(name: str, blocked: bool) -> Workload:
    def setup(sizes, seed):
        trained = {model: load_trained(model) for model in ("ths", "scalable_tpg")}
        state = {"sizes": sizes, "detectors": build_eval_detectors(trained),
                 "channel_block": sizes.block_length if blocked else 1,
                 "references": _load_references()["ber_20db"]}
        evaluation.sweep_ber_paired(state["detectors"], specs.DIMS, [specs.SNR_DB],
                                    WARMUP_VECTORS, RngStream(seed, CHECK_STREAM),
                                    channel_block=state["channel_block"])
        return state

    def unit(state, seed, k):
        vectors = state["sizes"].eval_vectors
        curves = evaluation.sweep_ber_paired(
            state["detectors"], specs.DIMS, [specs.SNR_DB], vectors,
            RngStream(seed, TIMED_STREAM).child(k), channel_block=state["channel_block"])
        counts = {det: (c.points[0].bit_errors, c.points[0].bits_tested,
                        c.points[0].diverged_vectors) for det, c in curves.items()}
        ops = vectors * len(curves)
        return UnitResult(ops=ops, attempted=ops,
                          failed=sum(div for _, _, div in counts.values()), output=counts)

    def gates(state, seed, results):
        return eval_gates(state["references"], [r.output for r in results])

    def failed_unit(state):
        ops = state["sizes"].eval_vectors * len(state["detectors"])
        return UnitResult(ops=ops, attempted=ops, failed=ops, output=None)

    return Workload(name, setup, unit, gates, failed_unit)


def eval_gates(references: dict, outputs: list) -> list:
    """BER of every detector within a statistical band of its reference, and
    the paper's 20 dB ordering: THS below HS, MMSE above both.

    The band is 6 batch-means standard errors, with the units as batches so
    that errors clustered in one vector or one channel block are not
    counted as independent bits, plus 3 binomial standard errors of the
    reference as a floor for runs with few units.
    """
    out = []
    ber = {}
    for det, ref in sorted(references.items()):
        unit_bers = [o[det][0] / o[det][1] for o in outputs]
        bits = sum(o[det][1] for o in outputs)
        ber[det] = sum(o[det][0] for o in outputs) / bits
        se = statistics.stdev(unit_bers) / math.sqrt(len(unit_bers)) if len(unit_bers) > 1 else 0.0
        half = 6.0 * se + 3.0 * math.sqrt(ref / bits)
        out.append(Gate(f"ber_band.{det}", abs(ber[det] - ref) <= half,
                        f"BER {ber[det]:.3e} vs reference {ref:.3e} +/- {half:.2e} "
                        f"({bits} bits, {len(unit_bers)} batches)"))
    out.append(Gate("order.ths_below_hs", ber["ths"] < ber["hs"],
                    f"THS {ber['ths']:.3e} < HS {ber['hs']:.3e}"))
    out.append(Gate("order.mmse_worst", ber["mmse"] > max(ber["ths"], ber["hs"]),
                    f"MMSE {ber['mmse']:.3e} > THS {ber['ths']:.3e}, HS {ber['hs']:.3e}"))
    return out


# ---------------------------------------------------------------------------
# diagnose_noiseless: traced detector runs on noiseless ensembles
# ---------------------------------------------------------------------------

def _diagnose_setup(sizes, seed):
    trained = {model: load_trained(model) for model in ("ths", "scalable_tpg")}
    detectors = build_eval_detectors(trained)[:2]
    for det in detectors:
        evaluation.run_diagnostics(det, specs.DIMS, WARMUP_VECTORS, noiseless=True,
                                   rng=RngStream(seed, CHECK_STREAM))
    return {"sizes": sizes, "detectors": detectors}


def _diagnose_unit(state, seed, k):
    ensemble = state["sizes"].diagnose_ensemble
    rng = RngStream(seed, TIMED_STREAM).child(k)
    records = {det.name: evaluation.run_diagnostics(det, specs.DIMS, ensemble, noiseless=True,
                                                    rng=rng)
               for det in state["detectors"]}
    output = {name: (rec.mean_gradient_amplitude, rec.mean_bit_flip_ratio)
              for name, rec in records.items()}
    ops = ensemble * len(records)
    return UnitResult(ops=ops, attempted=ops, failed=0, output=output)


def _diagnose_failed_unit(state):
    ops = state["sizes"].diagnose_ensemble * len(state["detectors"])
    return UnitResult(ops=ops, attempted=ops, failed=ops, output=None)


def _diagnose_gates(state, seed, results):
    G = {name: np.mean([r.output[name][0] for r in results], axis=0)
         for name in ("ths", "scalable_tpg")}
    return [
        Gate("diag.ths_G_T_below_G_1", G["ths"][-1] < G["ths"][0],
             f"THS G_T {G['ths'][-1]:.3e} < G_1 {G['ths'][0]:.3e}"),
        Gate("diag.ths_below_scalable_tpg", G["ths"][-1] < G["scalable_tpg"][-1],
             f"THS G_T {G['ths'][-1]:.3e} < scalable TPG G_T {G['scalable_tpg'][-1]:.3e}"),
    ]


# ---------------------------------------------------------------------------
# train_ths: incremental deepening of THS
# ---------------------------------------------------------------------------

def _train_config(sizes, seed: int, **overrides):
    fields = dict(dims=specs.DIMS, snr_schedule=(specs.SNR_DB,), T=specs.DEPTH,
                  batches_per_generation=sizes.train_batches_per_generation,
                  batch_size=sizes.train_batch_size, learning_rate=2e-4, seed=seed, model="ths")
    fields.update(overrides)
    return unfolding.TrainingConfig(**fields)


def _train_setup(sizes, seed):
    unfolding.incremental_train(_train_config(sizes, seed, T=2, batches_per_generation=1))
    return {"sizes": sizes, "loss_bound": _load_references()["train_final_loss_bound"]}


def _train_unit(state, seed, k):
    config = _train_config(state["sizes"], seed * 1000 + k)
    try:
        result = unfolding.incremental_train(config)
    except unfolding.TrainingDivergedError:
        return _train_failed_unit(state)
    final = [loss for generation, _, loss in result.loss_log if generation == config.T]
    return UnitResult(ops=config.T * config.batches_per_generation, attempted=1, failed=0,
                      output=(float(np.mean(final)), result.params))


def _train_failed_unit(state):
    return UnitResult(ops=specs.DEPTH * state["sizes"].train_batches_per_generation,
                      attempted=1, failed=1, output=None)


def gradient_check(params, seed: int, batch: int = 4) -> tuple:
    """Norm-wise relative gap ||bp - fd|| / ||fd|| between backward_gradients
    and central finite differences of the full-depth loss on one fresh 20 dB
    mini-batch, and the number of scalars compared."""
    dims = specs.DIMS
    rng = RngStream(seed, CHECK_STREAM)
    H = realify_channel(sample_channel(dims, rng.child(0)))
    gen = rng.child(1).generator()
    x = 1.0 - 2.0 * gen.integers(0, 2, size=(dims.N, batch)).astype(float)
    y = H @ x + math.sqrt(snr_to_sigma2(specs.SNR_DB, dims.n) / 2.0) * gen.standard_normal(
        (dims.M, batch))
    _, acts = unfolding.forward_unrolled(H, y, x, params, params.T)
    bp = np.concatenate([g for g in vars(unfolding.backward_gradients(acts, params, x)).values()])
    # Trained losses are sharply curved: the O(eps^2) truncation error
    # dominates down to eps ~ 1e-8, where rounding is still ~1e-8 relative.
    fd_grad = unfolding.finite_difference_gradient(
        params, 1e-8, lambda p: unfolding.forward_unrolled(H, y, x, p, p.T)[0])
    fd = np.concatenate([g for g in vars(fd_grad).values()])
    return float(np.linalg.norm(bp - fd) / np.linalg.norm(fd)), bp.size


def _train_gates(state, seed, results):
    done = [r.output for r in results]
    worst_loss = max(loss for loss, _ in done)
    finite = all(np.all(np.isfinite(v)) for _, p in done for v in vars(p).values())
    rel, count = gradient_check(done[-1][1], seed)
    bound = state["loss_bound"]
    return [
        Gate("train.final_loss", worst_loss < bound,
             f"worst final-generation mean loss {worst_loss:.4f} < bound {bound}"),
        Gate("train.params_finite", finite, f"all parameters finite over {len(done)} runs"),
        Gate("train.gradient_check", rel < 1e-4,
             f"backward vs finite differences: relative gap {rel:.2e} over {count} "
             f"scalars (< 1e-4)"),
    ]


WORKLOADS = {
    "train_ths": Workload("train_ths", _train_setup, _train_unit, _train_gates,
                          _train_failed_unit),
    "eval_iid": _eval_workload("eval_iid", blocked=False),
    "eval_block": _eval_workload("eval_block", blocked=True),
    "diagnose_noiseless": Workload("diagnose_noiseless", _diagnose_setup, _diagnose_unit,
                                   _diagnose_gates, _diagnose_failed_unit),
}
