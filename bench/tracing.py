"""In-memory span tracing of the library's layers, installed from outside.

Every traced function is patched at the name its caller looks it up by
(module global or class attribute), so the library itself is unchanged.
``SHIMS`` is the one table of what is traced: it maps a layer metric name
to the functions that do that layer's work and to a function deriving
work counters (flops, vectors, layer passes, ...) from the call's
arguments.  A refactor that renames or merges library functions edits
this table; the metric names stay.

Spans are (layer, start, end, parent index) tuples kept in a list and
written out once at the end of a run.  The benchmark is single-threaded,
so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    """Argument ``name`` of a call, passed by position ``index`` or by keyword."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


# Shape-derived flop counts: 2 flops per multiply-add of every matrix
# product; elementwise work (tanh, axpy) and the divergence checks are not
# counted.  The rates built from them are computed, not read from counters.

def _matvec_flops(H, columns=1):
    M, N = H.shape
    return 2 * M * N * columns


def _iterative_flops(H, depth, trace):
    """One residual H^T(y - Hs) (or W(y - Hs)) per iteration; a traced run
    recomputes the gradient amplitude once more per state."""
    per_state = 2 * _matvec_flops(H)
    return depth * per_state + (depth + 1) * per_state * bool(trace)


def _lmmse_flops(H):
    """H H^T, LU of the M x M system, and the solve for N right-hand sides."""
    M, N = H.shape
    return 2 * M * M * N + (2 * M ** 3) // 3 + 2 * M * M * N


def _ths_like_work(a, k):
    return {"flops": _iterative_flops(a[0], _arg(a, k, 2, "params").T, _arg(a, k, 3, "trace"))}


def _tpg_work(a, k):
    H = a[0]
    return {"flops": _iterative_flops(H, _arg(a, k, 3, "params").T, _arg(a, k, 4, "trace"))
            + _lmmse_flops(H)}


def _mmse_work(a, k):
    H = a[0]
    M = H.shape[0]
    return {"flops": 2 * M * M * H.shape[1] + (2 * M ** 3) // 3 + 2 * M * M + _matvec_flops(H)}


def _forward_work(a, k):
    depth = _arg(a, k, 4, "depth_used")
    x = _arg(a, k, 2, "x")
    return {"flops": 2 * depth * _matvec_flops(a[0], x.shape[1]), "layer_passes": depth}


def _backward_work(a, k):
    acts = a[0]
    x = _arg(a, k, 2, "x")
    return {"flops": 2 * acts.depth * _matvec_flops(acts.H, x.shape[1])}


def _one(counter):
    return lambda a, k: {counter: 1}


# layer metric name -> [(module, attribute path, work counters from (args, kwargs))]
SHIMS = {
    "system_model": [
        ("hsmimo.system_model", "RngStream.generator", _one("generators")),
        ("hsmimo.evaluation", "sample_channel", None),
        ("hsmimo.evaluation", "realify_channel", None),
        ("hsmimo.evaluation", "sample_signal", _one("vectors")),
        ("hsmimo.evaluation", "transmit", None),
        ("hsmimo.unfolding", "_draw_minibatch",
         lambda a, k: {"vectors": a[0].batch_size}),
        ("hsmimo.unfolding", "sample_channel", None),
        ("hsmimo.unfolding", "realify_channel", None),
    ],
    "detectors.ths": [("hsmimo.evaluation", "ths_detect", _ths_like_work)],
    "detectors.hs": [("hsmimo.evaluation", "hs_detect", _ths_like_work)],
    "detectors.scalable_tpg": [("hsmimo.evaluation", "scalable_tpg_detect", _ths_like_work)],
    "detectors.tpg": [("hsmimo.evaluation", "tpg_detect", _tpg_work)],
    "detectors.mmse": [("hsmimo.evaluation", "mmse_detect", _mmse_work)],
    "detectors.lmmse_matrix": [
        ("hsmimo.detectors", "lmmse_like_matrix", lambda a, k: {"flops": _lmmse_flops(a[0])}),
    ],
    "unfolding.forward": [("hsmimo.unfolding", "forward_unrolled", _forward_work)],
    "unfolding.backward": [("hsmimo.unfolding", "backward_gradients", _backward_work)],
    "unfolding.adam": [("hsmimo.unfolding", "adam_step", None)],
    "unfolding": [("hsmimo.unfolding", "incremental_train", None)],
    "evaluation": [
        ("hsmimo.evaluation", "sweep_ber_paired", None),
        ("hsmimo.evaluation", "run_diagnostics", None),
    ],
}

DETECTORS = ("ths", "hs", "scalable_tpg", "tpg", "mmse")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs the SHIMS table as a context manager and keeps the spans."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent index or -1)
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn, work):
        spans, stack, counters = self.spans, self._stack, self.counters[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                for key, value in work(args, kwargs).items():
                    counters[key] += value
            counters["calls"] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (layer, start, clock(), parent)
                stack.pop()

        return traced

    def __enter__(self):
        for layer, entries in SHIMS.items():
            for module_name, path, work in entries:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
        path.write_text(json.dumps(rows) + "\n")

    # -- derived layer metrics ------------------------------------------------

    def busy_s(self, layer: str) -> float:
        """Time inside the layer's outermost spans (nested spans of the same
        layer are not counted twice)."""
        spans = self.spans
        return sum((end - start for name, start, end, parent in spans
                    if name == layer and (parent < 0 or spans[parent][0] != layer)), 0.0)

    def self_s(self, layer: str) -> float:
        """Duration of the layer's spans minus what their direct children cover."""
        total = 0.0
        children = defaultdict(float)
        for name, start, end, parent in self.spans:
            if name == layer:
                total += end - start
            if parent >= 0 and self.spans[parent][0] == layer:
                children[parent] += end - start
        return total - sum(children.values())

    def layer_metrics(self) -> dict:
        """Every per-layer metric as {name: (value, unit)}; a layer that did
        not run on this workload reports zeros."""
        c = self.counters
        out = {}
        sm_busy = self.busy_s("system_model")
        out["system_model.busy_s"] = (sm_busy, "s")
        out["system_model.generators"] = (c["system_model"]["generators"], "count")
        out["system_model.us_per_vector"] = (_per(sm_busy * 1e6, c["system_model"]["vectors"]), "us")
        for det in DETECTORS:
            layer = f"detectors.{det}"
            busy = self.busy_s(layer)
            out[f"{layer}.busy_s"] = (busy, "s")
            out[f"{layer}.us_per_call"] = (_per(busy * 1e6, c[layer]["calls"]), "us")
            out[f"{layer}.gflop_per_s"] = (_per(c[layer]["flops"] / 1e9, busy), "GFLOP/s")
        lmmse_calls = c["detectors.lmmse_matrix"]["calls"]
        out["detectors.lmmse_matrix.calls"] = (lmmse_calls, "count")
        out["detectors.lmmse_matrix.reuse_ratio"] = (
            _per(c["detectors.tpg"]["calls"], lmmse_calls), "ratio")
        for part in ("forward", "backward"):
            layer = f"unfolding.{part}"
            busy = self.busy_s(layer)
            out[f"{layer}.busy_s"] = (busy, "s")
            out[f"{layer}.gflop_per_s"] = (_per(c[layer]["flops"] / 1e9, busy), "GFLOP/s")
        out["unfolding.adam.busy_s"] = (self.busy_s("unfolding.adam"), "s")
        out["unfolding.layer_passes"] = (c["unfolding.forward"]["layer_passes"], "count")
        out["unfolding.self_s"] = (self.self_s("unfolding"), "s")
        eval_self = self.self_s("evaluation")
        out["evaluation.self_s"] = (eval_self, "s")
        out["evaluation.self_share"] = (_per(eval_self, self.busy_s("evaluation")), "share")
        return out


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0
