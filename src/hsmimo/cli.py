"""Command-line entry point: train / eval / diagnose / validate.

All commands are driven by a JSON config file (see ``--print-schema``) and
are deterministic given (config, seed): rerunning with identical inputs
produces byte-identical output files.  Exit codes: 0 success, 1 validation
failure, 2 config or usage error, 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .detectors import DetectorDivergenceError, HsParams
from .evaluation import (
    QuadratureConfig,
    ValidationError,
    brute_force_expectation,
    make_hs_detector,
    make_ml_detector,
    make_mmse_detector,
    make_scalable_tpg_detector,
    make_ths_detector,
    make_tpg_detector,
    run_diagnostics,
    sweep_ber,
    sweep_ber_paired,
    verify_hs_identity,
    write_diagnostics,
    write_report,
)
from .system_model import RngStream, SystemDims, realify_channel, sample_channel
from .unfolding import (
    ThsParams,
    TpgParams,
    TrainingConfig,
    TrainingDivergedError,
    config_fingerprint,
    incremental_train,
    load_params,
    save_params,
)

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "RunConfig",
    "type": "object",
    "required": ["seed"],
    "properties": {
        "schema_version": {"type": "integer", "const": CONFIG_SCHEMA_VERSION},
        "seed": {"type": "integer", "description": "base RNG seed; mandatory"},
        "out_dir": {"type": "string", "default": "out"},
        "threads": {"type": "integer", "minimum": 1,
                    "description": "worker threads; defaults to the CPU count"},
        "dims": {
            "type": "object",
            "required": ["n", "m"],
            "properties": {"n": {"type": "integer", "minimum": 1},
                           "m": {"type": "integer", "minimum": 1}},
        },
        "train": {
            "type": "object",
            "properties": {
                "model": {"enum": ["ths", "scalable_tpg", "tpg"]},
                "T": {"type": "integer", "minimum": 1},
                "snr_db": {"type": ["number", "array"]},
                "batches_per_generation": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "init_eta": {"type": "number"},
                "init_beta": {"type": "number"},
                "init_zeta": {"type": "number"},
                "init_gamma": {"type": "number"},
                "init_theta": {"type": "number"},
                "alpha": {"type": "number", "minimum": 0},
                "params_out": {"type": "string"},
                "log_out": {"type": "string"},
            },
        },
        "eval": {
            "type": "object",
            "required": ["snr_grid_db", "detectors"],
            "properties": {
                "snr_grid_db": {"type": "array", "items": {"type": "number"}},
                "vectors_per_point": {"type": "integer", "minimum": 1},
                "channel_block": {"type": "integer", "minimum": 1},
                "paired": {"type": "boolean", "default": True},
                "detectors": {"type": "array", "items": {"$ref": "#/definitions/detector"}},
                "report_stem": {"type": "string", "default": "ber_report"},
            },
        },
        "diagnose": {
            "type": "object",
            "required": ["detectors"],
            "properties": {
                "ensemble": {"type": "integer", "minimum": 1},
                "noiseless": {"type": "boolean", "default": True},
                "snr_db": {"type": ["number", "null"]},
                "detectors": {"type": "array", "items": {"$ref": "#/definitions/detector"}},
                "out_stem": {"type": "string", "default": "diagnostics"},
            },
        },
        "validate": {
            "type": "object",
            "properties": {
                "a_values": {"type": "array", "items": {"type": "number"}},
                "x_values": {"type": "array", "items": {"type": "number"}},
                "identity_tolerance": {"type": "number"},
                "expectation_instances": {"type": "integer", "minimum": 1},
                "expectation_dims": {"$ref": "#/properties/dims"},
                "expectation_beta_range": {"type": "array", "items": {"type": "number"}},
                "expectation_tolerance": {"type": "number"},
            },
        },
    },
    "definitions": {
        "detector": {
            "type": "object",
            "required": ["type"],
            "description": "ths/scalable_tpg/tpg take either a params_file or "
                           "inline per-iteration constants; hs takes constants only",
            "properties": {
                "type": {"enum": ["ths", "hs", "scalable_tpg", "tpg", "mmse", "ml"]},
                "name": {"type": "string", "description": "defaults to the type"},
                "params_file": {"type": "string",
                                "description": "trained-parameter JSON (ths / scalable_tpg / tpg); "
                                               "relative paths resolve against the config directory"},
                "T": {"type": "integer", "description": "depth for constant-parameter detectors"},
                "eta": {"type": "number", "description": "hs / constant ths"},
                "lambda": {"type": "number", "description": "hs only"},
                "beta": {"type": "number", "description": "hs / constant ths"},
                "zeta": {"type": "number", "description": "constant ths only"},
                "gamma": {"type": "number", "description": "constant tpg variants"},
                "theta": {"type": "number", "description": "constant tpg variants"},
                "alpha": {"type": "number", "description": "tpg only"},
            },
        },
    },
}


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: top-level config must be a JSON object")
    version = cfg.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{p}: unsupported schema_version {version}")
    cfg["_config_dir"] = p.parent
    return cfg


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return cfg[key]


def _resolve_common(cfg: dict, args) -> dict:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is mandatory (config key 'seed' or --seed)")
    try:
        RngStream(int(seed))  # the stream's own check rejects a negative seed
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid seed {seed!r}: {exc}") from exc
    out_dir = Path(args.out) if args.out is not None else Path(cfg.get("out_dir", "out"))
    threads = args.threads if args.threads is not None else cfg.get("threads", os.cpu_count() or 1)
    if int(threads) < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return {"seed": int(seed), "out_dir": out_dir, "threads": int(threads)}


def _parse_dims(cfg: dict) -> SystemDims:
    d = _require(cfg, "dims", "config")
    try:
        return SystemDims(n=int(_require(d, "n", "dims")), m=int(_require(d, "m", "dims")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _constant_params(entry: dict, kind: str, name: str, depth_default: int):
    """Per-iteration constants given inline instead of a trained-parameter file."""
    T = int(entry.get("T", depth_default))
    try:
        if kind == "ths":
            return ThsParams.initial(T, eta=float(entry.get("eta", 0.01)),
                                     beta=float(entry.get("beta", 1.0)),
                                     zeta=float(entry.get("zeta", 1.0)))
        return TpgParams.initial(T, gamma=float(entry.get("gamma", 0.01)),
                                 theta=float(entry.get("theta", 1.0)),
                                 variant="scalable" if kind == "scalable_tpg" else "lmmse",
                                 alpha=float(entry.get("alpha", 1.0)))
    except ValueError as exc:
        raise ConfigError(f"detector {name!r}: {exc}") from exc


def _build_detector(entry: dict, config_dir: Path, depth_default: int = 30):
    kind = _require(entry, "type", "detector entry")
    name = entry.get("name", kind)
    if kind in ("ths", "scalable_tpg", "tpg"):
        if "params_file" not in entry:
            params = _constant_params(entry, kind, name, depth_default)
            fingerprint = ""
        else:
            path = Path(entry["params_file"])
            if not path.is_absolute():
                path = config_dir / path
            if not path.is_file():
                raise ConfigError(f"detector {name!r}: parameter file not found: {path}")
            params = load_params(path)
            fingerprint = _file_sha256(path)
        if kind == "ths":
            if not isinstance(params, ThsParams):
                raise ConfigError(f"detector {name!r}: parameters are not THS parameters")
            return make_ths_detector(params, name=name, fingerprint=fingerprint)
        if not isinstance(params, TpgParams):
            raise ConfigError(f"detector {name!r}: parameters are not TPG parameters")
        expected = "scalable" if kind == "scalable_tpg" else "lmmse"
        if params.variant != expected:
            raise ConfigError(f"detector {name!r}: parameter variant {params.variant!r} "
                              f"does not match detector type {kind!r}")
        maker = make_scalable_tpg_detector if kind == "scalable_tpg" else make_tpg_detector
        return maker(params, name=name, fingerprint=fingerprint)
    if kind == "hs":
        params = HsParams(T=int(entry.get("T", depth_default)), eta=float(entry.get("eta", 0.1)),
                          lam=float(entry.get("lambda", 1.0)), beta=float(entry.get("beta", 1.0)))
        return make_hs_detector(params, name=name)
    if kind == "mmse":
        return make_mmse_detector(name=name)
    if kind == "ml":
        return make_ml_detector(name=name)
    raise ConfigError(f"unknown detector type {kind!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: dict, common: dict) -> int:
    section = _require(cfg, "train", "config")
    dims = _parse_dims(cfg)
    tc = TrainingConfig(
        dims=dims,
        snr_schedule=section.get("snr_db", 20.0),
        T=int(section.get("T", 30)),
        batches_per_generation=int(section.get("batches_per_generation", 200)),
        batch_size=int(section.get("batch_size", 200)),
        learning_rate=float(section.get("learning_rate", 2e-4)),
        init_eta=float(section.get("init_eta", 0.01)),
        init_beta=float(section.get("init_beta", 1.0)),
        init_zeta=float(section.get("init_zeta", 1.0)),
        seed=common["seed"],
        model=section.get("model", "ths"),
        init_gamma=float(section.get("init_gamma", 0.01)),
        init_theta=float(section.get("init_theta", 1.0)),
        alpha=float(section.get("alpha", 1.0)),
    )
    out_dir = common["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    params_path = out_dir / section.get("params_out", f"{tc.model}_params.json")
    log_path = out_dir / section.get("log_out", "training_log.csv")
    try:
        result = incremental_train(tc)
    except TrainingDivergedError as exc:
        diag_path = out_dir / "training_divergence.json"
        diag = {"generation": exc.generation, "batch_index": exc.batch_index,
                "reason": exc.reason, "last_stable_params": exc.last_params.to_dict()}
        diag_path.write_text(json.dumps(diag, sort_keys=True, indent=1) + "\n")
        print(f"training diverged; diagnostics written to {diag_path}", file=sys.stderr)
        return EXIT_DIVERGED
    save_params(result.params, params_path, fingerprint=config_fingerprint(tc))
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "batch_index", "loss"])
        writer.writerows(result.loss_log)
    last_gen = [loss for g, b, loss in result.loss_log if g == tc.T]
    print(f"trained {tc.model} (n={dims.n}, m={dims.m}, T={tc.T}); "
          f"final-generation mean loss {float(np.mean(last_gen)):.6f}")
    print(f"parameters: {params_path}")
    print(f"training log: {log_path}")
    return EXIT_OK


def cmd_eval(cfg: dict, common: dict) -> int:
    section = _require(cfg, "eval", "config")
    dims = _parse_dims(cfg)
    grid = [float(s) for s in _require(section, "snr_grid_db", "eval")]
    entries = _require(section, "detectors", "eval")
    if not entries:
        raise ConfigError("eval.detectors must not be empty")
    detectors = [_build_detector(e, cfg["_config_dir"]) for e in entries]
    names = [d.name for d in detectors]
    if len(set(names)) != len(names):
        raise ConfigError(f"detector names must be unique, got {names}")
    vectors = int(section.get("vectors_per_point", 1000))
    channel_block = int(section.get("channel_block", 1))
    rng = RngStream(common["seed"])
    if section.get("paired", True):
        curves = sweep_ber_paired(detectors, dims, grid, vectors, rng,
                                  channel_block=channel_block, threads=common["threads"])
    else:
        curves = {det.name: sweep_ber(det, dims, grid, vectors, rng.child(k),
                                      channel_block=channel_block, threads=common["threads"])
                  for k, det in enumerate(detectors)}
    stem = common["out_dir"] / section.get("report_stem", "ber_report")
    csv_path, json_path = write_report([curves[n] for n in names], stem)
    for name in names:
        for p in curves[name].points:
            print(f"{name:>14s}  snr={p.snr_db:6.2f} dB  ber={p.ber:.6e}  "
                  f"({p.bit_errors}/{p.bits_tested} bits, ci +/-{p.ci_half_width:.2e})")
    print(f"report: {csv_path} {json_path}")
    return EXIT_OK


def cmd_diagnose(cfg: dict, common: dict) -> int:
    section = _require(cfg, "diagnose", "config")
    dims = _parse_dims(cfg)
    entries = _require(section, "detectors", "diagnose")
    detectors = [_build_detector(e, cfg["_config_dir"]) for e in entries]
    for det in detectors:
        if not det.traceable:
            raise ConfigError(f"detector {det.name!r} does not support tracing")
    ensemble = int(section.get("ensemble", 1000))
    noiseless = bool(section.get("noiseless", True))
    snr_db = section.get("snr_db")
    if not noiseless and snr_db is None:
        raise ConfigError("diagnose.snr_db is required when noiseless is false")
    rng = RngStream(common["seed"])
    records = [run_diagnostics(det, dims, ensemble, noiseless, rng,
                               snr_db=None if snr_db is None else float(snr_db),
                               threads=common["threads"])
               for det in detectors]
    stem = common["out_dir"] / section.get("out_stem", "diagnostics")
    csv_path = write_diagnostics(records, stem)
    for rec in records:
        g = rec.mean_gradient_amplitude
        print(f"{rec.detector:>14s}  G[1]={g[0]:.4e}  G[{rec.depth}]={g[-1]:.4e}  "
              f"flips[{rec.depth}]={rec.mean_bit_flip_ratio[-1]:.4e}")
    print(f"diagnostics: {csv_path}")
    return EXIT_OK


def cmd_validate(cfg: dict, common: dict) -> int:
    section = cfg.get("validate", {})
    a_values = [float(a) for a in section.get("a_values", [0.5, 1.0, 2.0])]
    x_values = [float(x) for x in section.get("x_values", [-2.0, -1.0, 0.0, 1.0, 2.0])]
    identity_tol = float(section.get("identity_tolerance", 1e-8))
    instances = int(section.get("expectation_instances", 100))
    exp_dims_cfg = section.get("expectation_dims", {"n": 6, "m": 5})
    exp_dims = SystemDims(n=int(exp_dims_cfg["n"]), m=int(exp_dims_cfg["m"]))
    beta_lo, beta_hi = [float(b) for b in section.get("expectation_beta_range", [0.1, 5.0])]
    expectation_tol = float(section.get("expectation_tolerance", 1e-10))

    failures = 0
    print("Gaussian-integral identity (trapezoidal quadrature):")
    for a in a_values:
        for x in x_values:
            res = verify_hs_identity(a, x, QuadratureConfig())
            ok = res.residual < identity_tol and abs(res.integral_imag) < 1e-10
            failures += 0 if ok else 1
            print(f"  a={a:<4g} x={x:<4g} residual={res.residual:.3e} "
                  f"imag={res.integral_imag:+.3e}  {'ok' if ok else 'FAIL'}")

    print(f"expectation factorization (N={exp_dims.N}, {instances} instances, "
          f"beta in [{beta_lo}, {beta_hi}]):")
    rng = RngStream(common["seed"], stream_id=7)
    worst = 0.0
    for i in range(instances):
        stream = rng.child(i)
        H = realify_channel(sample_channel(exp_dims, stream.child(0)))
        v = stream.child(1).generator().standard_normal(exp_dims.M)
        beta = float(stream.child(2).generator().uniform(beta_lo, beta_hi))
        enum = brute_force_expectation(H, v, beta, tol=None)
        resid = float(np.max(np.abs(enum - np.tanh(beta * (H.T @ v)))))
        worst = max(worst, resid)
    ok = worst < expectation_tol
    failures += 0 if ok else 1
    print(f"  max |enumeration - tanh(beta H^T v)| = {worst:.3e}  {'ok' if ok else 'FAIL'}")

    if failures:
        print(f"{failures} validation check(s) exceeded tolerance", file=sys.stderr)
        return EXIT_VALIDATION
    print("all validators passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsmimo",
        description="Train, evaluate, and diagnose HS-family MIMO detectors.")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the JSON schema of the run config and exit")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("train", "train detector parameters by deep unfolding"),
        ("eval", "Monte Carlo BER sweep over an SNR grid"),
        ("diagnose", "per-iteration gradient-amplitude and bit-flip diagnostics"),
        ("validate", "run the built-in mathematical self-checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="run config JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "diagnose": cmd_diagnose,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_schema:
        print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=False))
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "validate" and args.config is None:
            cfg = {"seed": 0, "_config_dir": Path(".")}
        else:
            cfg = _load_config(args.config)
        common = _resolve_common(cfg, args)
        return _COMMANDS[args.command](cfg, common)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDivergedError, DetectorDivergenceError) as exc:
        print(f"runtime divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
