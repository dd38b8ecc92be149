"""Command-line entry point: train / eval / diagnose / validate.

All commands are driven by a JSON config file (see ``--print-schema``) and
are deterministic given (config, seed): rerunning with identical inputs
produces byte-identical output files.  ``CONFIG_SCHEMA`` is the one table
of config keys: the loader rejects any key it does not list, coerces and
range-checks the rest, and fills in its defaults, which for training come
from ``TrainingConfig``.  Exit codes: 0 success, 1 validation failure, 2
config or usage error, 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .detectors import DetectorDivergenceError
from .evaluation import (
    DETECTOR_TYPES,
    Detector,
    QuadratureConfig,
    ValidationError,
    brute_force_expectation,
    make_detector,
    run_diagnostics,
    sweep_ber_paired,
    verify_hs_identity,
    write_diagnostics,
    write_report,
)
from .system_model import RngStream, SystemDims, realify_channel, sample_channel, snr_to_sigma2
from .unfolding import (
    TRAINABLE_MODELS,
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


# ---------------------------------------------------------------------------
# Config table
# ---------------------------------------------------------------------------

_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainingConfig)}

# Inline constants a detector entry of each parametrised type may give instead
# of a params_file: config key -> keyword of DetectorType.initial.  A constant
# left out takes the default of the type's parameter class.
_CONSTANTS = {
    "ths": {"eta": "eta", "beta": "beta", "zeta": "zeta"},
    "hs": {"eta": "eta", "lambda": "lam", "beta": "beta"},
    "scalable_tpg": {"gamma": "gamma", "theta": "theta"},
    "tpg": {"gamma": "gamma", "theta": "theta", "alpha": "alpha"},
}


def _count(**extra) -> dict:
    return {"type": "integer", "minimum": 1, **extra}


def _numbers(**extra) -> dict:
    return {"type": "array", "items": {"type": "number"}, **extra}


def _object(properties: dict, required=(), **extra) -> dict:
    return {"type": "object", "required": list(required), "properties": properties,
            "additionalProperties": False, **extra}


def _training_fields(**properties) -> dict:
    """Train-section keys named after TrainingConfig fields, with their defaults."""
    return {key: {**spec, "default": _TRAIN_DEFAULTS[key]} for key, spec in properties.items()}


def _detector(kind: str) -> dict:
    """Entry of one detector type.  A trainable type takes either a params_file
    or inline constants, hs takes inline constants only, mmse and ml none."""
    properties = {"type": {"type": "string", "enum": [kind]},
                  "name": {"type": "string", "description": "defaults to the type"}}
    if kind in TRAINABLE_MODELS:
        properties["params_file"] = {"type": "string", "description": "trained-parameter JSON; "
                                     "a relative path resolves against the config directory"}
    if kind in _CONSTANTS:
        properties["T"] = _count(description=f"defaults to {_TRAIN_DEFAULTS['T']}")
        properties.update({key: {"type": "number"} for key in _CONSTANTS[kind]})
    return _object(properties, required=["type"])


_DIMS = _object({"n": _count(), "m": _count()}, required=["n", "m"])

_DETECTOR = {"oneOf": [_detector(kind) for kind in DETECTOR_TYPES]}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "RunConfig",
    **_object({
        "schema_version": {"type": "integer", "enum": [CONFIG_SCHEMA_VERSION],
                           "default": CONFIG_SCHEMA_VERSION},
        "seed": {"type": "integer", "description": "base RNG seed; mandatory"},
        "out_dir": {"type": "string", "default": "out"},
        "dims": _DIMS,
        "train": _object({
            **_training_fields(
                model={"type": "string", "enum": list(TRAINABLE_MODELS)},
                T=_count(),
                batches_per_generation=_count(),
                batch_size=_count(),
                learning_rate={"type": "number", "exclusiveMinimum": 0},
                init_eta={"type": "number"},
                init_beta={"type": "number"},
                init_zeta={"type": "number"},
                init_gamma={"type": "number"},
                init_theta={"type": "number"},
                alpha={"type": "number", "minimum": 0},
            ),
            "snr_db": {"type": ["number", "array"], "items": {"type": "number"}, "minItems": 1,
                       "default": list(_TRAIN_DEFAULTS["snr_schedule"]),
                       "description": "one SNR, or a list each mini-batch draws one from"},
            "params_out": {"type": "string", "description": "defaults to <model>_params.json"},
            "log_out": {"type": "string", "default": "training_log.csv"},
        }),
        "eval": _object({
            "snr_grid_db": _numbers(minItems=1),
            "vectors_per_point": _count(default=1000),
            "channel_block": _count(default=1),
            "detectors": {"type": "array", "items": _DETECTOR, "minItems": 1},
            "report_stem": {"type": "string", "default": "ber_report"},
        }, required=["snr_grid_db", "detectors"]),
        "diagnose": _object({
            "ensemble": _count(default=1000),
            "noiseless": {"type": "boolean", "default": True},
            "snr_db": {"type": ["number", "null"], "default": None},
            "detectors": {"type": "array", "items": _DETECTOR, "minItems": 1},
            "out_stem": {"type": "string", "default": "diagnostics"},
        }, required=["detectors"]),
        "validate": _object({
            "a_values": _numbers(default=[0.5, 1.0, 2.0]),
            "x_values": _numbers(default=[-2.0, -1.0, 0.0, 1.0, 2.0]),
            "identity_tolerance": {"type": "number", "default": 1e-8},
            "expectation_instances": _count(default=100),
            "expectation_dims": {**_DIMS, "default": {"n": 6, "m": 5}},
            "expectation_beta_range": _numbers(minItems=2, maxItems=2, default=[0.1, 5.0]),
            "expectation_tolerance": {"type": "number", "default": 1e-10},
        }, default={}),
    }, required=["seed"]),
}


_COERCE = {"integer": int, "number": float, "boolean": bool, "string": str}


def _checked(value, spec: dict, path: str):
    """``value`` checked against the table entry ``spec`` at ``path``: an
    object may hold only the keys its entry lists and gets the defaults of
    those left out, an array is checked item by item, and a scalar passes
    through int() / float() / bool() / str() and its range check; a number
    must be finite."""
    if "oneOf" in spec:  # a detector entry, checked against the entry of its type
        kind = value.get("type") if isinstance(value, dict) else None
        branches = [b for b in spec["oneOf"] if kind in b["properties"]["type"]["enum"]]
        if not branches:
            raise ConfigError(f"{path}.type: expected one of {list(DETECTOR_TYPES)}, got {kind!r}")
        spec = branches[0]
    types = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
    if value is None and "null" in types:
        return None
    if isinstance(value, dict) and "object" in types:
        properties, prefix = spec["properties"], f"{path}." if path else ""
        for key in value:
            if key not in properties:
                raise ConfigError(f"{prefix}{key}: unknown key; "
                                  f"{path or 'the config'} takes {', '.join(properties)}")
        for key in spec["required"]:
            if key not in value:
                raise ConfigError(f"{prefix}{key}: required key is missing")
        return {key: _checked(value[key] if key in value else sub["default"], sub, prefix + key)
                for key, sub in properties.items() if key in value or "default" in sub}
    if isinstance(value, list) and "array" in types:
        lo, hi = spec.get("minItems", 0), spec.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            raise ConfigError(f"{path}: takes {lo}..{hi} items, got {len(value)}")
        return [_checked(item, spec["items"], f"{path}[{i}]") for i, item in enumerate(value)]
    convert = _COERCE.get(types[0])
    mismatch = f"{path}: expected {' or '.join(types)}, got {value!r}"
    if convert is None or value is None or isinstance(value, (dict, list)):
        raise ConfigError(mismatch)
    try:
        value = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(mismatch) from None
    if convert is float and not math.isfinite(value):  # JSON's NaN and Infinity tokens
        raise ConfigError(f"{path}: must be finite, got {value}")
    if "enum" in spec and value not in spec["enum"]:
        raise ConfigError(f"{path}: expected one of {spec['enum']}, got {value!r}")
    if "minimum" in spec and value < spec["minimum"]:
        raise ConfigError(f"{path}: must be >= {spec['minimum']}, got {value}")
    if "exclusiveMinimum" in spec and value <= spec["exclusiveMinimum"]:
        raise ConfigError(f"{path}: must be > {spec['exclusiveMinimum']}, got {value}")
    return value


def _read_config(path) -> dict:
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
    return cfg


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _build_detector(entry: dict, path: str, config_dir: Path) -> Detector:
    """The detector of one checked config entry at ``path``."""
    kind = entry["type"]
    name = entry.get("name", kind)
    if "params_file" in entry and entry.keys() - {"type", "name", "params_file"}:
        raise ConfigError(f"{path}: give either params_file or inline constants, not both")
    try:
        if "params_file" in entry:
            file = Path(entry["params_file"])
            if not file.is_absolute():
                file = config_dir / file
            if not file.is_file():
                raise ConfigError(f"{path}.params_file: parameter file not found: {file}")
            return make_detector(kind, load_params(file), name=name,
                                 fingerprint=_file_sha256(file))
        params = None
        if kind in _CONSTANTS:
            given = {keyword: entry[key] for key, keyword in _CONSTANTS[kind].items()
                     if key in entry}
            params = DETECTOR_TYPES[kind].initial(entry.get("T", _TRAIN_DEFAULTS["T"]), **given)
        return make_detector(kind, params, name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} (detector {name!r}): {exc}") from exc


def _check_snr(snr_db: float, dims: SystemDims, path: str):
    """Reject a finite SNR too low to give a float noise variance, naming its key."""
    try:
        snr_to_sigma2(snr_db, dims.n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_detectors(cfg: dict, section: str, config_dir: Path) -> list:
    return [_build_detector(entry, f"{section}.detectors[{i}]", config_dir)
            for i, entry in enumerate(cfg[section]["detectors"])]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: dict, config_dir: Path) -> int:
    train, dims = cfg["train"], SystemDims(**cfg["dims"])
    # every train key but snr_db and the two file names is a TrainingConfig field
    field_values = {key: value for key, value in train.items() if key in _TRAIN_DEFAULTS}
    try:
        tc = TrainingConfig(dims=dims, snr_schedule=train["snr_db"], seed=cfg["seed"],
                            **field_values)
    except ValueError as exc:
        raise ConfigError(f"train.{exc}") from exc
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    params_path = out_dir / train.get("params_out", f"{tc.model}_params.json")
    log_path = out_dir / train["log_out"]
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


def cmd_eval(cfg: dict, config_dir: Path) -> int:
    section, dims = cfg["eval"], SystemDims(**cfg["dims"])
    detectors = _build_detectors(cfg, "eval", config_dir)
    names = [d.name for d in detectors]
    if len(set(names)) != len(names):
        raise ConfigError(f"detector names must be unique, got {names}")
    grid, vectors = section["snr_grid_db"], section["vectors_per_point"]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"eval.snr_grid_db: must be strictly increasing, got {grid}")
    for i, snr_db in enumerate(grid):
        _check_snr(snr_db, dims, f"eval.snr_grid_db[{i}]")
    curves = sweep_ber_paired(detectors, dims, grid, vectors, RngStream(cfg["seed"]),
                              channel_block=section["channel_block"])
    stem = Path(cfg["out_dir"]) / section["report_stem"]
    csv_path, json_path = write_report([curves[n] for n in names], stem)
    for name in names:
        for p in curves[name].points:
            print(f"{name:>14s}  snr={p.snr_db:6.2f} dB  ber={p.ber:.6e}  "
                  f"({p.bit_errors}/{p.bits_tested} bits, ci +/-{p.ci_half_width:.2e})")
    print(f"report: {csv_path} {json_path}")
    return EXIT_OK


def cmd_diagnose(cfg: dict, config_dir: Path) -> int:
    section, dims = cfg["diagnose"], SystemDims(**cfg["dims"])
    detectors = _build_detectors(cfg, "diagnose", config_dir)
    for det in detectors:
        if not det.traceable:
            raise ConfigError(f"detector {det.name!r} does not support tracing")
    noiseless, snr_db = section["noiseless"], section["snr_db"]
    if not noiseless and snr_db is None:
        raise ConfigError("diagnose.snr_db is required when noiseless is false")
    if not noiseless:
        _check_snr(snr_db, dims, "diagnose.snr_db")
    rng = RngStream(cfg["seed"])
    records = [run_diagnostics(det, dims, section["ensemble"], noiseless, rng, snr_db=snr_db)
               for det in detectors]
    stem = Path(cfg["out_dir"]) / section["out_stem"]
    csv_path = write_diagnostics(records, stem)
    for rec in records:
        g = rec.mean_gradient_amplitude
        print(f"{rec.detector:>14s}  G[1]={g[0]:.4e}  G[{rec.depth}]={g[-1]:.4e}  "
              f"flips[{rec.depth}]={rec.mean_bit_flip_ratio[-1]:.4e}")
    print(f"diagnostics: {csv_path}")
    return EXIT_OK


def cmd_validate(cfg: dict, config_dir: Path) -> int:
    section = cfg["validate"]
    a_values, x_values = section["a_values"], section["x_values"]
    identity_tol = section["identity_tolerance"]
    instances = section["expectation_instances"]
    exp_dims = SystemDims(**section["expectation_dims"])
    beta_lo, beta_hi = section["expectation_beta_range"]
    expectation_tol = section["expectation_tolerance"]

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
    rng = RngStream(cfg["seed"], stream_id=7)
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
    return parser


# Each command and the config sections it needs beyond "seed".
_COMMANDS = {
    "train": (cmd_train, ["dims", "train"]),
    "eval": (cmd_eval, ["dims", "eval"]),
    "diagnose": (cmd_diagnose, ["dims", "diagnose"]),
    "validate": (cmd_validate, []),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_schema:
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "validate" and args.config is None:
            raw, config_dir = {"seed": 0}, Path(".")
        else:
            raw, config_dir = _read_config(args.config), Path(args.config).parent
        overrides = {key: value for key, value in (("seed", args.seed), ("out_dir", args.out))
                     if value is not None}
        command, sections = _COMMANDS[args.command]
        cfg = _checked({**raw, **overrides},
                       {**CONFIG_SCHEMA, "required": CONFIG_SCHEMA["required"] + sections}, "")
        try:
            RngStream(cfg["seed"])  # the stream's own check rejects a negative seed
        except ValueError as exc:
            raise ConfigError(f"invalid seed {cfg['seed']!r}: {exc}") from exc
        return command(cfg, config_dir)
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
