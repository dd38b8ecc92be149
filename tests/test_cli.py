"""End-to-end CLI behavior: config handling, outputs, exit codes, determinism."""

import copy
import csv
import json
import math
import re
from pathlib import Path

import pytest

from hsmimo.cli import (
    CONFIG_SCHEMA,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    _checked,
    main,
)

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos" / "cli_configs"


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def toy_train_config(tmp_path, **train_overrides):
    train = {"model": "ths", "T": 1, "snr_db": 10.0, "batches_per_generation": 3,
             "batch_size": 8, "params_out": "params.json", "log_out": "log.csv"}
    train.update(train_overrides)
    cfg = {"seed": 31, "out_dir": str(tmp_path / "out"),
           "dims": {"n": 3, "m": 2}, "train": train}
    return write_config(tmp_path / "config.json", cfg)


class TestSchema:
    def test_print_schema(self, capsys):
        assert main(["--print-schema"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["title"] == "RunConfig"
        assert "seed" in doc["required"]

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_CONFIG


class TestTrain:
    def test_toy_run_emits_three_parameter_file(self, tmp_path):
        cfg = toy_train_config(tmp_path)
        assert main(["train", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "params.json").read_text())
        assert doc["T"] == 1
        assert len(doc["beta"]) == len(doc["eta"]) == len(doc["zeta"]) == 1
        rows = list(csv.reader((tmp_path / "out" / "log.csv").open()))
        assert rows[0] == ["generation", "batch_index", "loss"]
        assert len(rows) == 1 + 3

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = toy_train_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("params.json", "log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = toy_train_config(tmp_path)
        assert main(["train", "--config", cfg, "--seed", "-3"]) == EXIT_CONFIG
        assert "seed must be non-negative, got -3" in capsys.readouterr().err

    def test_seed_mandatory(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"dims": {"n": 2, "m": 2},
                                                 "train": {"T": 1}})
        assert main(["train", "--config", cfg]) == EXIT_CONFIG

    def test_divergence_exits_3_with_diagnostics(self, tmp_path):
        cfg = toy_train_config(tmp_path, T=2, init_eta=1e200, init_zeta=1e200,
                               batches_per_generation=2)
        assert main(["train", "--config", cfg]) == EXIT_DIVERGED
        diag = json.loads((tmp_path / "out" / "training_divergence.json").read_text())
        assert diag["generation"] == 2
        assert diag["reason"] == "ths detector diverged: non-finite state at iteration 1"
        assert set(diag) == {"generation", "batch_index", "reason", "last_stable_params"}


class TestEval:
    def eval_config(self, tmp_path, detectors, snr_grid=(10.0,)):
        cfg = {"seed": 77, "out_dir": str(tmp_path / "out"),
               "dims": {"n": 3, "m": 2},
               "eval": {"snr_grid_db": list(snr_grid), "vectors_per_point": 40,
                        "detectors": detectors,
                        "report_stem": "ber"}}
        return write_config(tmp_path / "eval.json", cfg)

    def test_single_detector_single_snr_one_row(self, tmp_path):
        cfg = self.eval_config(tmp_path, [{"type": "mmse"}])
        assert main(["eval", "--config", cfg]) == EXIT_OK
        rows = list(csv.reader((tmp_path / "out" / "ber.csv").open()))
        assert len(rows) == 2
        assert rows[1][1] == "mmse"

    def test_multi_detector_paired_curves(self, tmp_path):
        cfg = self.eval_config(tmp_path,
                               [{"type": "mmse"}, {"type": "hs", "T": 5}],
                               snr_grid=(5.0, 10.0))
        assert main(["eval", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "ber.json").read_text())
        assert [c["detector"] for c in doc["curves"]] == ["mmse", "hs"]
        assert all(len(c["points"]) == 2 for c in doc["curves"])

    def test_trained_params_flow_through(self, tmp_path):
        train_cfg = toy_train_config(tmp_path, T=2)
        assert main(["train", "--config", train_cfg]) == EXIT_OK
        cfg = self.eval_config(tmp_path,
                               [{"type": "ths", "params_file": str(tmp_path / "out" / "params.json")}])
        assert main(["eval", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "ber.json").read_text())
        assert doc["curves"][0]["param_fingerprint"] != ""

    def test_missing_params_file_is_config_error(self, tmp_path):
        cfg = self.eval_config(tmp_path, [{"type": "ths", "params_file": "absent.json"}])
        assert main(["eval", "--config", cfg]) == EXIT_CONFIG

    def test_inline_constant_parameters(self, tmp_path):
        cfg = self.eval_config(tmp_path, [
            {"type": "ths", "T": 5, "eta": 0.1, "beta": 1.0, "zeta": 1.1},
            {"type": "scalable_tpg", "T": 5, "gamma": 0.05, "theta": 1.0},
        ])
        assert main(["eval", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "ber.json").read_text())
        assert [c["detector"] for c in doc["curves"]] == ["ths", "scalable_tpg"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.eval_config(tmp_path, [{"type": "mmse"}, {"type": "hs", "T": 5}])
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("ber.csv", "ber.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestDiagnose:
    def diag_config(self, tmp_path, detectors, noiseless=True, snr_db=None):
        cfg = {"seed": 5, "out_dir": str(tmp_path / "out"),
               "dims": {"n": 3, "m": 2},
               "diagnose": {"ensemble": 10, "noiseless": noiseless, "snr_db": snr_db,
                            "detectors": detectors, "out_stem": "diag"}}
        return write_config(tmp_path / "diag.json", cfg)

    def test_rows_per_detector_equals_depth(self, tmp_path):
        cfg = self.diag_config(tmp_path, [{"type": "hs", "T": 7}])
        assert main(["diagnose", "--config", cfg]) == EXIT_OK
        rows = list(csv.reader((tmp_path / "out" / "diag.csv").open()))
        assert len(rows) == 1 + 7
        assert [r[2] for r in rows[1:]] == [str(t) for t in range(1, 8)]

    def test_untraceable_detector_rejected(self, tmp_path):
        cfg = self.diag_config(tmp_path, [{"type": "mmse"}])
        assert main(["diagnose", "--config", cfg]) == EXIT_CONFIG

    def test_noisy_mode_requires_snr(self, tmp_path):
        cfg = self.diag_config(tmp_path, [{"type": "hs", "T": 3}], noiseless=False)
        assert main(["diagnose", "--config", cfg]) == EXIT_CONFIG
        cfg = self.diag_config(tmp_path, [{"type": "hs", "T": 3}], noiseless=False, snr_db=10.0)
        assert main(["diagnose", "--config", cfg]) == EXIT_OK


class TestValidate:
    def test_default_run_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "v.json",
                           {"seed": 3, "out_dir": str(tmp_path / "out"),
                            "validate": {"expectation_instances": 10}})
        assert main(["validate", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all validators passed" in out

    def test_runs_without_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--seed", "1"]) == EXIT_OK

    def test_impossible_tolerance_fails_with_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "v.json",
                           {"seed": 3, "validate": {"expectation_instances": 2,
                                                    "expectation_tolerance": 1e-30}})
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION


def full_config(tmp_path):
    """A config that gives every key the loader accepts, at toy sizes."""
    traceable = [{"type": "ths", "name": "trained", "params_file": "out/p.json"},
                 {"type": "ths", "T": 3, "eta": 0.1, "beta": 1.0, "zeta": 1.1},
                 {"type": "hs", "T": 3, "eta": 0.1, "lambda": 1.0, "beta": 1.0},
                 {"type": "scalable_tpg", "T": 3, "gamma": 0.05, "theta": 1.0},
                 {"type": "tpg", "T": 3, "gamma": 0.3, "theta": 0.5, "alpha": 1.0}]
    return {
        "schema_version": 1, "seed": 4, "out_dir": str(tmp_path / "out"),
        "dims": {"n": 3, "m": 2},
        "train": {"model": "ths", "T": 1, "snr_db": [8.0, 10.0], "batches_per_generation": 2,
                  "batch_size": 4, "learning_rate": 1e-3, "init_eta": 0.01, "init_beta": 1.0,
                  "init_zeta": 1.0, "init_gamma": 0.01, "init_theta": 1.0, "alpha": 1.0,
                  "params_out": "p.json", "log_out": "log.csv"},
        "eval": {"snr_grid_db": [10.0], "vectors_per_point": 8, "channel_block": 2,
                 "report_stem": "ber",
                 "detectors": traceable + [{"type": "mmse"}, {"type": "ml"}]},
        "diagnose": {"ensemble": 4, "noiseless": False, "snr_db": 10.0, "out_stem": "diag",
                     "detectors": copy.deepcopy(traceable)},
        "validate": {"a_values": [1.0], "x_values": [0.5], "identity_tolerance": 1e-8,
                     "expectation_instances": 2, "expectation_dims": {"n": 2, "m": 2},
                     "expectation_beta_range": [0.5, 1.0], "expectation_tolerance": 1e-10},
    }


def key_parts(path):
    """["eval", "detectors", 1, "T"] for "eval.detectors[1].T"."""
    return [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", path)]


def edited(cfg, path, value=None):
    """A copy of cfg with the key at ``path`` set to value, or removed when value is None."""
    cfg = copy.deepcopy(cfg)
    *parents, last = key_parts(path)
    node = cfg
    for part in parents:
        node = node[part]
    if value is None:
        del node[last]
    else:
        node[last] = value
    return cfg


def schema_paths(spec, prefix=""):
    """Key paths of a printed schema, with "[]" standing for any array index."""
    paths = set().union(*(schema_paths(branch, prefix) for branch in spec.get("oneOf", [])))
    for key, sub in spec.get("properties", {}).items():
        paths |= {prefix + key} | schema_paths(sub, f"{prefix}{key}.")
        paths |= schema_paths(sub.get("items", {}), f"{prefix}{key}[].")
    return paths


def config_paths(value, prefix=""):
    """Key paths of a config, in the notation of schema_paths."""
    if isinstance(value, list):
        return set().union(*(config_paths(item, prefix[:-1] + "[].") for item in value))
    if not isinstance(value, dict):
        return set()
    return set().union(*({prefix + key} | config_paths(sub, f"{prefix}{key}.")
                         for key, sub in value.items()))


class TestStrictConfig:
    def test_every_accepted_key_is_in_the_schema_and_back(self, tmp_path, capsys):
        cfg = full_config(tmp_path)
        path = write_config(tmp_path / "full.json", cfg)
        for command in ("train", "eval", "diagnose", "validate"):
            assert main([command, "--config", path]) == EXIT_OK, command
        capsys.readouterr()
        assert main(["--print-schema"]) == EXIT_OK
        assert schema_paths(json.loads(capsys.readouterr().out)) == config_paths(cfg)

    @pytest.mark.parametrize("path", [
        "threads", "dims.k", "train.init_eta_", "eval.vectors_per_pont",
        "eval.detectors[2].lamda", "diagnose.esemble", "diagnose.detectors[4].zeta_",
        "validate.a_value", "validate.expectation_dims.l", "eval.paired"])
    def test_unknown_key_is_rejected_with_its_path(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path / "c.json", edited(full_config(tmp_path), path, 1))
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert f"config error: {path}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path, value, named", [
        ("eval", "eval.vectors_per_point", 0, "eval.vectors_per_point"),
        ("eval", "eval.channel_block", 0, "eval.channel_block"),
        ("train", "train.T", 0, "train.T"),
        ("diagnose", "diagnose.ensemble", 0, "diagnose.ensemble"),
        ("validate", "validate.expectation_dims.m", None, "validate.expectation_dims.m"),
        ("validate", "validate.expectation_beta_range", [0.1, 1.0, 5.0],
         "validate.expectation_beta_range"),
        ("eval", "eval.snr_grid_db", [10.0, 5.0], "eval.snr_grid_db"),
        ("eval", "eval.report_stem", {"name": "ber"}, "eval.report_stem"),
        ("eval", "eval.detectors[2].zeta", 1.0, "eval.detectors[2].zeta"),
        ("eval", "eval.detectors[0].T", 3, "eval.detectors[0]"),
        ("eval", "eval.detectors[2].lambda", 0.0, "eval.detectors[2]"),
        ("train", "train.init_beta", 0.0, "train.init_beta"),
        ("train", "train.init_theta", 0.0, "train.init_theta"),
        ("train", "train.alpha", math.inf, "train.alpha"),
        ("diagnose", "diagnose.detectors", [], "diagnose.detectors"),
        ("eval", "eval.snr_grid_db", [math.nan], "eval.snr_grid_db[0]: must be finite"),
        ("diagnose", "diagnose.snr_db", math.nan, "diagnose.snr_db: must be finite"),
        ("train", "train.learning_rate", math.inf, "train.learning_rate: must be finite"),
        ("eval", "eval.detectors[1].eta", math.nan, "eval.detectors[1].eta: must be finite"),
        ("train", "train.T", math.inf, "train.T: expected integer"),
        ("eval", "eval.snr_grid_db", [-4000.0, 10.0],
         "eval.snr_grid_db[0]: snr_db must give a finite noise variance"),
        ("diagnose", "diagnose.snr_db", -4000.0,
         "diagnose.snr_db: snr_db must give a finite noise variance"),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, command, path, value,
                                              named):
        valid = write_config(tmp_path / "valid.json", full_config(tmp_path))
        assert main(["train", "--config", valid]) == EXIT_OK  # the trained detector's file
        cfg = write_config(tmp_path / "c.json", edited(full_config(tmp_path), path, value))
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert f"config error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("demo", sorted(DEMO_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_demo_configs_load(self, demo):
        _checked(json.loads(demo.read_text()), CONFIG_SCHEMA, "")  # raises ConfigError if not
