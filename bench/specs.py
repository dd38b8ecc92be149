"""Fixed sizes and configurations of the benchmark workloads."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from hsmimo.detectors import HsParams, TpgParams
from hsmimo.system_model import SystemDims
from hsmimo.unfolding import TrainingConfig

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = BENCH_DIR / "fixtures"
REFERENCE_PATH = FIXTURE_DIR / "references.json"

# The paper's overloaded Rayleigh system at the SNR its headline ordering is quoted at.
DIMS = SystemDims(n=50, m=32)
DEPTH = 30
SNR_DB = 20.0

HS_PARAMS = HsParams(T=DEPTH, eta=0.1, lam=1.0, beta=1.0)
# Constant-parameter (untrained) TPG with the LMMSE-like descent matrix.
TPG_PARAMS = TpgParams.initial(DEPTH, gamma=1.0, theta=0.5, variant="lmmse", alpha=1.0)


def fixture_config(model: str) -> TrainingConfig:
    """README acceptance configuration the parameter fixtures were trained with."""
    return TrainingConfig(dims=DIMS, snr_schedule=(SNR_DB,), T=DEPTH,
                          batches_per_generation=200, batch_size=200,
                          learning_rate=2e-4, seed=2024, model=model)


@dataclass(frozen=True)
class Sizes:
    """Work per timed unit, per run and per set-up of every workload.

    A unit is the smallest call the timed loop repeats: one
    ``sweep_ber_paired`` call, one ``run_diagnostics`` pair, or one whole
    ``incremental_train`` schedule.
    """

    eval_vectors: int = 200  # vectors per sweep call; a multiple of block_length
    block_length: int = 100  # channel_block of eval_block
    train_batches_per_generation: int = 20
    train_batch_size: int = 200
    diagnose_ensemble: int = 200
    min_units: int = 2  # the timed loop runs at least this many units
    traced_units: dict = None  # units of the fixed-work traced run, by workload name
    setup_repeats: int = 5


DEFAULT_SIZES = Sizes(traced_units={"train_ths": 1, "eval_iid": 10, "eval_block": 10,
                                    "diagnose_noiseless": 8})

# Tiny sizes for the smoke test: every code path and gate, seconds not minutes.
SMOKE_SIZES = Sizes(eval_vectors=100, block_length=50, train_batches_per_generation=1,
                    train_batch_size=20, diagnose_ensemble=40, min_units=2,
                    traced_units={"train_ths": 1, "eval_iid": 2, "eval_block": 2,
                                  "diagnose_noiseless": 2},
                    setup_repeats=2)
