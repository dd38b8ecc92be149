"""Make the fixtures the benchmark reads at set-up.

Run once from the repository root:

    python3 bench/make_fixtures.py

1. Trains THS and scalable TPG with ``incremental_train`` at the README
   acceptance configuration ((50, 32), T = 30, 200 mini-batches of 200 per
   generation, lr 2e-4, 20 dB, seed 2024) and writes
   ``bench/fixtures/<model>.json`` via ``save_params``, stamped with the
   training ``config_fingerprint``.
2. Writes ``bench/fixtures/references.json``: the 20 dB BER of every eval
   detector from a large i.i.d. paired sweep (the centre of the eval BER
   gates), and the final-loss bound of the ``train_ths`` gate, 1.5 times
   the worst final-generation mean loss over a few training runs at the
   benchmark's size.

The benchmark never trains or re-measures these itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from hsmimo.evaluation import sweep_ber_paired  # noqa: E402
from hsmimo.system_model import RngStream  # noqa: E402
from hsmimo.unfolding import config_fingerprint, incremental_train, save_params  # noqa: E402

import specs  # noqa: E402
import workloads  # noqa: E402

REFERENCE_VECTORS = 20_000
REFERENCE_SEED = 900_001  # disjoint from the small seeds benchmark runs use
LOSS_BOUND_RUNS = 6


def train_params() -> None:
    specs.FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for model in ("ths", "scalable_tpg"):
        config = specs.fixture_config(model)
        result = incremental_train(config)
        path = specs.FIXTURE_DIR / f"{model}.json"
        save_params(result.params, path, fingerprint=config_fingerprint(config))
        print(f"wrote {path.relative_to(BENCH_DIR.parent)} "
              f"(config_fingerprint {config_fingerprint(config)})")


def write_references() -> None:
    trained = {model: workloads.load_trained(model) for model in ("ths", "scalable_tpg")}
    curves = sweep_ber_paired(workloads.build_eval_detectors(trained), specs.DIMS,
                              [specs.SNR_DB], REFERENCE_VECTORS, RngStream(REFERENCE_SEED))
    ber = {name: c.points[0].ber for name, c in curves.items()}
    state = {"sizes": specs.DEFAULT_SIZES}
    losses = [workloads._train_unit(state, REFERENCE_SEED, k).output[0]
              for k in range(LOSS_BOUND_RUNS)]
    doc = {
        "command": "python3 bench/make_fixtures.py",
        "ber_20db": ber,
        "ber_vectors": REFERENCE_VECTORS,
        "ber_seed": REFERENCE_SEED,
        "train_final_losses": losses,
        "train_final_loss_bound": round(1.5 * max(losses), 4),
    }
    specs.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {specs.REFERENCE_PATH.relative_to(BENCH_DIR.parent)}: {doc}")


if __name__ == "__main__":
    train_params()
    write_references()
