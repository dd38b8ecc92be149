"""Smoke run of the benchmark at tiny sizes: every workload, untraced and
traced, prints every metric named in BENCHMARK.json and runs its gates.
No timing is asserted.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace, capsys, monkeypatch, tmp_path):
    import specs

    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)], sizes=specs.SMOKE_SIZES)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])

    assert code == (0 if result["correct"] else 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("gate ") for line in lines)
    assert any(line.startswith("machine ") for line in lines)
    assert (tmp_path / f"result-{workload}-seed3-trace{trace}.json").is_file()


def test_missing_library_fails_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "eval_iid", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
