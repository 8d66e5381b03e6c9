"""Self-test of the benchmark at tiny sizes: output schema and trace counts, no timings.

    python3 -m pytest bench/test_schema.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, bench: Path = BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=cwd, check=False,
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= e2e["setup_s"]["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_counts_match_the_code():
    k = {n: v["value"] for n, v in _result("k_operator", 1)["metrics"].items()}
    nodes = 8 * 16  # tiny k_operator: 8 panels of order 16
    assert k["quadcore.legendre_eval.calls"] == 3 * nodes
    assert k["quadcore.legendre_transform_matrix.calls"] == nodes
    assert k["finitepart.eval_K.pairs"] == nodes * nodes
    assert k["finitepart.build_weight_table.solves_per_build"] == 16
    assert k["setup.quadcore.solve_vandermonde_transpose.calls"] == 16
    assert k["bypass.quadcore.legendre_eval.calls"] == 0

    s = {n: v["value"] for n, v in _result("s_field", 1)["metrics"].items()}
    assert s["bypass.nearsing.find_root.calls"] == 0
    assert s["bypass.nearsing.regular_panels"] == 8 * 4  # 8 panels, 4 far points a batch
    assert s["nearsing.find_root.calls"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
