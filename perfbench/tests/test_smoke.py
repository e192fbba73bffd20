"""Smoke check of the benchmark itself: one tiny case, one pass.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import ShiftCase, Workload  # noqa: E402

# The cheapest case of harmonic-oracle, checked against its references.
TINY = Workload(name="harmonic-oracle", potential="harmonic", oracle=True,
                jobs=(ShiftCase("line", 0, None, 0.2),))


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.fixture(autouse=True)
def one_pass_one_cold_start(monkeypatch):
    monkeypatch.setattr(harness, "MIN_PASSES", 1)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def test_end_to_end_metrics_are_the_declared_ones():
    result, lines = harness.measure(TINY, seed=1, seconds=0.0)
    assert result["correct"], lines
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert units(result) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_a_result_off_its_reference_fails_the_gate(monkeypatch):
    refs = checks.load_references(TINY.name)
    case = refs["cases"]["line m=0 h=0.2"]
    case["lambda_confined"] *= 1.0 + 10 * checks.LAMBDA_RTOL
    monkeypatch.setattr(checks, "load_references", lambda name: refs)
    result, lines = harness.measure(TINY, seed=1, seconds=0.0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("lambda_confined" in line for line in lines)


def test_traced_counts_add_up_and_repeat_across_seeds(tmp_path):
    first, lines = harness.measure_traced(TINY, seed=1, seconds=0.0, out_dir=tmp_path)
    second, _ = harness.measure_traced(TINY, seed=2, seconds=0.0, out_dir=tmp_path)
    assert first["correct"] and second["correct"], lines
    assert units(first) == declared("per_layer")
    counts = [name for name, unit in units(first).items() if unit.startswith("count/")]
    assert all(first["metrics"][n] == second["metrics"][n] for n in counts)

    spans = [json.loads(line) for line in
             (tmp_path / "spans-harmonic-oracle-seed1.jsonl").read_text().splitlines()]
    names = {span["id"]: span["name"] for span in spans}
    solvers = [span for span in spans if span["name"] == "shooting.dop853"]
    assert {names[s["parent"]] for s in solvers} <= set(checks.DOP853_PARENTS)
    passes = harness.MIN_TRACED_PASSES
    assert sum(s["counts"]["steps"] for s in solvers) \
        == passes * first["metrics"]["shooting.dop853.steps"]["value"]
    case_wall = sum(s["busy"] for s in spans if s["name"] == "report.case")
    assert sum(s["self"] for s in spans) == pytest.approx(case_wall, rel=1e-9)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "coulomb-boxes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
