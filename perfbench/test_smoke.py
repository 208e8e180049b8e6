"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_call_counts_repeat():
    first, second = (result_of("survey", 1)["metrics"] for _ in range(2))
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_corrupted_tables_count_as_failed_ops():
    env = run.child_env()
    _, workdir, cmds = run.setup("sweep", 3, True, env)

    def corrupt(cmd, workdir):
        if cmd.out == "sweep_t0.csv":  # a non-finite value
            path = workdir / cmd.out
            header, first, *rest = path.read_text().splitlines()
            first = ",".join(["nan", *first.split(",")[1:]])
            path.write_text("\n".join([header, first, *rest]) + "\n")
        elif cmd.out == "sweep_t1.json":  # a row missing
            path = workdir / cmd.out
            payload = json.loads(path.read_text())
            payload["rows"].pop()
            path.write_text(json.dumps(payload))

    results = run.run_passes(cmds, 1, workdir, env, after=corrupt)
    values, extra = run.end_to_end_metrics([1.0], results)
    failed = [r for r in results[0] if not r["ok"]]
    assert [r["argv"] for r in failed] == [
        "robustness --t 0", "robustness --t 0.6324555320336759"
    ]
    assert "not finite" in failed[0]["problems"][0]
    assert "rows, expected" in failed[1]["problems"][0]
    assert extra["ops_failed_frac"] == pytest.approx(2 / len(cmds))
    assert values["ops_ok_frac"] == pytest.approx(1 - 2 / len(cmds))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "survey", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
