"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Runs from the repository root; every run here uses ``--scale tiny``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_named_with_its_unit(workload, trace):
    result = bench(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_declared_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


def test_corrupted_golden_counts_as_failed(monkeypatch, capsys):
    goldens = workloads.load_goldens()
    key = workloads.key(workloads.tasks("kron-table", 1, "tiny")[0])
    goldens[key] = "0" * 64
    monkeypatch.setattr(workloads, "load_goldens", lambda: goldens)
    assert run.main(["--workload", "kron-table", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_gate_counts_mismatches_and_lost_operations():
    gate = workloads.Gate({"a": "1", "b": "2"})
    gate.check("a", "1")
    gate.check("b", "3")
    gate.check("c", "1")  # no golden: a failure, not a pass
    gate.lost(2)
    assert (gate.attempted, gate.failed) == (5, 4)


def _digests(out):
    return [(key, got) for key, _, got in out["passes"][0]["tasks"]]


@pytest.mark.parametrize("workload", ["kron-table", "verify-sweep", "plethysm"])
def test_traced_and_untraced_outputs_are_identical(workload):
    outs = {}
    for mode in ("cold", "traced"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, "1", "tiny", mode],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs[mode] = json.loads(proc.stdout.splitlines()[-1])
    assert _digests(outs["cold"]) == _digests(outs["traced"])
    assert outs["traced"]["edges"], "the traced run recorded no span"


@pytest.mark.parametrize("line", ["kron 2,2,1 3,1,1 3,2", "pleth-hn 3 2", "kron 3 2,1 1"])
def test_traced_and_untraced_cli_queries_are_identical(line):
    results = []
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_entry.py"), *line.split()],
            cwd=ROOT, env=dict(ENV, PERFBENCH_TRACE=trace),
            capture_output=True, timeout=60,
        )
        results.append((proc.returncode, proc.stdout))
    assert results[0] == results[1]


def test_seeded_streams_are_reproducible_and_covered_by_goldens():
    goldens = workloads.load_goldens()
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            for seed in (1, 2):  # the default seed and a hold-out seed
                tasks = workloads.tasks(workload, seed, scale)
                assert tasks == workloads.tasks(workload, seed, scale)
                assert all(workloads.key(t) in goldens for t in tasks)
    assert workloads.tasks("cli-point", 1) != workloads.tasks("cli-point", 2)
    assert len(workloads.tasks("cli-point", 1)) == 100
