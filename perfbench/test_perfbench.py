"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], tiny=True)
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), captured.err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, lines, result, _ = bench(capsys, workload, trace)
    assert code == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and np.isfinite(entry["value"])
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])


def test_trace_reproduces_baseline_counts(capsys):
    _, _, result, _ = bench(capsys, "sweep", 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # every frozen cell pretrains the same config as its pretrain cell again
    assert values["harness.pretrain.calls"] == 52
    assert values["harness.pretrain_unique_frac"] == 0.5
    # frozen cells compute encoder gradients that no optimizer applies
    assert values["autodiff.grad_useful_frac.worst"] < 1.0
    assert values["losses.infonce_pair.self_s"] > 0.0


def test_same_seed_same_output(capsys):
    digests = []
    for seed in (5, 5, 6):
        _, lines, _, _ = bench(capsys, "pretrain", 0, seed=seed)
        digests.append(lines[0].rsplit(" ", 1)[-1])
    assert digests[0] == digests[1] != digests[2]


def corrupt(monkeypatch, workload):
    """Make one output of `workload` wrong in a way its check must catch."""
    from mmcl import harness, losses

    if workload == "pretrain":  # lambda off the simplex
        values = losses.LambdaWeights.values
        monkeypatch.setattr(losses.LambdaWeights, "values", lambda self: values(self) * 1.1)
    elif workload == "finetune":  # an AUROC outside [0, 1]
        monkeypatch.setattr(harness, "auroc", lambda scores, labels: 1.5)
    elif workload == "attribute":  # attributions that break completeness
        ig = harness.integrated_gradients

        def halved(*args, **kwargs):
            report = ig(*args, **kwargs)
            report.per_feature = report.per_feature * 0.5
            return report

        monkeypatch.setattr(harness, "integrated_gradients", halved)
    else:  # sweep: alignment lost
        monkeypatch.setattr(harness, "top5_alignment_accuracy", lambda corpus: float("nan"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_its_check(capsys, monkeypatch, workload):
    corrupt(monkeypatch, workload)
    code, _, result, err = bench(capsys, workload, 0)
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "check failed" in err


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(BENCH["command"] + ["--workload", "pretrain", "--seed", "0",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
