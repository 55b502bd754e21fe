import json
import os

import numpy as np
import pytest

from mmcl.cli import main
from mmcl.harness import Checkpoint


@pytest.fixture(scope="module")
def cohort_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "cohort.txt")
    rc = main(["generate", "--num-patients", "100", "--seed", "0", "--out", path])
    assert rc == 0
    return path


def test_generate_writes_cohort(cohort_file):
    assert os.path.exists(cohort_file)
    with open(cohort_file) as fh:
        assert fh.readline().startswith("# mmcl-cohort")


def test_pretrain_happy_path(cohort_file, tmp_path, capsys):
    out = str(tmp_path / "ckpt.npz")
    rc = main(["pretrain", "--cohort", cohort_file,
               "--modalities", "text_a,text_b,image",
               "--max-epochs", "2", "--batch-size", "16", "--out", out])
    assert rc == 0
    captured = capsys.readouterr()
    assert "lambdas:" in captured.out
    ckpt = Checkpoint.load(out)
    assert ckpt.lambdas.shape == (3,)


def test_finetune_happy_path(cohort_file, tmp_path):
    out = str(tmp_path / "run")
    rc = main(["finetune", "--cohort", cohort_file,
               "--modalities", "text_a,text_b",
               "--regime", "supervised_baseline",
               "--max-epochs", "2", "--batch-size", "16", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    assert 0.0 <= metrics["auroc"] <= 1.0
    assert os.path.exists(os.path.join(out, "model.npz"))


def test_sweep_and_report(cohort_file, tmp_path):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--cohort", cohort_file,
               "--subsets", "text_a,text_b;text_a,text_b,image",
               "--regimes", "contrastive_pretrain", "--seeds", "0..1",
               "--max-epochs", "1", "--batch-size", "16", "--out", out])
    assert rc == 0
    rows_path = os.path.join(out, "rows.csv")
    assert os.path.exists(rows_path)
    assert os.path.exists(os.path.join(out, "aggregates.csv"))
    assert os.path.exists(os.path.join(out, "config.json"))
    with open(rows_path) as fh:
        assert len(fh.read().splitlines()) == 5  # header + 2 subsets x 2 seeds

    report_out = str(tmp_path / "report")
    assert main(["report", "--rows", rows_path, "--out", report_out]) == 0
    assert os.path.exists(os.path.join(report_out, "aggregates.csv"))


def test_attribute_happy_path(cohort_file, tmp_path):
    run_dir = str(tmp_path / "run")
    rc = main(["finetune", "--cohort", cohort_file,
               "--modalities", "text_a,text_b,image",
               "--regime", "supervised_baseline",
               "--max-epochs", "2", "--batch-size", "16", "--out", run_dir])
    assert rc == 0
    out = str(tmp_path / "attr.json")
    rc = main(["attribute", "--cohort", cohort_file,
               "--modalities", "text_a,text_b,image",
               "--checkpoint", os.path.join(run_dir, "model.npz"),
               "--steps", "8", "--out", out])
    assert rc == 0
    with open(out) as fh:
        report = json.load(fh)
    assert set(report) == {"text_a", "text_b", "image"}
    assert sum(report.values()) == pytest.approx(1.0, abs=1e-9)


def test_config_file_merges_under_flags(cohort_file, tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"max_epochs": 1, "batch_size": 16, "head_hidden": []}, fh)
    out = str(tmp_path / "ckpt.npz")
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--config", cfg_path, "--out", out])
    assert rc == 0
    ckpt = Checkpoint.load(out)
    assert ckpt.config["max_epochs"] == 1


def test_exit_code_2_on_bad_config(cohort_file, tmp_path, capsys):
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a",
               "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_3_on_divergence(tmp_path, capsys):
    # corrupt observations make the contrastive loss non-finite immediately
    from mmcl import cohort as cohort_mod
    cohort = cohort_mod.generate(cohort_mod.default_five_modality_spec(40, seed=0))
    cohort.observations["text_a"][:] = np.nan
    path = str(tmp_path / "bad.txt")
    cohort_mod.save_cohort(cohort, path)
    rc = main(["pretrain", "--cohort", path, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--batch-size", "16",
               "--out", str(tmp_path / "x.npz")])
    assert rc == 3
    assert "divergence" in capsys.readouterr().err


def test_exit_code_4_on_missing_file(tmp_path, capsys):
    rc = main(["pretrain", "--cohort", str(tmp_path / "nope.txt"),
               "--modalities", "text_a,text_b", "--out", str(tmp_path / "x.npz")])
    assert rc == 4
    assert "io error" in capsys.readouterr().err


def test_exit_code_2_on_unknown_modality(cohort_file, tmp_path, capsys):
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,bogus",
               "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "'bogus'" in err and "text_a" in err and "series" in err


def test_exit_code_2_on_cohort_too_small_to_evaluate(tmp_path, capsys):
    # 40 patients leave a 2-patient validation split with a single class
    path = str(tmp_path / "small.txt")
    assert main(["generate", "--num-patients", "40", "--seed", "0", "--out", path]) == 0
    rc = main(["finetune", "--cohort", path, "--modalities", "text_a,text_b",
               "--regime", "supervised_baseline", "--max-epochs", "1",
               "--batch-size", "16", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "DegenerateInputError" in err
