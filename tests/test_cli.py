import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmcl import cli, harness
from mmcl.autodiff import Tensor
from mmcl.cli import main
from mmcl.cohort import load_cohort, save_cohort, write_archive
from mmcl.errors import MAX_IG_STEPS, MAX_PATIENTS, MAX_SEEDS, MAX_WIDTH
from mmcl.harness import Checkpoint, RunConfig


@pytest.fixture(scope="module")
def cohort_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "cohort.txt")
    rc = main(["generate", "--num-patients", "100", "--seed", "0", "--out", path])
    assert rc == 0
    return path


def test_generate_writes_cohort(tmp_path):
    path = str(tmp_path / "cohort")
    assert main(["generate", "--num-patients", "20", "--seed", "0", "--out", path]) == 0
    assert os.listdir(tmp_path) == ["cohort"]  # exactly `--out`, no `.npz` appended
    assert zipfile.is_zipfile(path)
    assert load_cohort(path).num_patients == 20


def test_pretrain_checkpoint_is_written_where_it_says(cohort_file, tmp_path, capsys):
    ckpt_path = str(tmp_path / "ckpt")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    assert f"checkpoint at {ckpt_path}" in capsys.readouterr().out
    assert os.listdir(tmp_path) == ["ckpt"]
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
               "--regime", "frozen_finetune", "--checkpoint", ckpt_path, "--max-epochs", "1",
               "--batch-size", "16", "--out", str(tmp_path / "run")])
    assert rc == 0


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


def test_finetune_metrics_name_the_run_seed_and_task(cohort_file, tmp_path):
    out = tmp_path / "run"
    assert main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b",
                 "--regime", "supervised_baseline", "--task", "multilabel", "--seed", "3",
                 "--max-epochs", "1", "--batch-size", "16", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert (metrics["seed"], metrics["task"]) == (3, "multilabel")


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
               "--checkpoint", os.path.join(run_dir, "model.npz"),
               "--steps", "8", "--out", out])
    assert rc == 0
    with open(out) as fh:
        report = json.load(fh)
    assert set(report) == {"text_a", "text_b", "image"}
    assert sum(report.values()) == pytest.approx(1.0, abs=1e-9)


def test_attribute_restores_the_model_from_its_checkpoint(cohort_file, tmp_path, capsys):
    # a multilabel model of width 4: `attribute` takes the task, the widths and
    # the subset from the checkpoint, so none of them is repeated
    run_dir = str(tmp_path / "run")
    assert main(["finetune", "--cohort", cohort_file, "--modalities", "image,text_b",
                 "--regime", "supervised_baseline", "--task", "multilabel",
                 "--embedding-dim", "4", "--max-epochs", "1", "--batch-size", "16",
                 "--out", run_dir]) == 0
    out = str(tmp_path / "attr.json")
    rc = main(["attribute", "--cohort", cohort_file,
               "--checkpoint", os.path.join(run_dir, "model.npz"), "--steps", "4", "--out", out])
    assert rc == 0, capsys.readouterr().err
    with open(out) as fh:
        report = json.load(fh)
    assert list(report) == ["image", "text_b"]
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
    assert ckpt.config.max_epochs == 1


def test_exit_code_2_on_bad_config(cohort_file, tmp_path, capsys):
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a",
               "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_3_on_divergence(cohort_file, tmp_path, capsys, monkeypatch):
    # a contrastive loss that is non-finite from the first batch; a cohort
    # with a non-finite observation no longer loads (exit 4, tested below)
    monkeypatch.setattr(harness, "infonce_pair_loss",
                        lambda *args: (Tensor(np.nan), np.full(2, np.nan)))
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
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


@pytest.fixture(scope="module")
def cohort_of_8(tmp_path_factory):
    # its splits: 5 pool, 3 train, 0 validation and 0 test patients
    path = str(tmp_path_factory.mktemp("data8") / "c.npz")
    assert main(["generate", "--num-patients", "8", "--seed", "0", "--out", path]) == 0
    return path


def test_exit_code_2_on_finetune_of_a_cohort_too_small_to_split(cohort_of_8, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["finetune", "--cohort", cohort_of_8, "--modalities", "text_a,text_b",
               "--regime", "supervised_baseline", "--task", "multilabel", "--max-epochs", "1",
               "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "DegenerateInputError" in err and "0 validation, 0 test" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_exit_code_2_on_attribute_of_a_cohort_too_small_to_split(cohort_of_8,
                                                                 supervised_checkpoint,
                                                                 tmp_path, capsys):
    out = str(tmp_path / "attr.json")
    rc = main(["attribute", "--cohort", cohort_of_8, "--checkpoint", supervised_checkpoint,
               "--steps", "8", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "DegenerateInputError" in err and "too small to split" in err
    assert not os.path.exists(out)


def _write_text_checkpoint(path):
    with open(path, "w") as fh:
        fh.write("not a checkpoint\n")


def _write_empty_checkpoint(path):
    open(path, "wb").close()


def _write_truncated_checkpoint(path):
    Checkpoint(RunConfig(["a", "b"], "contrastive_pretrain"), {"w": np.arange(64.0)}, None,
               1.0).save(path)
    with open(path, "rb") as fh:
        head = fh.read()[:100]
    with open(path, "wb") as fh:
        fh.write(head)


def _write_metaless_checkpoint(path):
    with open(path, "wb") as fh:
        np.savez(fh, **{"param:w": np.zeros(3)})


@pytest.mark.parametrize("write", [_write_text_checkpoint, _write_empty_checkpoint,
                                   _write_truncated_checkpoint, _write_metaless_checkpoint],
                         ids=["text", "empty", "truncated", "no_meta"])
def test_exit_code_4_on_corrupt_checkpoint(cohort_file, tmp_path, capsys, write):
    path = str(tmp_path / "bad.npz")
    write(path)
    rc = main(["attribute", "--cohort", cohort_file, "--checkpoint", path,
               "--steps", "2", "--out", str(tmp_path / "attr.json")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error" in err and path in err


def _members(raw):
    with np.load(io.BytesIO(raw)) as data:
        return {name: data[name] for name in data.files}


def _resealed(edit):
    def corrupt(raw, path):
        members = _members(raw)
        edit(members)
        write_archive(path, members)
    return corrupt


def _written(text):
    def corrupt(raw, path):
        with open(path, "w") as fh:
            fh.write(text)
    return corrupt


def _nan_in_text_a(members):
    members["modality:text_a"][3, 1] = np.nan


def _tampered_row(raw, path):
    # one byte of the series, which its member's CRC-32 covers
    at = raw.index(_members(raw)["modality:series"].tobytes())
    with open(path, "wb") as fh:
        fh.write(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])


def _as_v3(members):
    # the format tag and the `latents` member of a v3 file
    members.update({"format": np.array("mmcl-cohort v3"),
                    "latents": np.zeros((members["binary_labels"].size, 8))})


@pytest.mark.parametrize("corrupt", [
    _resealed(lambda members: members.pop("modality:series")),
    _resealed(lambda members: members.update({"modality:text_a": np.array([["nan?"]])})),
    _tampered_row, _written("not a cohort\n"),
    _written("# mmcl-cohort v2\n# sha256=" + "0" * 64 + "\n# spec={}\n"),
    _resealed(_nan_in_text_a), _resealed(_as_v3)],
    ids=["no_series", "non_numeric_cell", "tampered_row", "foreign", "v2_text",
         "nan_observation", "v3_archive"])
def test_exit_code_4_on_malformed_cohort(cohort_file, tmp_path, capsys, corrupt):
    path = str(tmp_path / "bad.txt")
    with open(cohort_file, "rb") as fh:
        corrupt(fh.read(), path)
    rc = main(["pretrain", "--cohort", path, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err
    assert "Traceback" not in err and "pickle" not in err


def _spec_edit(field, change, modality=None):
    """An archive edit that sets `field` of the spec (or of one modality's
    spec) to `change` of its saved value."""
    def edit(members):
        spec = json.loads(str(members["spec"]))
        owner = spec if modality is None else next(
            m for m in spec["modalities"] if m["name"] == modality)
        owner[field] = change(owner[field])
        members["spec"] = np.array(json.dumps(spec))
    return edit


def _spec_field(field, change, modality=None):
    """A resealed cohort whose spec (or one modality's spec) has `field` set
    to `change` of its saved value."""
    return _resealed(_spec_edit(field, change, modality))


@pytest.mark.parametrize("corrupt,field", [
    (_spec_field("obs_dim", float, "text_a"), "obs_dim"),
    (_spec_field("seq_len", float, "series"), "seq_len"),
    (_spec_field("num_patients", float), "num_patients"),
    (_spec_field("latent_dim", float), "latent_dim"),
    (_spec_field("num_multilabels", float), "num_multilabels"),
    (_spec_field("seed", float), "seed"),
    (_spec_field("seed", bool), "seed")],
    ids=["float_obs_dim", "float_seq_len", "float_num_patients", "float_latent_dim",
         "float_num_multilabels", "float_seed", "bool_seed"])
def test_exit_code_4_on_cohort_spec_with_a_non_integer_size(cohort_file, tmp_path, capsys,
                                                           corrupt, field):
    # a float equal to the saved integer used to pass the shape checks and
    # crash later, in the first array that took it as a size
    path = str(tmp_path / "bad.npz")
    with open(cohort_file, "rb") as fh:
        corrupt(fh.read(), path)
    rc = main(["pretrain", "--cohort", path, "--modalities", "text_a,series",
               "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err and field in err
    assert "Traceback" not in err


def test_exit_code_4_on_cohort_spec_with_a_bool_signal_fraction(cohort_file, tmp_path, capsys):
    # JSON `true` is a bool, not the signal fraction 1
    path = str(tmp_path / "bad.npz")
    with open(cohort_file, "rb") as fh:
        _spec_field("signal_fraction", lambda _: True, "text_a")(fh.read(), path)
    rc = main(["pretrain", "--cohort", path, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err and "signal_fraction" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("corrupt", [
    _spec_field("group_separability", lambda _: {"gender": [0.0]}),
    _spec_field("group_axes", lambda axes: {**axes, "gender": 0})],
    ids=["one_offset_for_two_genders", "zero_genders"])
def test_exit_code_4_on_cohort_spec_with_bad_group_settings(cohort_file, tmp_path, capsys,
                                                           corrupt):
    # such a spec used to load, and crash the next `generate` of it
    path = str(tmp_path / "bad.npz")
    with open(cohort_file, "rb") as fh:
        corrupt(fh.read(), path)
    rc = main(["pretrain", "--cohort", path, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err and "'gender'" in err
    assert "Traceback" not in err


def _zero_width(field, member, modality=None):
    """A resealed cohort whose spec sets `field` to 0 and whose `member`
    holds the N x 0 array that such a spec describes."""
    spec_edit = _spec_edit(field, lambda _: 0, modality)

    def edit(members):
        spec_edit(members)
        members[member] = members[member][:, :0]
    return _resealed(edit)


@pytest.mark.parametrize("corrupt,field,argv", [
    (_zero_width("obs_dim", "modality:text_a", "text_a"), "obs_dim", ["pretrain"]),
    (_zero_width("num_multilabels", "multilabels"), "num_multilabels",
     ["finetune", "--regime", "supervised_baseline", "--task", "multilabel"])],
    ids=["zero_obs_dim", "zero_num_multilabels"])
def test_exit_code_4_on_cohort_spec_with_a_zero_width(cohort_file, tmp_path, capsys,
                                                      corrupt, field, argv):
    # a zero width used to load, then fail with OverflowError in the weight
    # initialisation or ZeroDivisionError in the multilabel loss
    path = str(tmp_path / "bad.npz")
    with open(cohort_file, "rb") as fh:
        corrupt(fh.read(), path)
    rc = main([*argv, "--cohort", path, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--out", str(tmp_path / "x")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err and field in err
    assert "Traceback" not in err


def test_exit_code_4_on_frozen_finetune_of_a_float_patient_count(cohort_file, tmp_path, capsys):
    ckpt = str(tmp_path / "pre.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
                 "--max-epochs", "1", "--out", ckpt]) == 0
    path = str(tmp_path / "bad.npz")
    with open(cohort_file, "rb") as fh:
        _spec_field("num_patients", float)(fh.read(), path)
    rc = main(["finetune", "--cohort", path, "--modalities", "text_a,text_b",
               "--regime", "frozen_finetune", "--checkpoint", ckpt, "--max-epochs", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and "num_patients" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("body", ['{"max_epochs": 1, "no_such_field": 3}',
                                  '{"max_epochs": 1,',
                                  '{"optimizer": "rmsprop"}',
                                  '[1, 2]',
                                  '{"batch_size": "16"}',
                                  '{"lambda_entropy_coef": -5.0}',
                                  '{"lambda_entropy_coef": NaN}',
                                  '{"lambda_entropy_coef": Infinity}',
                                  '{"lambda_entropy_coef": 0.5}',
                                  '{"output_dir": "out"}',
                                  '{"checkpoint_path": "ckpt.npz"}'],
                         ids=["unknown_field", "bad_json", "unknown_optimizer", "not_an_object",
                              "wrong_type", "negative_entropy_coef", "nan_entropy_coef",
                              "infinite_entropy_coef", "retired_entropy_coef", "output_dir",
                              "retired_checkpoint_path"])
def test_exit_code_2_on_bad_config_file(cohort_file, tmp_path, capsys, body):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write(body)
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--config", cfg_path, "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    assert "configuration error: ConfigurationError" in capsys.readouterr().err


@pytest.mark.parametrize("body,reason", [(b'\xff\xfe{"seed": 1}', "not valid UTF-8 JSON"),
                                         (b"[" * 100_000 + b"]" * 100_000, "nested too deep")],
                         ids=["not_utf8", "nested_too_deep"])
def test_exit_code_2_on_unreadable_config_file(cohort_file, tmp_path, capsys, body, reason):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(body)
    out = tmp_path / "x.npz"
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--config", str(cfg_path), "--max-epochs", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and str(cfg_path) in err
    assert reason in err and "Traceback" not in err
    assert not out.exists()


def test_exit_code_2_on_pretrain_without_a_batch_of_two(cohort_file, tmp_path, capsys):
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--batch-size", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    assert "DegenerateInputError" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.npz")


def test_exit_code_4_on_checkpoint_with_an_ill_typed_subset(cohort_file, tmp_path, capsys):
    ckpt_path = str(tmp_path / "ckpt.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    with np.load(ckpt_path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"]["modality_subset"] = 5
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(ckpt_path, **arrays)
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
               "--regime", "mlstm", "--lambda-source", "learned", "--checkpoint", ckpt_path,
               "--max-epochs", "1", "--out", str(tmp_path / "run")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and ckpt_path in err


@pytest.mark.parametrize("key, value", [("lambdas", [[0.5], [0.3], [0.2]]), ("tau", "x")],
                         ids=["lambdas_nested", "tau_a_string"])
def test_exit_code_4_on_checkpoint_with_ill_typed_metadata(cohort_file, tmp_path, capsys, key,
                                                           value):
    ckpt_path = str(tmp_path / "ckpt.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    with np.load(ckpt_path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta[key] = value
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(ckpt_path, **arrays)
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
               "--regime", "mlstm", "--lambda-source", "learned", "--checkpoint", ckpt_path,
               "--max-epochs", "1", "--out", str(tmp_path / "run")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and ckpt_path in err


@pytest.mark.parametrize("regime", ["frozen_finetune", "mlstm"])
def test_finetune_reads_a_checkpoint_with_the_retired_entropy_coefficient(cohort_file, tmp_path,
                                                                          regime):
    # checkpoints written while RunConfig had `lambda_entropy_coef` store it
    ckpt_path = str(tmp_path / "ckpt.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    with np.load(ckpt_path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"]["lambda_entropy_coef"] = 0.0
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(ckpt_path, **arrays)
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
               "--regime", regime, "--checkpoint", ckpt_path, "--max-epochs", "1",
               "--batch-size", "16", "--out", str(tmp_path / "run")])
    assert rc == 0


def test_exit_code_2_on_per_gate_lstm_checkpoint(cohort_file, tmp_path, capsys):
    # a checkpoint that stores the series LSTM one gate at a time
    ckpt_path = str(tmp_path / "ckpt.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,series",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    ckpt = Checkpoint.load(ckpt_path)
    for kind in ("wx", "wh", "b"):
        blocks = np.split(ckpt.params.pop(f"series.{kind}"), 4, axis=-1)
        for gate, block in zip("ifgo", blocks):
            ckpt.params[f"series.{kind}_{gate}"] = block
    ckpt.save(ckpt_path)
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,series",
               "--regime", "frozen_finetune", "--checkpoint", ckpt_path,
               "--max-epochs", "1", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "checkpoint missing parameter 'series.wx'" in capsys.readouterr().err


def test_exit_code_2_on_mlstm_checkpoint_of_another_subset(cohort_file, tmp_path, capsys):
    ckpt_path = str(tmp_path / "ckpt.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b,image",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    out = str(tmp_path / "run")
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "demo,series,image",
               "--regime", "mlstm", "--checkpoint", ckpt_path, "--max-epochs", "1",
               "--batch-size", "16", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and "modality subset" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_exit_code_2_on_learned_mlstm_of_a_checkpoint_without_lambdas(cohort_file, tmp_path,
                                                                       capsys):
    # a 2-modality pretrain stores uniform lambdas; older ones stored null
    ckpt_path = str(tmp_path / "ckpt.npz")
    assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
                 "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    assert "lambdas: [0.5 0.5]" in capsys.readouterr().out
    dataclasses.replace(Checkpoint.load(ckpt_path), lambdas=None).save(ckpt_path)
    out = str(tmp_path / "run")
    rc = main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--regime", "mlstm", "--checkpoint", ckpt_path, "--max-epochs", "1",
               "--batch-size", "16", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "requires a contrastive checkpoint with lambdas" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("args", [["pretrain", "--max-epochs", "0"],
                                  ["finetune", "--max-epochs", "0"],
                                  ["finetune", "--patience", "-1"],
                                  ["pretrain", "--embedding-dim", "0"]],
                         ids=["pretrain_no_epochs", "finetune_no_epochs", "negative_patience",
                              "no_embedding_dim"])
def test_exit_code_2_on_out_of_range_flag(cohort_file, tmp_path, capsys, args):
    verb, flag, value = args
    extra = ["--regime", "supervised_baseline"] if verb == "finetune" else []
    out = str(tmp_path / "out")
    rc = main([verb, "--cohort", cohort_file, "--modalities", "text_a,text_b", *extra,
               "--batch-size", "16", flag, value, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err
    assert flag[2:].replace("-", "_") in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("field,value", [("max_epochs", "2"), ("seed", 1.5), ("patience", True),
                                         ("learning_rate", "fast"), ("encoder_hidden", [16, "8"]),
                                         ("head_hidden", 16), ("pool_fraction", None),
                                         ("lambda_source", 1)])
def test_exit_code_2_on_wrong_typed_config_field(cohort_file, tmp_path, capsys, field, value):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"max_epochs": 1, "batch_size": 16, field: value}, fh)
    out = str(tmp_path / "x.npz")
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--config", cfg_path, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and field in err
    assert not os.path.exists(out)


def test_exit_code_4_on_rows_csv_without_sweep_columns(tmp_path, capsys):
    # the header alone decides: with no data row, a foreign header or an
    # empty file is not an empty sweep
    for name, text in (("row", "a,b\n1,2\n"), ("header_only", "a,b\n"), ("empty", "")):
        path = str(tmp_path / f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(text)
        out = str(tmp_path / f"report_{name}")
        rc = main(["report", "--rows", path, "--out", out])
        assert rc == 4, name
        err = capsys.readouterr().err
        assert "io error: CorruptFileError" in err and path in err
        assert not os.path.exists(out)


@pytest.mark.parametrize("cells", ["text_a+text_b,contrastive_pretrain,binary,0,,,0.5,1.25,0.01",
                                   "text_a+text_b,contrastive_pretrain,binary,0,,,0.5,1.25,0.01,ok,x"],
                         ids=["truncated", "extra_cell"])
def test_exit_code_4_on_rows_csv_with_a_missing_or_extra_cell(tmp_path, capsys, cells):
    path = str(tmp_path / "rows.csv")
    with open(path, "w") as fh:
        fh.write("subset,regime,task,seed,auroc,auprc,alignment_top5,final_loss,wall_time_s,"
                 f"status\n{cells}\n")
    out = str(tmp_path / "report")
    rc = main(["report", "--rows", path, "--out", out])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err and "missing or extra cell" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subsets,regimes,seeds,axis", [
    ("text_a,text_b;text_a,text_b", "contrastive_pretrain", "0", "subsets"),
    ("text_a,text_b", "contrastive_pretrain,contrastive_pretrain", "0", "regimes"),
    ("text_a,text_b", "contrastive_pretrain", "0,0", "seeds")],
    ids=["subsets", "regimes", "seeds"])
def test_exit_code_2_on_repeated_sweep_axis(cohort_file, tmp_path, capsys, subsets, regimes,
                                            seeds, axis):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--cohort", cohort_file, "--subsets", subsets, "--regimes", regimes,
               "--seeds", seeds, "--max-epochs", "1", "--batch-size", "16", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and f"sweep {axis} repeat" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("args,field", [(["--num-patients", "0"], "num_patients"),
                                        (["--signal-fractions", "0.9,0.8"], "signal_fractions"),
                                        (["--noise-sigmas", "0.1"], "noise_sigmas")],
                         ids=["no_patients", "two_signal_fractions", "one_noise_sigma"])
def test_exit_code_2_on_bad_generate_sizes(tmp_path, capsys, args, field):
    out = str(tmp_path / "cohort.txt")
    rc = main(["generate", "--num-patients", "50", *args, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ContractError" in err and field in err
    if field != "num_patients":
        assert "text_a, text_b, image, demo, series" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
def test_exit_code_2_on_noise_sigma_not_a_finite_number_at_least_0(tmp_path, capsys, sigma):
    # a non-finite sigma used to write a cohort that no later run could train on;
    # a negative one is not a standard deviation
    out = str(tmp_path / "cohort.npz")
    rc = main(["generate", "--num-patients", "50", f"--noise-sigmas={sigma},0.1,0.1,0.1,0.1",
               "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ContractError" in err and "noise_sigma" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_exit_code_2_on_generate_drawing_a_non_finite_observation(tmp_path, capsys):
    # a finite sigma this large overflows on draws beyond about 1.8 standard
    # deviations; the cohort used to be written with inf in text_a
    out = str(tmp_path / "cohort.npz")
    rc = main(["generate", "--num-patients", "60", "--noise-sigmas", "1e308,0.1,0.1,0.1,0.1",
               "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ContractError" in err and "modality 'text_a'" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag,text", [("--signal-fractions", "a,b,c,d,e"),
                                       ("--noise-sigmas", "0.1,0.1,x,0.1,0.1")],
                         ids=["signal_fractions", "noise_sigmas"])
def test_exit_code_2_on_non_numeric_generate_list(tmp_path, capsys, flag, text):
    out = str(tmp_path / "cohort.txt")
    rc = main(["generate", "--num-patients", "10", flag, text, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err
    assert flag in err and repr(text) in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", ["1..x", ",", "0..1..2"], ids=["range_word", "empty", "two_ranges"])
def test_exit_code_2_on_bad_sweep_seeds(cohort_file, tmp_path, capsys, text):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--cohort", cohort_file, "--seeds", text, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err
    assert "--seeds" in err and repr(text) in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subsets,regimes,message", [
    ("text_a,text_b", "contrastive_pretrain,bogus", "unknown regime 'bogus'"),
    ("text_a,text_b", "bogus,contrastive_pretrain", "unknown regime 'bogus'"),
    ("text_a,text_b;text_a", "contrastive_pretrain", "need at least 2 modalities"),
    ("text_a,text_b;text_a,text_a", "contrastive_pretrain", "duplicate modalities"),
    ("text_a,nosuch;text_a,text_a", "contrastive_pretrain", "unknown modality 'nosuch'")],
    ids=["bad_regime_last", "bad_regime_first", "one_modality", "repeated_modality",
         "unknown_modality"])
def test_exit_code_2_on_bad_sweep_axis(cohort_file, tmp_path, capsys, monkeypatch, subsets,
                                       regimes, message):
    pretrains = []
    monkeypatch.setattr(harness, "pretrain", lambda *args: pretrains.append(args))
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--cohort", cohort_file, "--subsets", subsets, "--regimes", regimes,
               "--max-epochs", "1", "--batch-size", "16", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and message in err
    assert "Traceback" not in err
    assert pretrains == []
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def supervised_checkpoint(cohort_file, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("supervised"))
    assert main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b",
                 "--regime", "supervised_baseline", "--max-epochs", "1", "--batch-size", "16",
                 "--out", run_dir]) == 0
    return os.path.join(run_dir, "model.npz")


@pytest.mark.parametrize("verb, model, flags, message", [
    ("attribute", "mlstm", [], "regime 'mlstm'"),
    ("finetune", "supervised_baseline", ["--regime", "frozen_finetune"],
     "regime 'supervised_baseline'"),
    ("finetune", "contrastive_pretrain", ["--regime", "frozen_finetune", "--seed", "3"],
     "seed 0 does not match the run's seed 3")],
    ids=["attribute_mlstm", "frozen_finetune_supervised", "frozen_finetune_other_seed"])
def test_exit_code_2_on_a_checkpoint_of_the_wrong_kind(cohort_file, supervised_checkpoint,
                                                       tmp_path, capsys, verb, model, flags,
                                                       message):
    # the mLSTM's hidden width 16 equals the 8 x 2 concatenated embeddings
    ckpt_path = supervised_checkpoint
    if model == "mlstm":
        run_dir = str(tmp_path / "mlstm")
        assert main(["finetune", "--cohort", cohort_file, "--modalities", "text_a,text_b",
                     *LITERAL_MLSTM, "--max-epochs", "1", "--batch-size", "16",
                     "--out", run_dir]) == 0
        ckpt_path = os.path.join(run_dir, "model.npz")
    elif model == "contrastive_pretrain":  # at seed 0
        ckpt_path = str(tmp_path / "ckpt.npz")
        assert main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
                     "--max-epochs", "1", "--batch-size", "16", "--out", ckpt_path]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out")
    modalities = ["--modalities", "text_a,text_b"] if verb == "finetune" else []
    rc = main([verb, "--cohort", cohort_file, *modalities, "--checkpoint", ckpt_path, *flags,
               "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and message in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


# sizes over their documented limits: each is rejected where it enters the
# program, so no case allocates anything of its size
HUGE = str(2**62)
LITERAL_MLSTM = ["--regime", "mlstm", "--lambda-source", "literal:[0.5,0.5]"]


@pytest.mark.parametrize("argv,config,field,error", [
    pytest.param(["pretrain"], {"embedding_dim": 2**62}, "embedding_dim", "ConfigurationError",
                 id="embedding_dim"),
    pytest.param(["pretrain"], {"embedding_dim": MAX_WIDTH + 1}, "embedding_dim",
                 "ConfigurationError", id="embedding_dim_over_by_one"),
    pytest.param(["pretrain"], {"encoder_hidden": [16, MAX_WIDTH + 1]}, "encoder_hidden",
                 "ConfigurationError", id="encoder_hidden"),
    pytest.param(["finetune", *LITERAL_MLSTM], {"mlstm_hidden": 2**62}, "mlstm_hidden",
                 "ConfigurationError", id="mlstm_hidden"),
    pytest.param(["generate", "--num-patients", HUGE], None, "num_patients", "ContractError",
                 id="num_patients"),
    pytest.param(["generate", "--num-patients", str(MAX_PATIENTS + 1)], None, "num_patients",
                 "ContractError", id="num_patients_over_by_one"),
    pytest.param(["generate", "--num-patients", "10", "--latent-dim", HUGE], None, "latent_dim",
                 "ContractError", id="latent_dim"),
    pytest.param(["attribute", "--steps", HUGE], None, "steps", "ContractError", id="steps"),
    pytest.param(["attribute", "--steps", str(MAX_IG_STEPS + 1)], None, "steps",
                 "ContractError", id="steps_over_by_one"),
    pytest.param(["sweep", "--seeds", f"0..{HUGE}"], None, "--seeds", "ConfigurationError",
                 id="seeds"),
    pytest.param(["sweep", "--seeds", f"0..{MAX_SEEDS}"], None, "--seeds", "ConfigurationError",
                 id="seeds_over_by_one")])
def test_exit_code_2_on_over_limit_size(cohort_file, supervised_checkpoint, tmp_path, capsys,
                                        argv, config, field, error):
    verb = argv[0]
    out = str(tmp_path / "out")
    if verb != "generate":
        argv = [*argv, "--cohort", cohort_file]
    if verb not in ("generate", "sweep", "attribute"):
        argv += ["--modalities", "text_a,text_b"]
    if verb == "attribute":
        argv += ["--checkpoint", supervised_checkpoint]
    if config is not None:
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        argv += ["--config", cfg_path]
    rc = main([*argv, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: {error}" in err and field in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb,args,error", [
    ("generate", ["--num-patients", "50", "--seed", "-1"], "ContractError"),
    ("pretrain", ["--modalities", "text_a,text_b", "--seed", "-1"], "ConfigurationError"),
    ("sweep", ["--seeds=-1..0"], "ConfigurationError"),
    ("sweep", ["--seeds=0,-2"], "ConfigurationError")],
    ids=["generate", "pretrain", "sweep_range", "sweep_list"])
def test_exit_code_2_on_negative_seed(cohort_file, tmp_path, capsys, verb, args, error):
    out = str(tmp_path / "out")
    cohort = [] if verb == "generate" else ["--cohort", cohort_file]
    rc = main([verb, *cohort, *args, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: {error}" in err and "seed" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


# every `_add_run_flags` flag but --config: its text and the value it parses to
RUN_FLAGS = {"--task": ("multilabel", "multilabel"), "--learning-rate": ("0.05", 0.05),
             "--batch-size": ("7", 7), "--max-epochs": ("3", 3), "--patience": ("4", 4),
             "--seed": ("5", 5),
             "--lambda-source": ("literal:[0.25,0.75]", "literal:[0.25,0.75]"),
             "--embedding-dim": ("6", 6), "--pool-fraction": ("0.4", 0.4)}


def test_every_run_flag_reaches_the_config():
    flags = argparse.ArgumentParser()
    cli._add_run_flags(flags)
    dests = {a.option_strings[0]: a.dest for a in flags._actions
             if a.option_strings[0] not in ("-h", "--config")}
    assert set(dests) == set(RUN_FLAGS)
    argv = [part for flag, (text, _) in RUN_FLAGS.items() for part in (flag, text)]
    args = cli.build_parser().parse_args(
        ["finetune", "--cohort", "c.txt", "--modalities", "text_a,text_b", "--regime", "mlstm",
         "--checkpoint", "ckpt.npz", "--out", "run", *argv])
    config = cli._config_from_args(args, ["text_a", "text_b"], "mlstm")
    for flag, (_, value) in RUN_FLAGS.items():
        assert getattr(config, dests[flag]) == value, flag
    assert args.checkpoint_path == "ckpt.npz"
    assert config.modality_subset == ["text_a", "text_b"] and config.regime == "mlstm"


@pytest.fixture(scope="module")
def cohort_of_60(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data60") / "c.txt")
    assert main(["generate", "--num-patients", "60", "--seed", "0", "--out", path]) == 0
    return path


@pytest.mark.parametrize("source,error", [("literal:[1,2", "ConfigurationError"),
                                          ('literal:{"a":1}', "ConfigurationError"),
                                          ("literal:[NaN,0.5,0.5]", "ConfigurationError"),
                                          ("literal:[0.5,0.5,Infinity]", "ConfigurationError"),
                                          ('literal:[0.5,0.5,"0"]', "ConfigurationError"),
                                          ("literal:[true,0,0]", "ConfigurationError"),
                                          ("learnt", "ConfigurationError"),
                                          ("literal:[2,-1,0]", "ContractError")],
                         ids=["truncated_json", "json_object", "nan", "infinity", "string_weight",
                              "bool_weight", "unknown_source", "negative_weight"])
def test_exit_code_2_on_bad_lambda_source(cohort_of_60, tmp_path, capsys, source, error):
    out = str(tmp_path / "run")
    rc = main(["finetune", "--cohort", cohort_of_60, "--modalities", "text_a,text_b,image",
               "--regime", "mlstm", "--lambda-source", source, "--max-epochs", "1",
               "--batch-size", "16", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: {error}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


# --config fuzzing: arbitrary bytes, and JSON objects of RunConfig fields whose
# values have the wrong type or lie out of range. A width is small, so that
# every run fits in a few MiB, or over MAX_WIDTH, which is rejected before any
# allocation.
_ANY_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 8) | st.floats()
                         | st.text(max_size=6),
                         lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                         max_leaves=6)
_WIDTH = st.integers(-2, 8) | st.sampled_from([MAX_WIDTH + 1, 2**62])
_SIZES = st.lists(_WIDTH, max_size=3)
_IN_KIND = {
    "task": st.sampled_from(["binary", "multilabel", "survival"]),
    "learning_rate": st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 5e-324]),
    "batch_size": st.integers(-2, 80),
    "max_epochs": st.integers(-2, 3),
    "patience": st.integers(-2, 3),
    "seed": st.integers(-2, 2**70),
    "lambda_source": st.sampled_from(["learned", "literal:[0.5,0.5]", "literal:[1,2,3]",
                                      "literal:[2,-1]", "literal:[1e999,0]", "literal:[1,",
                                      "learnt", ""]),
    "embedding_dim": _WIDTH,
    "encoder_hidden": _SIZES,
    "head_hidden": _SIZES,
    "mlstm_hidden": _WIDTH,
    "pool_fraction": st.floats(-0.5, 1.5),
    "modality_subset": st.lists(st.text(max_size=6), max_size=3),
    "regime": st.text(max_size=6),
}


def test_the_config_fuzz_draws_every_run_config_field():
    assert set(_IN_KIND) == {f.name for f in dataclasses.fields(RunConfig)}


@st.composite
def _config_objects(draw):
    """Up to three fields of the right kind, and maybe one of any JSON value."""
    names = draw(st.lists(st.sampled_from(sorted(_IN_KIND)), max_size=3, unique=True))
    fields = {name: draw(_IN_KIND[name]) for name in names}
    if draw(st.booleans()):
        fields[draw(st.sampled_from([*_IN_KIND, "no_such_field"]))] = draw(_ANY_JSON)
    return fields


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_file_runs_or_exits_2_or_4_without_a_traceback(cohort_of_60, config_dir, data):
    if data.draw(st.booleans()):
        body = data.draw(st.binary(max_size=80))
    else:
        body = json.dumps(data.draw(_config_objects())).encode()
    cfg_path, out = config_dir / "cfg.json", config_dir / "ckpt.npz"
    cfg_path.write_bytes(body)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["pretrain", "--cohort", cohort_of_60, "--modalities", "text_a,text_b",
                   "--config", str(cfg_path), "--max-epochs", "1", "--out", str(out)])
    assert rc in (0, 2, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert Checkpoint.load(out).config.modality_subset == ["text_a", "text_b"]
    else:
        assert err.getvalue().startswith(("configuration error: ", "io error: "))
        assert not out.exists()


SMALL_COHORT_SUBSET = "text_a,image,series"


def _run_quietly(argv):
    """(exit code, stderr) of one CLI run; an uncaught exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_clean_exit(rc, err, checkpoint=None):
    """Exit 0, 2 or 3 with no traceback; exit 4 only for a `checkpoint` that
    was never written."""
    assert "Traceback" not in err
    assert rc in (0, 2, 3) or (rc == 4 and checkpoint and not os.path.exists(checkpoint)), err


@settings(max_examples=30, deadline=None)
@given(patients=st.integers(1, 40), seed=st.integers(0, 3))
def test_every_verb_on_a_small_cohort_exits_cleanly(supervised_checkpoint, config_dir,
                                                    patients, seed):
    # pretrain, each fine-tuning regime under both tasks, and attribute on a
    # cohort of 1-40 patients: each run ends in a documented exit code, and a
    # run that succeeds writes finite scores
    root = config_dir / f"small_{patients}_{seed}"
    root.mkdir(exist_ok=True)
    cohort, pre = str(root / "c.npz"), str(root / "pre.npz")
    run = ["--cohort", cohort, "--modalities", SMALL_COHORT_SUBSET, "--max-epochs", "1",
           "--batch-size", "8", "--seed", str(seed)]
    assert _run_quietly(["generate", "--num-patients", str(patients), "--seed", str(seed),
                         "--out", cohort])[0] == 0
    _assert_clean_exit(*_run_quietly(["pretrain", *run, "--out", pre]))
    for task in ("binary", "multilabel"):
        for regime in ("frozen_finetune", "supervised_baseline", "mlstm"):
            out = root / f"{regime}_{task}"
            reads = [] if regime == "supervised_baseline" else ["--checkpoint", pre]
            rc, err = _run_quietly(["finetune", *run, "--regime", regime, "--task", task,
                                    *reads, "--out", str(out)])
            _assert_clean_exit(rc, err, pre if reads else None)
            if rc == 0:
                metrics = json.loads((out / "metrics.json").read_text())
                assert np.isfinite([metrics["auroc"], metrics["auprc"]]).all(), metrics
    for model in (str(root / "supervised_baseline_binary" / "model.npz"), supervised_checkpoint):
        out = root / "attr.json"
        rc, err = _run_quietly(["attribute", "--cohort", cohort, "--checkpoint", model,
                                "--steps", "8", "--out", str(out)])
        _assert_clean_exit(rc, err, model)
        if rc == 0:
            assert np.isfinite(list(json.loads(out.read_text()).values())).all()
            out.unlink()


@pytest.fixture(scope="module")
def trained_pair(cohort_of_60, tmp_path_factory):
    """A pretrain checkpoint and a supervised_baseline model.npz of one
    subset, each trained for one epoch on `cohort_of_60`."""
    root = tmp_path_factory.mktemp("trained_pair")
    pre, sup = str(root / "pre.npz"), str(root / "sup")
    run = ["--cohort", cohort_of_60, "--modalities", SMALL_COHORT_SUBSET, "--max-epochs", "1",
           "--batch-size", "16"]
    assert main(["pretrain", *run, "--out", pre]) == 0
    assert main(["finetune", *run, "--regime", "supervised_baseline", "--out", sup]) == 0
    return {"contrastive_pretrain": pre, "supervised_baseline": os.path.join(sup, "model.npz")}


def _frozen_finetune(cohort, checkpoint, out):
    return ["finetune", "--cohort", cohort, "--modalities", SMALL_COHORT_SUBSET,
            "--regime", "frozen_finetune", "--checkpoint", checkpoint, "--max-epochs", "1",
            "--batch-size", "16", "--out", out]


def _attribute(cohort, checkpoint, out):
    return ["attribute", "--cohort", cohort, "--checkpoint", checkpoint, "--steps", "8",
            "--out", out]


@pytest.mark.parametrize("regime, value, every, named", [
    ("supervised_baseline", np.nan, False, "text_a.w0"),
    ("contrastive_pretrain", np.inf, True, "image.w0")],  # the first parameter stored
    ids=["attribute_one_nan", "frozen_finetune_all_inf"])
def test_exit_code_4_on_a_checkpoint_with_a_non_finite_parameter(cohort_of_60, trained_pair,
                                                                 tmp_path, capsys, regime,
                                                                 value, every, named):
    # attribute used to write uniform 0.2 scores with exit 0, and a frozen
    # fine-tune of an all-inf pretrain exited 3
    ckpt = Checkpoint.load(trained_pair[regime])
    if every:
        for values in ckpt.params.values():
            values[...] = value
    else:
        ckpt.params["text_a.w0"].flat[0] = value
    path, out = str(tmp_path / "ckpt.npz"), str(tmp_path / "out")
    ckpt.save(path)
    argv = (_attribute if regime == "supervised_baseline" else _frozen_finetune)(
        cohort_of_60, path, out)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err
    assert f"parameter '{named}' holds a non-finite value" in err
    assert not os.path.exists(out)


def test_exit_code_4_on_attribute_of_a_cohort_with_a_non_finite_observation(cohort_of_60,
                                                                          trained_pair, tmp_path,
                                                                          capsys):
    # attribute used to write uniform scores with exit 0 (and pretrain exited 3)
    path, out = str(tmp_path / "nan.npz"), str(tmp_path / "attr.json")
    with open(cohort_of_60, "rb") as fh:
        _resealed(_nan_in_text_a)(fh.read(), path)
    assert main(_attribute(path, trained_pair["supervised_baseline"], out)) == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and "modality:text_a holds a non-finite" in err
    assert not os.path.exists(out)


def test_exit_code_2_on_a_sweep_with_a_pool_fraction_outside_0_1(cohort_of_60, tmp_path, capsys):
    # the sweep used to exit 0 with one ContractError row per cell
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--cohort", cohort_of_60, "--subsets", "text_a,text_b",
               "--max-epochs", "1", "--pool-fraction", "1.5", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: ConfigurationError" in err and "pool_fraction" in err
    assert not os.path.exists(out)


def test_exit_code_4_on_a_checkpoint_whose_pool_fraction_is_outside_0_1(cohort_of_60, trained_pair,
                                                                       tmp_path, capsys):
    with np.load(trained_pair["supervised_baseline"]) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"]["pool_fraction"] = 1.5
    arrays["__meta__"] = np.array(json.dumps(meta))
    path = str(tmp_path / "ckpt.npz")
    np.savez(path, **arrays)
    assert main(_attribute(cohort_of_60, path, str(tmp_path / "attr.json"))) == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and "pool_fraction" in err


def test_exit_code_2_on_attribute_of_a_saturated_model(tmp_path, capsys):
    # one entry of text_a.w1 at 1e308 saturates the head's tanh for every
    # test sample; attribute used to write exactly uniform scores with exit 0
    cohort, pre, run = (str(tmp_path / "c.npz"), str(tmp_path / "pre.npz"),
                        tmp_path / "frozen")
    common = ["--cohort", cohort, "--modalities", "text_a,text_b,series", "--batch-size", "16"]
    assert main(["generate", "--num-patients", "120", "--seed", "0", "--out", cohort]) == 0
    assert main(["pretrain", *common, "--max-epochs", "2", "--out", pre]) == 0
    ckpt = Checkpoint.load(pre)
    ckpt.params["text_a.w1"].flat[0] = 1e308
    ckpt.save(pre)
    assert main(["finetune", *common, "--regime", "frozen_finetune", "--checkpoint", pre,
                 "--max-epochs", "3", "--out", str(run)]) == 0
    capsys.readouterr()
    out = tmp_path / "attr.json"
    assert main(_attribute(cohort, str(run / "model.npz"), str(out))) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "configuration error: DegenerateInputError" in err
    assert "does not depend on its input" in err
    assert not out.exists()


_ENTRY = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]) | st.floats(-3.0, 3.0)


@pytest.mark.parametrize("named", ["series.wx", "text_a.w0"])
def test_exit_code_3_on_a_frozen_finetune_that_overflows(cohort_of_60, trained_pair, tmp_path,
                                                         capsys, named):
    # one first-layer weight of 1e308 overflows the encoder's matmul; the run
    # used to warn, then exit 0 with a test AUROC computed from inf activations
    ckpt = Checkpoint.load(trained_pair["contrastive_pretrain"])
    ckpt.params[named][0, 0] = 1e308
    path, run = str(tmp_path / "huge.npz"), tmp_path / "run"
    ckpt.save(path)
    assert main(_frozen_finetune(cohort_of_60, path, str(run))) == 3
    captured = capsys.readouterr()
    assert "AUROC" not in captured.out
    assert captured.err.splitlines() == [
        "numerical divergence: FloatingPointError: overflow encountered in matmul"]
    assert not run.exists()


@pytest.mark.parametrize("value", [1e308, -1e308])
@pytest.mark.parametrize("modality", ["series", "text_a"])
def test_a_cohort_with_a_huge_observation_runs_or_exits_3(cohort_of_60, tmp_path, modality, value):
    # the encoders' tanh and gates saturate on it; an overflow anywhere in
    # training, evaluation or attribution must end the run with exit 3
    cohort = load_cohort(cohort_of_60)
    cohort.observations[modality].flat[0] = value
    path, pre, sup = str(tmp_path / "c.npz"), str(tmp_path / "pre.npz"), tmp_path / "sup"
    save_cohort(cohort, path)
    run = ["--cohort", path, "--modalities", SMALL_COHORT_SUBSET, "--max-epochs", "2",
           "--batch-size", "16"]
    for argv, written in [
            (["pretrain", *run, "--out", pre], pre),
            (_frozen_finetune(path, pre, str(tmp_path / "frozen")), tmp_path / "frozen"),
            (["finetune", *run, "--regime", "supervised_baseline", "--out", str(sup)], sup),
            (_attribute(path, str(sup / "model.npz"), str(tmp_path / "a.json")),
             tmp_path / "a.json")]:
        rc, err = _run_quietly(argv)
        assert "Traceback" not in err
        if rc == 3:
            assert err.startswith("numerical divergence: ") and not os.path.exists(written)
            return
        assert rc == 0, err
    assert np.isfinite(list(json.loads((tmp_path / "a.json").read_text()).values())).all()


@settings(max_examples=40, deadline=None)
@given(regime=st.sampled_from(["contrastive_pretrain", "supervised_baseline"]), data=st.data())
def test_every_checkpoint_that_loads_runs_or_exits_cleanly(cohort_of_60, trained_pair, config_dir,
                                                           regime, data):
    # one parameter entry of a saved checkpoint set to NaN, +-inf, +-1e308 or
    # a normal value; a pretrain checkpoint is fine-tuned frozen and that
    # model attributed, a supervised one attributed. An overflow ends the
    # run with exit 3, so no RuntimeWarning reaches the suite's error filter
    ckpt = Checkpoint.load(trained_pair[regime])
    name = data.draw(st.sampled_from(sorted(ckpt.params)))
    entry = data.draw(_ENTRY)
    ckpt.params[name].flat[data.draw(st.integers(0, ckpt.params[name].size - 1))] = entry
    path, run = str(config_dir / "edited.npz"), config_dir / "edited_run"
    ckpt.save(path)
    shutil.rmtree(run, ignore_errors=True)
    model = path
    if regime == "contrastive_pretrain":
        rc, err = _run_quietly(_frozen_finetune(cohort_of_60, path, str(run)))
        model = str(run / "model.npz")
    if regime == "supervised_baseline" or rc == 0:
        out = config_dir / "edited_attr.json"
        out.unlink(missing_ok=True)
        rc, err = _run_quietly(_attribute(cohort_of_60, model, str(out)))
        if rc == 0:
            assert np.isfinite(list(json.loads(out.read_text()).values())).all()
    assert "Traceback" not in err
    assert rc == 4 if not np.isfinite(entry) else rc in (0, 2, 3), err
