import argparse
import json
import os

import numpy as np
import pytest

from mmcl import cli
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


def _write_text_checkpoint(path):
    with open(path, "w") as fh:
        fh.write("not a checkpoint\n")


def _write_empty_checkpoint(path):
    open(path, "wb").close()


def _write_truncated_checkpoint(path):
    Checkpoint({}, 0, {"w": np.arange(64.0)}, None, 1.0, 0, 0.0, ["a", "b"]).save(path)
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
    rc = main(["attribute", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--checkpoint", path, "--steps", "2", "--out", str(tmp_path / "attr.json")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error" in err and path in err


def _drop_latents(text):
    return text[:text.index("[latents]")]


def _tampered_row(text):
    head, rest = text.split("[latents]\n", 1)
    return head + "[latents]\n" + "0," + rest.split(",", 1)[1]


def _non_numeric_cell(text):
    head, rest = text.split("[modality text_a]\n", 1)
    return head + "[modality text_a]\nnan?," + rest.split(",", 1)[1]


@pytest.mark.parametrize("corrupt", [_drop_latents, _non_numeric_cell, _tampered_row,
                                     lambda text: "not a cohort\n"],
                         ids=["no_latents", "non_numeric_cell", "tampered_row", "foreign"])
def test_exit_code_4_on_malformed_cohort(cohort_file, tmp_path, capsys, corrupt):
    path = str(tmp_path / "bad.txt")
    with open(cohort_file) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(corrupt(text))
    rc = main(["pretrain", "--cohort", path, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error" in err and path in err


@pytest.mark.parametrize("body", ['{"max_epochs": 1, "no_such_field": 3}',
                                  '{"max_epochs": 1,',
                                  '{"optimizer": "rmsprop"}',
                                  '[1, 2]',
                                  '{"batch_size": "16"}',
                                  '{"lambda_entropy_coef": -5.0}',
                                  '{"lambda_entropy_coef": NaN}',
                                  '{"lambda_entropy_coef": Infinity}'],
                         ids=["unknown_field", "bad_json", "unknown_optimizer", "not_an_object",
                              "wrong_type", "negative_entropy_coef", "nan_entropy_coef",
                              "infinite_entropy_coef"])
def test_exit_code_2_on_bad_config_file(cohort_file, tmp_path, capsys, body):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write(body)
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--config", cfg_path, "--max-epochs", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    assert "configuration error: ConfigurationError" in capsys.readouterr().err


def test_exit_code_2_on_pretrain_without_a_batch_of_two(cohort_file, tmp_path, capsys):
    rc = main(["pretrain", "--cohort", cohort_file, "--modalities", "text_a,text_b",
               "--max-epochs", "1", "--batch-size", "1", "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    assert "DegenerateInputError" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.npz")


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
    path = str(tmp_path / "rows.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1,2\n")
    out = str(tmp_path / "report")
    rc = main(["report", "--rows", path, "--out", out])
    assert rc == 4
    err = capsys.readouterr().err
    assert "io error: CorruptFileError" in err and path in err
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
RUN_FLAGS = {"--task": ("multilabel", "multilabel"), "--optimizer": ("sgd", "sgd"),
             "--learning-rate": ("0.05", 0.05), "--batch-size": ("7", 7),
             "--max-epochs": ("3", 3), "--patience": ("4", 4), "--seed": ("5", 5),
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
    assert config.checkpoint_path == "ckpt.npz" and config.output_dir is None
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
