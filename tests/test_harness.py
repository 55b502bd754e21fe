import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dataclasses
import json
import struct

from mmcl import encoders, fusion, harness, kernels, losses
from mmcl.autodiff import Tensor
from mmcl.cohort import default_five_modality_spec, generate
from mmcl.encoders import LSTMEncoder, MLPEncoder
from mmcl.errors import (ConfigurationError, ContractError, CorruptFileError, DegenerateInputError,
                         DivergenceError, MAX_WIDTH, is_real)
from mmcl.fusion import ClassifierHead, class_weights_from_counts, concat_fuse, weighted_bce
from mmcl.harness import (Checkpoint, RunConfig, SweepResult, SweepRow,
                          enumerate_subsets, finetune, finetune_splits,
                          load_rows, pretrain, sweep)
from mmcl.metrics import auprc, auroc
from mmcl.optim import Adam

from ce_oracle import composed_sigmoid_ce
from elementary_ops import mul
from ig_oracle import per_point_integrated_gradients
from kernel_oracle import assert_bitwise_equal, masked_sigmoid, zeros_plus_add_accumulate
from lstm_oracle import composed_unroll
from nce_oracle import composed_ovo
from test_losses import _backward_nodes

ALL = ["text_a", "text_b", "image", "demo", "series"]


@pytest.fixture(scope="module")
def small_cohort():
    return generate(default_five_modality_spec(120, seed=0))


def _cfg(subset, regime, **kwargs):
    base = dict(modality_subset=subset, regime=regime, max_epochs=3,
                batch_size=16, seed=0)
    base.update(kwargs)
    return RunConfig(**base)


# --------------------------------------------------------------------------
# configuration and enumeration

def test_enumerate_subsets_is_26_lexicographic():
    subsets = enumerate_subsets(ALL)
    assert len(subsets) == 26
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)
    assert subsets[0] == ["text_a", "text_b"]
    assert subsets[-1] == ALL
    assert len({tuple(s) for s in subsets}) == 26
    for s in subsets:
        assert [m for m in ALL if m in s] == s  # roster order preserved


def test_enumerate_subsets_validation():
    with pytest.raises(ContractError):
        enumerate_subsets(ALL[:4])
    with pytest.raises(ContractError):
        enumerate_subsets(["a", "a", "b", "c", "d"])


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(ALL, "warmup")
    with pytest.raises(ConfigurationError):
        RunConfig(ALL, "mlstm", task="regression")
    with pytest.raises(ConfigurationError):
        RunConfig(ALL, "mlstm", learning_rate=2.0)
    with pytest.raises(ConfigurationError):
        RunConfig(ALL, "mlstm", batch_size=0)
    with pytest.raises(ConfigurationError):
        RunConfig(ALL[:1], "mlstm")
    with pytest.raises(ConfigurationError, match="duplicate"):
        RunConfig([ALL[0], ALL[0], ALL[1]], "contrastive_pretrain")


@pytest.mark.parametrize("field,value", [("max_epochs", 0), ("patience", -1),
                                         ("embedding_dim", 0), ("mlstm_hidden", 0), ("seed", -1),
                                         ("learning_rate", 0.0), ("learning_rate", 1.0),
                                         ("learning_rate", float("nan")),
                                         ("learning_rate", float("inf")),
                                         ("embedding_dim", MAX_WIDTH + 1), ("mlstm_hidden", 2**62),
                                         ("encoder_hidden", [8, MAX_WIDTH + 1]),
                                         ("head_hidden", [2**62]),
                                         ("pool_fraction", 0.0), ("pool_fraction", 1.0),
                                         ("pool_fraction", 1.5),
                                         ("pool_fraction", float("nan"))])
def test_run_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigurationError, match=field):
        RunConfig(ALL, "contrastive_pretrain", **{field: value})


WRONG_TYPES = [
    ("max_epochs", "2"), ("max_epochs", 2.0), ("seed", True), ("batch_size", None),
    ("patience", 1.5), ("embedding_dim", "8"), ("mlstm_hidden", None),
    ("learning_rate", "0.01"), ("pool_fraction", False), ("pool_fraction", [0.5]),
    ("encoder_hidden", 16), ("encoder_hidden", [16, "8"]), ("encoder_hidden", []),
    ("head_hidden", [0]), ("head_hidden", [True]), ("modality_subset", "text_a,text_b"),
    ("modality_subset", ["text_a", 2]), ("regime", ["mlstm"]), ("task", None),
    ("lambda_source", 3)]


@pytest.mark.parametrize("field,value", WRONG_TYPES)
def test_run_config_rejects_wrong_types(field, value):
    kwargs = {"modality_subset": ALL, "regime": "supervised_baseline", field: value}
    with pytest.raises(ConfigurationError, match=field):
        RunConfig(**kwargs)


def test_run_config_wrong_type_cases_cover_every_field():
    covered = {case[0] for case in WRONG_TYPES}
    assert covered == {f.name for f in dataclasses.fields(RunConfig)}


def test_run_config_accepts_numpy_scalars_and_empty_head():
    cfg = RunConfig(ALL, "supervised_baseline", seed=np.int64(3), learning_rate=np.float64(0.1),
                    pool_fraction=1 / 3, max_epochs=np.int32(2), head_hidden=[])
    assert cfg.seed == 3 and cfg.max_epochs == 2


def test_a_run_of_numpy_scalars_saves_and_emits(small_cohort, tmp_path):
    # RunConfig stores numpy scalars as the Python numbers JSON can write
    cfg = RunConfig(ALL[:2], "contrastive_pretrain", seed=np.int64(3), max_epochs=np.int32(1),
                    batch_size=np.int64(16), learning_rate=np.float32(0.01),
                    pool_fraction=np.float64(0.5), encoder_hidden=[np.int64(4)],
                    head_hidden=[np.int16(3)])
    assert [type(v) for v in (cfg.seed, cfg.learning_rate, *cfg.encoder_hidden,
                              *cfg.head_hidden)] == [int, float, int, int]
    ckpt, _ = pretrain(cfg, small_cohort)
    path = tmp_path / "ckpt.npz"
    ckpt.save(path)
    assert Checkpoint.load(path).config == cfg
    paths = harness.emit(SweepResult([]), str(tmp_path / "sweep"), cfg)
    with open(paths[-1]) as fh:
        assert RunConfig(**json.load(fh)) == cfg


def test_literal_lambdas_parse():
    cfg = _cfg(ALL[:3], "mlstm", lambda_source="literal:[0.5, 0.3, 0.2]")
    np.testing.assert_allclose(cfg.literal_lambdas(), [0.5, 0.3, 0.2])
    assert _cfg(ALL[:3], "mlstm").literal_lambdas() is None


# --------------------------------------------------------------------------
# pre-training

def test_pretrain_two_modalities_no_lambdas(small_cohort):
    cfg = _cfg(ALL[:2], "contrastive_pretrain")
    ckpt, history = pretrain(cfg, small_cohort)
    assert ckpt.lambdas is None
    assert ckpt.tau > 0
    assert len(history) == cfg.max_epochs
    assert all(np.isfinite(history))


def test_pretrain_k3_lambdas_on_simplex(small_cohort):
    cfg = _cfg(ALL[:3], "contrastive_pretrain")
    ckpt, _ = pretrain(cfg, small_cohort)
    assert ckpt.lambdas.shape == (3,)
    assert ckpt.lambdas.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(ckpt.lambdas > 0)


def test_pretrain_loss_descends(small_cohort):
    cfg = _cfg(ALL[:3], "contrastive_pretrain", max_epochs=8)
    _, history = pretrain(cfg, small_cohort)
    assert history[-1] < history[0]


def test_pretrain_reproducible(small_cohort):
    cfg = _cfg(ALL[:2], "contrastive_pretrain")
    a, ha = pretrain(cfg, small_cohort)
    b, hb = pretrain(cfg, small_cohort)
    assert ha == hb
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])


def test_pretrain_rejects_wrong_regime(small_cohort):
    with pytest.raises(ConfigurationError):
        pretrain(_cfg(ALL[:2], "mlstm"), small_cohort)


@pytest.mark.parametrize("kwargs", [{"batch_size": 1}, {"pool_fraction": 0.01}],
                         ids=["batch_of_one", "pool_of_one"])
def test_pretrain_rejects_no_batch_of_two(small_cohort, kwargs):
    with pytest.raises(DegenerateInputError, match="2 rows"):
        pretrain(_cfg(ALL[:2], "contrastive_pretrain", **kwargs), small_cohort)


# --------------------------------------------------------------------------
# divergence: a non-finite batch loss stops training before its step


def _nan_on_call(monkeypatch, name, n):
    """Make `harness.<name>` return a NaN loss on its n-th call; returns the
    list the values of the earlier calls are appended to. A contrastive
    entry point returns (loss, terms); its terms pass through."""
    original = getattr(harness, name)
    finite = []

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        loss, terms = out if isinstance(out, tuple) else (out, None)
        if len(finite) == n - 1:
            loss = mul(loss, float("nan"))
        else:
            finite.append(float(loss.values))
        return loss if terms is None else (loss, terms)

    monkeypatch.setattr(harness, name, patched)
    return finite


def _batches_per_epoch(rows, batch_size, min_rows):
    return sum(len(rows[start:start + batch_size]) >= min_rows
               for start in range(0, len(rows), batch_size))


@pytest.mark.parametrize("epoch,batch", [(0, 1), (1, 2)], ids=["first_batch", "later_epoch"])
@pytest.mark.parametrize("regime,patched,message,min_rows", [
    ("contrastive_pretrain", "weighted_ovo_loss", "contrastive loss diverged", 2),
    ("supervised_baseline", "weighted_bce", "fine-tuning loss diverged", 1)],
    ids=["pretrain", "finetune"])
def test_divergence_reports_epoch_and_last_finite_loss(small_cohort, monkeypatch, regime,
                                                       patched, message, min_rows, epoch, batch):
    cfg = _cfg(ALL[:3], regime, patience=5)
    pool, train_idx, _, _ = finetune_splits(small_cohort, cfg)
    rows = pool if regime == "contrastive_pretrain" else train_idx
    per_epoch = _batches_per_epoch(rows, cfg.batch_size, min_rows)
    assert per_epoch >= 2
    finite = _nan_on_call(monkeypatch, patched, epoch * per_epoch + batch)
    with pytest.raises(DivergenceError) as caught:
        (pretrain if regime == "contrastive_pretrain" else finetune)(cfg, small_cohort)
    assert str(caught.value) == message
    assert caught.value.epoch == epoch
    assert len(finite) == epoch * per_epoch + batch - 1
    assert caught.value.last_finite_loss == (finite[-1] if finite else None)
    assert all(np.isfinite(finite))


# --------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path, small_cohort):
    cfg = _cfg(ALL[:3], "contrastive_pretrain")
    ckpt, _ = pretrain(cfg, small_cohort)
    path = tmp_path / "ckpt.npz"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.config.seed == ckpt.config.seed
    assert loaded.tau == ckpt.tau
    assert loaded.config.modality_subset == ckpt.config.modality_subset
    np.testing.assert_array_equal(loaded.lambdas, ckpt.lambdas)
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])


def test_checkpoint_of_the_retired_optimizer_setting_loads_and_finetunes(tmp_path,
                                                                         small_cohort):
    # a file of an older format, with the retired settings and metadata
    pre, history = pretrain(_cfg(ALL[:3], "contrastive_pretrain", max_epochs=1), small_cohort)
    path = tmp_path / "sgd.npz"
    pre.save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"].update(optimizer="sgd", checkpoint_path=str(path))
    meta.update(epoch=1, best_metric=history[-1])
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    loaded = Checkpoint.load(path)
    assert loaded.config == pre.config
    cfg = _cfg(ALL[:3], "frozen_finetune", max_epochs=1)
    _, record, _ = finetune(cfg, small_cohort, loaded)
    _, want, _ = finetune(cfg, small_cohort, pre)
    assert (record.auroc, record.auprc) == (want.auroc, want.auprc)


def test_checkpoint_keeps_its_own_config(small_cohort):
    cfg = _cfg(ALL[:2], "contrastive_pretrain", max_epochs=1)
    ckpt, _ = pretrain(cfg, small_cohort)
    cfg.modality_subset.append("image")
    cfg.encoder_hidden[0] = 3
    cfg.seed = 5
    assert ckpt.config == _cfg(ALL[:2], "contrastive_pretrain", max_epochs=1)


# --------------------------------------------------------------------------
# splits

def test_finetune_splits_disjoint_exhaustive(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline")
    pool, tr, va, te = finetune_splits(small_cohort, cfg)
    pieces = [pool, tr, va, te]
    combined = np.concatenate(pieces)
    assert combined.size == small_cohort.num_patients
    assert len(set(combined.tolist())) == small_cohort.num_patients


@pytest.mark.parametrize("patients", [1, 8, 16])
def test_finetune_splits_reject_a_cohort_too_small_to_split(patients):
    # 8 patients split as 5 pool, 3 train, 0 validation and 0 test
    cohort = generate(default_five_modality_spec(patients, seed=0))
    with pytest.raises(DegenerateInputError, match="too small to split") as info:
        finetune_splits(cohort, _cfg(ALL[:2], "supervised_baseline"))
    if patients == 8:
        assert "5 pool, 3 train, 0 validation, 0 test" in str(info.value)


# --------------------------------------------------------------------------
# fine-tuning regimes

def test_supervised_baseline_runs(small_cohort):
    ckpt, record, info = finetune(_cfg(ALL[:2], "supervised_baseline"), small_cohort)
    assert 0.0 <= record.auroc <= 1.0
    assert 0.0 <= record.auprc <= 1.0
    assert info["epochs_run"] >= 1
    assert 0 <= info["best_epoch"] < info["epochs_run"]


def test_frozen_finetune_keeps_encoders_bitwise(small_cohort):
    pre, _ = pretrain(_cfg(ALL[:2], "contrastive_pretrain"), small_cohort)
    cfg = _cfg(ALL[:2], "frozen_finetune")
    ckpt, record, _ = finetune(cfg, small_cohort, pre)
    encoder_names = [n for n in pre.params
                     if not n.startswith(("head.", "log_tau", "lambda_logits"))]
    assert encoder_names
    for name in encoder_names:
        np.testing.assert_array_equal(ckpt.params[name], pre.params[name])
    assert any(n.startswith("head.") for n in ckpt.params)


def _frozen_finetune_oracle(config, cohort, checkpoint):
    """The binary frozen regime with per-batch encoding: every batch and
    evaluation split goes through the encoders."""
    rng = np.random.default_rng(config.seed)
    encoders = harness.build_encoders(cohort, config, rng)
    harness._load_into(harness._collect_params(encoders), checkpoint.params)
    _, train_idx, val_idx, test_idx = finetune_splits(cohort, config)
    train_targets = harness._targets(cohort, config, train_idx)
    n_pos = int(train_targets.sum())
    weights = class_weights_from_counts(n_pos, train_targets.size - n_pos)
    head = ClassifierHead(config.embedding_dim * len(config.modality_subset),
                          config.head_hidden, 1, rng)
    params = head.parameters()
    opt = Adam(params, config.learning_rate)

    def forward(idx):
        return head.forward(concat_fuse(harness.encode_batch(
            encoders, cohort.observations, idx, config.modality_subset)))

    def metrics(idx):
        return harness._metrics_from_scores(forward(idx).values,
                                            harness._targets(cohort, config, idx))

    best, best_epoch, best_snapshot, stall = -np.inf, -1, harness._snapshot(params), 0
    for epoch in range(config.max_epochs):
        perm = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss = weighted_bce(forward(idx), harness._targets(cohort, config, idx), weights)
            opt.zero_grad()
            loss.backward()
            opt.step()
        val_auroc, _ = metrics(val_idx)
        if val_auroc > best:
            best, best_epoch, best_snapshot, stall = val_auroc, epoch, harness._snapshot(params), 0
        else:
            stall += 1
            if stall >= max(config.patience, 1):
                break
    harness._load_into(params, best_snapshot)
    return metrics(test_idx), best_epoch, harness._snapshot(params)


@pytest.mark.parametrize("subset", [ALL[:2], ALL[2:]], ids=["mlp_only", "with_lstm"])
def test_frozen_finetune_matches_per_batch_encoding(small_cohort, subset):
    pre, _ = pretrain(_cfg(subset, "contrastive_pretrain"), small_cohort)
    cfg = _cfg(subset, "frozen_finetune", max_epochs=8, patience=3)
    ckpt, record, info = finetune(cfg, small_cohort, pre)
    (auroc, auprc), best_epoch, head = _frozen_finetune_oracle(cfg, small_cohort, pre)
    assert (record.auroc, record.auprc, info["best_epoch"]) == (auroc, auprc, best_epoch)
    assert head
    for name, values in head.items():
        np.testing.assert_array_equal(ckpt.params[name], values)


def test_frozen_finetune_encodes_once_whatever_the_epochs(small_cohort, monkeypatch):
    subset = ["text_a", "series"]
    pre, _ = pretrain(_cfg(subset, "contrastive_pretrain"), small_cohort)
    calls = []
    for cls in (MLPEncoder, LSTMEncoder):
        def counted(self, batch, _forward=cls.forward):
            calls.append(self.name)
            return _forward(self, batch)
        monkeypatch.setattr(cls, "forward", counted)
    per_run = []
    for epochs in (1, 4):
        calls.clear()
        finetune(_cfg(subset, "frozen_finetune", max_epochs=epochs, patience=epochs),
                 small_cohort, pre)
        per_run.append(sorted(calls))
    assert per_run == [["series", "text_a"]] * 2


def test_frozen_finetune_leaves_no_encoder_gradient(small_cohort, monkeypatch):
    subset = ["text_a", "series"]
    pre, _ = pretrain(_cfg(subset, "contrastive_pretrain"), small_cohort)
    built = []
    build = harness.build_encoders
    monkeypatch.setattr(harness, "build_encoders",
                        lambda *args: built.append(build(*args)) or built[-1])
    finetune(_cfg(subset, "frozen_finetune"), small_cohort, pre)
    params = harness._collect_params(built[0])
    assert params
    assert [p.name for p in params if p.grad is not None] == []


def test_frozen_finetune_requires_matching_checkpoint(small_cohort):
    with pytest.raises(ConfigurationError):
        finetune(_cfg(ALL[:2], "frozen_finetune"), small_cohort, None)
    pre, _ = pretrain(_cfg(ALL[:2], "contrastive_pretrain"), small_cohort)
    with pytest.raises(ConfigurationError):
        finetune(_cfg(ALL[1:3], "frozen_finetune"), small_cohort, pre)
    # another seed or pool fraction draws another pretraining pool and test split
    with pytest.raises(ConfigurationError, match="seed 0 does not match the run's seed 3"):
        finetune(_cfg(ALL[:2], "frozen_finetune", seed=3), small_cohort, pre)
    with pytest.raises(ConfigurationError, match="pool_fraction 0.5 does not match"):
        finetune(_cfg(ALL[:2], "frozen_finetune", pool_fraction=0.3), small_cohort, pre)


def test_mlstm_learned_lambdas_require_matching_checkpoint(small_cohort):
    # lambdas learned for one subset must not gate another of the same size
    pre, _ = pretrain(_cfg(["text_a", "text_b", "image"], "contrastive_pretrain"), small_cohort)
    with pytest.raises(ConfigurationError, match="modality subset"):
        finetune(_cfg(["demo", "series", "image"], "mlstm"), small_cohort, pre)


@pytest.mark.parametrize("change, match", [({"seed": 3}, "seed 0 does not match"),
                                           ({"pool_fraction": 0.3}, "pool_fraction 0.5")],
                         ids=["other_seed", "other_pool_fraction"])
def test_mlstm_learned_lambdas_require_the_checkpoint_patients(small_cohort, change, match):
    pre, _ = pretrain(_cfg(ALL[:3], "contrastive_pretrain", max_epochs=1), small_cohort)
    with pytest.raises(ConfigurationError, match=match):
        finetune(_cfg(ALL[:3], "mlstm", **change), small_cohort, pre)


def test_mlstm_literal_lambdas_ignore_the_checkpoint_subset(small_cohort):
    pre, _ = pretrain(_cfg(ALL[:3], "contrastive_pretrain"), small_cohort)
    cfg = _cfg(ALL[2:], "mlstm", max_epochs=1, lambda_source="literal:[0.5, 0.3, 0.2]")
    _, record, _ = finetune(cfg, small_cohort, pre)
    assert np.isfinite(record.auroc)


def test_mlstm_with_literal_lambdas(small_cohort):
    cfg = _cfg(ALL[:3], "mlstm", lambda_source="literal:[0.5, 0.3, 0.2]")
    ckpt, record, _ = finetune(cfg, small_cohort)
    assert np.isfinite(record.auroc)
    np.testing.assert_allclose(ckpt.lambdas, [0.5, 0.3, 0.2])


def test_mlstm_learned_lambdas_refuse_the_literal_lambdas_of_an_mlstm(small_cohort):
    # an mLSTM's model.npz stores the literal weights it was given; a
    # learned-lambda run used to read them as learned
    literal, _, _ = finetune(_cfg(ALL[:3], "mlstm", max_epochs=1,
                                  lambda_source="literal:[0.8, 0.1, 0.1]"), small_cohort)
    with pytest.raises(ConfigurationError, match="mlstm reads a contrastive_pretrain checkpoint, "
                                                 "got one of regime 'mlstm'"):
        finetune(_cfg(ALL[:3], "mlstm", max_epochs=1), small_cohort, literal)


def test_mlstm_learned_lambdas_require_checkpoint(small_cohort):
    with pytest.raises(ConfigurationError):
        finetune(_cfg(ALL[:3], "mlstm", lambda_source="learned"), small_cohort, None)


def test_mlstm_learned_lambdas_of_two_modalities_are_rejected_before_any_pretrain(
        small_cohort, monkeypatch):
    # a 2-modality pretrain learns no lambdas: finetune names that cause, not
    # the missing checkpoint, and a sweep runs no pretrain for such a cell
    with pytest.raises(ConfigurationError, match="2-modality pretrain .* learns no lambdas"):
        finetune(_cfg(ALL[:2], "mlstm"), small_cohort, None)
    keys = _count_pretrains(monkeypatch)
    rows = sweep(_cfg(ALL, "mlstm", max_epochs=1), small_cohort, [ALL[:2], ALL[:3]],
                 ["mlstm"], [0]).rows
    assert rows[0].status.startswith("error: ConfigurationError: lambda_source=learned needs")
    assert rows[1].status == "ok"
    assert keys == [(tuple(ALL[:3]), 0)]


def test_mlstm_literal_lambda_length_checked(small_cohort):
    cfg = _cfg(ALL[:3], "mlstm", lambda_source="literal:[0.5, 0.5]")
    with pytest.raises(ConfigurationError):
        finetune(cfg, small_cohort)


@pytest.mark.parametrize("lambdas,error,message", [
    ([0.5, 0.5], ConfigurationError, "length 3"),
    ([0.5, 0.3, 0.3], ContractError, "sum to 1"),
    ([0.5, 0.5, np.nan], ContractError, "finite and nonnegative")],
    ids=["wrong_length", "off_simplex", "nan"])
def test_mlstm_checkpoint_lambdas_checked(small_cohort, lambdas, error, message):
    checkpoint = Checkpoint(_cfg(ALL[:3], "contrastive_pretrain"), {}, np.array(lambdas), 1.0)
    with pytest.raises(error, match=message):
        finetune(_cfg(ALL[:3], "mlstm"), small_cohort, checkpoint)


def test_mlstm_runs_on_normalized_checkpoint_lambdas(small_cohort):
    # a checkpoint's weights within rounding of the simplex are divided by
    # their sum once, and the run uses and stores the result
    stored = np.array([0.5 + 2e-7, 0.3, 0.2])
    checkpoint = Checkpoint(_cfg(ALL[:3], "contrastive_pretrain"), {}, stored, 1.0)
    ckpt, record, _ = finetune(_cfg(ALL[:3], "mlstm", max_epochs=1), small_cohort, checkpoint)
    assert_bitwise_equal(ckpt.lambdas, stored / stored.sum())
    assert np.isfinite(record.auroc)


def test_patience_zero_stops_one_epoch_after_best(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline", max_epochs=20, patience=0)
    _, _, info = finetune(cfg, small_cohort)
    if info["epochs_run"] < cfg.max_epochs:  # stopped early
        assert info["epochs_run"] == info["best_epoch"] + 2
    else:
        assert info["best_epoch"] >= cfg.max_epochs - 2


def test_early_stop_bounded_by_patience(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline", max_epochs=30, patience=3)
    _, _, info = finetune(cfg, small_cohort)
    if info["epochs_run"] < cfg.max_epochs:
        assert info["epochs_run"] == info["best_epoch"] + 1 + cfg.patience


def test_finetune_reproducible(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline")
    _, a, _ = finetune(cfg, small_cohort)
    _, b, _ = finetune(cfg, small_cohort)
    assert a.auroc == b.auroc
    assert a.auprc == b.auprc


def _tiny_training_runs(cohort):
    """A K=5 pretrain, a supervised baseline with the sequence encoder and a
    learned-lambda mLSTM fine-tune; returns their checkpoints, the pretrain
    loss history and the fine-tune records."""
    pre, history = pretrain(_cfg(ALL, "contrastive_pretrain", max_epochs=2), cohort)
    base, base_record, _ = finetune(_cfg(ALL[3:], "supervised_baseline"), cohort)
    gated, gated_record, _ = finetune(_cfg(ALL, "mlstm", lambda_source="learned"), cohort, pre)
    return [pre, base, gated], history, [base_record, gated_record]


def _assert_same_training(got_runs, want_runs):
    """Bitwise equal checkpoints, pretrain loss histories and fine-tune records."""
    for got, want in zip(got_runs[0], want_runs[0]):
        assert sorted(got.params) == sorted(want.params)
        for name in want.params:
            assert_bitwise_equal(got.params[name], want.params[name])
        if want.lambdas is not None:
            assert_bitwise_equal(got.lambdas, want.lambdas)
        # a fine-tune checkpoint stores tau as NaN
        assert_bitwise_equal(got.tau, want.tau)
    assert got_runs[1] == want_runs[1]
    for got, want in zip(got_runs[2], want_runs[2]):
        assert (got.auroc, got.auprc) == (want.auroc, want.auprc)


def test_training_is_bitwise_equal_to_oracle_kernels(small_cohort, monkeypatch):
    shipped = _tiny_training_runs(small_cohort)
    calls = {"sigmoid": 0, "accumulate": 0}

    def counted_sigmoid(x):
        calls["sigmoid"] += 1
        return masked_sigmoid(x)

    def counted_accumulate(self, g):
        calls["accumulate"] += 1
        zeros_plus_add_accumulate(self, g)

    monkeypatch.setattr(kernels, "sigmoid", counted_sigmoid)
    monkeypatch.setattr(Tensor, "_accumulate", counted_accumulate)
    oracle = _tiny_training_runs(small_cohort)
    assert calls["sigmoid"] > 0 and calls["accumulate"] > 0
    _assert_same_training(shipped, oracle)


def test_training_is_bitwise_equal_to_composed_lstm_and_loss(small_cohort, monkeypatch):
    # the fused LSTM sequence and sigmoid cross-entropy nodes against their
    # compositions of elementary ops, over whole training runs
    shipped = _tiny_training_runs(small_cohort)
    calls = {"lstm": 0, "loss": 0}

    def counted_unroll(params, xs, lams=None):
        calls["lstm"] += 1
        return composed_unroll(params, xs, lams)

    def counted_loss(z, y, w=None):
        calls["loss"] += 1
        return composed_sigmoid_ce(z, y, w)

    monkeypatch.setattr(encoders, "lstm_sequence", counted_unroll)
    monkeypatch.setattr(fusion, "lstm_sequence", counted_unroll)
    monkeypatch.setattr(fusion, "_sigmoid_ce", counted_loss)
    oracle = _tiny_training_runs(small_cohort)
    assert calls["lstm"] > 0 and calls["loss"] > 0
    _assert_same_training(shipped, oracle)


def test_pretrain_k5_stays_within_1e10_of_the_composed_nce_oracle(small_cohort, monkeypatch):
    # the fused loss's gradients round differently from the composed ops',
    # so a pretrain drifts; over 5 epochs (20 steps) it stays within 1e-10
    cfg = _cfg(ALL, "contrastive_pretrain", max_epochs=5)
    fused, fused_history = pretrain(cfg, small_cohort)
    calls = []

    def counted_ovo(embeddings, log_tau, logits=None):
        calls.append(1)
        return composed_ovo(embeddings, log_tau, logits)

    monkeypatch.setattr(losses, "ovo_nce", counted_ovo)
    oracle, oracle_history = pretrain(cfg, small_cohort)
    assert len(calls) == 20  # one loss per step
    drift = [np.abs(np.subtract(fused_history, oracle_history)).max(),
             np.abs(fused.lambdas - oracle.lambdas).max(), abs(fused.tau - oracle.tau)]
    drift += [np.abs(fused.params[name] - oracle.params[name]).max() for name in oracle.params]
    assert sorted(fused.params) == sorted(oracle.params)
    assert max(drift) <= 1e-10


@pytest.mark.parametrize("regime, nodes", [("contrastive_pretrain", 7),
                                           ("supervised_baseline", 9)])
def test_training_batch_graph_node_budget(small_cohort, monkeypatch, regime, nodes):
    # every K = 5 encoder: an MLP is 1 dense stack (x 4), the series LSTM
    # 1 sequence + 1 dense projection. Pretrain adds the contrastive op 1,
    # which takes log tau and the lambda logits as they are; the supervised
    # baseline adds concat 1, the head's dense stack 1 and the weighted_bce
    # node 1
    counts = []
    backward = Tensor.backward

    def counted_backward(loss):
        counts.append(_backward_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(Tensor, "backward", counted_backward)
    cfg = _cfg(ALL, regime, max_epochs=1)
    if regime == "contrastive_pretrain":
        pretrain(cfg, small_cohort)
    else:
        finetune(cfg, small_cohort)
    assert counts and set(counts) == {nodes}


def test_multilabel_task_runs(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline", task="multilabel", max_epochs=2)
    ckpt, record, _ = finetune(cfg, small_cohort)
    assert np.isfinite(record.auroc)
    assert ckpt.params["head.b1"].shape == (small_cohort.spec.num_multilabels,)


def test_metrics_from_scores_averages_the_two_class_columns():
    # a binary task is the one-column case; a column of one class is skipped
    scores = np.array([[0.9, 0.1], [0.2, 0.2], [0.4, 0.3], [0.1, 0.6]])
    targets = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    column = (auroc(scores[:, 0], [1, 0, 1, 0]), auprc(scores[:, 0], [1, 0, 1, 0]))
    assert harness._metrics_from_scores(scores[:, :1], targets[:, :1]) == column
    assert harness._metrics_from_scores(scores, targets) == column
    for width in (1, 2):
        with pytest.raises(DegenerateInputError, match="no label with both classes"):
            harness._metrics_from_scores(scores[:, :width], np.ones((4, width)))


# --------------------------------------------------------------------------
# sweeps and persistence

def test_sweep_counts_and_aggregates(small_cohort):
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=2)
    subsets = [ALL[:2], ALL[:3]]
    result = sweep(base, small_cohort, subsets, ["contrastive_pretrain"], [0, 1])
    assert len(result.rows) == 4
    assert all(r.status == "ok" for r in result.rows)
    aggs = result.aggregates()
    assert len(aggs) == 2
    for agg in aggs:
        assert agg["n_seeds"] == 2
        assert np.isfinite(agg["alignment_mean"])
        assert agg["alignment_std"] is not None


def test_sweep_isolates_cell_failures(small_cohort):
    # a learned-lambda mLSTM needs K >= 3: its cell fails
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=1)
    result = sweep(base, small_cohort, [ALL[:2]], ["mlstm", "contrastive_pretrain"], [0])
    statuses = [r.status for r in result.rows]
    assert statuses[0] == ("error: ConfigurationError: lambda_source=learned needs a pretrain "
                           "of 3 or more modalities; a 2-modality pretrain uses pairwise "
                           "InfoNCE and learns no lambdas (use lambda_source=literal:)")
    assert statuses[1] == "ok"
    # failed cells are excluded from aggregation
    assert len(result.aggregates()) == 1


@pytest.mark.parametrize("subsets,regimes,message", [
    ([ALL[:2]], ["contrastive_pretrain", "bogus"], "unknown regime 'bogus'"),
    ([ALL[:2]], ["bogus", "contrastive_pretrain"], "unknown regime 'bogus'"),
    ([ALL[:2], ["text_a"]], ["contrastive_pretrain"], "need at least 2 modalities"),
    ([ALL[:2], ["text_a", "text_a"]], ["contrastive_pretrain"], "duplicate modalities"),
    ([ALL[:2], ["text_a", "nosuch"]], ["contrastive_pretrain"], "unknown modality 'nosuch'")],
    ids=["bad_regime_last", "bad_regime_first", "one_modality", "repeated_modality",
         "unknown_modality"])
def test_sweep_rejects_a_bad_axis_entry_before_any_cell(small_cohort, monkeypatch, subsets,
                                                       regimes, message):
    cells = []
    monkeypatch.setattr(harness, "run_cell", lambda *args: cells.append(args))
    keys = _count_pretrains(monkeypatch)
    with pytest.raises(ConfigurationError, match=message):
        sweep(_cfg(ALL, "contrastive_pretrain"), small_cohort, subsets, regimes, [0])
    assert cells == [] and keys == []


SWEEP_REGIMES = ["contrastive_pretrain", "frozen_finetune", "mlstm"]


def _row_fields(rows):
    return [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_time_s"}
            for row in rows]


def _one_cell_sweeps(base, cohort, subsets, regimes, seeds):
    """Each cell in a sweep of its own, so no cell reuses another's pretrain."""
    return [sweep(base, cohort, [subset], [regime], [seed]).rows[0]
            for subset in subsets for regime in regimes for seed in seeds]


def _count_pretrains(monkeypatch):
    keys = []
    original = harness.pretrain

    def counted(config, cohort):
        keys.append((tuple(config.modality_subset), config.seed))
        return original(config, cohort)

    monkeypatch.setattr(harness, "pretrain", counted)
    return keys


def test_sweep_pretrains_once_per_subset_and_seed(small_cohort, monkeypatch):
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=2)
    subsets = [ALL[:2], ALL[2:]]
    keys = _count_pretrains(monkeypatch)
    rows = sweep(base, small_cohort, subsets, SWEEP_REGIMES, [0, 1]).rows
    assert sorted(keys) == sorted((tuple(s), seed) for s in subsets for seed in (0, 1))
    assert len(rows) == 12
    # the learned-lambda mLSTM on 2 modalities fails after its pretrain
    assert [r.status.startswith("error: ConfigurationError") for r in rows].count(True) == 2
    np.testing.assert_equal(_row_fields(rows), _row_fields(
        _one_cell_sweeps(base, small_cohort, subsets, SWEEP_REGIMES, [0, 1])))


def test_sweep_repeats_a_failed_pretrain_in_every_cell(small_cohort, monkeypatch):
    observations = dict(small_cohort.observations)
    observations["text_a"] = np.full_like(observations["text_a"], np.nan)
    cohort = dataclasses.replace(small_cohort, observations=observations)
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=1)
    keys = _count_pretrains(monkeypatch)
    rows = sweep(base, cohort, [ALL[:3]], SWEEP_REGIMES, [0]).rows
    assert len(keys) == 3
    assert [r.status for r in rows] == ["error: DivergenceError: contrastive loss diverged"] * 3
    np.testing.assert_equal(_row_fields(rows), _row_fields(
        _one_cell_sweeps(base, cohort, [ALL[:3]], SWEEP_REGIMES, [0])))


def test_sweep_single_seed_std_is_empty(small_cohort):
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=1)
    result = sweep(base, small_cohort, [ALL[:2]], ["contrastive_pretrain"], [0])
    agg = result.aggregates()[0]
    assert agg["alignment_std"] is None


def test_emit_round_trip(tmp_path, small_cohort):
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=1)
    result = sweep(base, small_cohort, [ALL[:2]], ["contrastive_pretrain"], [0, 1])
    paths = harness.emit(result, str(tmp_path / "out"), base)
    assert len(paths) == 3
    rows = load_rows(paths[0])
    assert len(rows) == len(result.rows)
    for got, want in zip(rows, result.rows):
        assert got.subset == want.subset
        assert got.seed == want.seed
        assert got.alignment_top5 == want.alignment_top5  # %.17g round trip
    with open(paths[1]) as fh:
        header = fh.readline().strip().split(",")
    assert header == harness.AGG_FIELDS


def test_emit_empty_result_writes_headers_only(tmp_path):
    paths = harness.emit(SweepResult([]), str(tmp_path / "empty"))
    with open(paths[0]) as fh:
        lines = fh.read().splitlines()
    assert lines == [",".join(harness.ROW_FIELDS)]
    assert load_rows(paths[0]) == []


def test_sweep_rejects_empty_axes(small_cohort):
    base = _cfg(ALL, "contrastive_pretrain")
    with pytest.raises(ConfigurationError):
        sweep(base, small_cohort, [], ["contrastive_pretrain"], [0])


@pytest.mark.parametrize("subsets,regimes,seeds,axis", [
    ([ALL[:2], ALL[:3], ALL[:2]], ["contrastive_pretrain"], [0], "subsets"),
    ([ALL[:2]], ["contrastive_pretrain", "frozen_finetune", "contrastive_pretrain"], [0],
     "regimes"),
    ([ALL[:2]], ["contrastive_pretrain"], [0, 1, 0], "seeds")],
    ids=["subset", "regime", "seed"])
def test_sweep_rejects_repeated_axis_entries(small_cohort, monkeypatch, subsets, regimes, seeds,
                                             axis):
    cells = []
    monkeypatch.setattr(harness, "run_cell", lambda *args: cells.append(args))
    with pytest.raises(ConfigurationError, match=f"sweep {axis} repeat"):
        sweep(_cfg(ALL, "contrastive_pretrain"), small_cohort, subsets, regimes, seeds)
    assert cells == []


def test_sweep_subset_order_is_not_a_repeat(small_cohort):
    # the mLSTM reads modalities in order, so a reordered subset is a new cell
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=1)
    result = sweep(base, small_cohort, [ALL[:2], ALL[1::-1]], ["contrastive_pretrain"], [0])
    assert [r.subset for r in result.rows] == ["text_a+text_b", "text_b+text_a"]
    assert [a["n_seeds"] for a in result.aggregates()] == [1, 1]


def _write_rows(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(harness.ROW_FIELDS), *lines]) + "\n")


GOOD_ROW = "text_a+text_b,contrastive_pretrain,binary,0,,,0.5,1.25,0.01,ok"


@pytest.mark.parametrize("line", [GOOD_ROW.rsplit(",", 1)[0], GOOD_ROW.rsplit(",", 4)[0],
                                  GOOD_ROW + ",ok"],
                         ids=["no_status", "stops_after_alignment", "extra_cell"])
def test_load_rows_rejects_a_missing_or_extra_cell(tmp_path, line):
    path = str(tmp_path / "rows.csv")
    _write_rows(path, [GOOD_ROW, line])
    with pytest.raises(CorruptFileError, match="line 3: a missing or extra cell") as info:
        load_rows(path)
    assert path in str(info.value)
    _write_rows(path, [GOOD_ROW])
    want = SweepRow("text_a+text_b", "contrastive_pretrain", "binary", 0, alignment_top5=0.5,
                    final_loss=1.25, wall_time_s=0.01)
    np.testing.assert_equal(_row_fields(load_rows(path)), _row_fields([want]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# rows.csv-shaped text: the header, then lines of cells that may be too few,
# too many, empty, unparsable or quoted
_CELL = st.one_of(st.text(max_size=6), st.sampled_from(
    ["", "0", "-3", "1.5", "nan", "inf", "1e999", "ok", '"', '"a,b"', "\r", "x\ny"]))
_ROWS_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(_CELL, max_size=12).map(",".join), max_size=4).map(
        lambda lines: "\n".join([",".join(harness.ROW_FIELDS), *lines])))


@settings(max_examples=300, deadline=None)
@given(text=_ROWS_TEXT)
def test_load_rows_loads_or_raises_corrupt_file_error(fuzz_dir, text):
    path = str(fuzz_dir / "rows.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        rows = load_rows(path)
    except CorruptFileError as exc:
        assert path in str(exc)
    else:
        assert all(isinstance(row, SweepRow) for row in rows)


# a metric is any finite float, NaN or +-inf; only NaN is written as an empty cell
_METRIC = st.floats(min_value=-1e9, max_value=1e9) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf")])
_ROW = st.builds(SweepRow, subset=st.text(), regime=st.text(), task=st.text(),
                 seed=st.integers(), auroc=_METRIC, auprc=_METRIC, alignment_top5=_METRIC,
                 final_loss=_METRIC, wall_time_s=_METRIC,
                 status=st.just("ok") | st.text())


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_ROW, max_size=5))
def test_emit_then_load_rows_round_trips(fuzz_dir, rows):
    rows_path = harness.emit(SweepResult(rows), str(fuzz_dir / "emitted"))[0]
    loaded = load_rows(rows_path)
    assert len(loaded) == len(rows)
    for got, want in zip(loaded, rows):
        for name in harness.ROW_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b) and (a == b or (a != a and b != b)), name


# every checkpoint file either loads or raises CorruptFileError: arbitrary
# bytes, a saved checkpoint with bytes overwritten or cut off, and archives
# whose metadata holds other JSON

# with the two keys that older files also carry, "seed" and "modality_subset"
_SEED_META = {"config": dataclasses.asdict(RunConfig(["text_a", "text_b"], "contrastive_pretrain")),
              "seed": 0, "lambdas": [0.25, 0.75], "tau": 0.5,
              "modality_subset": ["text_a", "text_b"]}


def _checkpoint_bytes(fuzz_dir, meta=None, params=None):
    """A saved checkpoint; `meta` replaces its `__meta__` text and `params`
    its `param:` arrays."""
    path = fuzz_dir / "seed_ckpt.npz"
    Checkpoint(RunConfig(**_SEED_META["config"]), {"enc.w0": np.arange(6.0).reshape(2, 3)},
               np.array(_SEED_META["lambdas"]), 0.5).save(path)
    if meta is not None or params is not None:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        if meta is not None:
            arrays["__meta__"] = np.array(meta)
        arrays.update({f"param:{name}": value for name, value in (params or {}).items()})
        np.savez(path, **arrays)
    return path.read_bytes()


def _subset(value):
    return {"config": {**_SEED_META["config"], "modality_subset": value}}


@pytest.mark.parametrize("meta, params", [
    (_subset(5), None), (_subset(["text_a", 2]), None),
    (_subset("text_a"), None), ({}, {"enc.w0": np.array(["0.5", "x"])}),
    ({}, {"enc.w0": np.arange(3)}), ({"config": ["regime"]}, None),
    ({"tau": "x"}, None), ({"tau": True}, None), ({"lambdas": [[0.25], [0.75]]}, None),
    ({"lambdas": ["0.25", 0.75]}, None), ({"lambdas": 0.5}, None),
    ({}, {"enc.w0": np.array([0.5, np.nan])}), ({}, {"enc.w0": np.array([[np.inf, 0.5]])}),
    ({}, {"enc.w0": np.array(-np.inf)}),
    ({"config": {**_SEED_META["config"], "pool_fraction": 1.5}}, None)],
    ids=["subset_not_a_list", "subset_entry_not_a_name", "subset_a_string", "param_of_strings",
         "param_of_ints", "config_not_an_object", "tau_a_string", "tau_a_bool", "lambdas_nested",
         "lambdas_of_strings", "lambdas_a_number", "param_nan", "param_inf", "param_minus_inf",
         "pool_fraction_over_1"])
def test_checkpoint_load_rejects_ill_typed_contents(fuzz_dir, meta, params):
    path = fuzz_dir / "ill_typed.npz"
    path.write_bytes(_checkpoint_bytes(fuzz_dir, json.dumps({**_SEED_META, **meta}), params))
    with pytest.raises(CorruptFileError) as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


def _patch_zip(raw, signature, offset, value):
    """`raw` with one byte set, `offset` bytes after the first `signature`."""
    raw = bytearray(raw)
    raw[raw.find(signature) + offset] = value
    return bytes(raw)


_LOCAL, _CENTRAL, _END = b"PK\x03\x04", b"PK\x01\x02", b"PK\x05\x06"


def _as_compressed(raw, method, offset, value):
    """`raw` with its first entry marked as compressed by `method` in both
    headers, and one byte of that entry's data set."""
    raw = bytearray(_patch_zip(_patch_zip(raw, _LOCAL, 8, method), _CENTRAL, 10, method))
    name_len, extra_len = struct.unpack("<HH", raw[26:30])
    raw[30 + name_len + extra_len + offset] = value
    return bytes(raw)


@pytest.mark.parametrize("patch", [
    lambda raw: _patch_zip(raw, _CENTRAL, 6, 99),  # needs zip version 9.9
    lambda raw: _patch_zip(raw, _CENTRAL, 8, 1),  # encrypted entry
    lambda raw: _patch_zip(raw, _CENTRAL, 8, 64),  # strong encryption
    lambda raw: _patch_zip(raw, _CENTRAL, 10, 99),  # unknown compression method
    lambda raw: _patch_zip(raw, _END, 16, 255),  # central directory past the end
    lambda raw: _as_compressed(raw, 8, 0, 0x07),  # deflate block of a reserved type
    lambda raw: _as_compressed(raw, 14, 3, 0),  # LZMA properties of the wrong size
], ids=["zip_version", "encrypted", "strong_encryption", "compression_method", "directory_offset",
        "deflate_stream", "lzma_stream"])
def test_checkpoint_load_rejects_an_unreadable_archive(fuzz_dir, patch):
    path = fuzz_dir / "patched.npz"
    path.write_bytes(patch(_checkpoint_bytes(fuzz_dir)))
    with pytest.raises(CorruptFileError) as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


def test_checkpoint_load_rejects_deeply_nested_metadata(fuzz_dir):
    path = fuzz_dir / "deep.npz"
    path.write_bytes(_checkpoint_bytes(fuzz_dir, "[" * 5000 + "]" * 5000))
    with pytest.raises(CorruptFileError):
        Checkpoint.load(path)


def test_checkpoint_load_reads_the_older_format(fuzz_dir):
    # older files repeat the seed and the subset outside the config, keep the
    # retired `lambda_entropy_coef` (0 by default), `optimizer` and
    # `checkpoint_path` in it, and store the retired `epoch` and `best_metric`
    path = fuzz_dir / "older.npz"
    config = {**_SEED_META["config"], "lambda_entropy_coef": 0.0, "optimizer": "sgd",
              "checkpoint_path": None}
    older = {**_SEED_META, "config": config, "epoch": 2, "best_metric": 1.25}
    path.write_bytes(_checkpoint_bytes(fuzz_dir, json.dumps(older)))
    loaded = Checkpoint.load(path)
    assert loaded.config == RunConfig(**_SEED_META["config"])
    assert loaded.tau == _SEED_META["tau"] and loaded.lambdas.tolist() == _SEED_META["lambdas"]


def test_checkpoint_load_keeps_a_missing_file_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        Checkpoint.load(tmp_path / "absent.npz")


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_load_loads_or_raises_corrupt_file_error(fuzz_dir, data):
    kind = data.draw(st.sampled_from(["bytes", "edits", "meta"]))
    if kind == "bytes":
        raw = data.draw(st.binary(max_size=300))
    elif kind == "edits":
        raw = bytearray(_checkpoint_bytes(fuzz_dir))
        # anywhere, or in the central directory and end record, where one
        # byte changes how the archive is read
        where = st.integers(0, len(raw) - 1) | st.integers(raw.find(_CENTRAL), len(raw) - 1)
        for _ in range(data.draw(st.integers(0, 4))):
            raw[data.draw(where)] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        raw = bytes(raw)
    else:
        meta = data.draw(st.fixed_dictionaries({}, optional={k: _JSON for k in _SEED_META}))
        raw = _checkpoint_bytes(fuzz_dir, json.dumps(meta) if data.draw(st.booleans())
                                else data.draw(st.text(max_size=20)))
    path = fuzz_dir / "ckpt.npz"
    path.write_bytes(raw)
    try:
        ckpt = Checkpoint.load(path)
    except CorruptFileError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(ckpt.config, RunConfig)
        assert all(isinstance(m, str) for m in ckpt.config.modality_subset)
        assert is_real(ckpt.tau)
        assert ckpt.lambdas is None or (ckpt.lambdas.ndim == 1
                                        and ckpt.lambdas.dtype == np.float64)
        assert all(p.dtype == np.float64 for p in ckpt.params.values())


# --------------------------------------------------------------------------
# attribution plumbing

@pytest.fixture(scope="module")
def attribution_run(small_cohort):
    cfg = _cfg(ALL[:3], "supervised_baseline", max_epochs=3)
    ckpt, _, _ = finetune(cfg, small_cohort)
    return cfg, ckpt


def test_modality_attribution_scores_are_normalized(small_cohort, attribution_run):
    cfg, ckpt = attribution_run
    scores = harness.modality_attribution(cfg, small_cohort, ckpt, steps=8,
                                          max_samples=4)
    assert scores.shape == (3,)
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(scores >= 0)


def test_modality_attribution_rejects_mlstm_regime(small_cohort):
    cfg = _cfg(ALL[:3], "mlstm", lambda_source="literal:[0.4,0.3,0.3]")
    ckpt, _, _ = finetune(cfg, small_cohort)
    with pytest.raises(ConfigurationError):
        harness.modality_attribution(cfg, small_cohort, ckpt)


def test_modality_attribution_matches_per_point_oracle(small_cohort, attribution_run,
                                                       monkeypatch):
    cfg, ckpt = attribution_run
    got = harness.modality_attribution(cfg, small_cohort, ckpt, steps=32, max_samples=6)
    monkeypatch.setattr(harness, "integrated_gradients", per_point_integrated_gradients)
    want = harness.modality_attribution(cfg, small_cohort, ckpt, steps=32, max_samples=6)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("max_samples", [1, 5, 10_000])
def test_modality_attribution_one_ig_call_per_test_sample(small_cohort, attribution_run,
                                                          monkeypatch, max_samples):
    cfg, ckpt = attribution_run
    calls = []
    ig = harness.integrated_gradients

    def counted(model_fn, x, **kwargs):
        calls.append(x.shape)
        return ig(model_fn, x, **kwargs)

    monkeypatch.setattr(harness, "integrated_gradients", counted)
    harness.modality_attribution(cfg, small_cohort, ckpt, steps=4, max_samples=max_samples)
    test_size = finetune_splits(small_cohort, cfg)[3].size
    assert calls == [(3 * cfg.embedding_dim,)] * min(max_samples, test_size)


def test_modality_attribution_sums_one_share_vector_per_ig_call(small_cohort, attribution_run,
                                                             monkeypatch):
    # one `harness.integrated_gradients` call per test sample, and the scores
    # are the normalized sum of each report's modality shares (|attribution|
    # summed over each modality's block, normalized, uniform when all zero);
    # the first sample is attributed at its all-zero baseline, so its
    # attributions are all zero and its shares fall back to uniform
    cfg, ckpt = attribution_run
    reports = []
    ig = harness.integrated_gradients

    def zero_first(model_fn, x, **kwargs):
        reports.append(ig(model_fn, x if reports else np.zeros_like(x), **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "integrated_gradients", zero_first)
    scores = harness.modality_attribution(cfg, small_cohort, ckpt, steps=8, max_samples=5)
    assert len(reports) == min(5, finetune_splits(small_cohort, cfg)[3].size) > 1
    assert not reports[0].per_feature.any() and all(r.per_feature.any() for r in reports[1:])
    k = len(cfg.modality_subset)
    totals = np.zeros(k)
    for r in reports:
        raw = np.abs(r.per_feature).reshape(k, -1).sum(axis=1)
        totals += raw / raw.sum() if raw.sum() > 0 else np.full(k, 1.0 / k)
    assert_bitwise_equal(scores, totals / totals.sum())


def test_modality_attribution_leaves_no_parameter_gradient(small_cohort, attribution_run,
                                                          monkeypatch):
    # the attributed model is constant: each IG backward pass differentiates
    # its input only, so no parameter's gradient is computed or summed
    cfg, ckpt = attribution_run
    built = []
    build = harness.build_model

    def captured(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "build_model", captured)
    harness.modality_attribution(cfg, small_cohort, ckpt, steps=8, max_samples=4)
    (_, _, _, params), = built
    assert params
    assert [p.name for p in params if p.grad is not None] == []


@pytest.fixture(scope="module")
def text_series_pretrain(small_cohort):
    pre, _ = pretrain(_cfg(["text_a", "text_b", "series"], "contrastive_pretrain", max_epochs=2),
                      small_cohort)
    return pre


@pytest.mark.parametrize("name", ["text_a.w1", "series.w_proj", "text_a.b1"])
def test_modality_attribution_of_a_saturated_model_raises(small_cohort, text_series_pretrain,
                                                          name):
    # one huge encoder weight saturates the head's tanh for every test
    # sample, so every input gradient is 0; this used to return exactly
    # uniform scores
    params = {k: v.copy() for k, v in text_series_pretrain.params.items()}
    params[name].flat[0] = 1e308
    cfg = _cfg(["text_a", "text_b", "series"], "frozen_finetune")
    model, _, _ = finetune(cfg, small_cohort,
                           dataclasses.replace(text_series_pretrain, params=params))
    with pytest.raises(DegenerateInputError, match="does not depend on its input"):
        harness.modality_attribution(cfg, small_cohort, model, steps=8)


# --------------------------------------------------------------------------
# floating-point policy: an overflow raises for a library caller, as in the CLI

@pytest.fixture(scope="module")
def overflowing_cohort():
    """A cohort whose every text_a row is 1e308 times the signs of the
    first-layer weight column of the seed-0 text_a encoder with the largest
    absolute sum (2.27): that unit's pre-activation overflows."""
    cohort = generate(default_five_modality_spec(120, seed=0))
    cfg = _cfg(["text_a", "text_b", "series"], "contrastive_pretrain", max_epochs=1)
    w0 = harness.build_encoders(cohort, cfg, np.random.default_rng(0))["text_a"].layers[0][0]
    column = np.abs(w0.values).sum(axis=0).argmax()
    cohort.observations["text_a"][:] = 1e308 * np.sign(w0.values[:, column])
    return cohort


def test_pretrain_raises_on_an_overflow(overflowing_cohort):
    # the run used to warn and return a checkpoint trained on inf activations
    cfg = _cfg(["text_a", "text_b", "series"], "contrastive_pretrain", max_epochs=1)
    with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
        pretrain(cfg, overflowing_cohort)


def test_sweep_records_an_overflow_in_the_cell_status(overflowing_cohort):
    base = _cfg(["text_a", "text_b", "series"], "contrastive_pretrain", max_epochs=1)
    rows = sweep(base, overflowing_cohort, [base.modality_subset],
                 ["contrastive_pretrain", "frozen_finetune"], [0]).rows
    assert [r.status for r in rows] == [
        "error: FloatingPointError: overflow encountered in matmul"] * 2


def _with_huge_weight(checkpoint, name):
    params = {k: v.copy() for k, v in checkpoint.params.items()}
    params[name][0, 0] = 1e308
    return dataclasses.replace(checkpoint, params=params)


def test_frozen_finetune_raises_on_an_overflowing_checkpoint(small_cohort,
                                                             text_series_pretrain):
    # the run used to warn and return a test AUROC computed from inf activations
    cfg = _cfg(["text_a", "text_b", "series"], "frozen_finetune", max_epochs=1)
    with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
        finetune(cfg, small_cohort, _with_huge_weight(text_series_pretrain, "series.wx"))


def test_modality_attribution_raises_on_an_overflowing_checkpoint(small_cohort):
    cfg = _cfg(["text_a", "text_b", "series"], "supervised_baseline", max_epochs=1)
    model, _, _ = finetune(cfg, small_cohort)
    with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
        harness.modality_attribution(cfg, small_cohort, _with_huge_weight(model, "series.wx"),
                                     steps=4)


@pytest.fixture(scope="module")
def wrong_kind_checkpoints(small_cohort):
    """Checkpoints that must not load into a text_a,text_b attribution run at
    seed 0: an mLSTM whose hidden width 16 equals 8 x 2, the width of the
    concatenated embeddings, and a contrastive pretrain."""
    mlstm, _, _ = finetune(_cfg(ALL[:2], "mlstm", lambda_source="literal:[0.5,0.5]"),
                           small_cohort)
    pre, _ = pretrain(_cfg(ALL[:2], "contrastive_pretrain", max_epochs=1), small_cohort)
    return {"mlstm": mlstm, "contrastive_pretrain": pre}


@pytest.mark.parametrize("regime", ["mlstm", "contrastive_pretrain"])
def test_modality_attribution_rejects_a_checkpoint_of_another_regime(
        small_cohort, wrong_kind_checkpoints, regime):
    cfg = _cfg(ALL[:2], "supervised_baseline")
    with pytest.raises(ConfigurationError, match=f"regime '{regime}'"):
        harness.modality_attribution(cfg, small_cohort, wrong_kind_checkpoints[regime], steps=4)


@pytest.mark.parametrize("change, match", [
    ({"modality_subset": ["text_b", "text_a", "image"]}, "modality subset"),
    ({"modality_subset": ALL[:2]}, "modality subset"),
    ({"seed": 3}, "seed 0 does not match the run's seed 3"),
    ({"pool_fraction": 0.3}, "pool_fraction 0.5 does not match the run's pool_fraction 0.3")],
    ids=["swapped_order", "other_subset", "other_seed", "other_pool_fraction"])
def test_modality_attribution_rejects_a_checkpoint_of_another_run(small_cohort, attribution_run,
                                                                  change, match):
    cfg, ckpt = attribution_run
    with pytest.raises(ConfigurationError, match=match):
        harness.modality_attribution(dataclasses.replace(cfg, **change), small_cohort, ckpt,
                                     steps=4)


@pytest.mark.parametrize("change", [{"embedding_dim": 4}, {"head_hidden": [8, 4]},
                                    {"task": "multilabel"}],
                         ids=["embedding_dim", "head_hidden", "task"])
def test_modality_attribution_restores_the_model_from_the_checkpoint(small_cohort,
                                                                     attribution_run, change):
    # the model is rebuilt from the checkpoint's config, not the caller's
    cfg, ckpt = attribution_run
    want = harness.modality_attribution(cfg, small_cohort, ckpt, steps=8, max_samples=4)
    got = harness.modality_attribution(dataclasses.replace(cfg, **change), small_cohort, ckpt,
                                       steps=8, max_samples=4)
    assert_bitwise_equal(got, want)


def test_frozen_finetune_rejects_a_checkpoint_that_is_not_a_pretrain(small_cohort):
    supervised, _, _ = finetune(_cfg(ALL[:2], "supervised_baseline", max_epochs=1),
                                small_cohort)
    with pytest.raises(ConfigurationError, match="regime 'supervised_baseline'"):
        finetune(_cfg(ALL[:2], "frozen_finetune", max_epochs=1), small_cohort, supervised)


@pytest.mark.parametrize("kwargs", [{"max_samples": 0}, {"max_samples": -1},
                                    {"max_samples": 2.5}, {"target_label": 1},
                                    {"target_label": -1}],
                         ids=["no_samples", "negative_samples", "fractional_samples",
                              "label_past_end", "negative_label"])
def test_modality_attribution_rejects_bad_arguments(small_cohort, attribution_run, kwargs):
    cfg, ckpt = attribution_run
    with pytest.raises(ContractError, match=next(iter(kwargs))):
        harness.modality_attribution(cfg, small_cohort, ckpt, steps=4, **kwargs)
