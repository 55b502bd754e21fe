import numpy as np
import pytest

import dataclasses

from mmcl import harness, kernels
from mmcl.autodiff import Tensor
from mmcl.cohort import default_five_modality_spec, generate
from mmcl.encoders import LSTMEncoder, MLPEncoder
from mmcl.errors import ConfigurationError, ContractError, DegenerateInputError
from mmcl.fusion import ClassifierHead, class_weights_from_counts, concat_fuse, weighted_bce
from mmcl.harness import (Checkpoint, RunConfig, SweepResult, SweepRow,
                          enumerate_subsets, finetune, finetune_splits,
                          load_rows, pretrain, sweep)
from mmcl.optim import make_optimizer

from ig_oracle import per_point_integrated_gradients
from kernel_oracle import assert_bitwise_equal, masked_sigmoid, zeros_plus_add_accumulate

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
    with pytest.raises(ConfigurationError, match="rmsprop"):
        RunConfig(ALL, "mlstm", optimizer="rmsprop")
    with pytest.raises(ConfigurationError, match="rmsprop"):
        make_optimizer("rmsprop", [], 0.1)


@pytest.mark.parametrize("field,value", [("max_epochs", 0), ("patience", -1),
                                         ("embedding_dim", 0), ("mlstm_hidden", 0), ("seed", -1),
                                         ("lambda_entropy_coef", -5.0),
                                         ("lambda_entropy_coef", float("nan")),
                                         ("lambda_entropy_coef", float("inf")),
                                         pytest.param("lambda_entropy_coef", 10**400,
                                                      id="lambda_entropy_coef-huge_int")])
def test_run_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigurationError, match=field):
        RunConfig(ALL, "contrastive_pretrain", **{field: value})


WRONG_TYPES = [
    ("max_epochs", "2"), ("max_epochs", 2.0), ("seed", True), ("batch_size", None),
    ("patience", 1.5), ("embedding_dim", "8"), ("mlstm_hidden", None),
    ("learning_rate", "0.01"), ("pool_fraction", False), ("lambda_entropy_coef", [0.1]),
    ("encoder_hidden", 16), ("encoder_hidden", [16, "8"]), ("encoder_hidden", []),
    ("head_hidden", [0]), ("head_hidden", [True]), ("modality_subset", "text_a,text_b"),
    ("modality_subset", ["text_a", 2]), ("regime", ["mlstm"]), ("task", None),
    ("optimizer", {"adam": 1}), ("lambda_source", 3), ("checkpoint_path", 1),
    ("output_dir", ["out"])]


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


def test_pretrain_best_metric_is_last_epoch_loss(small_cohort):
    ckpt, history = pretrain(_cfg(ALL[:2], "contrastive_pretrain", max_epochs=1), small_cohort)
    assert len(history) == 1
    assert ckpt.best_metric == history[-1]


def test_pretrain_rejects_wrong_regime(small_cohort):
    with pytest.raises(ConfigurationError):
        pretrain(_cfg(ALL[:2], "mlstm"), small_cohort)


@pytest.mark.parametrize("kwargs", [{"batch_size": 1}, {"pool_fraction": 0.01}],
                         ids=["batch_of_one", "pool_of_one"])
def test_pretrain_rejects_no_batch_of_two(small_cohort, kwargs):
    with pytest.raises(DegenerateInputError, match="2 rows"):
        pretrain(_cfg(ALL[:2], "contrastive_pretrain", **kwargs), small_cohort)


# --------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path, small_cohort):
    cfg = _cfg(ALL[:3], "contrastive_pretrain")
    ckpt, _ = pretrain(cfg, small_cohort)
    path = tmp_path / "ckpt.npz"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.seed == ckpt.seed
    assert loaded.tau == ckpt.tau
    assert loaded.epoch == ckpt.epoch
    assert loaded.modality_subset == ckpt.modality_subset
    np.testing.assert_array_equal(loaded.lambdas, ckpt.lambdas)
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])


# --------------------------------------------------------------------------
# splits

def test_finetune_splits_disjoint_exhaustive(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline")
    pool, tr, va, te = finetune_splits(small_cohort, cfg)
    pieces = [pool, tr, va, te]
    combined = np.concatenate(pieces)
    assert combined.size == small_cohort.num_patients
    assert len(set(combined.tolist())) == small_cohort.num_patients


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
    opt = make_optimizer(config.optimizer, params, config.learning_rate)

    def forward(idx):
        return head.forward(concat_fuse(harness.encode_batch(
            encoders, cohort.observations, idx, config.modality_subset)))

    def metrics(idx):
        return harness._metrics_from_scores(
            forward(idx).values, harness._targets(cohort, config, idx), "binary")

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


def test_mlstm_with_literal_lambdas(small_cohort):
    cfg = _cfg(ALL[:3], "mlstm", lambda_source="literal:[0.5, 0.3, 0.2]")
    ckpt, record, _ = finetune(cfg, small_cohort)
    assert np.isfinite(record.auroc)
    np.testing.assert_allclose(ckpt.lambdas, [0.5, 0.3, 0.2])


def test_mlstm_learned_lambdas_require_checkpoint(small_cohort):
    with pytest.raises(ConfigurationError):
        finetune(_cfg(ALL[:3], "mlstm", lambda_source="learned"), small_cohort, None)


def test_mlstm_literal_lambda_length_checked(small_cohort):
    cfg = _cfg(ALL[:3], "mlstm", lambda_source="literal:[0.5, 0.5]")
    with pytest.raises(ConfigurationError):
        finetune(cfg, small_cohort)


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

    for got, want in zip(shipped[0], oracle[0]):
        assert sorted(got.params) == sorted(want.params)
        for name in want.params:
            assert_bitwise_equal(got.params[name], want.params[name])
        if want.lambdas is not None:
            assert_bitwise_equal(got.lambdas, want.lambdas)
        # a fine-tune checkpoint stores tau as NaN
        assert_bitwise_equal([got.tau, got.best_metric], [want.tau, want.best_metric])
    assert shipped[1] == oracle[1]
    for got, want in zip(shipped[2], oracle[2]):
        assert (got.auroc, got.auprc) == (want.auroc, want.auprc)


def test_multilabel_task_runs(small_cohort):
    cfg = _cfg(ALL[:2], "supervised_baseline", task="multilabel", max_epochs=2)
    _, record, _ = finetune(cfg, small_cohort)
    assert np.isfinite(record.auroc)
    assert record.task == "multilabel"


def test_metrics_from_scores_multilabel_skips_single_class():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.3]])
    targets = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])  # label 1 degenerate
    roc, prc = harness._metrics_from_scores(scores, targets, "multilabel")
    assert roc == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        harness._metrics_from_scores(scores, np.ones((3, 2)), "multilabel")


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
    base = _cfg(ALL, "contrastive_pretrain", max_epochs=1)
    result = sweep(base, small_cohort, [ALL[:2], ["text_a"]],
                   ["contrastive_pretrain"], [0])
    statuses = [r.status for r in result.rows]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("error:")
    assert statuses[1] == "error: ConfigurationError: need at least 2 modalities"
    # failed cells are excluded from aggregation
    assert len(result.aggregates()) == 1


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


@pytest.mark.parametrize("kwargs", [{"max_samples": 0}, {"max_samples": -1},
                                    {"max_samples": 2.5}, {"target_label": 1},
                                    {"target_label": -1}],
                         ids=["no_samples", "negative_samples", "fractional_samples",
                              "label_past_end", "negative_label"])
def test_modality_attribution_rejects_bad_arguments(small_cohort, attribution_run, kwargs):
    cfg, ckpt = attribution_run
    with pytest.raises(ContractError, match=next(iter(kwargs))):
        harness.modality_attribution(cfg, small_cohort, ckpt, steps=4, **kwargs)
