import numpy as np
import pytest

from mmcl import harness
from mmcl.cohort import default_five_modality_spec, generate
from mmcl.errors import ConfigurationError, ContractError, DegenerateInputError
from mmcl.harness import (Checkpoint, RunConfig, SweepResult, SweepRow,
                          enumerate_subsets, finetune, finetune_splits,
                          load_rows, pretrain, sweep)
from mmcl.optim import make_optimizer

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

def test_modality_attribution_scores_are_normalized(small_cohort):
    cfg = _cfg(ALL[:3], "supervised_baseline", max_epochs=3)
    ckpt, _, _ = finetune(cfg, small_cohort)
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
