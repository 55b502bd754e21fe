"""End-to-end orchestration: combination enumeration, contrastive
pre-training, the three fine-tuning regimes, early stopping, multi-seed
sweeps, and artifact persistence."""

import csv
import itertools
import json
import numbers
import sys
import time
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from . import cohort as cohort_mod
from .attribution import integrated_gradients, modality_aggregate
from .encoders import EncoderConfig, build_encoder, make_lstm_params
from .errors import (ConfigurationError, ContractError, CorruptFileError,
                     DegenerateInputError, DivergenceError)
from .fusion import (ClassifierHead, ModalitySequence, class_weights_from_counts,
                     concat_fuse, mlstm_forward, multilabel_ce, weighted_bce)
from .losses import LambdaWeights, ModalityEmbeddingSet, Temperature, loss_for_combination
from .metrics import AlignmentCorpus, MetricsRecord, auprc, auroc, top5_alignment_accuracy
from .optim import OPTIMIZERS, make_optimizer

REGIMES = ("contrastive_pretrain", "frozen_finetune", "supervised_baseline", "mlstm")


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_list_of(value, is_item):
    return isinstance(value, (list, tuple)) and all(is_item(item) for item in value)


# every RunConfig field by the kind of value it must hold; a bool is neither
# an int nor a real
_FIELD_KINDS = (
    ("an integer", _is_int,
     ("batch_size", "max_epochs", "patience", "seed", "embedding_dim", "mlstm_hidden")),
    ("a real number", _is_real, ("learning_rate", "pool_fraction", "lambda_entropy_coef")),
    ("a string", lambda v: isinstance(v, str), ("regime", "task", "optimizer", "lambda_source")),
    ("a string or null", lambda v: v is None or isinstance(v, str),
     ("checkpoint_path", "output_dir")),
    ("a list of strings", lambda v: _is_list_of(v, lambda item: isinstance(item, str)),
     ("modality_subset",)),
    ("a list of positive integers", lambda v: _is_list_of(v, lambda d: _is_int(d) and d >= 1),
     ("encoder_hidden", "head_hidden")),
)


@dataclass
class RunConfig:
    modality_subset: list
    regime: str
    task: str = "binary"
    optimizer: str = "adam"
    learning_rate: float = 1e-2
    batch_size: int = 32
    max_epochs: int = 75
    patience: int = 15
    seed: int = 0
    lambda_source: str = "learned"  # "learned" or "literal:[...]"
    embedding_dim: int = 8
    encoder_hidden: list = field(default_factory=lambda: [16])
    head_hidden: list = field(default_factory=lambda: [16])
    mlstm_hidden: int = 16
    pool_fraction: float = 0.5
    # entropy bonus on the lambda simplex; 0 matches the plain weighted loss,
    # positive values counteract the winner-take-all collapse of the weights
    lambda_entropy_coef: float = 0.0
    checkpoint_path: str = None
    output_dir: str = None

    def __post_init__(self):
        for kind, holds, names in _FIELD_KINDS:
            for name in names:
                value = getattr(self, name)
                if not holds(value):
                    raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 0), ("seed", 0),
                            ("embedding_dim", 1), ("mlstm_hidden", 1)):
            if getattr(self, name) < least:
                raise ConfigurationError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not self.encoder_hidden:
            raise ConfigurationError("encoder_hidden must name at least one layer")
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        if self.task not in ("binary", "multilabel"):
            raise ConfigurationError(f"unknown task {self.task!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.learning_rate < 1.0:
            raise ConfigurationError("learning rate must lie in (0, 1)")
        if not 0.0 <= self.lambda_entropy_coef <= sys.float_info.max:  # NaN fails both
            raise ConfigurationError(f"lambda_entropy_coef must be a finite number >= 0, "
                                     f"got {self.lambda_entropy_coef!r}")
        if len(self.modality_subset) < 2:
            raise ConfigurationError("need at least 2 modalities")
        if len(set(self.modality_subset)) != len(self.modality_subset):
            raise ConfigurationError(f"duplicate modalities in {list(self.modality_subset)}")
        self.literal_lambdas()  # raises on a malformed lambda_source

    def literal_lambdas(self):
        """The weights of a `literal:` lambda_source, a JSON list of finite
        numbers; None for `learned`. Any other source raises
        ConfigurationError."""
        source = self.lambda_source
        if source == "learned":
            return None
        if source.startswith("literal:"):
            try:
                weights = json.loads(source[len("literal:"):])
                if _is_list_of(weights, _is_real):
                    weights = np.asarray(weights, dtype=np.float64)
                    if np.isfinite(weights).all():
                        return weights
            except (ValueError, OverflowError):  # bad JSON, or an integer no float holds
                pass
        raise ConfigurationError(f"lambda_source must be 'learned' or 'literal:' and a JSON list "
                                 f"of finite numbers, got {source!r}")


@dataclass
class Checkpoint:
    config: dict
    seed: int
    params: dict  # name -> array
    lambdas: np.ndarray
    tau: float
    epoch: int
    best_metric: float
    modality_subset: list

    def save(self, path):
        meta = {
            "config": self.config,
            "seed": self.seed,
            "lambdas": None if self.lambdas is None else self.lambdas.tolist(),
            "tau": self.tau,
            "epoch": self.epoch,
            "best_metric": self.best_metric,
            "modality_subset": list(self.modality_subset),
        }
        arrays = {f"param:{name}": arr for name, arr in self.params.items()}
        np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by `save`; an unreadable file raises
        CorruptFileError."""
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["__meta__"]))
                params = {k[len("param:"):]: data[k].copy()
                          for k in data.files if k.startswith("param:")}
            lam = meta["lambdas"]
            return cls(meta["config"], meta["seed"], params,
                       None if lam is None else np.asarray(lam, dtype=np.float64),
                       meta["tau"], meta["epoch"], meta["best_metric"], meta["modality_subset"])
        except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
            raise CorruptFileError(
                f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})") from exc


def enumerate_subsets(modalities):
    """All 2..K subsets of a 5-modality roster, lexicographic: 26 total."""
    if len(modalities) != 5:
        raise ContractError(f"expected exactly 5 modalities, got {len(modalities)}")
    if len(set(modalities)) != 5:
        raise ContractError("duplicate modality ids")
    subsets = []
    for size in range(2, 6):
        subsets.extend(list(c) for c in itertools.combinations(modalities, size))
    return subsets


# ---------------------------------------------------------------------------
# model assembly


def build_encoders(cohort, config, rng):
    encoders = {}
    for name in config.modality_subset:
        mod_spec = cohort.modality(name)
        cfg = EncoderConfig(mod_spec.kind, mod_spec.obs_dim, list(config.encoder_hidden),
                            config.embedding_dim)
        encoders[name] = build_encoder(cfg, rng, name)
    return encoders


def encode_batch(encoders, observations, indices, subset):
    embeddings = [encoders[name].forward(observations[name][indices]) for name in subset]
    return ModalityEmbeddingSet(subset, embeddings)


def _collect_params(encoders):
    params = []
    for name in sorted(encoders):
        params.extend(encoders[name].parameters())
    return params


def _snapshot(params):
    return {p.name: p.values.copy() for p in params}


def _load_into(params, stored):
    for p in params:
        if p.name not in stored:
            raise ConfigurationError(f"checkpoint missing parameter {p.name!r}")
        if stored[p.name].shape != p.values.shape:
            raise ConfigurationError(f"checkpoint shape mismatch for {p.name!r}")
        p.values[...] = stored[p.name]


# ---------------------------------------------------------------------------
# contrastive pre-training


def pretrain(config, cohort, on_step=None):
    """Train encoders + temperature (+ lambda for K >= 3) on the pre-training
    pool. Returns (Checkpoint, per-epoch loss history)."""
    if config.regime != "contrastive_pretrain":
        raise ConfigurationError("pretrain requires regime=contrastive_pretrain")
    k = len(config.modality_subset)
    rng = np.random.default_rng(config.seed)
    encoders = build_encoders(cohort, config, rng)
    tau = Temperature()
    lam = LambdaWeights(k) if k >= 3 else None

    params = _collect_params(encoders) + tau.parameters()
    if lam is not None:
        params += lam.parameters()
    opt = make_optimizer(config.optimizer, params, config.learning_rate)

    pool, _ = cohort_mod.pretrain_pool(cohort, seed=config.seed,
                                       pool_fraction=config.pool_fraction)
    if min(config.batch_size, pool.size) < 2:
        raise DegenerateInputError(
            f"no batch of 2 rows: batch_size {config.batch_size}, pre-training pool of "
            f"{pool.size} patients; in-batch contrast needs at least 2")
    history = []
    last_finite = None
    for epoch in range(config.max_epochs):
        perm = pool[rng.permutation(pool.size)]
        epoch_losses = []
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.size < 2:
                continue  # a single sample has no in-batch negatives
            emb_set = encode_batch(encoders, cohort.observations, idx, config.modality_subset)
            loss = loss_for_combination(emb_set, tau, lam)
            if lam is not None and config.lambda_entropy_coef > 0:
                lambdas = lam.lambdas()
                loss = loss + config.lambda_entropy_coef * (lambdas * lambdas.log()).sum()
            value = float(loss.values)
            if not np.isfinite(value):
                raise DivergenceError("contrastive loss diverged",
                                      last_finite_loss=last_finite, epoch=epoch)
            last_finite = value
            opt.zero_grad()
            loss.backward()
            opt.step()
            if on_step is not None:
                on_step(lam)
            epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))

    ckpt = Checkpoint(
        config=asdict(config), seed=config.seed, params=_snapshot(params),
        lambdas=None if lam is None else lam.values(), tau=tau.tau,
        epoch=config.max_epochs, best_metric=history[-1],
        modality_subset=list(config.modality_subset))
    return ckpt, history


def pool_alignment_accuracy(config, cohort, checkpoint, max_patients=100):
    """Top-5 alignment accuracy of checkpoint embeddings on pool patients."""
    rng = np.random.default_rng(config.seed)
    encoders = build_encoders(cohort, config, rng)
    _load_into(_collect_params(encoders), checkpoint.params)
    pool, _ = cohort_mod.pretrain_pool(cohort, seed=config.seed,
                                       pool_fraction=config.pool_fraction)
    pool = pool[:max_patients]
    emb_set = encode_batch(encoders, cohort.observations, pool, config.modality_subset)
    corpus = AlignmentCorpus()
    for name, emb in zip(emb_set.modalities, emb_set.embeddings):
        for row, pid in enumerate(pool):
            corpus.add(int(pid), name, emb.values[row])
    return top5_alignment_accuracy(corpus)


# ---------------------------------------------------------------------------
# fine-tuning


def finetune_splits(cohort, config):
    """Pool for contrastive pre-training; 80/10/10 split of the remainder."""
    pool, rest = cohort_mod.pretrain_pool(cohort, seed=config.seed,
                                          pool_fraction=config.pool_fraction)
    labels = cohort.binary_labels[rest]
    rng = np.random.default_rng(config.seed + 1)
    tr, va, te = cohort_mod._stratified_partition(labels, (0.8, 0.1, 0.1), rng)
    return pool, rest[tr], rest[va], rest[te]


def _targets(cohort, config, indices):
    if config.task == "binary":
        return cohort.binary_labels[indices].astype(np.float64).reshape(-1, 1)
    return cohort.multilabels[indices].astype(np.float64)


def _metrics_from_scores(scores, targets, task):
    """(AUROC, AUPRC); multilabel metrics are macro means over the labels
    with both classes present."""
    if task == "binary":
        labels = targets.reshape(-1).astype(int)
        return auroc(scores.reshape(-1), labels), auprc(scores.reshape(-1), labels)
    rocs, prcs = [], []
    for l in range(targets.shape[1]):
        labels = targets[:, l].astype(int)
        if labels.min() == labels.max():
            continue
        rocs.append(auroc(scores[:, l], labels))
        prcs.append(auprc(scores[:, l], labels))
    if not rocs:
        raise ConfigurationError("no label with both classes present in evaluation split")
    return float(np.mean(rocs)), float(np.mean(prcs))


def _resolve_lambdas(config, checkpoint, k):
    literal = config.literal_lambdas()
    if literal is not None:
        if literal.shape != (k,):
            raise ConfigurationError(f"literal lambdas must have length {k}")
        return literal
    if checkpoint is None or checkpoint.lambdas is None:
        raise ConfigurationError("lambda_source=learned requires a contrastive checkpoint with lambdas")
    return checkpoint.lambdas


def finetune(config, cohort, checkpoint=None):
    """Train a downstream model per regime with early stopping on validation
    AUROC; returns (Checkpoint, MetricsRecord) from the best-epoch weights."""
    if config.regime not in ("frozen_finetune", "supervised_baseline", "mlstm"):
        raise ConfigurationError(f"finetune cannot run regime {config.regime!r}")
    if config.regime == "frozen_finetune" and checkpoint is None:
        raise ConfigurationError("frozen_finetune requires a contrastive checkpoint")
    if config.regime == "frozen_finetune" and list(checkpoint.modality_subset) != list(config.modality_subset):
        raise ConfigurationError("checkpoint modality subset does not match the run config")

    k = len(config.modality_subset)
    rng = np.random.default_rng(config.seed)
    encoders = build_encoders(cohort, config, rng)
    encoder_params = _collect_params(encoders)

    num_labels = 1 if config.task == "binary" else cohort.multilabels.shape[1]
    _, train_idx, val_idx, test_idx = finetune_splits(cohort, config)
    train_targets = _targets(cohort, config, train_idx)

    class_weights = (1.0, 1.0)
    if config.task == "binary":
        n_pos = int(train_targets.sum())
        class_weights = class_weights_from_counts(n_pos, train_targets.size - n_pos)

    mlstm_params = None
    lambdas = None
    if config.regime == "mlstm":
        lambdas = _resolve_lambdas(config, checkpoint, k)
        mlstm_params = make_lstm_params(rng, config.embedding_dim, config.mlstm_hidden, "mlstm")
        head_input = config.mlstm_hidden
    else:
        head_input = config.embedding_dim * k
    head = ClassifierHead(head_input, config.head_hidden, num_labels, rng)

    if config.regime == "frozen_finetune":
        _load_into(encoder_params, checkpoint.params)
        trainable = head.parameters()
        # the encoders never change, so each patient the run uses is encoded once
        used = np.concatenate([train_idx, val_idx, test_idx])
        features = np.zeros((cohort.num_patients, head_input))
        features[used] = concat_fuse(encode_batch(
            encoders, cohort.observations, used, config.modality_subset)).values
    elif config.regime == "supervised_baseline":
        trainable = encoder_params + head.parameters()
    else:
        trainable = encoder_params + list(mlstm_params.values()) + head.parameters()
    opt = make_optimizer(config.optimizer, trainable, config.learning_rate)

    def forward(indices):
        if config.regime == "frozen_finetune":
            return head.forward(features[indices])
        emb_set = encode_batch(encoders, cohort.observations, indices, config.modality_subset)
        if config.regime == "mlstm":
            seq = ModalitySequence(config.modality_subset, emb_set.embeddings, lambdas)
            fused = mlstm_forward(mlstm_params, seq, config.mlstm_hidden)
        else:
            fused = concat_fuse(emb_set)
        return head.forward(fused)

    def loss_fn(logits, targets):
        if config.task == "binary":
            return weighted_bce(logits, targets, class_weights)
        return multilabel_ce(logits, targets)

    best_metric = -np.inf
    best_epoch = -1
    best_snapshot = _snapshot(trainable)
    stall = 0
    epochs_run = 0
    last_finite = None
    for epoch in range(config.max_epochs):
        perm = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss = loss_fn(forward(idx), _targets(cohort, config, idx))
            value = float(loss.values)
            if not np.isfinite(value):
                raise DivergenceError("fine-tuning loss diverged",
                                      last_finite_loss=last_finite, epoch=epoch)
            last_finite = value
            opt.zero_grad()
            loss.backward()
            opt.step()
        epochs_run = epoch + 1
        val_scores = forward(val_idx).values
        val_auroc, _ = _metrics_from_scores(val_scores, _targets(cohort, config, val_idx), config.task)
        if val_auroc > best_metric:
            best_metric = val_auroc
            best_epoch = epoch
            best_snapshot = _snapshot(trainable)
            stall = 0
        else:
            stall += 1
            if stall >= max(config.patience, 1):
                break

    _load_into(trainable, best_snapshot)
    test_scores = forward(test_idx).values
    test_auroc, test_auprc = _metrics_from_scores(
        test_scores, _targets(cohort, config, test_idx), config.task)
    record = MetricsRecord(task=config.task, auroc=test_auroc, auprc=test_auprc, seed=config.seed)

    all_params = _snapshot(trainable + (
        encoder_params if config.regime == "frozen_finetune" else []))
    ckpt = Checkpoint(config=asdict(config), seed=config.seed, params=all_params,
                      lambdas=lambdas, tau=float("nan"), epoch=best_epoch,
                      best_metric=best_metric, modality_subset=list(config.modality_subset))
    return ckpt, record, {"epochs_run": epochs_run, "best_epoch": best_epoch}


# ---------------------------------------------------------------------------
# sweeps and persistence


@dataclass
class SweepRow:
    subset: str
    regime: str
    task: str
    seed: int
    auroc: float
    auprc: float
    alignment_top5: float
    final_loss: float
    wall_time_s: float
    status: str = "ok"


@dataclass
class SweepResult:
    rows: list

    def aggregates(self):
        cells = {}
        for row in self.rows:
            if row.status != "ok":
                continue
            cells.setdefault((row.subset, row.regime, row.task), []).append(row)
        out = []
        for (subset, regime, task), rows in cells.items():
            def stats(values):
                values = [v for v in values if np.isfinite(v)]
                if not values:
                    return float("nan"), None
                return float(np.mean(values)), (float(np.std(values)) if len(values) > 1 else None)
            roc_m, roc_s = stats([r.auroc for r in rows])
            prc_m, prc_s = stats([r.auprc for r in rows])
            aln_m, aln_s = stats([r.alignment_top5 for r in rows])
            out.append({
                "subset": subset, "regime": regime, "task": task, "n_seeds": len(rows),
                "auroc_mean": roc_m, "auroc_std": roc_s,
                "auprc_mean": prc_m, "auprc_std": prc_s,
                "alignment_mean": aln_m, "alignment_std": aln_s,
            })
        return out


def _pretrained(config, cohort, pretrains):
    """(Checkpoint, history) of the contrastive pretrain for the config's
    subset and seed, run only if `pretrains` does not hold it yet. Only a
    success is stored, so a failed pretrain fails again in every cell. The
    cells sharing a result only read it."""
    key = (tuple(config.modality_subset), config.seed)
    if key not in pretrains:
        pre_cfg = RunConfig(**{**asdict(config), "regime": "contrastive_pretrain"})
        pretrains[key] = pretrain(pre_cfg, cohort)
    return pretrains[key]


def run_cell(base, cohort, subset, regime, seed, pretrains):
    """One sweep row. `pretrains` maps (subset, seed) to pretrain results
    that cells of the same sweep share; the base config is the rest of the key."""
    config = RunConfig(**{**asdict(base), "modality_subset": list(subset),
                          "regime": regime, "seed": seed})
    t0 = time.perf_counter()
    if regime == "contrastive_pretrain":
        ckpt, history = _pretrained(config, cohort, pretrains)
        alignment = pool_alignment_accuracy(config, cohort, ckpt)
        return SweepRow("+".join(subset), regime, config.task, seed,
                        float("nan"), float("nan"), alignment, history[-1],
                        time.perf_counter() - t0)
    checkpoint = None
    if regime == "frozen_finetune" or (regime == "mlstm" and config.lambda_source == "learned"):
        checkpoint, _ = _pretrained(config, cohort, pretrains)
    _, record, _ = finetune(config, cohort, checkpoint)
    return SweepRow("+".join(subset), regime, config.task, seed,
                    record.auroc, record.auprc, float("nan"), float("nan"),
                    time.perf_counter() - t0)


def sweep(base, cohort, subsets, regimes, seeds):
    """Cartesian product of (subset, regime, seed); per-cell failures are
    recorded without aborting the sweep. The cells of one subset and seed
    share one pretrain, kept until the sweep moves on to the next subset."""
    if not subsets or not regimes or not seeds:
        raise ConfigurationError("sweep axes must be nonempty")
    rows = []
    for subset in subsets:
        pretrains = {}
        for regime in regimes:
            for seed in seeds:
                try:
                    rows.append(run_cell(base, cohort, subset, regime, seed, pretrains))
                except Exception as exc:  # sweep isolation
                    rows.append(SweepRow("+".join(subset), regime, base.task, seed,
                                         float("nan"), float("nan"), float("nan"),
                                         float("nan"), 0.0,
                                         status=f"error: {type(exc).__name__}: {exc}"))
    return SweepResult(rows)


ROW_FIELDS = ["subset", "regime", "task", "seed", "auroc", "auprc",
              "alignment_top5", "final_loss", "wall_time_s", "status"]
AGG_FIELDS = ["subset", "regime", "task", "n_seeds", "auroc_mean", "auroc_std",
              "auprc_mean", "auprc_std", "alignment_mean", "alignment_std"]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if not np.isfinite(value) else "%.17g" % value
    return str(value)


def emit(result, out_dir, base_config=None):
    """Write row-level CSV, Table-1-shaped aggregate CSV, and a config
    snapshot. Returns the list of written paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    rows_path = os.path.join(out_dir, "rows.csv")
    with open(rows_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({k: _fmt(v) for k, v in asdict(row).items()})
    paths.append(rows_path)

    agg_path = os.path.join(out_dir, "aggregates.csv")
    with open(agg_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGG_FIELDS)
        writer.writeheader()
        for agg in result.aggregates():
            writer.writerow({k: _fmt(v) for k, v in agg.items()})
    paths.append(agg_path)

    if base_config is not None:
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(asdict(base_config), fh, indent=2, sort_keys=True)
        paths.append(cfg_path)
    return paths


def load_rows(path):
    """Round-trip reader for the row-level CSV. A file without the sweep
    columns, or with an unparsable cell, raises CorruptFileError."""
    def real(text):
        return float(text) if text else float("nan")

    rows = []
    with open(path, newline="") as fh:
        try:
            for rec in csv.DictReader(fh):
                rows.append(SweepRow(
                    rec["subset"], rec["regime"], rec["task"], int(rec["seed"]),
                    real(rec["auroc"]), real(rec["auprc"]), real(rec["alignment_top5"]),
                    real(rec["final_loss"]), real(rec["wall_time_s"]), rec["status"]))
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise CorruptFileError(
                f"{path}: not a sweep rows.csv ({type(exc).__name__}: {exc})") from exc
    return rows


# ---------------------------------------------------------------------------
# attribution over the classifier input


def modality_attribution(config, cohort, checkpoint, steps=256, max_samples=32, target_label=0):
    """Per-modality integrated-gradients scores of a trained concatenation
    model, attributed over the classifier's concatenated-embedding input and
    averaged over test samples."""
    if config.regime not in ("frozen_finetune", "supervised_baseline"):
        raise ConfigurationError("attribution runs on concatenation models")
    num_labels = 1 if config.task == "binary" else cohort.multilabels.shape[1]
    if not _is_int(max_samples) or max_samples < 1:
        raise ContractError(f"max_samples must be an integer >= 1, got {max_samples!r}")
    if not _is_int(target_label) or not 0 <= target_label < num_labels:
        raise ContractError(f"target_label {target_label!r} outside [0, {num_labels})")
    k = len(config.modality_subset)
    rng = np.random.default_rng(config.seed)
    encoders = build_encoders(cohort, config, rng)
    head = ClassifierHead(config.embedding_dim * k, config.head_hidden, num_labels, rng)
    _load_into(_collect_params(encoders) + head.parameters(), checkpoint.params)

    _, _, _, test_idx = finetune_splits(cohort, config)
    test_idx = test_idx[:max_samples]
    emb_set = encode_batch(encoders, cohort.observations, test_idx, config.modality_subset)
    features = np.concatenate([e.values for e in emb_set.embeddings], axis=1)

    def model_fn(x):
        return head.forward(x)[:, target_label]

    n = config.embedding_dim
    layout = [(name, i * n, (i + 1) * n) for i, name in enumerate(config.modality_subset)]
    totals = np.zeros(k)
    for row in features:
        report = integrated_gradients(model_fn, row, steps=steps)
        totals += modality_aggregate(report, layout)
    return totals / totals.sum()
