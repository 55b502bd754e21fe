"""End-to-end orchestration: combination enumeration, contrastive
pre-training, the three fine-tuning regimes, early stopping, multi-seed
sweeps, and artifact persistence."""

import csv
import functools
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import cohort as cohort_mod
from . import kernels
from .attribution import integrated_gradients, modality_aggregate
from .autodiff import Parameter
from .encoders import build_encoder, make_lstm_params
from .errors import (MAX_WIDTH, STRICT_FLOATS, ConfigurationError, ContractError,
                     CorruptFileError, DegenerateInputError, DivergenceError, check_fields,
                     is_int, is_int_in, is_real)
from .fusion import (ClassifierHead, class_weights_from_counts, concat_fuse, mlstm_forward,
                     multilabel_ce, weighted_bce)
from .losses import infonce_pair_loss, weighted_ovo_loss
from .metrics import MetricsRecord, auprc, auroc, top5_alignment_accuracy
from .optim import Adam

REGIMES = ("contrastive_pretrain", "frozen_finetune", "supervised_baseline", "mlstm")
FINETUNE_REGIMES = REGIMES[1:]  # every regime but contrastive_pretrain
TASKS = ("binary", "multilabel")
ALIGNMENT_PATIENTS = 100  # pool patients scored by `pool_alignment_accuracy`


def _is_list_of(value, is_item):
    return isinstance(value, (list, tuple)) and all(is_item(item) for item in value)


def _plain(value):
    """`value`, or a new list of its items, with numpy scalars as the Python ones JSON writes."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.item() if isinstance(value, np.generic) else value


# every RunConfig field by the value it must hold
_WIDTH = is_int_in(1, MAX_WIDTH)
_FIELD_RULES = (
    ("an integer >= 1", is_int_in(1), ("batch_size", "max_epochs")),
    ("an integer >= 0", is_int_in(0), ("patience", "seed")),
    (f"an integer in [1, {MAX_WIDTH}]", _WIDTH, ("embedding_dim", "mlstm_hidden")),
    ("a real number in (0, 1)", lambda v: is_real(v) and 0.0 < v < 1.0,
     ("learning_rate", "pool_fraction")),
    ("a string", lambda v: isinstance(v, str), ("regime", "task", "lambda_source")),
    ("a list of strings", lambda v: _is_list_of(v, lambda item: isinstance(item, str)),
     ("modality_subset",)),
    (f"a nonempty list of integers in [1, {MAX_WIDTH}]",
     lambda v: _is_list_of(v, _WIDTH) and len(v) > 0, ("encoder_hidden",)),
    (f"a list of integers in [1, {MAX_WIDTH}]", lambda v: _is_list_of(v, _WIDTH), ("head_hidden",)),
)


@dataclass
class RunConfig:
    modality_subset: list
    regime: str
    task: str = "binary"
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

    def __post_init__(self):
        check_fields(self, _FIELD_RULES, ConfigurationError)
        for f in fields(self):
            setattr(self, f.name, _plain(getattr(self, f.name)))
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        if self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}")
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
                if _is_list_of(weights, is_real):
                    weights = np.asarray(weights, dtype=np.float64)
                    if np.isfinite(weights).all():
                        return weights
            except (ValueError, OverflowError):  # bad JSON, or an integer no float holds
                pass
        raise ConfigurationError(f"lambda_source must be 'learned' or 'literal:' and a JSON list "
                                 f"of finite numbers, got {source!r}")


@dataclass
class Checkpoint:
    config: RunConfig  # a copy of the run's config: readers rebuild the model from it
    params: dict  # name -> array
    lambdas: np.ndarray
    tau: float

    def save(self, path):
        meta = {"config": asdict(self.config),
                "lambdas": None if self.lambdas is None else self.lambdas.tolist(),
                "tau": self.tau}
        arrays = {f"param:{name}": arr for name, arr in self.params.items()}
        cohort_mod.write_archive(path, {"__meta__": np.array(json.dumps(meta)), **arrays})

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by `save`. A file that cannot be opened
        raises its OSError; one that is not a readable archive, or has bad
        metadata (a config that RunConfig rejects, a tau that is not a real
        number, lambdas that are not a list of real numbers) or a parameter
        that is not float64 or holds a NaN or infinity, raises
        CorruptFileError. The retired keys of older files are ignored: the
        config's `lambda_entropy_coef`, `optimizer` and `checkpoint_path`, and
        `epoch` and `best_metric`. tau may be NaN, as a fine-tuned model
        stores it."""
        def parse(data):
            meta = json.loads(str(data["__meta__"]))
            params = {k[len("param:"):]: data[k] for k in data.files if k.startswith("param:")}
            config = meta["config"]
            if isinstance(config, dict):  # older files carry retired settings
                for retired in ("lambda_entropy_coef", "optimizer", "checkpoint_path"):
                    config.pop(retired, None)
            config, lam = RunConfig(**config), meta["lambdas"]
            for name, holds in (("tau", is_real),
                                ("lambdas", lambda v: v is None or _is_list_of(v, is_real))):
                if not holds(meta[name]):
                    raise TypeError(f"{name} {meta[name]!r} has the wrong type")
            for name, values in params.items():
                if values.dtype != np.float64:
                    raise TypeError(f"parameter {name!r} holds {values.dtype}, not float64")
                if not np.isfinite(values).all():
                    raise ValueError(f"parameter {name!r} holds a non-finite value")
            return cls(config, params, None if lam is None else np.asarray(lam, dtype=np.float64),
                       meta["tau"])
        return cohort_mod.read_archive(path, parse)


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
        spec = cohort.modality(name)
        encoders[name] = build_encoder(spec.kind, spec.obs_dim, config.encoder_hidden,
                                       config.embedding_dim, rng, name)
    return encoders


def encode_batch(encoders, observations, indices, subset):
    """The row-aligned embedding batch of each modality of `subset`, in order."""
    return [encoders[name].forward(observations[name][indices]) for name in subset]


def _collect_params(encoders):
    return [p for name in sorted(encoders) for p in encoders[name].parameters()]


def build_model(config, cohort, rng, lambdas=None):
    """The fine-tuning model of `config` as (encoders, fuse, head, params),
    drawn from `rng` in this order: the encoders in subset order, the mLSTM
    cell (gated by `lambdas`) in that regime, then the classifier head."""
    encoders = build_encoders(cohort, config, rng)
    fusion_params, fuse = [], concat_fuse
    width = config.embedding_dim * len(config.modality_subset)
    if config.regime == "mlstm":
        cell = make_lstm_params(rng, config.embedding_dim, config.mlstm_hidden, "mlstm")
        fusion_params, width = list(cell.values()), config.mlstm_hidden

        def fuse(embeddings):
            return mlstm_forward(cell, embeddings, lambdas)
    head = ClassifierHead(width, config.head_hidden, _labels(cohort, config).shape[1], rng)
    return encoders, fuse, head, _collect_params(encoders) + fusion_params + head.parameters()


def _snapshot(params):
    return {p.name: p.values.copy() for p in params}


def _load_into(params, stored):
    for p in params:
        if p.name not in stored:
            raise ConfigurationError(f"checkpoint missing parameter {p.name!r}")
        if stored[p.name].shape != p.values.shape:
            raise ConfigurationError(f"checkpoint shape mismatch for {p.name!r}")
        p.values[...] = stored[p.name]


def _train(config, opt, rows, rng, batch_loss, what, min_rows=1):
    """Up to `config.max_epochs` epochs of shuffled `config.batch_size` batches
    of `rows`, skipping any of fewer than `min_rows`. A finite `batch_loss(idx)`
    takes one optimizer step; a non-finite one raises DivergenceError. Yields
    (epoch, batch losses) after each epoch; to stop, the caller leaves the loop."""
    last_finite = None
    for epoch in range(config.max_epochs):
        perm = rows[rng.permutation(rows.size)]
        losses = []
        for start in range(0, perm.size, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.size < min_rows:
                continue
            loss = batch_loss(idx)
            value = float(loss.values)
            if not np.isfinite(value):
                raise DivergenceError(f"{what} loss diverged",
                                      last_finite_loss=last_finite, epoch=epoch)
            last_finite = value
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(value)
        yield epoch, losses


# ---------------------------------------------------------------------------
# contrastive pre-training


@STRICT_FLOATS
def pretrain(config, cohort):
    """Train encoders + log temperature (+ lambda logits for K >= 3) on the
    pre-training pool, from tau = 1 and uniform lambda. Returns (Checkpoint,
    per-epoch loss history); the checkpoint's lambda is uniform for K = 2,
    the weighting of the symmetric pair loss."""
    if config.regime != "contrastive_pretrain":
        raise ConfigurationError("pretrain requires regime=contrastive_pretrain")
    k = len(config.modality_subset)
    rng = np.random.default_rng(config.seed)
    encoders = build_encoders(cohort, config, rng)
    log_tau = Parameter("log_tau", np.array(0.0))
    logits = Parameter("lambda_logits", np.zeros(k)) if k >= 3 else None

    params = _collect_params(encoders) + [log_tau] + ([] if logits is None else [logits])
    opt = Adam(params, config.learning_rate)

    pool, _ = cohort_mod.pretrain_pool(cohort, seed=config.seed,
                                       pool_fraction=config.pool_fraction)
    if min(config.batch_size, pool.size) < 2:
        raise DegenerateInputError(
            f"no batch of 2 rows: batch_size {config.batch_size}, pre-training pool of "
            f"{pool.size} patients; in-batch contrast needs at least 2")

    def batch_loss(idx):
        embeddings = encode_batch(encoders, cohort.observations, idx, config.modality_subset)
        if logits is None:
            total, _ = infonce_pair_loss(*embeddings, log_tau)
        else:
            total, _ = weighted_ovo_loss(embeddings, log_tau, logits)
        return total

    # a batch of 1 is skipped: a single sample has no in-batch negatives
    history = [float(np.mean(losses)) for _, losses in
               _train(config, opt, pool, rng, batch_loss, "contrastive", min_rows=2)]

    ckpt = Checkpoint(config=replace(config), params=_snapshot(params),
                      lambdas=kernels.softmax(np.zeros(k) if logits is None else logits.values),
                      tau=float(np.exp(log_tau.values)))
    return ckpt, history


@STRICT_FLOATS
def pool_alignment_accuracy(cohort, checkpoint):
    """Top-5 alignment accuracy of the checkpoint's embeddings on its run's pool patients."""
    config = checkpoint.config
    encoders = build_encoders(cohort, config, np.random.default_rng(config.seed))
    _load_into(_collect_params(encoders), checkpoint.params)
    pool, _ = cohort_mod.pretrain_pool(cohort, seed=config.seed,
                                       pool_fraction=config.pool_fraction)
    pool = pool[:ALIGNMENT_PATIENTS]
    embeddings = encode_batch(encoders, cohort.observations, pool, config.modality_subset)
    vectors = np.concatenate([emb.values for emb in embeddings])  # modality-major
    return top5_alignment_accuracy(vectors, np.tile(pool, len(embeddings)))


# ---------------------------------------------------------------------------
# fine-tuning


def finetune_splits(cohort, config):
    """Pool for contrastive pre-training; 80/10/10 split of the remainder.
    An empty validation or test split raises DegenerateInputError."""
    pool, rest = cohort_mod.pretrain_pool(cohort, seed=config.seed,
                                          pool_fraction=config.pool_fraction)
    labels = cohort.binary_labels[rest]
    rng = np.random.default_rng(config.seed + 1)
    tr, va, te = cohort_mod._stratified_partition(labels, (0.8, 0.1, 0.1), rng)
    if not (va.size and te.size):
        raise DegenerateInputError(
            f"cohort of {cohort.num_patients} patients too small to split: {pool.size} pool, "
            f"{tr.size} train, {va.size} validation, {te.size} test")
    return pool, rest[tr], rest[va], rest[te]


def _labels(cohort, config):
    """The task's 0/1 label matrix, one row per patient: a binary task is
    one column."""
    if config.task == "binary":
        return cohort.binary_labels[:, None]
    return cohort.multilabels


def _metrics_from_scores(scores, targets, *metrics):
    """The macro mean of each of `metrics` (AUROC and AUPRC when none are
    named) over the label columns with both classes present; a binary task
    is one column."""
    metrics = metrics or (auroc, auprc)
    two_class = np.flatnonzero(targets.min(axis=0) != targets.max(axis=0))
    if not two_class.size:
        raise DegenerateInputError("no label with both classes present in evaluation split")
    return tuple(float(np.mean([metric(scores[:, l], targets[:, l]) for l in two_class]))
                 for metric in metrics)


def _resolve_lambdas(config, checkpoint):
    """The mLSTM's weights, one per modality of the subset, from the
    `literal:` source or the checkpoint: checked to lie on the simplex once
    per run, then divided by their sum to absorb serialization rounding."""
    lambdas = config.literal_lambdas()
    if lambdas is None:
        if checkpoint.lambdas is None:
            raise ConfigurationError(
                "lambda_source=learned requires a contrastive checkpoint with lambdas")
        lambdas = np.asarray(checkpoint.lambdas, dtype=np.float64)
    k = len(config.modality_subset)
    if lambdas.shape != (k,):
        raise ConfigurationError(f"lambdas must have length {k}, got {lambdas.tolist()}")
    if not (np.isfinite(lambdas).all() and (lambdas >= 0.0).all()):
        raise ContractError(f"lambdas must be finite and nonnegative, got {lambdas.tolist()}")
    total = lambdas.sum()
    if abs(total - 1.0) > 1e-6:
        raise ContractError(f"lambdas must sum to 1, got {total!r}")
    return lambdas / total


def _check_checkpoint(checkpoint, config, reader, regimes):
    """Reject a checkpoint that holds another model than `reader` expects:
    one trained in a regime outside `regimes`, on another modality subset or
    order, or on other patients: the seed and the pool fraction decide the
    pretraining pool and the test split."""
    trained = checkpoint.config
    if trained.regime not in regimes:
        raise ConfigurationError(f"{reader} reads a {' or '.join(regimes)} checkpoint, "
                                 f"got one of regime {trained.regime!r}")
    if trained.modality_subset != config.modality_subset:
        raise ConfigurationError(f"checkpoint modality subset {trained.modality_subset} does "
                                 f"not match the run's {config.modality_subset}")
    for name in ("seed", "pool_fraction"):
        ours, theirs = getattr(trained, name), getattr(config, name)
        if ours != theirs:
            raise ConfigurationError(f"checkpoint {name} {ours} does not match the run's {name} "
                                     f"{theirs}; its pretraining pool and test rows would differ")


def _reads_checkpoint(config):
    """Whether a fine-tuning run reads a contrastive checkpoint: the frozen
    regime loads its encoders, a learned-lambda mLSTM of any K its lambdas."""
    return config.regime == "frozen_finetune" or (config.regime == "mlstm"
                                                  and config.lambda_source == "learned")


@STRICT_FLOATS
def finetune(config, cohort, checkpoint=None):
    """Train a downstream model per regime with early stopping on validation
    AUROC. Returns (Checkpoint, MetricsRecord, info): the best-epoch weights,
    their test metrics, and `info` = {"epochs_run", "best_epoch"}."""
    if config.regime not in FINETUNE_REGIMES:
        raise ConfigurationError(f"finetune cannot run regime {config.regime!r}")
    if _reads_checkpoint(config):
        if checkpoint is None:
            raise ConfigurationError(f"this {config.regime} run reads a contrastive checkpoint "
                                     f"(frozen encoders or learned lambdas); none was given")
        _check_checkpoint(checkpoint, config, config.regime, ("contrastive_pretrain",))

    lambdas = _resolve_lambdas(config, checkpoint) if config.regime == "mlstm" else None
    rng = np.random.default_rng(config.seed)
    encoders, fuse, head, model_params = build_model(config, cohort, rng, lambdas)
    _, train_idx, val_idx, test_idx = finetune_splits(cohort, config)
    labels = _labels(cohort, config).astype(np.float64)
    loss = multilabel_ce
    if config.task == "binary":
        n_pos = int(labels[train_idx].sum())
        weights = class_weights_from_counts(n_pos, train_idx.size - n_pos)
        loss = functools.partial(weighted_bce, class_weights=weights)

    def encode(indices):
        return fuse(encode_batch(encoders, cohort.observations, indices, config.modality_subset))

    trained = model_params
    if config.regime == "frozen_finetune":
        _load_into(_collect_params(encoders), checkpoint.params)
        trained = head.parameters()
        # the encoders never change, so each patient the run uses is encoded once
        used = np.concatenate([train_idx, val_idx, test_idx])
        features = np.zeros((cohort.num_patients, head.input_dim))
        features[used] = encode(used).values
        encode = features.__getitem__  # a batch reads its cached rows
    opt = Adam(trained, config.learning_rate)

    def forward(indices):
        return head.forward(encode(indices))

    def batch_loss(idx):
        return loss(forward(idx), labels[idx])

    def evaluate(indices, *metrics):
        return _metrics_from_scores(forward(indices).values, labels[indices], *metrics)

    best_metric, best_epoch = -np.inf, -1
    best_snapshot = _snapshot(trained)
    for epoch, _ in _train(config, opt, train_idx, rng, batch_loss, "fine-tuning"):
        epochs_run = epoch + 1
        (val_auroc,) = evaluate(val_idx, auroc)  # early stopping reads AUROC alone
        if val_auroc > best_metric:
            best_metric, best_epoch = val_auroc, epoch
            best_snapshot = _snapshot(trained)
        elif epoch - best_epoch >= config.patience:
            break

    _load_into(trained, best_snapshot)
    test_auroc, test_auprc = evaluate(test_idx)
    record = MetricsRecord(auroc=test_auroc, auprc=test_auprc)

    ckpt = Checkpoint(config=replace(config), params=_snapshot(model_params), lambdas=lambdas,
                      tau=float("nan"))
    return ckpt, record, {"epochs_run": epochs_run, "best_epoch": best_epoch}


# ---------------------------------------------------------------------------
# sweeps and persistence


@dataclass
class SweepRow:
    """One line of `rows.csv`; the field order is the column order."""

    subset: str
    regime: str
    task: str
    seed: int
    auroc: float = float("nan")
    auprc: float = float("nan")
    alignment_top5: float = float("nan")
    final_loss: float = float("nan")
    wall_time_s: float = 0.0
    status: str = "ok"


ROW_FIELDS = [f.name for f in fields(SweepRow)]
# (aggregate column, SweepRow attribute): each pair makes a _mean and a _std column
AGG_STATS = (("auroc", "auroc"), ("auprc", "auprc"), ("alignment", "alignment_top5"))
AGG_FIELDS = ["subset", "regime", "task", "n_seeds"] + [
    f"{column}_{stat}" for column, _ in AGG_STATS for stat in ("mean", "std")]


def _mean_std(values):
    """Mean and std of the finite values; std is None below two values."""
    values = [v for v in values if np.isfinite(v)]
    if not values:
        return float("nan"), None
    return float(np.mean(values)), (float(np.std(values)) if len(values) > 1 else None)


@dataclass
class SweepResult:
    rows: list

    def aggregates(self):
        cells = {}
        for row in self.rows:
            if row.status == "ok":
                cells.setdefault((row.subset, row.regime, row.task), []).append(row)
        out = []
        for (subset, regime, task), rows in cells.items():
            agg = {"subset": subset, "regime": regime, "task": task, "n_seeds": len(rows)}
            for column, attr in AGG_STATS:
                agg[f"{column}_mean"], agg[f"{column}_std"] = _mean_std(
                    [getattr(r, attr) for r in rows])
            out.append(agg)
        return out


def run_cell(config, cohort, pretrained):
    """The sweep row of `config`. `pretrained(seed)` returns the (Checkpoint,
    history) of the contrastive pretrain of the config's subset at `seed`,
    which the cells that read it share and leave unchanged."""
    t0 = time.perf_counter()
    subset = "+".join(config.modality_subset)
    if config.regime == "contrastive_pretrain":
        ckpt, history = pretrained(config.seed)
        alignment = pool_alignment_accuracy(cohort, ckpt)
        return SweepRow(subset, config.regime, config.task, config.seed, alignment_top5=alignment,
                        final_loss=history[-1], wall_time_s=time.perf_counter() - t0)
    checkpoint = pretrained(config.seed)[0] if _reads_checkpoint(config) else None
    _, record, _ = finetune(config, cohort, checkpoint)
    return SweepRow(subset, config.regime, config.task, config.seed, auroc=record.auroc,
                    auprc=record.auprc, wall_time_s=time.perf_counter() - t0)


def sweep(base, cohort, subsets, regimes, seeds):
    """Cartesian product of (subset, regime, seed); per-cell failures are
    recorded without aborting the sweep. Each (subset, regime) config is
    built once, while the axes are checked. The cells of one subset and seed
    share one pretrain, run when the first cell reads it and kept until the
    sweep moves on to the next subset; a failed pretrain is not kept, so it
    fails again in every cell that reads it. An empty axis, or an entry
    repeated on one (a subset only with its modalities in the same order),
    an unknown regime, or a subset that is not 2 or more distinct modalities
    of the cohort raises ConfigurationError before any cell runs."""
    if not subsets or not regimes or not seeds:
        raise ConfigurationError("sweep axes must be nonempty")
    for name, axis in (("subsets", [tuple(s) for s in subsets]), ("regimes", regimes),
                       ("seeds", seeds)):
        repeated = [entry for entry in dict.fromkeys(axis) if axis.count(entry) > 1]
        if repeated:
            raise ConfigurationError(f"sweep {name} repeat {repeated}; list each once")
    grid = []  # each subset's configs, one per regime, with the base seed
    for subset in subsets:
        grid.append([replace(base, modality_subset=list(subset), regime=regime)
                     for regime in regimes])
        for name in subset:
            cohort.modality(name)
    rows = []
    for configs in grid:
        pretrained = functools.cache(lambda seed, config=configs[0]: pretrain(
            replace(config, regime="contrastive_pretrain", seed=seed), cohort))
        for config in configs:
            for seed in seeds:
                try:
                    rows.append(run_cell(replace(config, seed=seed), cohort, pretrained))
                except Exception as exc:  # sweep isolation
                    rows.append(SweepRow("+".join(config.modality_subset), config.regime,
                                         base.task, seed,
                                         status=f"error: {type(exc).__name__}: {exc}"))
    return SweepResult(rows)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if np.isnan(value) else "%.17g" % value  # +-inf as inf and -inf
    return str(value)


def _write_csv(path, columns, records):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for record in records:
            writer.writerow({k: _fmt(v) for k, v in record.items()})
    return path


def emit(result, out_dir, base_config=None):
    """Write row-level CSV, Table-1-shaped aggregate CSV, and a config
    snapshot. Returns the list of written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [_write_csv(os.path.join(out_dir, "rows.csv"), ROW_FIELDS,
                        (asdict(row) for row in result.rows)),
             _write_csv(os.path.join(out_dir, "aggregates.csv"), AGG_FIELDS, result.aggregates())]
    if base_config is not None:
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(asdict(base_config), fh, indent=2, sort_keys=True)
        paths.append(cfg_path)
    return paths


# how load_rows reads each SweepRow field type back from its cell
_PARSE_CELL = {int: int, float: lambda text: float(text) if text else float("nan"), str: str}


def load_rows(path):
    """Round-trip reader for the row-level CSV. A file without the sweep
    columns, a row with a missing or extra cell, or an unparsable cell
    raises CorruptFileError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [name for name in ROW_FIELDS if name not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"no column {', '.join(missing)}")
            for rec in reader:
                if None in rec or None in rec.values():  # extra cells / missing cells
                    raise ValueError(f"line {reader.line_num}: a missing or extra cell")
                rows.append(SweepRow(**{f.name: _PARSE_CELL[f.type](rec[f.name])
                                        for f in fields(SweepRow)}))
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise CorruptFileError(
                f"{path}: not a sweep rows.csv ({type(exc).__name__}: {exc})") from exc
    return rows


# ---------------------------------------------------------------------------
# attribution over the classifier input


@STRICT_FLOATS
def modality_attribution(config, cohort, checkpoint, steps=256, max_samples=32, target_label=0):
    """Per-modality integrated-gradients scores of logit `target_label` of a
    trained concatenation model, attributed over the classifier's
    concatenated-embedding input and averaged over test samples. `config`
    names the run the checkpoint must come from: a concatenation regime, the
    same modality subset and order, seed and pool fraction. The model and its
    test rows are rebuilt from the checkpoint's own config. Attributions that are zero for every sample
    raise DegenerateInputError: the model's output does not depend on its input."""
    concatenation = ("frozen_finetune", "supervised_baseline")
    _check_checkpoint(checkpoint, config, "attribution", concatenation)
    if config.regime not in concatenation:
        raise ConfigurationError("attribution runs on concatenation models")
    if not is_int(max_samples) or max_samples < 1:
        raise ContractError(f"max_samples must be an integer >= 1, got {max_samples!r}")
    config = checkpoint.config
    encoders, fuse, head, params = build_model(config, cohort, np.random.default_rng(config.seed))
    if not is_int(target_label) or not 0 <= target_label < head.num_labels:
        raise ContractError(f"target_label {target_label!r} outside [0, {head.num_labels})")
    _load_into(params, checkpoint.params)
    for p in params:  # a constant model: each IG backward pass differentiates only its input
        p.requires_grad = False

    _, _, _, test_idx = finetune_splits(cohort, config)
    test_idx = test_idx[:max_samples]
    features = fuse(encode_batch(
        encoders, cohort.observations, test_idx, config.modality_subset)).values

    per_feature = np.stack([
        integrated_gradients(head.forward, row, steps=steps, target=target_label).per_feature
        for row in features])
    if not per_feature.any():
        raise DegenerateInputError("every integrated-gradients attribution is zero: the model's "
                                   "output does not depend on its input (a saturated model)")
    # cumsum adds the samples' shares first to last; sum(axis=0) may not
    totals = np.cumsum(modality_aggregate(per_feature, len(config.modality_subset)), axis=0)[-1]
    return totals / totals.sum()
