"""Command-line front end.

Verbs: generate, pretrain, finetune, sweep, attribute, report.
Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 IO error.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import cohort as cohort_mod
from . import harness
from .errors import (MAX_SEEDS, STRICT_FLOATS, ConfigurationError, ContractError,
                     DegenerateInputError, DimensionError, DivergenceError)


def _parse_seeds(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            seeds = range(int(lo), int(hi) + 1)
        else:
            seeds = [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--seeds {text!r}: expected 'a,b,c' or 'lo..hi' integers") from exc
    if len(seeds[:MAX_SEEDS + 1]) > MAX_SEEDS:  # a range too long for len() still slices
        raise ConfigurationError(f"--seeds {text!r}: at most {MAX_SEEDS} seeds")
    if any(seed < 0 for seed in seeds):
        raise ConfigurationError(f"--seeds {text!r}: every seed must be >= 0")
    return list(seeds)


def _parse_floats(flag, text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"{flag} {text!r}: expected comma-separated numbers") from exc


def _config_from_args(args, modality_subset, regime):
    fields = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                fields = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigurationError(f"{args.config}: not valid UTF-8 JSON: {exc}") from exc
            except RecursionError as exc:
                raise ConfigurationError(f"{args.config}: JSON nested too deep") from exc
        if not isinstance(fields, dict):
            raise ConfigurationError(f"{args.config}: expected a JSON object of RunConfig fields")
    for f in dataclasses.fields(harness.RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            fields[f.name] = value
    fields["modality_subset"] = modality_subset
    fields["regime"] = regime
    try:
        return harness.RunConfig(**fields)
    except TypeError as exc:  # an unknown field; RunConfig checks the values itself
        raise ConfigurationError(f"bad RunConfig fields: {exc}") from exc


def _add_run_flags(p):
    p.add_argument("--config", help="JSON file of RunConfig fields")
    p.add_argument("--task", choices=harness.TASKS)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda-source", dest="lambda_source")
    p.add_argument("--embedding-dim", dest="embedding_dim", type=int)
    p.add_argument("--pool-fraction", dest="pool_fraction", type=float)


def build_parser():
    parser = argparse.ArgumentParser(prog="mmcl")
    sub = parser.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="generate a synthetic cohort")
    g.add_argument("--num-patients", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--latent-dim", type=int, default=8)
    g.add_argument("--signal-fractions", default="0.9,0.8,0.7,0.6,0.5")
    g.add_argument("--noise-sigmas", default="0.1,0.1,0.1,0.1,0.1")
    g.add_argument("--sparsity", type=float, default=0.3)
    g.add_argument("--out", required=True)

    p = sub.add_parser("pretrain", help="contrastive pre-training")
    p.add_argument("--cohort", required=True)
    p.add_argument("--modalities", required=True, help="comma-separated subset")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    _add_run_flags(p)

    f = sub.add_parser("finetune", help="downstream training")
    f.add_argument("--cohort", required=True)
    f.add_argument("--modalities", required=True)
    f.add_argument("--regime", required=True, choices=harness.FINETUNE_REGIMES)
    f.add_argument("--checkpoint", dest="checkpoint_path")
    f.add_argument("--out", required=True, help="output directory")
    _add_run_flags(f)

    s = sub.add_parser("sweep", help="grid over subsets x regimes x seeds")
    s.add_argument("--cohort", required=True)
    s.add_argument("--subsets", default="all", help="'all' (26 subsets) or ';'-separated comma lists")
    s.add_argument("--regimes", default="contrastive_pretrain")
    s.add_argument("--seeds", default="0", help="e.g. '0,1,2' or '0..9'")
    s.add_argument("--out", required=True)
    _add_run_flags(s)

    a = sub.add_parser("attribute", help="integrated-gradients modality report")
    a.add_argument("--cohort", required=True)
    a.add_argument("--checkpoint", dest="checkpoint_path", required=True,
                   help="a frozen_finetune or supervised_baseline model.npz")
    a.add_argument("--steps", type=int, default=256)
    a.add_argument("--out", required=True, help="output JSON path")

    r = sub.add_parser("report", help="re-aggregate a row-level CSV")
    r.add_argument("--rows", required=True)
    r.add_argument("--out", required=True)
    return parser


def _cmd_generate(args):
    spec = cohort_mod.default_five_modality_spec(
        args.num_patients, seed=args.seed, latent_dim=args.latent_dim,
        signal_fractions=_parse_floats("--signal-fractions", args.signal_fractions),
        noise_sigmas=_parse_floats("--noise-sigmas", args.noise_sigmas),
        binary_label_sparsity=args.sparsity)
    cohort = cohort_mod.generate(spec)
    cohort_mod.save_cohort(cohort, args.out)
    print(f"wrote cohort of {args.num_patients} patients to {args.out}")


def _cmd_pretrain(args):
    cohort = cohort_mod.load_cohort(args.cohort)
    config = _config_from_args(args, args.modalities.split(","), "contrastive_pretrain")
    ckpt, history = harness.pretrain(config, cohort)
    ckpt.save(args.out)
    print(f"pretrained {len(config.modality_subset)} modalities; "
          f"final loss {history[-1]:.6f}; checkpoint at {args.out}")
    print("lambdas:", np.array2string(ckpt.lambdas, precision=4))


def _cmd_finetune(args):
    cohort = cohort_mod.load_cohort(args.cohort)
    config = _config_from_args(args, args.modalities.split(","), args.regime)
    checkpoint = None
    if args.checkpoint_path:
        checkpoint = harness.Checkpoint.load(args.checkpoint_path)
    ckpt, record, info = harness.finetune(config, cohort, checkpoint)
    os.makedirs(args.out, exist_ok=True)
    ckpt.save(os.path.join(args.out, "model.npz"))
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump({"auroc": record.auroc, "auprc": record.auprc, "seed": config.seed,
                   "task": config.task, **info}, fh, indent=2)
    print(f"{args.regime}: test AUROC {record.auroc:.4f}, AUPRC {record.auprc:.4f} "
          f"(best epoch {info['best_epoch']})")


def _cmd_sweep(args):
    cohort = cohort_mod.load_cohort(args.cohort)
    modalities = [m.name for m in cohort.spec.modalities]
    if args.subsets == "all":
        subsets = harness.enumerate_subsets(modalities)
    else:
        subsets = [s.split(",") for s in args.subsets.split(";")]
    regimes = args.regimes.split(",")
    seeds = _parse_seeds(args.seeds)
    base = _config_from_args(args, modalities, regimes[0])
    result = harness.sweep(base, cohort, subsets, regimes, seeds)
    paths = harness.emit(result, args.out, base)
    failures = [r for r in result.rows if r.status != "ok"]
    print(f"sweep: {len(result.rows)} runs, {len(failures)} failures; wrote {', '.join(paths)}")


def _cmd_attribute(args):
    cohort = cohort_mod.load_cohort(args.cohort)
    checkpoint = harness.Checkpoint.load(args.checkpoint_path)
    config = checkpoint.config  # the run that trained the model, its subset and test rows
    scores = harness.modality_attribution(config, cohort, checkpoint, steps=args.steps)
    report = {name: float(s) for name, s in zip(config.modality_subset, scores)}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print("modality attribution:", json.dumps(report))


def _cmd_report(args):
    rows = harness.load_rows(args.rows)
    result = harness.SweepResult(rows)
    paths = harness.emit(result, args.out)
    print(f"re-aggregated {len(rows)} rows; wrote {', '.join(paths)}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate, "pretrain": _cmd_pretrain, "finetune": _cmd_finetune,
        "sweep": _cmd_sweep, "attribute": _cmd_attribute, "report": _cmd_report,
    }
    try:
        STRICT_FLOATS(handlers[args.verb])(args)  # an overflow ends the run with exit 3
    except OSError as exc:  # first: a CorruptFileError is also a ContractError
        print(f"io error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (ConfigurationError, ContractError, DegenerateInputError, DimensionError) as exc:
        print(f"configuration error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc} "
              f"(last finite loss {exc.last_finite_loss}, epoch {exc.epoch})", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical divergence: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
