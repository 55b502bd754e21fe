"""The four benchmark workloads, shaped like acceptance criteria 05, 10 and 11.

Each workload builds its inputs from the seed in `setup`, which is what a
CLI verb pays before its first useful call: a cohort `generate` ->
`save_cohort` -> `load_cohort` round trip, plus any model the timed call
needs. `run` is one timed call; the benchmark repeats it back to back. `check` rejects wrong outputs with tolerances wide enough that
harmless last-bit changes pass.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np

from mmcl import cohort as cohort_mod
from mmcl import harness

ROSTER = ["text_a", "text_b", "image", "demo", "series"]
RECOVERY_SF = (0.9, 0.7, 0.5, 0.3, 0.1)  # criterion 05
TREND_ORDER = ["series", "demo", "image", "text_b", "text_a"]  # criterion 10
FINETUNE_REGIMES = ("frozen_finetune", "supervised_baseline", "mlstm")
SWEEP_REGIMES = ["contrastive_pretrain", "frozen_finetune"]

SIMPLEX_TOL = 1e-9
# Completeness residual |sum(attributions) - (f(x) - f(baseline))| allowed
# per sample at 256 steps: 5% of |f(x) - f(baseline)|, and never less than
# the 1e-3 of acceptance criterion 08. The right-endpoint Riemann error
# shrinks as 1/steps; seeds 0-2 peak at 1.5% of the gap, and a wrong gradient
# gives shares near 1.
IG_RELATIVE_RESIDUAL = 0.05
IG_ABSOLUTE_RESIDUAL = 1e-3

# Full sizes are the measured shapes. Tiny sizes are for the benchmark's own
# smoke tests and have no recorded reference values.
FULL = {
    "pretrain": {"patients": 400, "epochs": 30, "batch": 64},
    "finetune": {"patients": 300, "pre_epochs": 20, "epochs": 60, "batch": 32, "hidden": 48},
    "attribute": {"patients": 400, "epochs": 30, "batch": 32, "steps": 256, "samples": 32},
    "sweep": {"patients": 60, "epochs": 5, "batch": 16},
}
TINY = {
    "pretrain": {"patients": 60, "epochs": 2, "batch": 16},
    "finetune": {"patients": 100, "pre_epochs": 2, "epochs": 2, "batch": 16, "hidden": 8},
    "attribute": {"patients": 100, "epochs": 2, "batch": 16, "steps": 64, "samples": 3},
    "sweep": {"patients": 60, "epochs": 1, "batch": 16},
}


def digest(*parts):
    """sha256 over arrays, numbers and strings, bit for bit."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            for key in sorted(part):
                h.update(key.encode())
                h.update(digest(part[key]).encode())
        elif isinstance(part, (list, tuple)):
            for item in part:
                h.update(digest(item).encode())
        elif isinstance(part, str):
            h.update(part.encode())
        elif part is None:
            h.update(b"None")
        else:
            h.update(np.ascontiguousarray(np.asarray(part, dtype=np.float64)).tobytes())
    return h.hexdigest()


def _simplex_problems(lam, what):
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all(np.isfinite(lam)) or np.any(lam < 0.0) or abs(lam.sum() - 1.0) > SIMPLEX_TOL:
        return [f"{what} off the simplex: {lam.tolist()}"]
    return []


def round_trip(spec, workdir):
    """generate -> save -> load, as `mmcl generate` then any other verb does.
    Returns the loaded cohort and the three phase times in seconds."""
    path = os.path.join(workdir, "cohort.txt")
    t0 = time.perf_counter()
    generated = cohort_mod.generate(spec)
    t1 = time.perf_counter()
    cohort_mod.save_cohort(generated, path)
    t2 = time.perf_counter()
    loaded = cohort_mod.load_cohort(path)
    t3 = time.perf_counter()
    os.remove(path)
    return loaded, {"generate_s": t1 - t0, "save_s": t2 - t1, "load_s": t3 - t2}


class Workload:
    name = None
    unit = None  # what `throughput` counts on this workload
    throughput_name = None  # the workload's own name for `throughput`

    def __init__(self, seed, sizes, reference=None):
        self.seed = seed
        self.size = sizes[self.name]
        self.reference = reference

    def spec(self):
        raise NotImplementedError

    def prepare(self, cohort):
        """Build the configs and models the timed call needs."""

    def setup(self, workdir):
        self.cohort, phases = round_trip(self.spec(), workdir)
        self.prepare(self.cohort)
        return phases

    def run(self, pause=None):
        """One timed call. A call made of several library calls invokes
        `pause`, when given, between them; the time it takes is not counted."""
        raise NotImplementedError

    def units(self, output):
        """(attempted, failed) library units in one call."""
        return 1, 0

    def work(self):
        """Items of `unit` processed by one call."""
        raise NotImplementedError

    def check(self, output):
        """List of problems with one call's output; empty when correct."""
        raise NotImplementedError

    def digest(self, output):
        raise NotImplementedError


class Pretrain(Workload):
    name = "pretrain"
    unit = "samples"
    throughput_name = "train_samples_per_s"

    def spec(self):
        return cohort_mod.default_five_modality_spec(
            self.size["patients"], seed=self.seed, signal_fractions=RECOVERY_SF)

    def prepare(self, cohort):
        self.config = harness.RunConfig(
            ROSTER, "contrastive_pretrain", max_epochs=self.size["epochs"],
            batch_size=self.size["batch"], learning_rate=1e-2, seed=self.seed)
        self.pool_size = cohort_mod.pretrain_pool(
            cohort, seed=self.seed, pool_fraction=self.config.pool_fraction)[0].size

    def run(self, pause=None):
        return harness.pretrain(self.config, self.cohort)

    def work(self):
        # rows consumed by optimizer steps; pretraining skips a last batch of 1
        rows = self.pool_size - (1 if self.pool_size % self.size["batch"] == 1 else 0)
        return rows * self.size["epochs"]

    def check(self, output):
        ckpt, history = output
        problems = []
        if not history or not np.all(np.isfinite(history)):
            problems.append(f"non-finite pretraining loss: {history}")
        if not np.isfinite(ckpt.tau) or ckpt.tau <= 0:
            problems.append(f"bad temperature {ckpt.tau}")
        problems += _simplex_problems(ckpt.lambdas, "lambda")
        if not problems:
            lam = dict(zip(ROSTER, ckpt.lambdas))
            if not lam["text_a"] > lam["series"]:
                problems.append(f"lambda(text_a) {lam['text_a']} <= lambda(series) {lam['series']}")
        return problems

    def digest(self, output):
        ckpt, history = output
        return digest(history, ckpt.lambdas, ckpt.tau, ckpt.params)


class Finetune(Workload):
    name = "finetune"
    unit = "samples"
    throughput_name = "train_samples_per_s"

    def spec(self):
        return cohort_mod.default_five_modality_spec(
            self.size["patients"], seed=self.seed, signal_fractions=(0.5, 0.5, 0.35, 0.2, 0.0),
            noise_sigmas=(0.5, 0.5, 0.5, 0.5, 2.0))

    def prepare(self, cohort):
        pre_cfg = harness.RunConfig(
            TREND_ORDER, "contrastive_pretrain", max_epochs=self.size["pre_epochs"],
            batch_size=64, learning_rate=1e-2, seed=self.seed)
        self.checkpoint, _ = harness.pretrain(pre_cfg, cohort)
        # patience = max_epochs, so the work done does not depend on numerics
        common = dict(max_epochs=self.size["epochs"], patience=self.size["epochs"],
                      batch_size=self.size["batch"], learning_rate=1e-2,
                      mlstm_hidden=self.size["hidden"], seed=self.seed)
        self.configs = {
            regime: harness.RunConfig(TREND_ORDER, regime, **common) for regime in FINETUNE_REGIMES}
        self.train_size = harness.finetune_splits(cohort, self.configs["mlstm"])[1].size

    def run(self, pause=None):
        out = {}
        for regime, config in self.configs.items():
            if out and pause:
                pause()
            checkpoint = None if regime == "supervised_baseline" else self.checkpoint
            out[regime] = harness.finetune(config, self.cohort, checkpoint)
        return out

    def units(self, output):
        return len(self.configs), 0

    def work(self):
        return len(self.configs) * self.train_size * self.size["epochs"]

    def check(self, output):
        problems = []
        recorded = (self.reference or {}).get("finetune_auroc", {}).get(str(self.seed))
        tol = (self.reference or {}).get("auroc_tolerance")
        for regime, (ckpt, record, info) in output.items():
            for metric in ("auroc", "auprc"):
                value = getattr(record, metric)
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{regime} {metric} {value} outside [0, 1]")
            if info["epochs_run"] != self.size["epochs"]:
                problems.append(f"{regime} ran {info['epochs_run']} epochs")
            if recorded is not None and abs(record.auroc - recorded[regime]) > tol:
                problems.append(f"{regime} AUROC {record.auroc:.4f} differs from the recorded "
                                f"{recorded[regime]:.4f} by more than {tol}")
            for name, values in ckpt.params.items():
                if not np.all(np.isfinite(values)):
                    problems.append(f"{regime} parameter {name} not finite")
        problems += _simplex_problems(output["mlstm"][0].lambdas, "mLSTM lambda")
        return problems

    def digest(self, output):
        return digest({regime: [ckpt.params, record.auroc, record.auprc, info["best_epoch"]]
                       for regime, (ckpt, record, info) in output.items()})


class Attribute(Workload):
    name = "attribute"
    unit = "points"
    throughput_name = "ig_points_per_s"
    spec = Pretrain.spec  # the criterion-05 cohort

    def prepare(self, cohort):
        # patience = max_epochs: the same set-up work on every seed
        self.config = harness.RunConfig(
            ROSTER, "supervised_baseline", max_epochs=self.size["epochs"],
            patience=self.size["epochs"], batch_size=self.size["batch"], learning_rate=1e-2,
            seed=self.seed)
        self.model, _, _ = harness.finetune(self.config, cohort)
        test_size = harness.finetune_splits(cohort, self.config)[3].size
        self.samples = min(self.size["samples"], test_size)

    def run(self, pause=None):
        return harness.modality_attribution(self.config, self.cohort, self.model,
                                            steps=self.size["steps"],
                                            max_samples=self.size["samples"])

    def work(self):
        # each sample: `steps` path points plus the input and baseline ends
        return self.samples * (self.size["steps"] + 2)

    def check(self, output):
        problems = _simplex_problems(output, "per-modality IG scores")
        # the scores hide the per-sample reports; repeat the call once with
        # the reports captured to check completeness and agreement
        reports = []
        original = harness.integrated_gradients

        def capture(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        harness.integrated_gradients = capture
        try:
            again = self.run()
        finally:
            harness.integrated_gradients = original
        if len(reports) != self.samples:
            problems.append(f"{len(reports)} IG reports for {self.samples} samples")
        scale = 256 / self.size["steps"]
        for i, r in enumerate(reports):
            gap = r.output_at_input - r.output_at_baseline
            residual = abs(r.per_feature.sum() - gap)  # recomputed, not the reported one
            allowed = scale * max(IG_RELATIVE_RESIDUAL * abs(gap), IG_ABSOLUTE_RESIDUAL)
            if not residual <= allowed:
                problems.append(f"sample {i}: IG completeness residual {residual:.3e} above "
                                f"{allowed:.3e} (output gap {gap:.3e})")
        if digest(again) != digest(output):
            problems.append("repeated attribution differs")
        return problems

    def digest(self, output):
        return digest(output)


class Sweep(Workload):
    name = "sweep"
    unit = "cells"
    throughput_name = "cells_per_s"

    def spec(self):
        return cohort_mod.default_five_modality_spec(self.size["patients"], seed=self.seed)

    def prepare(self, cohort):
        self.base = harness.RunConfig(ROSTER, "contrastive_pretrain",
                                      max_epochs=self.size["epochs"],
                                      batch_size=self.size["batch"], seed=self.seed)
        self.subsets = harness.enumerate_subsets(ROSTER)

    def run(self, pause=None):
        return harness.sweep(self.base, self.cohort, self.subsets, SWEEP_REGIMES, [self.seed])

    def units(self, output):
        return len(output.rows), sum(row.status != "ok" for row in output.rows)

    def work(self):
        return len(self.subsets) * len(SWEEP_REGIMES)

    def check(self, output):
        problems = []
        if len(output.rows) != self.work():
            problems.append(f"{len(output.rows)} sweep rows, expected {self.work()}")
        for row in output.rows:
            if row.regime == "contrastive_pretrain":
                if not 0.0 <= row.alignment_top5 <= 1.0:
                    problems.append(f"{row.subset}: alignment {row.alignment_top5} not in [0, 1]")
                if not np.isfinite(row.final_loss):
                    problems.append(f"{row.subset}: non-finite final loss")
            elif row.status == "ok" and not 0.0 <= row.auroc <= 1.0:
                problems.append(f"{row.subset} {row.regime}: AUROC {row.auroc} not in [0, 1]")
        return problems

    def digest(self, output):
        fields = [f.name for f in dataclasses.fields(output.rows[0]) if f.name != "wall_time_s"]
        return digest([[getattr(row, f) for f in fields] for row in output.rows])


WORKLOADS = {cls.name: cls for cls in (Pretrain, Finetune, Attribute, Sweep)}
