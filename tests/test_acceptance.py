"""Acceptance suite: property checks and desk-scale trend checks, one
printed pass/fail line per criterion."""

import itertools
import time

import numpy as np
import pytest

from mmcl import harness
from mmcl.attribution import integrated_gradients, spearman_rank_correlation
from mmcl.autodiff import Tensor, grad_check
from mmcl.cohort import default_five_modality_spec, generate
from mmcl.encoders import lstm_step, make_lstm_params
from mmcl.fusion import (ClassifierHead, ModalitySequence, mlstm_forward, multilabel_ce,
                         weighted_bce)
from mmcl.harness import RunConfig, finetune, pretrain, sweep
from mmcl.losses import (LambdaWeights, ModalityEmbeddingSet, Temperature,
                         infonce_pair_loss, ovo_loss, weighted_ovo_loss)
from mmcl.metrics import AlignmentCorpus, auprc, auroc, top5_alignment_accuracy
from mmcl.optim import SGD

from lstm_oracle import composed_unroll

ROSTER = ["text_a", "text_b", "image", "demo", "series"]


def _verdict(num, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------------------
# shared lambda-recovery runs (criteria 5 and 9)

RECOVERY_SF = (0.9, 0.7, 0.5, 0.3, 0.1)


@pytest.fixture(scope="session")
def lambda_recovery_runs():
    """Per-seed learned lambdas and per-modality IG scores on the planted
    five-modality cohort."""
    runs = []
    for seed in range(10):
        cohort = generate(default_five_modality_spec(
            400, seed=seed, signal_fractions=RECOVERY_SF))
        pre_cfg = RunConfig(ROSTER, "contrastive_pretrain", max_epochs=30,
                            batch_size=64, learning_rate=1e-2, seed=seed)
        ckpt, _ = pretrain(pre_cfg, cohort)
        sup_cfg = RunConfig(ROSTER, "supervised_baseline", max_epochs=30,
                            patience=10, batch_size=32, learning_rate=1e-2,
                            seed=seed)
        sup_ckpt, _, _ = finetune(sup_cfg, cohort)
        ig = harness.modality_attribution(sup_cfg, cohort, sup_ckpt,
                                          steps=64, max_samples=8)
        runs.append({"lambdas": ckpt.lambdas, "ig": ig})
    return runs


# --------------------------------------------------------------------------

def test_criterion_01_ovo_reduces_to_infonce():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    cases = list(itertools.product((2, 4, 8, 16), (4, 8)))
    for trial in range(100):
        n, d = cases[trial % len(cases)]
        a = Tensor(rng.standard_normal((n, d)))
        b = Tensor(rng.standard_normal((n, d)))
        tau = Temperature(float(rng.uniform(0.2, 2.0)))
        emb = ModalityEmbeddingSet(["a", "b"], [a, b])
        _, ovo_terms = ovo_loss(emb, tau)
        _, nce_terms = infonce_pair_loss(a, b, tau)
        for ot, nt in zip(ovo_terms, nce_terms):
            worst = max(worst, abs(ot.item() - nt.item()))
    elapsed = time.perf_counter() - start
    _verdict(1, worst <= 1e-12 and elapsed < 10,
             f"max |OvO term - InfoNCE term| = {worst:.2e} over 100 batches "
             f"({elapsed:.1f}s)")


def test_criterion_02_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    errs = {}

    a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
    tau = Temperature(0.5)
    errs["infonce"] = grad_check(lambda: infonce_pair_loss(a, b, tau)[0],
                                 [a, b, tau.log_tau], h=1e-5)

    mats = [Tensor(rng.standard_normal((3, 4))) for _ in range(3)]
    tau2 = Temperature(0.7)
    lam2 = LambdaWeights(3, initial_logits=[0.3, -0.2, 0.1])
    emb = ModalityEmbeddingSet(["a", "b", "c"], mats)
    errs["weighted_ovo"] = grad_check(
        lambda: weighted_ovo_loss(emb, tau2, lam2)[0],
        mats + [tau2.log_tau, lam2.logits], h=1e-5)

    params = make_lstm_params(rng, 2, 3)
    steps = [Tensor(rng.standard_normal((2, 2))) for _ in range(3)]
    lam_vec = Tensor(np.array([0.5, 0.3, 0.2]))

    def mlstm_loss():
        state = Tensor(np.zeros((2, 6)))
        for t, x_t in enumerate(steps):
            state = lstm_step(params, x_t, state, lam_vec[t])
        return state[:, 3:].sum()

    errs["mlstm"] = grad_check(
        mlstm_loss, steps + [lam_vec] + list(params.values()), h=1e-5)

    z = Tensor(rng.standard_normal((5, 1)))
    y = rng.integers(0, 2, size=5)
    errs["bce"] = grad_check(lambda: weighted_bce(z, y, (2.0, 1.0)), z, h=1e-5)
    z2 = Tensor(rng.standard_normal((3, 4)))
    y2 = rng.integers(0, 2, size=(3, 4))
    errs["multilabel"] = grad_check(lambda: multilabel_ce(z2, y2), z2, h=1e-5)

    worst = max(errs.values())
    elapsed = time.perf_counter() - start
    _verdict(2, worst <= 1e-5 and elapsed < 60,
             f"max relative gradient error {worst:.2e} "
             f"({', '.join(f'{k}={v:.1e}' for k, v in errs.items())}; {elapsed:.1f}s)")


def test_criterion_03_mlstm_reduces_to_lstm():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        hid = int(rng.integers(2, 6))
        din = int(rng.integers(2, 5))
        steps = int(rng.integers(2, 5))
        params = make_lstm_params(rng, din, hid)
        mats = [rng.standard_normal((3, din)) for _ in range(steps)]
        seq = ModalitySequence.unchecked([f"m{t}" for t in range(steps)],
                                         [Tensor(m) for m in mats], np.ones(steps))
        gated = mlstm_forward(params, seq, hid).values
        plain = composed_unroll(params, mats, hid).values
        worst = max(worst, float(np.abs(gated - plain).max()))
    elapsed = time.perf_counter() - start
    _verdict(3, worst <= 1e-12 and elapsed < 10,
             f"max |gated - plain| = {worst:.2e} over 100 parameterizations "
             f"({elapsed:.1f}s)")


def test_criterion_04_lambda_simplex_every_step():
    cohort = generate(default_five_modality_spec(120, seed=0))
    cfg = RunConfig(ROSTER, "contrastive_pretrain", max_epochs=20,
                    batch_size=16, seed=0)
    violations = []
    steps = [0]

    def on_step(lam):
        steps[0] += 1
        vals = lam.values()
        if abs(vals.sum() - 1.0) > 1e-12 or not np.all(vals > 0.0):
            violations.append((steps[0], vals))

    pretrain(cfg, cohort, on_step=on_step)
    _verdict(4, steps[0] > 0 and not violations,
             f"softmax(lambda) on the simplex after every one of {steps[0]} "
             f"optimizer steps ({len(violations)} violations)")


def test_criterion_05_lambda_recovery(lambda_recovery_runs):
    planted = np.array(RECOVERY_SF)
    rank_hits = 0
    rho_hits = 0
    rhos = []
    for run in lambda_recovery_runs:
        lam = run["lambdas"]
        rho = spearman_rank_correlation(planted, lam)
        rhos.append(rho)
        if int(np.argmax(lam)) == 0:
            rank_hits += 1
        if rho > 0.6:
            rho_hits += 1
    _verdict(5, rank_hits >= 8 and rho_hits >= 8,
             f"most-informative modality ranked first in {rank_hits}/10 seeds; "
             f"rho > 0.6 in {rho_hits}/10 seeds (median rho {np.median(rhos):.2f})")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(0)
    worst_roc = worst_prc = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 101))
        # coarse score grid forces frequent ties
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        checked += 1
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        # pairwise Mann-Whitney oracle
        gt = (pos[:, None] > neg[None, :]).sum()
        eq = (pos[:, None] == neg[None, :]).sum()
        roc_oracle = (gt + 0.5 * eq) / (pos.size * neg.size)
        worst_roc = max(worst_roc, abs(auroc(scores, labels) - roc_oracle))
        # threshold-sweep average-precision oracle
        ap = 0.0
        prev_tp = 0
        for thr in sorted(set(scores.tolist()), reverse=True):
            sel = scores >= thr
            tp = int((labels[sel] == 1).sum())
            ap += ((tp - prev_tp) / pos.size) * (tp / sel.sum())
            prev_tp = tp
        worst_prc = max(worst_prc, abs(auprc(scores, labels) - ap))
    _verdict(6, worst_roc <= 1e-12 and worst_prc <= 1e-12,
             f"1000 instances: max AUROC gap {worst_roc:.2e}, "
             f"max AUPRC gap {worst_prc:.2e}")


def _corpus_from(vectors, pids):
    corpus = AlignmentCorpus()
    counters = {}
    for vec, pid in zip(vectors, pids):
        mid = counters.get(pid, 0)
        counters[pid] = mid + 1
        corpus.add(pid, f"m{mid}", vec)
    return corpus


def _enumeration_top5(vectors, pids):
    """Independent oracle: explicit cosine sims, stable sort, loop."""
    mat = np.stack(vectors)
    e = len(vectors)
    hits = 0
    for i in range(e):
        sims = []
        for j in range(e):
            sims.append(np.dot(mat[i], mat[j])
                        / (np.linalg.norm(mat[i]) * np.linalg.norm(mat[j])))
        order = sorted(range(e), key=lambda j: (-sims[j], j))
        neighbors = [j for j in order if j != i][:5]
        if any(pids[j] == pids[i] for j in neighbors):
            hits += 1
    return hits / e


def test_criterion_07_top5_alignment():
    rng = np.random.default_rng(0)
    # (a) identical per-patient embeddings
    base = rng.standard_normal((20, 8))
    vectors = [base[p] for p in range(20) for _ in range(2)]
    pids = [p for p in range(20) for _ in range(2)]
    perfect = top5_alignment_accuracy(_corpus_from(vectors, pids))

    # (b) isotropic random embeddings vs the chance level of a uniformly
    # random neighbor ranking: P(partner in top 5 of 199) = 5/199
    accs = []
    for _ in range(50):
        vecs = rng.standard_normal((200, 64))
        rpids = [p for p in range(100) for _ in range(2)]
        accs.append(top5_alignment_accuracy(_corpus_from(list(vecs), rpids)))
    mean_acc = float(np.mean(accs))
    chance = 5.0 / 199.0

    # (c) exhaustive-enumeration oracle on 6-patient fixtures
    exact_ok = True
    for trial in range(20):
        vecs = list(np.round(rng.standard_normal((12, 4)), 1))
        fpids = [p for p in range(6) for _ in range(2)]
        got = top5_alignment_accuracy(_corpus_from(vecs, fpids))
        want = _enumeration_top5(vecs, fpids)
        exact_ok = exact_ok and got == want

    _verdict(7, perfect == 1.0 and abs(mean_acc - chance) < 0.03 and exact_ok,
             f"perfect clusters {perfect:.3f}; random mean {mean_acc:.4f} vs "
             f"chance {chance:.4f}; 6-patient enumeration exact: {exact_ok}")


def test_criterion_08_ig_completeness():
    rng = np.random.default_rng(0)
    # train a small MLP on a random binary problem
    head = ClassifierHead(4, [6], 1, rng)
    x_train = rng.standard_normal((64, 4))
    y_train = (x_train[:, 0] + 0.5 * x_train[:, 1] > 0).astype(float)
    opt = SGD(head.parameters(), lr=0.02)
    for _ in range(50):
        opt.zero_grad()
        weighted_bce(head.forward(x_train), y_train).backward()
        opt.step()

    def model_fn(t):
        return head.forward(t)[:, 0]

    x = rng.standard_normal(4)
    res_256 = integrated_gradients(model_fn, x, steps=256).completeness_residual
    res_512 = integrated_gradients(model_fn, x, steps=512).completeness_residual
    res_8 = integrated_gradients(model_fn, x, steps=8).completeness_residual

    w = np.array([2.0, -1.0, 0.5])
    xl = np.array([1.0, 3.0, -2.0])
    wt = Tensor(w)
    lin = integrated_gradients(lambda t: (t * wt).sum(axis=1), xl, steps=4)
    lin_gap = float(np.abs(lin.per_feature - w * xl).max())

    _verdict(8, res_256 < 1e-3 and res_512 < res_8 and lin_gap <= 1e-12,
             f"residual(256) = {res_256:.2e} on trained MLP; residual(512) = "
             f"{res_512:.2e} < residual(8) = {res_8:.2e}; linear exactness "
             f"gap {lin_gap:.1e}")


def test_criterion_09_lambda_vs_ig_alignment(lambda_recovery_runs):
    hits = 0
    rhos = []
    for run in lambda_recovery_runs:
        rho = spearman_rank_correlation(run["lambdas"], run["ig"])
        rhos.append(rho)
        if rho > 0:
            hits += 1
    _verdict(9, hits >= 7,
             f"Spearman(lambda, IG) positive in {hits}/10 seeds "
             f"(median rho {np.median(rhos):.2f})")


def test_criterion_10_mlstm_trend():
    # one redundant modality pair (text_a/text_b) and one noise-dominated
    # modality (series); the mLSTM consumes modalities in ascending
    # informativeness so the gate can damp the noisy early steps
    order = ["series", "demo", "image", "text_b", "text_a"]
    wins = 0
    pairs = []
    for seed in range(10):
        cohort = generate(default_five_modality_spec(
            300, seed=seed, signal_fractions=(0.5, 0.5, 0.35, 0.2, 0.0),
            noise_sigmas=(0.5, 0.5, 0.5, 0.5, 2.0)))
        pre_cfg = RunConfig(order, "contrastive_pretrain", max_epochs=20,
                            batch_size=64, learning_rate=1e-2, seed=seed)
        pre_ckpt, _ = pretrain(pre_cfg, cohort)
        common = dict(max_epochs=60, patience=20, batch_size=32,
                      learning_rate=1e-2, mlstm_hidden=48, seed=seed)
        _, sup, _ = finetune(RunConfig(order, "supervised_baseline", **common), cohort)
        _, gated, _ = finetune(RunConfig(order, "mlstm", lambda_source="learned",
                                         **common), cohort, pre_ckpt)
        pairs.append((gated.auroc, sup.auroc))
        if gated.auroc >= sup.auroc:
            wins += 1
    mean_gap = float(np.mean([g - s for g, s in pairs]))
    _verdict(10, wins >= 6,
             f"mLSTM AUROC >= concatenation AUROC in {wins}/10 seeds "
             f"(mean gap {mean_gap:+.3f})")


def test_criterion_11_pipeline_smoke(tmp_path):
    start = time.perf_counter()
    cohort = generate(default_five_modality_spec(60, seed=0))
    base = RunConfig(ROSTER, "contrastive_pretrain", max_epochs=5,
                     batch_size=16, seed=0)
    subsets = harness.enumerate_subsets(ROSTER)
    result = sweep(base, cohort, subsets, ["contrastive_pretrain"], [0])
    paths = harness.emit(result, str(tmp_path / "smoke"), base)
    rows = harness.load_rows(paths[0])
    aggs = result.aggregates()
    elapsed = time.perf_counter() - start
    ok = (len(result.rows) == 26 and all(r.status == "ok" for r in result.rows)
          and len(aggs) == 26 and len(rows) == 26
          and all(np.isfinite(r.alignment_top5) for r in rows)
          and elapsed < 600)
    _verdict(11, ok,
             f"26-subset sweep completed in {elapsed:.1f}s with "
             f"{sum(r.status == 'ok' for r in result.rows)}/26 ok rows and "
             f"{len(aggs)} aggregate rows")


def test_criterion_12_reproducibility():
    cohort = generate(default_five_modality_spec(120, seed=0))
    pre_cfg = RunConfig(ROSTER[:3], "contrastive_pretrain", max_epochs=3,
                        batch_size=16, seed=7)
    ck_a, hist_a = pretrain(pre_cfg, cohort)
    ck_b, hist_b = pretrain(pre_cfg, cohort)
    fin_cfg = RunConfig(ROSTER[:3], "supervised_baseline", max_epochs=3,
                        batch_size=16, seed=7)
    _, rec_a, _ = finetune(fin_cfg, cohort)
    _, rec_b, _ = finetune(fin_cfg, cohort)
    ok = (hist_a == hist_b
          and np.array_equal(ck_a.lambdas, ck_b.lambdas)
          and ck_a.tau == ck_b.tau
          and all(np.array_equal(ck_a.params[n], ck_b.params[n]) for n in ck_a.params)
          and rec_a.auroc == rec_b.auroc and rec_a.auprc == rec_b.auprc)
    _verdict(12, ok,
             f"repeated runs bitwise identical: pretrain loss {hist_a[-1]:.6f}, "
             f"finetune AUROC {rec_a.auroc:.6f}")
