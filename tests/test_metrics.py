import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mmcl.errors import ContractError, DegenerateInputError
from mmcl.metrics import auprc, auroc, groupwise, midranks, top5_alignment_accuracy


# --------------------------------------------------------------------------
# independent oracles

def _oracle_auroc(scores, labels):
    """Probability a random positive outranks a random negative (ties 1/2),
    by explicit pair enumeration."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def _oracle_auprc(scores, labels):
    """Average precision by sweeping thresholds over distinct scores."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    ap = 0.0
    prev_tp = 0
    for thr in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= thr
        tp = int((labels[sel] == 1).sum())
        precision = tp / sel.sum()
        ap += ((tp - prev_tp) / n_pos) * precision
        prev_tp = tp
    return ap


# tie-heavy scored samples: a few values, signed zeros and infinities, so
# that most draws hold runs of equal scores
_SCORE = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, np.inf]) | st.floats(-3.0, 3.0)
_SAMPLES = st.lists(st.tuples(_SCORE, st.integers(0, 1)), min_size=2, max_size=30)


def _unzip(samples):
    scores, labels = zip(*samples)
    return np.array(scores), np.array(labels)


def _assert_same_bits(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def test_midranks_rank_each_nan_apart_after_the_numbers():
    ranks = midranks(np.array([np.nan, 1.0, np.nan, 1.0]))
    np.testing.assert_array_equal(ranks, [3.0, 1.5, 4.0, 1.5])


# --------------------------------------------------------------------------
# AUROC

def test_auroc_perfect_and_inverted():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert auroc(scores, labels) == pytest.approx(1.0)
    assert auroc(-scores, labels) == pytest.approx(0.0)


def test_auroc_four_point_worked_example():
    # one discordant pair out of four -> 0.75
    scores = np.array([0.9, 0.4, 0.6, 0.2])
    labels = np.array([1, 1, 0, 0])
    assert auroc(scores, labels) == pytest.approx(0.75)


def test_auroc_all_tied_is_half():
    assert auroc(np.ones(6), np.array([1, 0, 1, 0, 1, 0])) == pytest.approx(0.5)


@settings(max_examples=300, deadline=None)
@given(_SAMPLES)
def test_auroc_matches_pair_enumeration_oracle(samples):
    scores, labels = _unzip(samples)
    assume(labels.min() != labels.max())
    _assert_same_bits(auroc(scores, labels), _oracle_auroc(scores, labels))


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(20)
    labels = rng.integers(0, 2, size=20)
    labels[0], labels[1] = 0, 1
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auroc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)


def test_auroc_single_class_rejected():
    with pytest.raises(DegenerateInputError):
        auroc(np.array([0.1, 0.2]), np.array([1, 1]))


# --------------------------------------------------------------------------
# AUPRC

def test_auprc_perfect_ranking_is_one():
    assert auprc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == pytest.approx(1.0)


def test_auprc_hand_case():
    # descending: y = 1, 0, 1, 0 -> ap = (1/2)(1/1) + (1/2)(2/3)
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    assert auprc(scores, labels) == pytest.approx(0.5 + 0.5 * (2 / 3))


def test_auprc_all_tied_equals_prevalence():
    labels = np.array([1, 0, 0, 0])
    assert auprc(np.ones(4), labels) == pytest.approx(0.25)


@settings(max_examples=300, deadline=None)
@given(_SAMPLES)
def test_auprc_matches_threshold_sweep_oracle(samples):
    scores, labels = _unzip(samples)
    assume(labels.max() == 1)
    _assert_same_bits(auprc(scores, labels), _oracle_auprc(scores, labels))


def test_auprc_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(15)
    labels = rng.integers(0, 2, size=15)
    labels[0] = 1
    assert auprc(2 * scores + 1, labels) == pytest.approx(auprc(scores, labels), abs=1e-12)


def test_auprc_no_positives_rejected():
    with pytest.raises(DegenerateInputError):
        auprc(np.array([0.1, 0.2]), np.array([0, 0]))


# --------------------------------------------------------------------------
# subgroup machinery

def test_groupwise_computes_per_group_and_skips_degenerate():
    scores = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0, 1, 1])
    groups = np.array(["a", "a", "b", "b", "c", "c"])
    per_group, skipped = groupwise(auroc, scores, labels, groups)
    assert per_group["a"] == pytest.approx(1.0)
    assert per_group["b"] == pytest.approx(1.0)
    assert skipped == ["c"]  # all-positive group cannot score


def test_groupwise_shape_mismatch():
    with pytest.raises(ContractError):
        groupwise(auroc, np.zeros(3), np.zeros(4), np.array(["a"] * 3))


# --------------------------------------------------------------------------
# top-5 alignment accuracy

def test_top5_perfect_clusters():
    # 4 patients x 2 modalities of near-identical vectors: every entry's
    # nearest neighbor is its partner
    rng = np.random.default_rng(4)
    base = rng.standard_normal((4, 6)) * 5
    vectors, pids = [], []
    for p in range(4):
        for m in range(2):
            vectors.append(base[p] + 1e-3 * rng.standard_normal(6))
            pids.append(f"p{p}")
    assert top5_alignment_accuracy(np.stack(vectors), pids) == pytest.approx(1.0)


def test_top5_crafted_partial_hit():
    # 7 entries: patient p0 has two aligned copies; the other five patients
    # are mutually orthogonal singletons, so only p0's two entries can hit
    vectors = [np.eye(7)[0], np.eye(7)[0] + 1e-6,
               np.eye(7)[1], np.eye(7)[2], np.eye(7)[3], np.eye(7)[4], np.eye(7)[5]]
    pids = ["p0", "p0", "p1", "p2", "p3", "p4", "p5"]
    acc = top5_alignment_accuracy(np.stack(vectors), pids)
    assert acc == pytest.approx(2 / 7)


def test_top5_rotation_invariant():
    rng = np.random.default_rng(5)
    vectors = [rng.standard_normal(6) for _ in range(10)]
    pids = [f"p{k // 2}" for k in range(10)]
    base = top5_alignment_accuracy(np.stack(vectors), pids)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rotated = [v @ q for v in vectors]
    assert top5_alignment_accuracy(np.stack(rotated), pids) == pytest.approx(base)


def test_top5_requires_seven_entries():
    vectors = [np.eye(6)[k] for k in range(6)]
    pids = [f"p{k}" for k in range(6)]
    with pytest.raises(ContractError):
        top5_alignment_accuracy(np.stack(vectors), pids)


def test_corpus_validation():
    vectors = np.ones((8, 3))
    pids = [f"p{k // 2}" for k in range(8)]
    vectors[5] = 0.0
    with pytest.raises(DegenerateInputError, match="row 5"):
        top5_alignment_accuracy(vectors, pids)
    for bad_vectors, bad_pids in ((np.ones((8, 3)), pids[:7]), (np.ones(8), pids),
                                  (np.ones((8, 3)), np.zeros((8, 1)))):
        with pytest.raises(ContractError, match="patient ids"):
            top5_alignment_accuracy(bad_vectors, bad_pids)
