import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmcl.cohort import (CohortSpec, ModalitySpec, default_five_modality_spec,
                         generate, load_cohort, pretrain_pool, save_cohort)
from mmcl.errors import ContractError, CorruptFileError
from mmcl.harness import RunConfig, finetune_splits
from mmcl.metrics import auroc


def _spec(n=200, seed=0, **kwargs):
    return default_five_modality_spec(n, seed=seed, **kwargs)


def _probe_auroc(features, labels, seed=0):
    """Independent linear probe: least-squares on a train half, AUROC on the
    held-out half."""
    rng = np.random.default_rng(seed)
    n = features.shape[0]
    perm = rng.permutation(n)
    half = n // 2
    tr, te = perm[:half], perm[half:]
    x_tr = np.column_stack([features[tr], np.ones(half)])
    w, *_ = np.linalg.lstsq(x_tr, labels[tr].astype(float), rcond=None)
    scores = np.column_stack([features[te], np.ones(n - half)]) @ w
    return auroc(scores, labels[te])


# --------------------------------------------------------------------------
# generation

def test_generation_bitwise_deterministic():
    a = generate(_spec(seed=3))
    b = generate(_spec(seed=3))
    np.testing.assert_array_equal(a.binary_labels, b.binary_labels)
    np.testing.assert_array_equal(a.multilabels, b.multilabels)
    np.testing.assert_array_equal(a.latents, b.latents)
    for name in a.observations:
        np.testing.assert_array_equal(a.observations[name], b.observations[name])
    for axis in a.groups:
        np.testing.assert_array_equal(a.groups[axis], b.groups[axis])


def test_different_seeds_differ():
    a = generate(_spec(seed=0))
    b = generate(_spec(seed=1))
    assert not np.array_equal(a.observations["text_a"], b.observations["text_a"])


def test_shapes_and_label_rate():
    cohort = generate(_spec(n=300))
    assert cohort.observations["text_a"].shape == (300, 12)
    assert cohort.observations["series"].shape == (300, 6, 3)
    assert cohort.multilabels.shape == (300, 25)
    assert set(np.unique(cohort.binary_labels)) <= {0, 1}
    rate = cohort.binary_labels.mean()
    assert rate == pytest.approx(0.3, abs=0.02)  # quantile threshold pins the rate
    assert set(cohort.groups) == {"gender", "ethnicity", "age"}
    assert len(cohort.groups["gender"]) == 300


def test_spec_validation():
    with pytest.raises(ContractError):
        ModalitySpec("x", "audio", 4)
    with pytest.raises(ContractError):
        ModalitySpec("x", "static_vector", 4, signal_fraction=1.5)
    with pytest.raises(ContractError):
        ModalitySpec("x", "sequence", 4, seq_len=0)
    with pytest.raises(ContractError):
        CohortSpec(10, 4, [ModalitySpec("only", "static_vector", 4)])
    mods = [ModalitySpec("a", "static_vector", 4), ModalitySpec("a", "static_vector", 4)]
    with pytest.raises(ContractError):
        CohortSpec(10, 4, mods)
    with pytest.raises(ContractError, match="seed"):
        CohortSpec(10, 4, mods[:1] + [ModalitySpec("b", "static_vector", 4)], seed=-1)


# --------------------------------------------------------------------------
# planted signal

def test_zero_signal_fraction_probe_is_chance():
    spec = _spec(n=400, seed=5, signal_fractions=(0.9, 0.8, 0.7, 0.6, 0.0))
    cohort = generate(spec)
    obs = cohort.observations["series"].reshape(400, -1)
    score = _probe_auroc(obs, cohort.binary_labels)
    assert abs(score - 0.5) < 0.12


def test_high_signal_fraction_probe_beats_chance():
    cohort = generate(_spec(n=400, seed=6, signal_fractions=(0.9, 0.8, 0.7, 0.6, 0.5)))
    score = _probe_auroc(cohort.observations["text_a"], cohort.binary_labels)
    assert score > 0.8


def test_label_shuffle_destroys_probe_signal():
    cohort = generate(_spec(n=400, seed=7))
    rng = np.random.default_rng(0)
    shuffled = cohort.binary_labels.copy()
    rng.shuffle(shuffled)
    score = _probe_auroc(cohort.observations["text_a"], shuffled)
    assert abs(score - 0.5) < 0.12


def test_probe_auroc_monotone_in_signal_fraction():
    # averaged over seeds, probe quality must increase along the sf grid
    grid = (0.05, 0.3, 0.6, 0.9)
    means = []
    for sf in grid:
        vals = []
        for seed in range(3):
            cohort = generate(_spec(n=400, seed=seed,
                                    signal_fractions=(sf, 0.5, 0.5, 0.5, 0.5)))
            vals.append(_probe_auroc(cohort.observations["text_a"],
                                     cohort.binary_labels, seed=seed))
        means.append(np.mean(vals))
    assert all(a < b for a, b in zip(means, means[1:]))


# --------------------------------------------------------------------------
# splits

def _splits(cohort, seed):
    """(pool, train, val, test) of a fine-tuning run with this seed."""
    return finetune_splits(cohort, RunConfig(["text_a", "text_b"], "supervised_baseline",
                                             seed=seed))


def test_split_disjoint_exhaustive_stratified():
    cohort = generate(_spec(n=500, seed=8))
    parts = _splits(cohort, 0)
    all_idx = np.concatenate(parts)
    assert len(set(all_idx.tolist())) == 500
    assert all_idx.size == 500
    overall = cohort.binary_labels.mean()
    for part in parts:
        assert abs(cohort.binary_labels[part].mean() - overall) < 0.05
    assert all(abs(part.size - want) <= 2 for part, want in zip(parts, (250, 200, 25, 25)))


def test_split_deterministic_and_seed_sensitive():
    cohort = generate(_spec(n=200, seed=9))
    a = _splits(cohort, 4)
    b = _splits(cohort, 4)
    c = _splits(cohort, 5)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a, c))


def test_pretrain_pool_disjoint_and_stratified():
    cohort = generate(_spec(n=300, seed=12))
    pool, rest = pretrain_pool(cohort, seed=0, pool_fraction=0.5)
    assert np.intersect1d(pool, rest).size == 0
    assert pool.size + rest.size == 300
    assert abs(pool.size - 150) <= 1
    overall = cohort.binary_labels.mean()
    assert abs(cohort.binary_labels[pool].mean() - overall) < 0.05
    with pytest.raises(ContractError):
        pretrain_pool(cohort, pool_fraction=1.0)


# --------------------------------------------------------------------------
# serialization

def test_save_load_round_trip(tmp_path):
    cohort = generate(_spec(n=60, seed=14))
    path = tmp_path / "cohort.txt"
    save_cohort(cohort, path)
    loaded = load_cohort(path)
    assert loaded.spec == cohort.spec
    np.testing.assert_array_equal(loaded.binary_labels, cohort.binary_labels)
    np.testing.assert_array_equal(loaded.multilabels, cohort.multilabels)
    np.testing.assert_array_equal(loaded.latents, cohort.latents)
    for name in cohort.observations:
        np.testing.assert_array_equal(loaded.observations[name], cohort.observations[name])
    for axis in cohort.groups:
        np.testing.assert_array_equal(loaded.groups[axis], cohort.groups[axis])


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("not a cohort\n")
    with pytest.raises(ContractError):
        load_cohort(path)


def _tamper_data_row(text):
    head, rest = text.split("[modality text_a]\n", 1)
    first, rest = rest.split(",", 1)
    return head + "[modality text_a]\n" + repr(float(first) + 1.0) + "," + rest


def _tamper_spec_line(text):
    assert '"signal_fraction": 0.9' in text
    return text.replace('"signal_fraction": 0.9', '"signal_fraction": 0.8', 1)


def _tamper_checksum_line(text):
    version, checksum, body = text.split("\n", 2)
    flipped = checksum[:-1] + ("0" if checksum[-1] != "0" else "1")
    return "\n".join([version, flipped, body])


@pytest.mark.parametrize("tamper", [_tamper_data_row, _tamper_spec_line, _tamper_checksum_line],
                         ids=["data_row", "spec_line", "checksum_line"])
def test_load_rejects_tampered_file(tmp_path, tamper):
    path = tmp_path / "cohort.txt"
    save_cohort(generate(_spec(n=30, seed=15)), path)
    path.write_text(tamper(path.read_text()))
    with pytest.raises(CorruptFileError, match="sha256") as info:
        load_cohort(path)
    assert str(path) in str(info.value)


# files resealed with a matching sha256 line after an edit: they pass the
# checksum, so only the parser stands between them and a broken cohort

def _resealed(text, edit):
    """`text` with `edit` applied to its body lines and a checksum line that
    matches the edited body."""
    version, _, body = text.split("\n", 2)
    lines = body.split("\n")
    edit(lines)
    body = "\n".join(lines)
    return f"{version}\n# sha256={hashlib.sha256(body.encode()).hexdigest()}\n{body}"


def _drop_first_row(section):
    def edit(lines):
        del lines[lines.index(section) + 1]
    return edit


def _set_first_cell(section, cell):
    def edit(lines):
        i = lines.index(section) + 1
        lines[i] = ",".join([cell] + lines[i].split(",")[1:])
    return edit


def _deep_spec(lines):
    lines[0] = "# spec=" + "[" * 5000 + "]" * 5000  # deeper than json's recursion limit


@pytest.mark.parametrize("edit", [
    _drop_first_row("[modality text_a]"), _drop_first_row("[modality series]"),
    _drop_first_row("[multilabels]"), _drop_first_row("[latents]"),
    _set_first_cell("[binary_labels]", "0,1"), _set_first_cell("[groups age]", "age0,age1"),
    _set_first_cell("[binary_labels]", "2"), _set_first_cell("[multilabels]", "nan"),
    _deep_spec],
    ids=["observation_row", "sequence_row", "multilabel_row", "latent_row", "extra_label",
         "extra_group_tag", "label_2", "multilabel_nan", "deep_spec"])
def test_load_rejects_a_resealed_file_that_disagrees_with_its_spec(tmp_path, cohort_text, edit):
    path = tmp_path / "cohort.txt"
    path.write_text(_resealed(cohort_text, edit))
    with pytest.raises(CorruptFileError) as info:
        load_cohort(path)
    assert str(path) in str(info.value)


# every file either loads as a cohort its spec describes or raises
# CorruptFileError: arbitrary bytes, and resealed files whose data lines or
# spec fields were edited

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def cohort_text(fuzz_dir):
    path = fuzz_dir / "seed_cohort.txt"
    save_cohort(generate(_spec(n=4, seed=16)), path)
    return path.read_text()


_CELL = st.sampled_from(["", "0", "1", "-2", "1.5", "nan", "inf", "1e999", "x", "[latents]"]) | \
    st.text(max_size=6)
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=6)


def _edit_lines(data, lines):
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(1, len(lines) - 1))  # line 0 is the spec
        edit = data.draw(st.sampled_from(["delete", "duplicate", "replace", "cell"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "replace":
            lines[i] = ",".join(data.draw(st.lists(_CELL, max_size=4)))
        else:
            cells = lines[i].split(",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_CELL)
            lines[i] = ",".join(cells)


def _edit_spec(data, lines):
    spec = json.loads(lines[0][len("# spec="):])
    owner = data.draw(st.sampled_from([spec] + spec["modalities"]))
    key = data.draw(st.sampled_from(sorted(owner)))
    if data.draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = data.draw(_JSON)
    lines[0] = "# spec=" + json.dumps(spec)


def _consistent(cohort):
    spec, n = cohort.spec, cohort.num_patients
    for mod in spec.modalities:
        want = (n, mod.seq_len, mod.obs_dim) if mod.kind == "sequence" else (n, mod.obs_dim)
        assert cohort.observations[mod.name].shape == want
    assert cohort.binary_labels.shape == (n,)
    assert cohort.multilabels.shape == (n, spec.num_multilabels)
    assert cohort.latents.shape == (n, spec.latent_dim)
    assert set(cohort.groups) == set(spec.group_axes)
    assert all(tags.shape == (n,) for tags in cohort.groups.values())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_cohort_loads_or_raises_corrupt_file_error(fuzz_dir, cohort_text, data):
    path = fuzz_dir / "cohort.txt"
    kind = data.draw(st.sampled_from(["bytes", "lines", "spec"]))
    if kind == "bytes":
        path.write_bytes(data.draw(st.binary(max_size=300)))
    else:
        edit = _edit_lines if kind == "lines" else _edit_spec
        path.write_text(_resealed(cohort_text, lambda lines: edit(data, lines)),
                        encoding="utf-8")
    try:
        cohort = load_cohort(path)
    except CorruptFileError as exc:
        assert str(path) in str(exc)
    else:
        _consistent(cohort)
