import io
import json
import pathlib
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmcl
from mmcl import cohort as cohort_mod
from mmcl.cohort import (CohortSpec, ModalitySpec, default_five_modality_spec,
                         generate, load_cohort, pretrain_pool, save_cohort, write_archive)
from mmcl.errors import MAX_PATIENTS, MAX_WIDTH, ContractError, CorruptFileError
from mmcl.harness import Checkpoint, RunConfig, finetune_splits
from mmcl.metrics import auroc

from partition_oracle import list_stratified_partition


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
    for name in a.observations:
        np.testing.assert_array_equal(a.observations[name], b.observations[name])
    for axis in a.groups:
        np.testing.assert_array_equal(a.groups[axis], b.groups[axis])


@pytest.mark.parametrize("sigmas, name", [((1e308, 0.1, 0.1, 0.1, 0.1), "text_a"),
                                          ((0.1, 0.1, 0.1, 0.1, 1e308), "series")])
def test_generate_rejects_a_non_finite_observation(sigmas, name):
    # a sigma this large overflows on draws beyond about 1.8 standard deviations
    with pytest.raises(ContractError, match=f"modality '{name}'.*not finite"):
        generate(_spec(60, noise_sigmas=sigmas))


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
    two = mods[:1] + [ModalitySpec("b", "static_vector", 4)]
    with pytest.raises(ContractError, match="num_patients"):
        CohortSpec(MAX_PATIENTS + 1, 4, two)
    with pytest.raises(ContractError, match="latent_dim"):
        CohortSpec(10, MAX_WIDTH + 1, two)
    with pytest.raises(ContractError, match="obs_dim"):
        ModalitySpec("x", "static_vector", 0)
    with pytest.raises(ContractError, match="num_multilabels"):
        CohortSpec(10, 4, two, num_multilabels=0)


# the default roster's axes: gender 2, ethnicity 5 and age 8 categories
@pytest.mark.parametrize("axes, separability, named", [
    (None, {"gender": [0.0]}, "'gender'"), (None, {"gender": [0.0, 1.0, 2.0]}, "'gender'"),
    (None, {"nosuch": [0.0, 1.0]}, "'nosuch'"), (None, {"gender": [np.nan, 0.0]}, "'gender'"),
    (None, {"gender": [0.0, np.inf]}, "'gender'"), (None, {"gender": [-1.0, 0.0]}, "'gender'"),
    (None, {"gender": [True, 0.0]}, "'gender'"), (None, {"gender": 2.5}, "'gender'"),
    (None, [0.0, 1.0], "group_separability"), ({"gender": 0}, None, "'gender'"),
    ({"gender": 2.0}, None, "'gender'"), ({"gender": True}, None, "'gender'"),
    ({"gender": MAX_PATIENTS + 1}, None, "'gender'"), (["gender"], None, "group_axes")],
    ids=["one_offset_for_two", "three_offsets_for_two", "unknown_axis", "nan_offset",
         "infinite_offset", "negative_offset", "bool_offset", "offset_not_a_list",
         "separability_not_a_dict", "zero_categories", "float_categories", "bool_categories",
         "too_many_categories", "axes_not_a_dict"])
def test_spec_rejects_group_settings_that_generate_cannot_draw(axes, separability, named):
    # these used to raise IndexError, KeyError or numpy's ValueError in
    # `generate`, or draw a cohort without positive labels (a NaN offset)
    with pytest.raises(ContractError, match=named):
        generate(_spec(50, group_axes=axes, group_separability=separability))


def test_group_separability_generates_saves_and_loads(tmp_path):
    spec = _spec(200, seed=2, group_separability={"gender": [0.0, 2.0], "age": [0.5] * 8})
    cohort = generate(spec)
    assert not np.array_equal(cohort.binary_labels, generate(_spec(200, seed=2)).binary_labels)
    path = tmp_path / "cohort.npz"
    save_cohort(cohort, path)
    _assert_same_cohort(load_cohort(path), cohort)


def test_empty_group_axes_give_a_cohort_without_groups(tmp_path):
    # an empty dict used to count as missing and bring back the three default axes
    spec = _spec(50, group_axes={})
    assert spec.group_axes == {}
    cohort = generate(spec)
    assert cohort.groups == {}
    path = tmp_path / "cohort.npz"
    save_cohort(cohort, path)
    with zipfile.ZipFile(path) as zf:
        assert not [name for name in zf.namelist() if name.startswith("group:")]
    _assert_same_cohort(load_cohort(path), cohort)


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


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 1), max_size=60),
       fractions=st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.8, 0.1, 0.1), (0.25, 0.25, 0.5)]),
       seed=st.integers(0, 2**32 - 1))
def test_stratified_partition_is_the_list_built_partition(labels, fractions, seed):
    labels = np.array(labels, dtype=np.int64)
    got = cohort_mod._stratified_partition(labels, fractions, np.random.default_rng(seed))
    want = list_stratified_partition(labels, fractions, np.random.default_rng(seed))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.flags.c_contiguous
        np.testing.assert_array_equal(g, w, strict=True)


# --------------------------------------------------------------------------
# serialization

def _assert_same_cohort(loaded, cohort):
    assert loaded.spec == cohort.spec
    assert set(loaded.observations) == set(cohort.observations)
    assert set(loaded.groups) == set(cohort.groups)
    pairs = [(loaded.binary_labels, cohort.binary_labels), (loaded.multilabels, cohort.multilabels)]
    pairs += [(loaded.observations[name], obs) for name, obs in cohort.observations.items()]
    pairs += [(loaded.groups[axis], tags) for axis, tags in cohort.groups.items()]
    for got, want in pairs:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_save_load_round_trip(tmp_path):
    cohort = generate(_spec(n=60, seed=14))
    path = tmp_path / "cohort.txt"
    save_cohort(cohort, path)
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.txt"]  # no `.npz` appended
    _assert_same_cohort(load_cohort(path), cohort)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("not a cohort\n")
    with pytest.raises(ContractError):
        load_cohort(path)


def test_one_archive_reader_and_one_writer():
    source = "".join(path.read_text() for path in pathlib.Path(mmcl.__file__).parent.glob("*.py"))
    assert source.count("np.load(") == 1
    assert source.count("np.savez(") == 1


def _flip(raw, offset, mask=0xFF):
    raw = bytearray(raw)
    raw[offset] ^= mask
    return bytes(raw)


def _replace_once(raw, old, new):
    assert raw.count(old) == 1
    return raw.replace(old, new)


def _tamper_data_row(raw):
    return _flip(raw, raw.index(_members(raw)["modality:text_a"].tobytes()))


def _tamper_spec_line(raw):
    return _replace_once(raw, '"signal_fraction": 0.9'.encode("utf-32-le"),
                         '"signal_fraction": 0.8'.encode("utf-32-le"))


def _tamper_checksum_line(raw):
    # the CRC-32 field of the central directory record of `modality:series`
    record = raw.rindex(b"modality:series.npy") - 46
    assert raw[record:record + 4] == b"PK\x01\x02"
    return _flip(raw, record + 16)


@pytest.mark.parametrize("tamper", [_tamper_data_row, _tamper_spec_line, _tamper_checksum_line],
                         ids=["data_row", "spec_line", "checksum_line"])
def test_load_rejects_tampered_file(tmp_path, tamper):
    path = tmp_path / "cohort.npz"
    save_cohort(generate(_spec(n=30, seed=15)), path)
    path.write_bytes(tamper(path.read_bytes()))
    with pytest.raises(CorruptFileError, match="CRC-32") as info:
        load_cohort(path)
    assert str(path) in str(info.value)


def test_load_rejects_a_changed_header_that_stops_the_read_early(tmp_path):
    # tags of width 1 are read from a quarter of the member's bytes, so
    # zipfile alone would not reach the end of the member and check its CRC-32
    path = tmp_path / "cohort.npz"
    save_cohort(generate(_spec(n=400, seed=15)), path)
    path.write_bytes(_replace_once(path.read_bytes(), b"'descr': '<U4'", b"'descr': '<U1'"))
    with pytest.raises(CorruptFileError, match="CRC-32"):
        load_cohort(path)


# archives rewritten after an edit: every member matches its CRC-32, so only
# the parser stands between them and a broken cohort

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def seed_cohort(fuzz_dir):
    """A 4-patient cohort and the bytes of its archive."""
    path = fuzz_dir / "seed_cohort.npz"
    cohort = generate(_spec(n=4, seed=16))
    save_cohort(cohort, path)
    return cohort, path.read_bytes()


def _members(raw):
    with np.load(io.BytesIO(raw)) as data:
        return {name: data[name] for name in data.files}


def _resealed(path, raw, edit):
    members = _members(raw)
    edit(members)
    write_archive(path, members)


def _replace(name, change):
    def edit(members):
        members[name] = change(members[name])
    return edit


def _delete(name):
    def edit(members):
        del members[name]
    return edit


def _set_first(value):
    return lambda values: np.where(np.arange(values.size).reshape(values.shape) == 0, value, values)


@pytest.mark.parametrize("edit", [
    _replace("modality:text_a", lambda v: v[1:]), _replace("modality:series", lambda v: v[1:]),
    _replace("multilabels", lambda v: v[1:]), _replace("modality:image", lambda v: v[1:]),
    _replace("binary_labels", lambda v: np.append(v, 1)),
    _replace("group:age", lambda v: np.append(v, "age1")),
    _replace("binary_labels", _set_first(2)), _replace("multilabels", _set_first(np.nan)),
    _replace("spec", lambda v: np.array("[" * 5000 + "]" * 5000)),  # deeper than json allows
    _replace("modality:series", lambda v: v.reshape(v.shape[0], -1)),
    _replace("modality:text_a", lambda v: v.astype(np.float32)),
    _replace("modality:series", lambda v: v.astype(">f8")),
    _replace("binary_labels", lambda v: v.astype(np.float64)),
    _replace("group:age", lambda v: np.arange(v.size)),
    _replace("format", lambda v: np.array("mmcl-cohort v2")),
    _delete("modality:series"), _delete("group:gender"), _delete("spec"),
    _replace("modality:text_a", _set_first(np.nan)),
    _replace("modality:series", _set_first(np.inf)),
    _replace("modality:image", _set_first(-np.inf))],
    ids=["observation_row", "sequence_row", "multilabel_row", "image_row", "extra_label",
         "extra_group_tag", "label_2", "multilabel_nan", "deep_spec", "flat_sequence",
         "float32_observations", "big_endian_series", "float_labels", "integer_group_tags",
         "v2_format", "missing_series", "missing_group_axis", "missing_spec",
         "observation_nan", "sequence_inf", "image_minus_inf"])
def test_load_rejects_a_resealed_file_that_disagrees_with_its_spec(tmp_path, seed_cohort, edit):
    path = tmp_path / "cohort.npz"
    _resealed(path, seed_cohort[1], edit)
    with pytest.raises(CorruptFileError) as info:
        load_cohort(path)
    assert str(path) in str(info.value)


def _as_v3(members):
    """A v4 archive's members rewritten as format v3 wrote them: with the
    latents and a `mixing_seed` of null in each modality's spec."""
    spec = json.loads(str(members["spec"]))
    for mod in spec["modalities"]:
        mod["mixing_seed"] = None
    members.update({"format": np.array("mmcl-cohort v3"), "spec": np.array(json.dumps(spec)),
                    "latents": np.zeros((spec["num_patients"], spec["latent_dim"]))})


def test_load_refuses_a_v3_cohort_naming_both_formats(tmp_path, seed_cohort):
    path = tmp_path / "v3.npz"
    _resealed(path, seed_cohort[1], _as_v3)
    with pytest.raises(CorruptFileError, match="'mmcl-cohort v3', not 'mmcl-cohort v4'"):
        load_cohort(path)


def test_saved_cohort_holds_only_the_v4_members(tmp_path, seed_cohort):
    members = _members(seed_cohort[1])
    assert str(members["format"]) == "mmcl-cohort v4"
    assert sorted(members) == sorted(
        ["format", "spec", "binary_labels", "multilabels"]
        + [f"modality:{name}" for name in ("text_a", "text_b", "image", "demo", "series")]
        + [f"group:{axis}" for axis in ("gender", "ethnicity", "age")])
    assert all("mixing_seed" not in mod for mod in json.loads(str(members["spec"]))["modalities"])


def _with_unbalanced_npy_header(raw, member):
    """`raw` rewritten with `member`'s .npy header missing its closing brace;
    every CRC-32 matches, so only the npy header parser sees the damage."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        stored = {info.filename: zf.read(info) for info in zf.infolist()}
    npy = stored[member + ".npy"]
    assert npy.count(b"}") == 1
    stored[member + ".npy"] = npy.replace(b"}", b" ").replace(b")", b" ")
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, data in stored.items():
            zf.writestr(name, data)
    return out.getvalue()


@pytest.mark.parametrize("artifact", ["cohort", "checkpoint"])
def test_load_rejects_an_npy_header_that_does_not_parse(tmp_path, seed_cohort, seed_checkpoint,
                                                        artifact):
    raw, member, load = ((seed_cohort[1], "modality:series", load_cohort) if artifact == "cohort"
                         else (seed_checkpoint[1], "param:enc.w0", Checkpoint.load))
    path = tmp_path / "unbalanced.npz"
    path.write_bytes(_with_unbalanced_npy_header(raw, member))
    with pytest.raises(CorruptFileError) as info:
        load(path)
    assert str(path) in str(info.value)


# every file either loads as a cohort its spec describes or raises
# CorruptFileError: arbitrary bytes, a saved archive with bytes overwritten
# or cut off, and archives resealed after a member or the spec was edited

_CELL = st.sampled_from([0, 1, 2, -1, 0.5, np.nan, np.inf, "x", "age0", True])
_DTYPE = st.sampled_from([np.float64, np.int64, np.float32, np.int32, ">f8", str, bool])
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=6)


def _overwrite_or_cut(data, raw):
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(0, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    return bytes(raw)


def _edit_members(data, members):
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(members)))
        values = members.pop(name)
        edit = data.draw(st.sampled_from(["delete", "swap", "rows", "cell", "dtype", "reshape"]))
        if edit == "swap":
            values = members[data.draw(st.sampled_from(sorted(members)))]
        elif edit == "rows":
            values = np.atleast_1d(values)
            values = values[1:] if data.draw(st.booleans()) else np.concatenate([values[:1], values])
        elif edit == "cell" and values.size:  # an earlier "rows" edit may leave no cell
            cells = np.atleast_1d(values).ravel().tolist()
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_CELL)
            values = np.array(cells).reshape(values.shape)
        elif edit == "dtype":
            try:
                with np.errstate(invalid="ignore"):  # nan or inf cast to an integer
                    values = values.astype(data.draw(_DTYPE))
            except ValueError:  # tags that are not numbers
                pass
        elif edit == "reshape":
            values = values.reshape(-1) if data.draw(st.booleans()) else values[..., None]
        if edit != "delete":
            members[name] = values


def _edit_spec(data, members):
    spec = json.loads(str(members["spec"]))
    owner = data.draw(st.sampled_from([spec] + spec["modalities"]))
    key = data.draw(st.sampled_from(sorted(owner)))
    if data.draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = data.draw(_JSON)
    members["spec"] = np.array(json.dumps(spec))


def _consistent(cohort):
    spec, n = cohort.spec, cohort.num_patients
    for mod in spec.modalities:
        want = (n, mod.seq_len, mod.obs_dim) if mod.kind == "sequence" else (n, mod.obs_dim)
        obs = cohort.observations[mod.name]
        assert obs.shape == want and obs.dtype == np.float64
    for labels, shape in ((cohort.binary_labels, (n,)),
                          (cohort.multilabels, (n, spec.num_multilabels))):
        assert labels.shape == shape and labels.dtype == np.int64
        assert np.isin(labels, (0, 1)).all()
    assert set(cohort.groups) == set(spec.group_axes)
    assert all(tags.shape == (n,) and tags.dtype.kind == "U" for tags in cohort.groups.values())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_cohort_loads_or_raises_corrupt_file_error(fuzz_dir, seed_cohort, data):
    path = fuzz_dir / "cohort.npz"
    kind = data.draw(st.sampled_from(["bytes", "edits", "members", "spec"]))
    if kind == "bytes":
        path.write_bytes(data.draw(st.binary(max_size=300)))
    elif kind == "edits":
        path.write_bytes(_overwrite_or_cut(data, seed_cohort[1]))
    else:
        edit = _edit_members if kind == "members" else _edit_spec
        _resealed(path, seed_cohort[1], lambda members: edit(data, members))
    try:
        cohort = load_cohort(path)
    except CorruptFileError as exc:
        assert str(path) in str(exc)
    else:
        _consistent(cohort)


# a spec whose integer fields hold other JSON, the same number as a float
# above all, either loads with every such field an int or raises
# CorruptFileError

_SPEC_INTS = ("num_patients", "latent_dim", "num_multilabels", "seed")
_MODALITY_INTS = ("obs_dim", "seq_len")


def _around(value):
    """JSON values near the saved number `value`: itself, the equal float, a
    near or negated one, a bool, its text, a list of it, or any other JSON."""
    near = [value, float(value), value + 0.5, -value, bool(value), str(value), [value]]
    return st.sampled_from(near) | _JSON


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_cohort_keeps_integer_spec_fields_ints(fuzz_dir, seed_cohort, data):
    def edit(members):
        saved, spec = (json.loads(str(members["spec"])) for _ in range(2))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.sampled_from([None, *range(len(spec["modalities"]))]))
            owner, was = (s if at is None else s["modalities"][at] for s in (spec, saved))
            key = data.draw(st.sampled_from(_SPEC_INTS if at is None
                                            else (*_MODALITY_INTS, "noise_sigma")))
            owner[key] = data.draw(_around(was[key]))
        members["spec"] = np.array(json.dumps(spec))

    path = fuzz_dir / "spec.npz"
    _resealed(path, seed_cohort[1], edit)
    try:
        cohort = load_cohort(path)
    except CorruptFileError as exc:
        assert str(path) in str(exc)
    else:
        spec = cohort.spec
        assert all(type(getattr(spec, name)) is int for name in _SPEC_INTS)
        for mod in spec.modalities:
            assert all(type(getattr(mod, name)) is int for name in _MODALITY_INTS)
            assert 0.0 <= mod.noise_sigma < np.inf
        _consistent(cohort)


# one flipped or cut-off byte of a saved archive, cohort or checkpoint: it
# loads what was saved or raises CorruptFileError

def _assert_same_checkpoint(loaded, ckpt):
    assert (loaded.config, loaded.tau) == (ckpt.config, ckpt.tau)
    np.testing.assert_array_equal(loaded.lambdas, ckpt.lambdas)
    assert set(loaded.params) == set(ckpt.params)
    for name, values in ckpt.params.items():
        assert loaded.params[name].dtype == values.dtype
        np.testing.assert_array_equal(loaded.params[name], values)


@pytest.fixture(scope="module")
def seed_checkpoint(fuzz_dir):
    """A checkpoint and the bytes of its archive."""
    path = fuzz_dir / "seed_ckpt.npz"
    ckpt = Checkpoint(RunConfig(["text_a", "text_b"], "contrastive_pretrain"),
                      {"enc.w0": np.arange(6.0).reshape(2, 3), "tau": np.ones(1)},
                      np.array([0.25, 0.75]), 0.5)
    ckpt.save(path)
    return ckpt, path.read_bytes()


@pytest.mark.parametrize("artifact", ["cohort", "checkpoint"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_flipped_or_cut_byte_loads_what_was_saved_or_raises_corrupt_file_error(
        fuzz_dir, seed_cohort, seed_checkpoint, artifact, data):
    saved, raw = seed_cohort if artifact == "cohort" else seed_checkpoint
    offset = data.draw(st.integers(0, len(raw) - 1))
    path = fuzz_dir / f"flipped_{artifact}.npz"
    path.write_bytes(raw[:offset] if data.draw(st.booleans())
                     else _flip(raw, offset, data.draw(st.integers(1, 255))))
    load, same = ((load_cohort, _assert_same_cohort) if artifact == "cohort"
                  else (Checkpoint.load, _assert_same_checkpoint))
    try:
        loaded = load(path)
    except CorruptFileError as exc:
        assert str(path) in str(exc)
    else:
        same(loaded, saved)
