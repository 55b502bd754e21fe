"""Deterministic synthetic multimodal cohorts with planted structure.

A linear-Gaussian latent model: each patient has a latent vector z; each
modality observes a fixed random unit-variance linear mixture of z in which
`signal_fraction` is the share of variance coming from the latents, the
remainder being private noise. Labels are thresholded projections of z, so
a modality's informativeness is one controllable knob, monotone in
signal_fraction for probes and contrastive alignment alike.
"""

import hashlib
import json
import lzma
import sys
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (MAX_PATIENTS, MAX_WIDTH, ConfigurationError, ContractError, CorruptFileError,
                     is_int, is_real)

FORMAT_VERSION = "mmcl-cohort v4"


def _require_ints(spec, names, owner):
    """Raise ContractError unless each named field of `spec` holds an integer
    (not a bool, nor a float that equals one)."""
    for name in names:
        value = getattr(spec, name)
        if not is_int(value):
            raise ContractError(f"{name} of {owner} must be an integer, got {value!r}")


@dataclass
class ModalitySpec:
    name: str
    kind: str  # "static_vector" | "sequence"
    obs_dim: int
    seq_len: int = 0
    signal_fraction: float = 1.0
    noise_sigma: float = 0.1

    def __post_init__(self):
        _require_ints(self, ("obs_dim", "seq_len"), f"modality {self.name!r}")
        if self.obs_dim < 1:
            raise ContractError(f"obs_dim of modality {self.name!r} must be >= 1, "
                                f"got {self.obs_dim}")
        if not (is_real(self.noise_sigma) and 0.0 <= self.noise_sigma <= sys.float_info.max):
            raise ContractError(f"noise_sigma of modality {self.name!r} must be a finite "
                                f"number >= 0, got {self.noise_sigma!r}")
        if self.kind not in ("static_vector", "sequence"):
            raise ContractError(f"unknown modality kind {self.kind!r}")
        if not 0.0 <= self.signal_fraction <= 1.0:
            raise ContractError("signal_fraction must lie in [0, 1]")
        if self.kind == "sequence" and self.seq_len < 1:
            raise ContractError("sequence modalities need seq_len >= 1")

    @property
    def flat_dim(self):
        return self.obs_dim * self.seq_len if self.kind == "sequence" else self.obs_dim


@dataclass
class CohortSpec:
    num_patients: int
    latent_dim: int
    modalities: list
    binary_label_sparsity: float = 0.3  # positive rate
    num_multilabels: int = 25
    group_axes: dict = field(default_factory=dict)  # axis -> number of categories
    group_separability: dict = field(default_factory=dict)  # axis -> per-group label-noise offsets
    seed: int = 0

    def __post_init__(self):
        _require_ints(self, ("num_patients", "latent_dim", "num_multilabels", "seed"),
                      "the cohort spec")
        if not 1 <= self.num_patients <= MAX_PATIENTS:
            raise ContractError(f"num_patients {self.num_patients} outside [1, {MAX_PATIENTS}]")
        if self.num_multilabels < 1:
            raise ContractError(f"num_multilabels must be >= 1, got {self.num_multilabels}")
        if len(self.modalities) < 2:
            raise ContractError("need at least 2 modalities")
        if not 1 <= self.latent_dim <= MAX_WIDTH:
            raise ContractError(f"latent_dim {self.latent_dim} outside [1, {MAX_WIDTH}]")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.binary_label_sparsity < 1.0:
            raise ContractError("binary_label_sparsity must lie strictly in (0, 1)")
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise ContractError("duplicate modality names")
        for name in ("group_axes", "group_separability"):
            if not isinstance(getattr(self, name), dict):
                raise ContractError(f"{name} must map axis names to values, "
                                    f"got {getattr(self, name)!r}")
        for axis, num_cats in self.group_axes.items():
            if not (is_int(num_cats) and 1 <= num_cats <= MAX_PATIENTS):
                raise ContractError(f"group axis {axis!r} needs an integer number of categories "
                                    f"in [1, {MAX_PATIENTS}], got {num_cats!r}")
        for axis, offsets in self.group_separability.items():
            if axis not in self.group_axes:
                raise ContractError(f"group_separability names axis {axis!r}, "
                                    f"which group_axes does not")
            if not (isinstance(offsets, (list, tuple)) and len(offsets) == self.group_axes[axis]
                    and all(is_real(o) and 0.0 <= o <= sys.float_info.max for o in offsets)):
                raise ContractError(f"group axis {axis!r} needs one finite offset >= 0 for each "
                                    f"of its {self.group_axes[axis]} categories, got {offsets!r}")


@dataclass
class SyntheticCohort:
    spec: CohortSpec
    observations: dict  # name -> N x d or N x T x d array
    binary_labels: np.ndarray
    multilabels: np.ndarray  # N x L in {0, 1}
    groups: dict  # axis -> array of string tags

    @property
    def num_patients(self):
        return self.spec.num_patients

    def modality(self, name):
        for m in self.spec.modalities:
            if m.name == name:
                return m
        roster = [m.name for m in self.spec.modalities]
        raise ConfigurationError(f"unknown modality {name!r}; the cohort has {roster}")


def spec_from_dict(d):
    d = dict(d)
    d["modalities"] = [ModalitySpec(**m) for m in d["modalities"]]
    return CohortSpec(**d)


def generate(spec):
    """Generate a cohort; bitwise deterministic given the spec (incl. seed). A
    noise_sigma so large that an observation overflows raises ContractError."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_patients, spec.latent_dim
    z = rng.standard_normal((n, d))

    observations = {}
    for mod in spec.modalities:
        name_tag = int(hashlib.sha256(mod.name.encode()).hexdigest()[:8], 16)
        mix_rng = np.random.default_rng(spec.seed + name_tag)
        flat = mod.flat_dim
        sf = mod.signal_fraction
        # unit-variance latent mixture per observation dim; signal_fraction
        # is the share of that variance exposed, the rest is private noise
        mixing = mix_rng.standard_normal((d, flat))
        mixing /= np.linalg.norm(mixing, axis=0, keepdims=True)
        obs = np.sqrt(sf) * (z @ mixing) + np.sqrt(1.0 - sf) * rng.standard_normal((n, flat))
        with np.errstate(over="ignore"):  # a huge sigma overflows; reported below
            obs = obs + mod.noise_sigma * rng.standard_normal((n, flat))
        if not np.isfinite(obs).all():
            raise ContractError(f"modality {mod.name!r} drew an observation that is not finite; "
                                f"noise_sigma {mod.noise_sigma!r} is too large")
        if mod.kind == "sequence":
            obs = obs.reshape(n, mod.seq_len, mod.obs_dim)
        observations[mod.name] = obs

    codes = {axis: rng.integers(0, num_cats, size=n) for axis, num_cats in spec.group_axes.items()}
    groups = {axis: np.array([f"{axis}{c}" for c in cats]) for axis, cats in codes.items()}

    # binary label: threshold a fixed latent projection at the sparsity quantile
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    margin = z @ w
    for axis, offsets in spec.group_separability.items():
        # unobserved per-patient noise scaled per group: larger offset, less separable
        noise_scale = np.asarray(offsets, dtype=np.float64)[codes[axis]]
        margin = margin + noise_scale * rng.standard_normal(n)
    threshold = np.quantile(margin, 1.0 - spec.binary_label_sparsity)
    binary_labels = (margin > threshold).astype(np.int64)

    multilabels = np.zeros((n, spec.num_multilabels), dtype=np.int64)
    for l in range(spec.num_multilabels):
        wl = rng.standard_normal(d)
        wl /= np.linalg.norm(wl)
        rate = rng.uniform(0.15, 0.5)
        ml_margin = z @ wl
        multilabels[:, l] = (ml_margin > np.quantile(ml_margin, 1.0 - rate)).astype(np.int64)

    return SyntheticCohort(spec, observations, binary_labels, multilabels, groups)


def _stratified_partition(labels, fractions, rng):
    """Disjoint patient-level partition stratified on a binary label."""
    parts = [[] for _ in fractions]  # each part's slice of each class
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        bounds = np.floor(np.cumsum(fractions) * idx.size + 0.5).astype(int)
        bounds[-1] = idx.size
        start = 0
        for part, stop in zip(parts, bounds):
            part.append(idx[start:stop])
            start = stop
    return [np.sort(np.concatenate(part)).astype(np.int64, copy=False) for part in parts]


def pretrain_pool(cohort, seed=0, pool_fraction=0.5):
    """Partition the cohort into a contrastive pre-training pool and the
    remainder used for the fine-tuning split. Disjoint and exhaustive."""
    if not 0.0 < pool_fraction < 1.0:
        raise ContractError("pool_fraction must lie strictly in (0, 1)")
    rng = np.random.default_rng(seed)
    pool, rest = _stratified_partition(
        cohort.binary_labels, (pool_fraction, 1.0 - pool_fraction), rng)
    return pool, rest


# ---------------------------------------------------------------------------
# npz archives: cohorts here, checkpoints in `harness`


def write_archive(path, members):
    """Write `members`, a dict of name -> array, as an npz archive at exactly
    `path`; np.savez given a name would append `.npz` to it."""
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def read_archive(path, parse):
    """`parse(data)` for the npz archive at `path`, where `data` maps member
    names to arrays. A file that cannot be opened raises its OSError. One
    that opens but is not a readable archive (a bad zip container, a member
    whose CRC-32 does not match its bytes, one zipfile cannot decompress, an
    npy header that does not parse, an array that needs pickle, or a
    directory entry with a comment, which np.savez never writes), or whose
    members `parse` rejects, raises CorruptFileError naming the file."""
    with open(path, "rb") as fh:
        try:
            if not zipfile.is_zipfile(fh):  # np.load would report it as pickled data
                raise zipfile.BadZipFile("not an npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                # numpy stops reading a member where its header says the array
                # ends, which skips the CRC-32 check after a changed header
                bad = data.zip.testzip()
                if bad is not None:
                    raise zipfile.BadZipFile(f"member {bad!r} fails its CRC-32 or header check")
                # np.savez writes no member comments; a directory entry whose
                # comment length grew has swallowed the entries after it
                if any(info.comment for info in data.zip.infolist()):
                    raise zipfile.BadZipFile("a directory entry carries a comment")
                return parse(data)
        except (EOFError, KeyError, NotImplementedError, OSError, RuntimeError, TypeError,
                ValueError, lzma.LZMAError, tokenize.TokenError, zipfile.BadZipFile,
                zlib.error) as exc:
            raise CorruptFileError(
                f"{path}: not a readable archive ({type(exc).__name__}: {exc})") from exc


def save_cohort(cohort, path):
    """Write a cohort as an npz archive: the format tag, the spec as JSON and
    one member per section, each modality in its natural shape."""
    write_archive(path, {
        "format": np.array(FORMAT_VERSION),
        "spec": np.array(json.dumps(asdict(cohort.spec), sort_keys=True)),
        **{f"modality:{name}": obs for name, obs in cohort.observations.items()},
        "binary_labels": cohort.binary_labels, "multilabels": cohort.multilabels,
        **{f"group:{axis}": tags for axis, tags in cohort.groups.items()}})


def load_cohort(path):
    """Read a cohort written by `save_cohort`. A file that is not one, whose
    bytes changed after it was written, or that has a missing section, a
    section of another shape or dtype than its spec says, or a NaN or
    infinity in a float section raises CorruptFileError."""
    return read_archive(path, _parse_cohort)


def _parse_cohort(data):
    tag = str(data["format"])
    if tag != FORMAT_VERSION:
        raise ValueError(f"format {tag!r}, not {FORMAT_VERSION!r}")
    spec = spec_from_dict(json.loads(str(data["spec"])))
    n = spec.num_patients

    def section(name, shape, dtype):
        values = data[name]
        if values.shape != shape:
            raise ValueError(f"{name} holds {values.shape} cells, the spec needs {shape}")
        saved_as = values.dtype.kind == "U" if dtype is str else values.dtype == dtype
        if not saved_as:
            raise TypeError(f"{name} holds {values.dtype}, not {dtype.__name__}")
        if dtype is np.float64 and not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
        return values

    def labels(name, shape):
        values = section(name, shape, np.int64)
        if not ((values == 0) | (values == 1)).all():
            raise ValueError(f"{name} holds a label other than 0 or 1")
        return values

    observations = {
        mod.name: section(f"modality:{mod.name}",
                          (n, mod.seq_len, mod.obs_dim) if mod.kind == "sequence"
                          else (n, mod.obs_dim), np.float64)
        for mod in spec.modalities}
    groups = {axis: section(f"group:{axis}", (n,), str) for axis in spec.group_axes}
    return SyntheticCohort(spec, observations, labels("binary_labels", (n,)),
                           labels("multilabels", (n, spec.num_multilabels)), groups)


def default_five_modality_spec(num_patients, seed=0, latent_dim=8,
                               signal_fractions=(0.9, 0.8, 0.7, 0.6, 0.5),
                               noise_sigmas=(0.1, 0.1, 0.1, 0.1, 0.1),
                               group_axes=None, group_separability=None,
                               binary_label_sparsity=0.3):
    """Five-modality roster shaped like the clinical setting: two text-style
    feature vectors, one image-style vector, one demographics vector, one
    sequence."""
    roster = (("text_a", "static_vector", 12, 0), ("text_b", "static_vector", 12, 0),
              ("image", "static_vector", 16, 0), ("demo", "static_vector", 4, 0),
              ("series", "sequence", 3, 6))  # name, kind, obs_dim, seq_len
    for what, values in (("signal_fractions", signal_fractions), ("noise_sigmas", noise_sigmas)):
        if len(values) != len(roster):
            raise ContractError(f"{what} needs {len(roster)} values, one each for "
                                f"{', '.join(m[0] for m in roster)}; got {len(values)}")
    modalities = [ModalitySpec(name, kind, dim, seq_len=steps, signal_fraction=sf, noise_sigma=ns)
                  for (name, kind, dim, steps), sf, ns
                  in zip(roster, signal_fractions, noise_sigmas)]
    return CohortSpec(
        num_patients=num_patients, latent_dim=latent_dim, modalities=modalities,
        binary_label_sparsity=binary_label_sparsity,
        group_axes={"gender": 2, "ethnicity": 5, "age": 8} if group_axes is None else group_axes,
        group_separability={} if group_separability is None else group_separability,
        seed=seed)
