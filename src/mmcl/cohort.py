"""Deterministic synthetic multimodal cohorts with planted structure.

A linear-Gaussian latent model: each patient has a latent vector z; each
modality observes a fixed random unit-variance linear mixture of z in which
`signal_fraction` is the share of variance coming from the latents, the
remainder being private noise. Labels are thresholded projections of z, so
a modality's informativeness is one controllable knob, monotone in
signal_fraction for probes and contrastive alignment alike.
"""

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, CorruptFileError

FORMAT_VERSION = "mmcl-cohort v2"


@dataclass
class ModalitySpec:
    name: str
    kind: str  # "static_vector" | "sequence"
    obs_dim: int
    seq_len: int = 0
    signal_fraction: float = 1.0
    noise_sigma: float = 0.1
    mixing_seed: int = None

    def __post_init__(self):
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
        if self.num_patients < 1:
            raise ContractError(f"num_patients must be >= 1, got {self.num_patients}")
        if len(self.modalities) < 2:
            raise ContractError("need at least 2 modalities")
        if self.latent_dim < 1:
            raise ContractError("latent_dim must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.binary_label_sparsity < 1.0:
            raise ContractError("binary_label_sparsity must lie strictly in (0, 1)")
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise ContractError("duplicate modality names")


@dataclass
class SyntheticCohort:
    spec: CohortSpec
    observations: dict  # name -> N x d or N x T x d array
    binary_labels: np.ndarray
    multilabels: np.ndarray  # N x L in {0, 1}
    groups: dict  # axis -> array of string tags
    latents: np.ndarray  # oracle use only, never fed to models

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
    """Generate a cohort; bitwise deterministic given the spec (incl. seed)."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_patients, spec.latent_dim
    z = rng.standard_normal((n, d))

    observations = {}
    for mod in spec.modalities:
        name_tag = int(hashlib.sha256(mod.name.encode()).hexdigest()[:8], 16)
        mix_rng = np.random.default_rng(
            mod.mixing_seed if mod.mixing_seed is not None else spec.seed + name_tag)
        flat = mod.flat_dim
        sf = mod.signal_fraction
        if sf > 0:
            # unit-variance latent mixture per observation dim; signal_fraction
            # is the share of that variance exposed, the rest is private noise
            mixing = mix_rng.standard_normal((d, flat))
            mixing /= np.linalg.norm(mixing, axis=0, keepdims=True)
            obs = np.sqrt(sf) * (z @ mixing) + np.sqrt(1.0 - sf) * rng.standard_normal((n, flat))
        else:
            obs = rng.standard_normal((n, flat))
        obs = obs + mod.noise_sigma * rng.standard_normal((n, flat))
        if mod.kind == "sequence":
            obs = obs.reshape(n, mod.seq_len, mod.obs_dim)
        observations[mod.name] = obs

    groups = {}
    for axis, num_cats in spec.group_axes.items():
        cats = rng.integers(0, num_cats, size=n)
        groups[axis] = np.array([f"{axis}{c}" for c in cats])

    # binary label: threshold a fixed latent projection at the sparsity quantile
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    margin = z @ w
    for axis, offsets in spec.group_separability.items():
        cats = np.array([int(tag[len(axis):]) for tag in groups[axis]])
        offsets = np.asarray(offsets, dtype=np.float64)
        # unobserved per-patient noise scaled per group: larger offset, less separable
        margin = margin + offsets[cats] * rng.standard_normal(n)
    threshold = np.quantile(margin, 1.0 - spec.binary_label_sparsity)
    binary_labels = (margin > threshold).astype(np.int64)

    multilabels = np.zeros((n, spec.num_multilabels), dtype=np.int64)
    for l in range(spec.num_multilabels):
        wl = rng.standard_normal(d)
        wl /= np.linalg.norm(wl)
        rate = rng.uniform(0.15, 0.5)
        ml_margin = z @ wl
        multilabels[:, l] = (ml_margin > np.quantile(ml_margin, 1.0 - rate)).astype(np.int64)

    return SyntheticCohort(spec, observations, binary_labels, multilabels, groups, z)


def _stratified_partition(labels, fractions, rng):
    """Disjoint patient-level partition stratified on a binary label."""
    parts = [[] for _ in fractions]
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        bounds = np.floor(np.cumsum(fractions) * idx.size + 0.5).astype(int)
        bounds[-1] = idx.size
        start = 0
        for p, stop in enumerate(bounds):
            parts[p].extend(idx[start:stop].tolist())
            start = stop
    return [np.sort(np.array(p, dtype=np.int64)) for p in parts]


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
# columnar text serialization


def _write_matrix(fh, arr):
    for row in arr.reshape(arr.shape[0], -1):
        fh.write(",".join("%.17g" % v for v in row) + "\n")


def _checksum_line(body):
    return "# sha256=" + hashlib.sha256(body.encode()).hexdigest()


def save_cohort(cohort, path):
    """Write a cohort as text: a version line, a `# sha256=` line over every
    byte that follows it, the spec line and the data sections."""
    spec = cohort.spec
    with io.StringIO() as fh:
        fh.write("# spec=" + json.dumps(asdict(spec), sort_keys=True) + "\n")
        for mod in spec.modalities:
            fh.write(f"[modality {mod.name}]\n")
            _write_matrix(fh, cohort.observations[mod.name])
        fh.write("[binary_labels]\n")
        fh.write(",".join(str(int(v)) for v in cohort.binary_labels) + "\n")
        fh.write("[multilabels]\n")
        _write_matrix(fh, cohort.multilabels.astype(np.float64))
        for axis, tags in cohort.groups.items():
            fh.write(f"[groups {axis}]\n")
            fh.write(",".join(tags) + "\n")
        fh.write("[latents]\n")
        _write_matrix(fh, cohort.latents)
        body = fh.getvalue()
    with open(path, "w") as fh:
        fh.write(f"# {FORMAT_VERSION}\n{_checksum_line(body)}\n")
        fh.write(body)


def load_cohort(path):
    """Read a cohort written by `save_cohort`. A file that is not one, that
    was changed after it was written, or that has a missing section or an
    unparsable cell raises CorruptFileError."""
    try:
        with open(path) as fh:
            return _parse_cohort(fh.read())
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"{path}: not a readable {FORMAT_VERSION} file ({type(exc).__name__}: {exc})") from exc


def _parse_cohort(text):
    version, checksum, body = (text.split("\n", 2) + ["", ""])[:3]
    if version != f"# {FORMAT_VERSION}":
        raise ContractError(f"no '# {FORMAT_VERSION}' header")
    if checksum != _checksum_line(body):
        raise ContractError("contents do not match the sha256 header line")
    lines = body.splitlines()
    if not lines[0].startswith("# spec="):
        raise ContractError("missing spec header")
    spec = spec_from_dict(json.loads(lines[0][len("# spec="):]))

    blocks = {}
    current = None
    for line in lines:
        if line.startswith("#"):
            continue
        if line.startswith("["):
            current = line.strip("[]")
            blocks[current] = []
        elif current is not None:
            blocks[current].append(line)

    def parse_matrix(rows):
        return np.array([[float(v) for v in r.split(",")] for r in rows])

    observations = {}
    for mod in spec.modalities:
        obs = parse_matrix(blocks[f"modality {mod.name}"])
        if mod.kind == "sequence":
            obs = obs.reshape(spec.num_patients, mod.seq_len, mod.obs_dim)
        observations[mod.name] = obs
    binary_labels = np.array([int(v) for v in blocks["binary_labels"][0].split(",")], dtype=np.int64)
    multilabels = parse_matrix(blocks["multilabels"]).astype(np.int64)
    groups = {axis: np.array(blocks[f"groups {axis}"][0].split(","))
              for axis in spec.group_axes}
    latents = parse_matrix(blocks["latents"])
    return SyntheticCohort(spec, observations, binary_labels, multilabels, groups, latents)


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
        group_axes=group_axes or {"gender": 2, "ethnicity": 5, "age": 8},
        group_separability=group_separability or {},
        seed=seed)
