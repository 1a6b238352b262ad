"""Deterministic synthetic corpora, padding, file storage, and splits.

Two dataset families substitute for the unavailable real corpora:

  * frame datasets: per-frame descriptors with partially-annotated
    valence-arousal / expression / action-unit labels, for training the
    multi-task head;
  * video datasets: padded variable-length sequences of affect features
    with one 7-dim intensity label per video, for the aggregator.

Video labels are functions of the un-padded prefix only, and padding is
either exact zeros or pure noise, so masking ablations measure a real
signal. Every generator is reproducible byte-for-byte from its seed:
each sample draws from its own spawned child stream.

A dataset (schema "3") is a file in the stored-array layout of
``codec``, with a JSON manifest beside it. The header line holds
``schema_version`` and ``records``, one entry per sample with its scalar
fields: ``[id, length]`` for a video, ``[id, expr, has_va, has_au]`` for
a frame (``expr`` is null when unlabeled). After it come each record's
arrays in record order: a video's ``frames`` (t, d) then ``label`` (7,);
a frame's ``features`` (d,), then ``va`` (2,) and ``au`` (17,) when
present. The loader takes each array's shape from the manifest, reads
every array in one pass (see ``codec.Reader.read_arrays``), checks each
record invariant over all records at once, and names the record number
and field of the first failure in file order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import atomic, codec
from .affect_space import (
    AU_IDS,
    AU_SLICE,
    EXPR_SLICE,
    EXPRESSIONS,
    FEATURE_DIM,
    INTENSITY_CLASSES,
    REPRESENTATION_SUBSETS,
    VA_SLICE,
    au_index,
    expression_index,
    relatedness_matrix,
)
from .autodiff import np_softmax

SCHEMA_VERSION = "3"

# Rough circumplex coordinates driving the expression mixture.
VA_PROTOTYPES = {
    "anger": (-0.7, 0.7),
    "disgust": (-0.6, 0.35),
    "fear": (-0.6, 0.8),
    "happiness": (0.8, 0.5),
    "sadness": (-0.7, -0.5),
    "surprise": (0.4, 0.85),
    "neutral": (0.0, 0.0),
}

_PROTO = np.array([VA_PROTOTYPES[e] for e in EXPRESSIONS])


class DatasetError(Exception):
    """Malformed dataset file, manifest or record, or a broken record invariant."""


def _check_schema(version, where):
    """Raise DatasetError unless `version`, read from the file `where`
    names, is the schema this version reads."""
    if version != SCHEMA_VERSION:
        raise DatasetError(
            f"unsupported dataset schema {version!r} in {where} (this version reads "
            f"{SCHEMA_VERSION!r}); re-run gen to rebuild the dataset"
        )


@dataclass
class FrameSample:
    id: str
    features: np.ndarray  # (d_in,)
    va: np.ndarray | None = None  # (2,)
    expr: int | None = None
    au: np.ndarray | None = None  # (17,) binary


@dataclass
class VideoSample:
    id: str
    frames: np.ndarray  # (t, d)
    length: int
    label: np.ndarray  # (7,)


@dataclass(frozen=True)
class FrameRecipe:
    d_in: int = 64
    noise: float = 0.1
    # fractions of samples carrying each annotation pattern
    label_mix: tuple = (("all", 1.0),)
    temperature: float = 0.3


@dataclass(frozen=True)
class VideoRecipe:
    l_min: int = 8
    l_max: int = 32
    smoothness: float = 0.85
    drive: float = 0.3
    temperature: float = 0.4
    mix_noise: float = 0.5
    feature_noise: float = 0.05
    au_noise: float = 0.12
    padding: str = "zeros"  # "zeros" | "noise"
    feature_kind: str = "affect"  # "affect" | "descriptor"
    d_in: int = 64  # descriptor width when feature_kind == "descriptor"


@dataclass
class DatasetManifest:
    kind: str  # "frames" | "videos"
    seed: int
    n: int
    d: int
    recipe: dict
    t: int | None = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self):
        base = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "seed": self.seed,
            "n": self.n,
            "d": self.d,
            "t": self.t,
            "recipe": self.recipe,
            "expression_order": list(EXPRESSIONS),
            "au_ids": list(AU_IDS),
        }
        if self.kind == "videos":
            base["label_order"] = list(INTENSITY_CLASSES)
        return base

    @classmethod
    def from_dict(cls, blob, where="manifest"):
        """Raises DatasetError naming `where` and the missing or
        malformed field, a videos recipe's feature_kind and padding too."""
        if not isinstance(blob, dict):
            raise DatasetError(f"{where} is not a JSON object")
        _check_schema(blob.get("schema_version"), where)
        for key in ("kind", "seed", "n", "d", "recipe"):
            if key not in blob:
                raise DatasetError(f"{where} lacks field {key!r}")
        if not isinstance(blob["recipe"], dict):
            raise DatasetError(f"{where}: field 'recipe' is not a JSON object")
        if not isinstance(blob["kind"], str):
            raise DatasetError(f"{where}: field 'kind' is not a string")
        if blob["kind"] not in ("frames", "videos"):
            raise DatasetError(
                f"{where}: field 'kind' is {blob['kind']!r}, expected 'frames' or 'videos'"
            )
        for key in ("seed", "n", "d", "t"):
            value = blob.get(key)
            # frame datasets have no padded length
            if key == "t" and value is None and blob["kind"] == "frames":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise DatasetError(f"{where}: field {key!r} is not an integer")
            if value < 0:
                raise DatasetError(f"{where}: field {key!r} is negative")
        recipe = blob["recipe"]
        for key, allowed in (("feature_kind", ("affect", "descriptor")),
                             ("padding", ("zeros", "noise"))):
            if blob["kind"] == "videos" and recipe.get(key) not in allowed:
                raise DatasetError(f"{where}: field 'recipe.{key}' is {recipe.get(key)!r}, "
                                   f"expected {allowed[0]!r} or {allowed[1]!r}")
        return cls(
            kind=blob["kind"],
            seed=blob["seed"],
            n=blob["n"],
            d=blob["d"],
            recipe=recipe,
            t=blob.get("t"),
        )


def distribute(n, fractions):
    """Split n into integer counts: floor each share, then hand out the
    remainder by largest fractional part (ties to the earlier entry).
    Callers pass validated fractions (`RunConfig.parse_fractions`)."""
    raw = [f * n for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _descriptor_lift(seed, d_in):
    # fixed per-dataset linear map from affect space to descriptor space
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x11F7]))
    return rng.normal(size=(FEATURE_DIM, d_in)) / np.sqrt(FEATURE_DIM)


def _mixture_logits(va, temperature):
    d2 = ((np.asarray(va)[..., None, :] - _PROTO) ** 2).sum(axis=-1)
    return -d2 / temperature


def _require_finite(samples, fields):
    """Raise FloatingPointError naming the first generated sample whose
    stored array in one of `fields` holds a non-finite value."""
    for key in fields:
        stored = [(s.id, getattr(s, key)) for s in samples if getattr(s, key) is not None]
        # one check over the stacked arrays; the per-sample scan only names
        # the culprit
        if stored and not np.isfinite(np.stack([arr for _, arr in stored])).all():
            sample_id = next(i for i, arr in stored if not np.isfinite(arr).all())
            raise FloatingPointError(
                f"generated {sample_id}: field {key!r} holds a non-finite value; "
                "the recipe's noise or temperature overflows float64"
            )


# A recipe may overflow float64 (a noise of 1e308, say); the generators
# check what they store instead of warning about each intermediate.
@np.errstate(over="ignore", invalid="ignore")
def gen_frame_dataset(seed, n, recipe):
    """Frame samples with configurable partial annotation; deterministic."""
    kinds = []
    names = [name for name, _ in recipe.label_mix]
    for name, count in zip(names, distribute(n, [f for _, f in recipe.label_mix])):
        kinds.extend([name] * count)
    kinds = [kinds[i] for i in np.random.default_rng(
        np.random.SeedSequence([int(seed), 0x31A0])).permutation(n)]

    lift = _descriptor_lift(seed, recipe.d_in)
    m = relatedness_matrix()
    samples = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        va = rng.uniform(-0.9, 0.9, size=2)
        weights = np_softmax(
            _mixture_logits(va, recipe.temperature)
            + recipe.noise * rng.normal(size=len(EXPRESSIONS))
        )
        expr = int(np.argmax(weights))
        base_au = m[expr]
        au_obs = np.clip(base_au + recipe.noise * rng.normal(size=len(AU_IDS)), 0.0, 1.0)
        va_obs = np.clip(va + recipe.noise * 0.2 * rng.normal(size=2), -1.0, 1.0)
        affect = np.concatenate([va_obs, weights, au_obs])
        features = affect @ lift + recipe.noise * 0.1 * rng.normal(size=recipe.d_in)
        au_label = (
            np.clip(base_au + recipe.noise * rng.normal(size=len(AU_IDS)), 0.0, 1.0) > 0.5
        ).astype(np.float64)
        kind = kinds[i]
        samples.append(
            FrameSample(
                id=f"frame-{i:05d}",
                features=features,
                va=va_obs if kind in ("va", "all") else None,
                expr=expr if kind in ("expr", "all") else None,
                au=au_label if kind in ("au", "all") else None,
            )
        )
    _require_finite(samples, ("features", "va"))
    manifest = DatasetManifest(
        kind="frames", seed=int(seed), n=n, d=recipe.d_in, recipe=asdict(recipe)
    )
    return samples, manifest


def video_label(frames, length):
    """Intensity label from the un-padded prefix of a 26-dim affect clip.

    Each output reads a different part of the representation (means over
    the prefix): two from valence-arousal, two from expression mass, two
    from action-unit activity, one mixed, so every channel carries
    information the others cannot fully replace.
    """
    prefix = np.asarray(frames, dtype=np.float64)[: int(length)]
    v, a = prefix[:, VA_SLICE].mean(axis=0)
    e = prefix[:, EXPR_SLICE].mean(axis=0)
    au = prefix[:, AU_SLICE].mean(axis=0)

    def ex(name):
        return e[expression_index(name)]

    def av(*ids):
        return float(np.mean([au[au_index(i)] for i in ids]))

    vals = [
        0.5 + 0.55 * v - 0.25 * a,
        0.1 + 2.2 * ex("happiness"),
        0.5 + 0.55 * a - 0.25 * v,
        0.1 + 2.2 * ex("disgust"),
        1.4 * av(4, 11, 15) - 0.05,
        0.9 * ex("fear") + 0.8 * au[au_index(20)] + 0.25 * a,
        1.3 * av(1, 2, 5, 26) - 0.1,
    ]
    # smooth squash into (0, 1): a hard clip would flatten label columns
    # at the bounds and kill their variance inside small batches
    return 1.0 / (1.0 + np.exp(-4.0 * (np.asarray(vals) - 0.5)))


def _affect_trajectory(rng, length, recipe, relatedness):
    """(length, 26) affect rows from `rng`: a clipped AR(1) valence-arousal
    path, then its observation, expression mixture and action units.

    All step noise is drawn in one call; `Generator.normal` fills it in C
    order, so these are the per-step pairs a loop of `normal(size=2)`
    would draw and the stream ends where that loop leaves it. The
    recurrence runs over Python floats; its clamp equals `np.clip` for
    every float, NaN included.
    """
    a = recipe.smoothness
    x, y = rng.uniform(-0.8, 0.8, size=2).tolist()
    # each step's kicks, flat, overwritten by the state they produce
    path = (recipe.drive * rng.normal(size=(length, 2))).ravel().tolist()
    for k in range(0, 2 * length, 2):
        x = a * x + path[k]
        y = a * y + path[k + 1]
        x = -1.0 if x < -1.0 else 1.0 if x > 1.0 else x
        y = -1.0 if y < -1.0 else 1.0 if y > 1.0 else y
        path[k] = x
        path[k + 1] = y
    va = np.array(path).reshape(length, 2)
    va_obs = np.clip(va + recipe.feature_noise * rng.normal(size=(length, 2)), -1.0, 1.0)
    weights = np_softmax(
        _mixture_logits(va, recipe.temperature)
        + recipe.mix_noise * rng.normal(size=(length, len(EXPRESSIONS)))
    )
    au = np.clip(
        weights @ relatedness + recipe.au_noise * rng.normal(size=(length, len(AU_IDS))),
        0.0,
        1.0,
    )
    return np.concatenate([va_obs, weights, au], axis=1)


@np.errstate(over="ignore", invalid="ignore")
def gen_video_dataset(seed, n, recipe, t):
    """Padded variable-length videos with weak (video-level) labels."""
    lift = _descriptor_lift(seed, recipe.d_in)
    m = relatedness_matrix()
    samples = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        length = int(rng.integers(recipe.l_min, recipe.l_max + 1))
        affect = _affect_trajectory(rng, length, recipe, m)
        label = video_label(affect, length)
        padded = np.zeros((t, FEATURE_DIM))
        padded[:length] = affect
        if recipe.padding == "noise" and length < t:
            # padding noise is a decoy trajectory: statistically shaped like
            # real content but independent of the label, so a model that
            # consumes padded positions is genuinely misled rather than just
            # averaging over white noise
            padded[length:] = _affect_trajectory(rng, t - length, recipe, m)
        if recipe.feature_kind == "descriptor":
            emitted = padded @ lift
            emitted[:length] += recipe.feature_noise * 0.1 * rng.normal(
                size=(length, recipe.d_in)
            )
        else:
            emitted = padded
        samples.append(
            VideoSample(id=f"video-{i:05d}", frames=emitted, length=length, label=label)
        )
    _require_finite(samples, ("frames", "label"))
    d = recipe.d_in if recipe.feature_kind == "descriptor" else FEATURE_DIM
    manifest = DatasetManifest(
        kind="videos", seed=int(seed), n=n, d=d, t=t, recipe=asdict(recipe)
    )
    return samples, manifest


# ---------------------------------------------------------------------------
# storage: a stored-array file (see ``codec``) whose header lists each
# record's scalar fields, manifest beside it; the manifest gives every
# array's shape


def manifest_path(data_path):
    return Path(f"{data_path}.manifest.json")


def save_dataset(path, samples, manifest):
    path = Path(path)
    if manifest.kind == "frames":
        records = [[s.id, None if s.expr is None else int(s.expr), s.va is not None,
                    s.au is not None] for s in samples]
        arrays = (arr for s in samples for arr in (s.features, s.va, s.au) if arr is not None)
    elif manifest.kind == "videos":
        records = [[s.id, int(s.length)] for s in samples]
        arrays = (arr for s in samples for arr in (s.frames, s.label))
    else:
        raise DatasetError(f"unknown dataset kind {manifest.kind!r}")
    codec.write(path, {"schema_version": SCHEMA_VERSION, "records": records}, arrays)
    manifest_text = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    atomic.write_text(manifest_path(path), manifest_text)


def _check(cond, number, message):
    if not cond:
        raise DatasetError(f"record {number}: {message}")


def load_dataset(path):
    """Read a dataset and its manifest, validating every record invariant.

    Raises DatasetError naming the record number and offending field.
    Faults come in file order: the header line first, every record's
    header entry in record order, then the payload, record by record,
    each record's faults in the order the record's fields are stored.
    """
    path = Path(path)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise DatasetError(f"missing manifest {mpath}")
    # files are read as bytes, so text that is not UTF-8 fails as a
    # DatasetError naming the file
    try:
        blob = json.loads(mpath.read_bytes())
    except json.JSONDecodeError as e:
        raise DatasetError(f"manifest {mpath} is not valid JSON: {e.msg}") from None
    except UnicodeDecodeError:
        raise DatasetError(f"manifest {mpath} is not UTF-8 text") from None
    manifest = DatasetManifest.from_dict(blob, where=f"manifest {mpath}")
    load = _load_frames if manifest.kind == "frames" else _load_videos
    where = f"dataset {path}"
    with codec.Reader(path, DatasetError, where) as reader:
        _check_schema(reader.header.get("schema_version"), where)
        if "records" not in reader.header:
            raise DatasetError(f"{where} lacks field 'records'")
        records = reader.header["records"]
        if not isinstance(records, list):
            raise DatasetError(f"{where}: field 'records' is not a JSON list")
        if len(records) != manifest.n:
            raise DatasetError(
                f"manifest n is {manifest.n} but {path} holds {len(records)} records")
        samples = load(reader, records, manifest)
        reader.finish("record")
    return samples, manifest


def _load_frames(reader, records, manifest):
    features = (manifest.d,)
    specs, labels = [], {"va": [], "au": []}  # labels: (array index, record number) per field
    for number, entry in enumerate(records, start=1):
        _check(isinstance(entry, list) and len(entry) == 4, number,
               "header entry is not an [id, expr, has_va, has_au] list")
        sample_id, expr, has_va, has_au = entry
        _check(isinstance(sample_id, str), number, "field 'id' is not a string")
        _check(type(has_va) is bool, number, "field 'has_va' is not a boolean")
        _check(type(has_au) is bool, number, "field 'has_au' is not a boolean")
        _check(has_va or expr is not None or has_au, number, "sample carries no labels")
        if expr is not None:
            _check(type(expr) is int and 0 <= expr < len(EXPRESSIONS), number, "bad expr label")
        at = f"record {number}: field "
        specs.append((features, at + "'features'"))
        if has_va:
            labels["va"].append((len(specs), number))
            specs.append(((2,), at + "'va'"))
        if has_au:
            labels["au"].append((len(specs), number))
            specs.append(((len(AU_IDS),), at + "'au'"))
    _, arrays, fault = reader.read_arrays(specs)
    # each label field's invariant, over all its labels at once
    bad = []
    for field, message in (("va", "bad va label"),
                           ("au", "bad au label (need a binary 17-vector)")):
        held = [(k, number) for k, number in labels[field] if k < len(arrays)]
        if held:
            values = np.array([arrays[k] for k, _ in held])
            ok = (np.abs(values) <= 1.0 if field == "va" else (values == 0.0) | (values == 1.0))
            bad += [(k, number, message) for (k, number), good in zip(held, ok.all(axis=1))
                    if not good]
    if bad:
        _, number, message = min(bad)
        raise DatasetError(f"record {number}: {message}")
    if fault:
        raise fault
    stored = iter(arrays)
    return [FrameSample(id=sample_id, features=next(stored), va=next(stored) if has_va else None,
                        expr=expr, au=next(stored) if has_au else None)
            for sample_id, expr, has_va, has_au in records]


def _load_videos(reader, records, manifest):
    t, d = manifest.t, manifest.d
    specs = []
    for number, entry in enumerate(records, start=1):
        _check(isinstance(entry, list) and len(entry) == 2, number,
               "header entry is not an [id, length] list")
        sample_id, length = entry
        _check(isinstance(sample_id, str), number, "field 'id' is not a string")
        _check(type(length) is int, number, "field 'length' is not an integer")
        _check(1 <= length <= t, number, f"length {length} outside [1, {t}]")
        specs += [((t, d), f"record {number}: field 'frames'"),
                  ((len(INTENSITY_CLASSES),), f"record {number}: field 'label'")]
    flat, arrays, fault = reader.read_arrays(specs)
    whole = len(arrays) // 2  # the records read in full
    if whole:
        lengths = np.array([length for _, length in records[:whole]])
        rows = flat[:whole * (t * d + len(INTENSITY_CLASSES))].reshape(whole, -1)
        _check_videos(rows[:, :t * d].reshape(whole, t, d), lengths, rows[:, t * d:],
                      manifest.recipe)
    if fault:
        raise fault
    return [VideoSample(id=sample_id, frames=frames, length=length, label=label)
            for (sample_id, length), frames, label in zip(records, arrays[::2], arrays[1::2])]


def _check_videos(frames, lengths, labels, recipe):
    """Raise DatasetError naming the first video, and its first invariant,
    that `frames` (n, t, d), `lengths` (n,) and `labels` (n, 7) break.

    One pass over all videos fills a (video, invariant) failure table, in
    the order the invariants are reported: the label in [0, 1], zero
    padding past each length, then over the live rows only the va block
    in [-1, 1], nonnegative expr mass, expr sums of 1 and the au block in
    [0, 1]. Its first entry in row-major order is the fault.
    """
    t = frames.shape[1]
    live = np.arange(t) < lengths[:, None]  # (n, t)
    dead = ~live[..., None]
    faults = {"bad intensity label": ~((labels >= 0) & (labels <= 1)).all(axis=1)}
    if recipe["padding"] == "zeros":
        faults["padded rows are not zero"] = ((frames != 0.0) & dead).any(axis=(1, 2))
    if recipe["feature_kind"] == "affect":
        va, expr, au = frames[..., VA_SLICE], frames[..., EXPR_SLICE], frames[..., AU_SLICE]
        faults["va block outside [-1, 1]"] = ~((np.abs(va) <= 1.0 + 1e-12) | dead).all(axis=(1, 2))
        faults["expr block has negative mass"] = ~((expr >= -1e-12) | dead).all(axis=(1, 2))
        sums = expr.sum(axis=2)  # (n, t)
        off = np.where(live, np.abs(sums - 1.0), -1.0)  # a padded row is never off
        bad_sums = ~(off <= 1e-6).all(axis=1)
        # only the first video whose sums are off can be named for them
        k = bad_sums.argmax()
        faults[f"expr block does not sum to 1 (got {sums[k, off[k].argmax()]:.6g})"] = bad_sums
        faults["au block outside [0, 1]"] = ~(((au >= -1e-12) & (au <= 1.0 + 1e-12))
                                              | dead).all(axis=(1, 2))
    table = np.stack(list(faults.values()), axis=1)  # (n, invariants)
    if table.any():
        i, j = divmod(int(table.argmax()), table.shape[1])
        raise DatasetError(f"record {i + 1}: {list(faults)[j]}")


# ---------------------------------------------------------------------------
# splitting and batch assembly


def split(samples, fractions, seed):
    """Deterministic shuffle-then-cut into train/val/test; disjoint and
    exhaustive by construction."""
    counts = distribute(len(samples), fractions)
    perm = np.random.default_rng(seed).permutation(len(samples))
    shuffled = [samples[i] for i in perm]
    train = shuffled[: counts[0]]
    val = shuffled[counts[0]: counts[0] + counts[1]]
    test = shuffled[counts[0] + counts[1]:]
    return {"train": train, "val": val, "test": test}


def video_arrays(samples):
    frames = np.asarray([s.frames for s in samples], dtype=np.float64)
    lengths = np.asarray([s.length for s in samples], dtype=int)
    labels = np.asarray([s.label for s in samples], dtype=np.float64)
    return frames, lengths, labels


def select_columns(samples, subset):
    """Project video frames onto a named representation subset."""
    cols = list(REPRESENTATION_SUBSETS[subset])
    return [
        VideoSample(id=s.id, frames=s.frames[:, cols], length=s.length, label=s.label)
        for s in samples
    ]
