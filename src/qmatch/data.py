"""Dataset ingestion, preprocessing, and split management.

A loaded dataset keeps one float matrix of raw features: numeric columns hold
their values, categorical columns hold integer codes into a per-column
vocabulary.  Preprocessing expands categoricals to one-hot blocks and
standardizes numerics with running statistics accumulated by streaming over
the fitting rows (an optional rank-to-normal-scores quantile transform can be
applied to numerics first).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .model import _has_json_type, check_fields, check_seed


class DataError(ValueError):
    """Malformed input files, schema violations, or infeasible splits."""


@dataclass
class ColumnSpec:
    name: str
    type: str  # numeric | categorical | label
    categories: list[str] | None = None

    def __post_init__(self):
        """A column's rules, which also check the JSON types a schema file gives."""
        if not isinstance(self.name, str):
            raise DataError(f"column name {self.name!r} is not a string")
        if self.type not in ("numeric", "categorical", "label"):
            raise DataError(f"column {self.name!r}: unknown type {self.type!r}")
        if not (self.categories is None or isinstance(self.categories, list)
                and all(isinstance(v, str) for v in self.categories)):
            raise DataError(f"column {self.name!r}: categories {self.categories!r} are not "
                            f"a list of strings")


def read_json(path):
    """The JSON value in the file `path`; a file that is not UTF-8 JSON is a
    DataError naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as e:  # json.JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not a JSON file ({e})") from None


def load_schema(path) -> list[ColumnSpec]:
    raw = read_json(path)
    try:
        cols = [ColumnSpec(c["name"], c["type"], c.get("categories")) for c in raw["columns"]]
    except (TypeError, KeyError) as e:
        raise DataError(f"{path}: expected a \"columns\" list of objects, each with a "
                        f"\"name\" and a \"type\" ({type(e).__name__}: {e})") from None
    except DataError as e:  # a column's own rule
        raise DataError(f"{path}: {e}") from None
    if sum(1 for c in cols if c.type == "label") > 1:
        raise DataError(f"{path}: schema declares more than one label column")
    _check_unique_names(cols, path)
    return cols


def _check_unique_names(schema: list[ColumnSpec], where):
    """Columns are found by name, so a repeated one would read another's cells."""
    seen = set()
    for c in schema:
        if c.name in seen:
            raise DataError(f"{where}: column name {c.name!r} appears more than once")
        seen.add(c.name)


class TabularDataset:
    def __init__(self, features: np.ndarray, cat_vocab: dict[int, list[str]],
                 labels: np.ndarray | None, name: str = "",
                 feature_names: list[str] | None = None,
                 label_vocab: list[str] | None = None):
        if labels is not None and len(labels) != len(features):
            raise DataError("label count does not match row count")
        self.features = features
        self.cat_vocab = cat_vocab  # feature index -> vocabulary
        self.labels = labels
        self.name = name
        self.feature_names = feature_names or [f"f{i}" for i in range(features.shape[1])]
        self.label_vocab = label_vocab

    def __len__(self):
        return len(self.features)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return int(self.labels.max()) + 1

    def cardinality(self, feature_index: int) -> int:
        return len(self.cat_vocab[feature_index])

    def cardinalities(self) -> list[int | None]:
        """Per feature: None for a numeric one, its vocabulary size for a categorical one."""
        return [self.cardinality(j) if j in self.cat_vocab else None
                for j in range(self.num_features)]


def load_csv(path, schema: list[ColumnSpec], name: str = "") -> TabularDataset:
    """Parse a CSV against a declared schema.

    Missing or non-numeric values in numeric columns are rejected; values
    outside a declared categorical vocabulary are rejected.  The file is parsed
    column-wise by ``np.loadtxt``; anything that parse refuses is re-read cell
    by cell, which either accepts it too (``1_000``, whitespace-only lines) or
    words the error with its row, value and column.
    """
    _check_unique_names(schema, path)
    feature_cols = [c for c in schema if c.type != "label"]
    try:
        features, cat_vocab, labels, label_vocab = _load_columns(path, schema)
    except Exception:  # whatever the columnar pass refuses, the cell loop decides
        features, cat_vocab, labels, label_vocab = _load_cells(path, schema)
    return TabularDataset(features, cat_vocab, labels, name=name,
                          feature_names=[c.name for c in feature_cols],
                          label_vocab=label_vocab)


def _load_columns(path, schema: list[ColumnSpec]):
    """One ``np.loadtxt`` pass: numerics by its float parser, categoricals and
    labels by a converter that maps each stripped value to its vocabulary code.
    Raises (never ``DataError``) on any input whose result could differ from
    ``_load_cells``, which then gives the verdict."""
    luts = {i: {} if c.categories is None else {v: k for k, v in enumerate(c.categories)}
            for i, c in enumerate(schema) if c.type != "numeric"}
    converters = {i: (lambda s, lut=lut: lut.setdefault(s.strip(), len(lut)))
                  if schema[i].categories is None else (lambda s, lut=lut: lut[s.strip()])
                  for i, lut in luts.items()}
    with open(path, newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt only warns about a file without rows
        next(csv.reader(fh), None)  # the header record, read as the cell loop reads it
        table = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                           quotechar='"', ndmin=2, converters=converters)
    if table.shape[1] != len(schema) or not np.isfinite(table).all():
        raise ValueError("field count or non-finite value")
    if len(schema) == 1 and "" in luts.get(0, ()):
        raise ValueError("blank line")  # a lone blank field is a line the cell loop skips
    vocabs = {}
    for i, lut in luts.items():
        if schema[i].categories is None:  # codes in order of appearance -> sorted order
            vocabs[i] = sorted(lut)
            rank = {v: k for k, v in enumerate(vocabs[i])}
            table[:, i] = np.array([rank[v] for v in lut], dtype=np.float64)[
                table[:, i].astype(np.intp)]
        else:
            vocabs[i] = list(schema[i].categories)
    feature_idx = [i for i, c in enumerate(schema) if c.type != "label"]
    label_idx = next((i for i, c in enumerate(schema) if c.type == "label"), None)
    cat_vocab = {j: vocabs[i] for j, i in enumerate(feature_idx) if i in vocabs}
    features = table.take(feature_idx, axis=1)  # C order, as the cell loop fills it
    if label_idx is None:
        return features, cat_vocab, None, None
    return features, cat_vocab, table[:, label_idx].astype(np.int64), vocabs[label_idx]


def _load_cells(path, schema: list[ColumnSpec]):
    """The reference parse: ``csv.reader`` and ``float()`` cell by cell.  Every
    ``DataError`` message of ``load_csv`` is worded here."""
    feature_cols = [c for c in schema if c.type != "label"]
    label_col = next((c for c in schema if c.type == "label"), None)

    rows: list[list[str]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)  # header
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(schema):
                    raise DataError(f"{path}:{lineno}: expected {len(schema)} fields, "
                                    f"got {len(row)}")
                rows.append([v.strip() for v in row])
        except csv.Error as e:  # such as a field longer than csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:  # decoded a block at a time, so no line is known
            raise DataError(f"{path}: not UTF-8 text ({e})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")

    col_of = {c.name: i for i, c in enumerate(schema)}
    # build vocabularies for categoricals without a declared one
    vocab: dict[str, list[str]] = {}
    for c in feature_cols:
        if c.type == "categorical":
            if c.categories is not None:
                vocab[c.name] = list(c.categories)
            else:
                vocab[c.name] = sorted({r[col_of[c.name]] for r in rows})
    label_vocab = None
    if label_col is not None:
        if label_col.categories is not None:
            label_vocab = list(label_col.categories)
        else:
            label_vocab = sorted({r[col_of[label_col.name]] for r in rows})

    features = np.zeros((len(rows), len(feature_cols)))
    labels = np.zeros(len(rows), dtype=np.int64) if label_col is not None else None
    cat_vocab: dict[int, list[str]] = {}
    for j, c in enumerate(feature_cols):
        src = col_of[c.name]
        if c.type == "numeric":
            for i, r in enumerate(rows):
                val = r[src]
                if val == "":
                    raise DataError(f"{path}: row {i + 1}: missing numeric value in {c.name!r}")
                try:
                    features[i, j] = float(val)
                except ValueError:
                    raise DataError(
                        f"{path}: row {i + 1}: non-numeric value {val!r} in {c.name!r}") from None
        else:
            lut = {v: k for k, v in enumerate(vocab[c.name])}
            cat_vocab[j] = vocab[c.name]
            for i, r in enumerate(rows):
                val = r[src]
                if val not in lut:
                    raise DataError(f"{path}: row {i + 1}: unknown category {val!r} in {c.name!r}")
                features[i, j] = lut[val]
    # float() accepts nan, inf and 1e999; categorical codes are always finite
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        i, j = bad[0]
        raise DataError(f"{path}: row {i + 1}: non-finite value "
                        f"{rows[i][col_of[feature_cols[j].name]]!r} in {feature_cols[j].name!r}")
    if label_col is not None:
        lut = {v: k for k, v in enumerate(label_vocab)}
        src = col_of[label_col.name]
        for i, r in enumerate(rows):
            val = r[src]
            if val not in lut:
                raise DataError(f"{path}: row {i + 1}: unknown label {val!r}")
            labels[i] = lut[val]

    return features, cat_vocab, labels, label_vocab


def save_csv(dataset: TabularDataset, path, label_name: str = "label"):
    """Write a dataset back out; numeric values round-trip bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(dataset.feature_names)
        if dataset.labels is not None:
            header.append(label_name)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = []
            for j in range(dataset.num_features):
                if j in dataset.cat_vocab:
                    row.append(dataset.cat_vocab[j][int(dataset.features[i, j])])
                else:
                    row.append(repr(float(dataset.features[i, j])))
            if dataset.labels is not None:
                vocab = dataset.label_vocab
                row.append(vocab[dataset.labels[i]] if vocab else str(int(dataset.labels[i])))
            writer.writerow(row)


# -- preprocessing ---------------------------------------------------------------

_INV_NORM = np.frompyfunc(NormalDist().inv_cdf, 1, 1)

# standardization: a numeric feature with var below EPSILON ** 2 maps to 0, any
# other to (v - mean) / sqrt(var + EPSILON)
EPSILON = 1e-6


def _rank_scores(n: int) -> np.ndarray:
    """The normal score of each rank 0..n a value can take among n fitted values."""
    p = np.clip(np.arange(n + 1) / (n + 1), 1e-6, 1 - 1e-6)
    return _INV_NORM(p).astype(np.float64)


@dataclass
class PreprocessState:
    mean: np.ndarray          # per raw feature (categoricals unused)
    var: np.ndarray
    count: int
    cardinality: list[int | None]  # per raw feature: None if numeric, else its category count
    quantile_tables: dict[int, np.ndarray] = field(default_factory=dict)
    # derived, never saved: from count, the normal score of each rank 0..count a
    # value takes in a quantile table (None when there is no table); from
    # cardinality, the feature of each output column and each feature's first one
    scores: np.ndarray | None = field(init=False, repr=False, compare=False)
    feature_of_column: np.ndarray = field(init=False, repr=False, compare=False)
    start_column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """The rules of a fitted state, none of which reads a row: every feature
        has one cardinality (null or an int >= 1), one mean and one var, all
        finite with var >= 0; there is a table of `count` values for every
        numeric feature, or none.  Then the rank scores are derived from `count`,
        and the one-hot layout from cardinality."""
        check_fields(self, "an int >= 1", lambda n: _has_json_type(n, "int") and n >= 1, "count")
        if not isinstance(self.cardinality, list):
            raise DataError(f"cardinality must be a list, got {self.cardinality!r}")
        for card in self.cardinality:
            if not (card is None or _has_json_type(card, "int") and card >= 1):
                raise DataError(f"cardinality entries must be null or an int >= 1, got {card!r}")
        features = len(self.cardinality)
        if self.mean.shape != (features,) or self.var.shape != (features,):
            raise DataError(f"mean and var must hold one entry per feature ({features}), got "
                            f"shapes {self.mean.shape} and {self.var.shape}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.var).all()
                and (self.var >= 0).all()):
            raise DataError("mean and var must be finite, and var >= 0")
        numeric = {j for j, card in enumerate(self.cardinality) if card is None}
        if set(self.quantile_tables) not in (numeric, set()) \
                or any(t.shape != (self.count,) for t in self.quantile_tables.values()):
            raise DataError(f"a state holds a table of count ({self.count}) values for every "
                            f"numeric feature, or none")
        self.scores = _rank_scores(self.count) if self.quantile_tables else None
        widths = np.array([card or 1 for card in self.cardinality], dtype=np.intp)
        self.feature_of_column = np.repeat(np.arange(features), widths)
        self.start_column = np.cumsum(widths) - widths

    @property
    def output_dim(self) -> int:
        return len(self.feature_of_column)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "var": self.var.tolist(),
            "count": self.count,
            "cardinality": list(self.cardinality),
            "quantile_tables": {str(k): v.tolist() for k, v in self.quantile_tables.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessState":
        """The state `to_dict` wrote; a missing key or a value of the wrong JSON
        type raises KeyError, TypeError or ValueError (DataError and ConfigError
        are ValueErrors).  The `quantile` and `epsilon` keys of older files are
        not read: the tables say the one, EPSILON is the other."""
        if not isinstance(d["quantile_tables"], dict):
            raise TypeError(f"quantile_tables must be an object, got {d['quantile_tables']!r}")
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            var=np.asarray(d["var"], dtype=np.float64),
            count=d["count"],
            cardinality=d["cardinality"],
            quantile_tables={int(k): np.asarray(v, dtype=np.float64)
                             for k, v in d["quantile_tables"].items()},
        )


def fit_preprocess(dataset: TabularDataset, rows: np.ndarray | None = None,
                   quantile: bool = False) -> PreprocessState:
    """Accumulate running normalization statistics over the fitting rows and
    freeze each feature's cardinality, from which the one-hot layout follows.

    Statistics are accumulated with a streaming (Welford) update, so after a
    full pass they equal the full-dataset statistics up to rounding.  An empty
    fitting set is a DataError: it would leave an identity transform.
    """
    x = dataset.features if rows is None else dataset.features[rows]
    if len(x) == 0:
        raise DataError("cannot fit preprocessing on 0 rows")
    f = dataset.num_features
    cardinality = dataset.cardinalities()
    numeric = [j for j, card in enumerate(cardinality) if card is None]

    quantile_tables: dict[int, np.ndarray] = {}
    if quantile:
        for j in numeric:
            quantile_tables[j] = np.sort(x[:, j])

    # streaming mean/variance over the (optionally quantile-transformed) numerics
    mean = np.zeros(f)
    m2 = np.zeros(f)
    count = 0
    values = x.copy()
    if quantile_tables:
        scores = _rank_scores(len(x))
        for j in numeric:
            values[:, j] = scores[np.searchsorted(quantile_tables[j], values[:, j], side="right")]
    for i in range(len(values)):
        count += 1
        delta = values[i] - mean
        mean += delta / count
        m2 += delta * (values[i] - mean)
    var = m2 / count

    return PreprocessState(mean=mean, var=var, count=count, cardinality=cardinality,
                           quantile_tables=quantile_tables)


def apply_preprocess(state: PreprocessState, batch: np.ndarray) -> np.ndarray:
    """Map a raw feature batch to the model-input representation."""
    if batch.ndim != 2 or batch.shape[1] != len(state.mean):
        raise DataError(f"batch shape {batch.shape} does not match fitted schema")
    out = np.zeros((len(batch), state.output_dim))
    for j, (card, col) in enumerate(zip(state.cardinality, state.start_column)):
        if card is None:
            v = batch[:, j]
            if state.quantile_tables:
                v = state.scores[np.searchsorted(state.quantile_tables[j], v, side="right")]
            if state.var[j] < EPSILON ** 2:
                out[:, col] = 0.0  # constant column
            else:
                out[:, col] = (v - state.mean[j]) / np.sqrt(state.var[j] + EPSILON)
        else:
            codes = batch[:, j].astype(int)
            if np.any(codes < 0) or np.any(codes >= card):
                raise DataError(f"categorical feature {j} has codes outside [0, {card})")
            out[np.arange(len(batch)), col + codes] = 1.0
    return out


def expand_mask(state: PreprocessState, mask: np.ndarray) -> np.ndarray:
    """Broadcast a raw-feature corruption mask to model-input columns."""
    return mask.take(state.feature_of_column, axis=1).astype(np.float64)


# -- splits ------------------------------------------------------------------------

@dataclass
class SplitSpec:
    pretext_train: int
    pretext_val: int
    down_train: int
    down_val: int
    test: int
    label_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ">= 0", lambda n: n >= 0,
                     "pretext_train", "pretext_val", "down_train", "down_val", "test")
        check_fields(self, "null or in (0, 1]", lambda f: f is None or 0 < f <= 1,
                     "label_fraction")
        check_seed(self.seed)

    def total(self) -> int:
        return self.pretext_train + self.pretext_val + self.down_train + self.down_val + self.test


# Presets: (pretext pool incl. validation, downstream train, test).  The
# pretext validation set is carved as 5% of the pretext pool, and the
# downstream validation set mirrors the downstream train size.
PRESETS: dict[str, dict] = {
    "higgs1pct": {"pretext": 98_000, "down": 980, "test": 500_000},
    "higgs5k": {"pretext": 50_000, "down": 5_000, "test": 25_000},
    "higgs100k": {"pretext": 100_000, "down": 100_000, "test": 500_000},
    "covtype1pct": {"pretext": 113_400, "down": 1_134, "test": 429_812},
    "covtype10pct": {"pretext": 464_809, "down": 46_480, "test": 116_203},
    "covtype15k": {"pretext": 11_340, "down": 11_340, "test": 565_892},
    "adult1pct": {"pretext": 8_170, "down": 86, "test": 16_281, "quantile": True},
    "mnist1pct": {"pretext": 57_000, "down": 600, "test": 10_000},
    "mnist10pct": {"pretext": 60_000, "down": 10_000, "test": 10_000},
}

PRETEXT_VAL_FRACTION = 0.05


def preset_split(name: str, seed: int = 0) -> SplitSpec:
    if name not in PRESETS:
        raise DataError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    p = PRESETS[name]
    val = round(PRETEXT_VAL_FRACTION * p["pretext"])
    return SplitSpec(pretext_train=p["pretext"] - val, pretext_val=val,
                     down_train=p["down"], down_val=p["down"], test=p["test"],
                     seed=seed)


def _stratified_take(indices: np.ndarray, labels: np.ndarray, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Pick k of the given indices, class-stratified with at least one sample
    per class where class counts permit."""
    classes = np.unique(labels[indices])
    if k < len(classes):
        raise DataError(f"cannot stratify {k} samples over {len(classes)} classes")
    by_class = {c: indices[labels[indices] == c] for c in classes}
    quotas = {c: max(1, int(round(k * len(v) / len(indices)))) for c, v in by_class.items()}
    # adjust quotas to sum exactly to k, never dropping a class to zero
    order = sorted(classes, key=lambda c: -len(by_class[c]))
    diff = k - sum(quotas.values())
    i = 0
    while diff != 0:
        c = order[i % len(order)]
        if diff > 0 and quotas[c] < len(by_class[c]):
            quotas[c] += 1
            diff -= 1
        elif diff < 0 and quotas[c] > 1:
            quotas[c] -= 1
            diff += 1
        i += 1
    taken = [rng.choice(by_class[c], size=min(quotas[c], len(by_class[c])), replace=False)
             for c in classes]
    return np.sort(np.concatenate(taken))


def make_splits(dataset: TabularDataset, spec: SplitSpec) -> dict[str, np.ndarray]:
    """Seeded shuffle-and-partition into the five experiment splits."""
    n = len(dataset)
    if spec.total() > n:
        raise DataError(f"splits need {spec.total()} rows but dataset has {n}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)

    off = 0
    test = perm[off:off + spec.test]; off += spec.test
    pretext_train = perm[off:off + spec.pretext_train]; off += spec.pretext_train
    pretext_val = perm[off:off + spec.pretext_val]; off += spec.pretext_val
    pool = perm[off:]

    down_train_size = spec.down_train
    if spec.label_fraction is not None:
        # fraction of the labeled pool left after reserving validation rows,
        # so a fraction of 1.0 uses every remaining labeled sample
        down_train_size = max(1, round(spec.label_fraction * (len(pool) - spec.down_val)))
    if down_train_size + spec.down_val > len(pool):
        raise DataError(f"not enough rows left for the downstream splits: down_train and "
                        f"down_val need {down_train_size + spec.down_val}, test and the "
                        f"pretext splits leave {len(pool)}")

    if dataset.labels is not None:
        down_train = _stratified_take(pool, dataset.labels, down_train_size, rng)
        rest = np.setdiff1d(pool, down_train)
        down_val = _stratified_take(rest, dataset.labels, spec.down_val, rng)
    else:
        down_train = pool[:down_train_size]
        down_val = pool[down_train_size:down_train_size + spec.down_val]

    return {
        "pretext_train": np.sort(pretext_train),
        "pretext_val": np.sort(pretext_val),
        "down_train": np.sort(down_train),
        "down_val": np.sort(down_val),
        "test": np.sort(test),
    }


def save_manifest(splits: dict[str, np.ndarray], path, metadata: dict | None = None):
    payload = {name: idx.tolist() for name, idx in splits.items()}
    if metadata:
        payload["_metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_manifest(path) -> dict[str, np.ndarray]:
    """The splits of a manifest file; a split that is not a list of integers is a
    DataError naming the file and the split."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a manifest is a JSON object of splits")
    splits = {}
    for name, idx in payload.items():
        if name.startswith("_"):
            continue
        try:  # JSON true and 1.5 are no row numbers
            if not isinstance(idx, list) or any(type(i) is not int for i in idx):
                raise TypeError
            splits[name] = np.asarray(idx, dtype=np.int64)
        except (TypeError, OverflowError):
            raise DataError(f"{path}: split {name!r} is not a list of integers") from None
    return splits
