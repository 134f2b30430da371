"""Seeded synthetic tables shaped like the paper's Adult and Higgs datasets.

Each generator writes a CSV plus a schema JSON, so the benchmark measures
ingestion through ``qmatch.data.load_csv`` exactly as ``qmatch prepare-data``
does.  The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ADULT_ROWS = 48_842
# (name, cardinality) in the UCI column order; 6 numerics + 102 one-hot = 108.
ADULT_CATEGORICALS = {
    "workclass": 9, "education": 16, "marital-status": 7, "occupation": 15,
    "relationship": 6, "race": 5, "sex": 2, "native-country": 42,
}
ADULT_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country",
]

HIGGS_ROWS = 85_000
HIGGS_FEATURES = 28


def _write(out_dir: Path, name: str, header: list[str], rows,
           schema: list[dict]) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    schema_path = out_dir / f"{name}.schema.json"
    csv_path.write_text("\n".join([",".join(header), *rows]) + "\n")
    schema_path.write_text(json.dumps({"columns": schema}, indent=1))
    return csv_path, schema_path


def write_adult(out_dir: Path, seed: int) -> tuple[Path, Path]:
    """Adult-shaped table: integer-valued numerics with heavy ties (ages,
    hours, mostly-zero capital gain/loss), eight skewed categoricals and a
    roughly 24%-positive income label that depends on both kinds."""
    rng = np.random.default_rng([seed, 0xAD])
    n = ADULT_ROWS
    numeric = {
        "age": np.clip(np.round(rng.gamma(6.0, 6.5, n) + 17), 17, 90),
        "fnlwgt": np.round(np.exp(rng.normal(12.1, 0.55, n))),
        "education-num": np.clip(np.round(rng.normal(10.0, 2.6, n)), 1, 16),
        "capital-gain": np.where(rng.random(n) < 0.92, 0.0,
                                 np.round(np.exp(rng.normal(8.3, 1.1, n)))),
        "capital-loss": np.where(rng.random(n) < 0.95, 0.0,
                                 np.round(rng.normal(1870.0, 360.0, n))),
        "hours-per-week": np.clip(np.round(rng.normal(40.0, 12.0, n)), 1, 99),
    }
    codes = {}
    score = (0.04 * (numeric["age"] - 38) + 0.35 * (numeric["education-num"] - 10)
             + 0.03 * (numeric["hours-per-week"] - 40)
             + 1.5 * (numeric["capital-gain"] > 0) + 0.8 * (numeric["capital-loss"] > 0))
    for name, card in ADULT_CATEGORICALS.items():
        probs = rng.dirichlet(np.full(card, 0.7))
        codes[name] = rng.choice(card, size=n, p=probs)
        score = score + rng.normal(0.0, 0.6, card)[codes[name]]
    score = score + rng.logistic(0.0, 1.0, n)
    positive = score > np.quantile(score, 0.76)

    columns, schema = [], []
    for name in ADULT_COLUMNS:
        if name in ADULT_CATEGORICALS:
            vocab = [f"{name}-{k}" for k in range(ADULT_CATEGORICALS[name])]
            columns.append(np.asarray(vocab)[codes[name]])
            schema.append({"name": name, "type": "categorical", "categories": vocab})
        else:
            columns.append(numeric[name].astype(np.int64).astype(str))
            schema.append({"name": name, "type": "numeric"})
    columns.append(np.where(positive, ">50K", "<=50K"))
    schema.append({"name": "income", "type": "label", "categories": ["<=50K", ">50K"]})
    rows = (",".join(row) for row in zip(*columns))
    return _write(out_dir, "adult", ADULT_COLUMNS + ["income"], rows, schema)


def write_higgs(out_dir: Path, seed: int) -> tuple[Path, Path]:
    """Higgs-shaped table: a 0/1 label column first, then 21 low-level
    kinematic features (momenta, angles, b-tags) and 7 derived masses, all
    continuous except the b-tags; the label depends nonlinearly on both."""
    rng = np.random.default_rng([seed, 0x4166])
    n = HIGGS_ROWS
    feats = []
    for j in range(21):
        kind = j % 4
        if kind == 0:
            col = rng.gamma(2.0, 0.5, n)                      # transverse momentum
        elif kind == 1:
            col = rng.normal(0.0, 1.0, n)                     # pseudorapidity
        elif kind == 2:
            col = rng.uniform(-np.pi, np.pi, n)               # azimuth
        else:
            col = rng.choice([0.0, 1.0865, 2.1731], n, p=[0.5, 0.3, 0.2])  # b-tag
        feats.append(col)
    signal = rng.random(n) < 0.53
    for j in range(HIGGS_FEATURES - 21):
        shift = 0.25 + 0.05 * j
        feats.append(np.exp(rng.normal(np.where(signal, shift, 0.0), 0.45, n)))
    x = np.stack(feats, axis=1)
    # low-level features carry part of the signal too
    x[:, 0] += 0.35 * signal * rng.gamma(2.0, 0.5, n)
    x[:, 5] *= np.where(signal, 0.8, 1.0)

    header = ["label"] + [f"f{j}" for j in range(HIGGS_FEATURES)]
    fmt = "%d" + ",%.7g" * HIGGS_FEATURES
    rows = (fmt % tuple(r) for r in np.column_stack([signal, x]).tolist())
    schema = [{"name": "label", "type": "label", "categories": ["0", "1"]}]
    schema.extend({"name": f"f{j}", "type": "numeric"} for j in range(HIGGS_FEATURES))
    return _write(out_dir, "higgs", header, rows, schema)
