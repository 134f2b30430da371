import json
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmatch.data
from qmatch.data import (
    ColumnSpec,
    DataError,
    PRESETS,
    SplitSpec,
    TabularDataset,
    apply_preprocess,
    expand_mask,
    fit_preprocess,
    load_csv,
    load_manifest,
    load_schema,
    make_splits,
    preset_split,
    save_csv,
    save_manifest,
)
from tests.conftest import make_fixture_dataset
from tests.test_tensor import same_bits

SCHEMA = [
    ColumnSpec("age", "numeric"),
    ColumnSpec("color", "categorical", ["blue", "green", "red"]),
    ColumnSpec("y", "label"),
]


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      "age,color,y\n1.5,red,yes\n2.0,blue,no\n-3.25,green,yes\n")
        ds = load_csv(p, SCHEMA, name="toy")
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.features[:, 0], [1.5, 2.0, -3.25])
        # codes index the declared vocabulary order
        np.testing.assert_array_equal(ds.features[:, 1], [2, 0, 1])
        assert ds.label_vocab == ["no", "yes"]
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.num_classes == 2

    def test_header_only_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "age,color,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, SCHEMA)

    def test_missing_numeric_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "age,color,y\n,red,yes\n")
        with pytest.raises(DataError, match="missing numeric"):
            load_csv(p, SCHEMA)

    def test_non_numeric_rejected_with_row(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "age,color,y\n1.0,red,yes\nabc,red,no\n")
        with pytest.raises(DataError, match="row 2.*'abc'"):
            load_csv(p, SCHEMA)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_numeric_rejected_with_row(self, tmp_path, value):
        p = write_csv(tmp_path / "a.csv",
                      f"age,color,y\n1.0,red,yes\n2.0,blue,no\n{value},red,no\n")
        with pytest.raises(DataError, match=f"row 3: non-finite value '{value}' in 'age'"):
            load_csv(p, SCHEMA)

    def test_unknown_category_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "age,color,y\n1.0,purple,yes\n")
        with pytest.raises(DataError, match="unknown category 'purple'"):
            load_csv(p, SCHEMA)

    def test_field_count_mismatch_names_line(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "age,color,y\n1.0,red\n")
        with pytest.raises(DataError, match=":2:"):
            load_csv(p, SCHEMA)

    def test_undeclared_vocabulary_sorted(self, tmp_path):
        schema = [ColumnSpec("age", "numeric"), ColumnSpec("color", "categorical"),
                  ColumnSpec("y", "label")]
        p = write_csv(tmp_path / "a.csv", "age,color,y\n1,zz,a\n2,aa,b\n3,mm,a\n")
        ds = load_csv(p, schema)
        assert ds.cat_vocab[1] == ["aa", "mm", "zz"]

    def test_round_trip_bit_exact(self, tmp_path, rng):
        ds = make_fixture_dataset(n=50, seed=7)
        out = tmp_path / "rt.csv"
        schema = ([ColumnSpec(n, "numeric") for n in ds.feature_names[:6]]
                  + [ColumnSpec(ds.feature_names[6], "categorical", ds.cat_vocab[6]),
                     ColumnSpec(ds.feature_names[7], "categorical", ds.cat_vocab[7]),
                     ColumnSpec("label", "label", [str(i) for i in range(3)])])
        save_csv(ds, out)
        back = load_csv(out, schema)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_schema_file_loading(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps({"columns": [
            {"name": "x", "type": "numeric"},
            {"name": "c", "type": "categorical", "categories": ["a", "b"]},
            {"name": "y", "type": "label"},
        ]}))
        cols = load_schema(p)
        assert [c.type for c in cols] == ["numeric", "categorical", "label"]
        assert cols[1].categories == ["a", "b"]

    def test_schema_rejects_bad_type(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps({"columns": [{"name": "x", "type": "text"}]}))
        with pytest.raises(DataError, match="unknown type"):
            load_schema(p)

    @pytest.mark.parametrize("column, message", [
        (("b", "weird"), "column 'b': unknown type 'weird'"),
        ((["b"], "numeric"), r"column name \['b'\] is not a string"),
        (("b", "categorical", "xy"), "column 'b': categories 'xy' are not a list of strings"),
        (("b", "label", [0, 1]), r"column 'b': categories \[0, 1\] are not a list"),
    ], ids=["unknown_type", "list_name", "string_categories", "int_categories"])
    def test_bad_column_refused_by_the_column_itself(self, column, message):
        with pytest.raises(DataError, match=message):
            ColumnSpec(*column)  # so no loader meets one

    def test_repeated_column_name_rejected(self, tmp_path):
        # each feature would read the last column of that name: 10,20,30 twice
        p = write_csv(tmp_path / "a.csv", "a,a\n1,10\n2,20\n3,30\n")
        with pytest.raises(DataError, match="column name 'a' appears more than once"):
            load_csv(p, [ColumnSpec("a", "numeric"), ColumnSpec("a", "numeric")])


NUMBERS = ["0", "1", "-2.5", "3e2", ".5", "-0", "1_000", "nan", "inf", "-Infinity", "1e999",
           "", "abc", "0x10", "1 2"]
WORDS = ["a", "b", "", "zz", 'q"x', "a,b", "l\nm", "1"]


def _field(draw, token):
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    token = pad + token + draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.integers(0, 3)) == 0 or any(ch in token for ch in '",\n'):
        token = '"' + token.replace('"', '""') + '"'
        # a quote after leading blanks is a literal character, not a quoted field
        token = draw(st.sampled_from(["", "", "", " "])) + token
    return token


@st.composite
def csv_files(draw):
    """A schema and CSV text in the corners where csv.reader and np.loadtxt could
    part ways: blank and whitespace-only lines, padding, quoting with doubled
    quotes and embedded commas, non-finite and underscored numbers, wrong field
    counts, unknown and undeclared categories, and CRLF or lone CR line ends."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical", "label"]),
                          min_size=1, max_size=4))
    if kinds.count("label") > 1:
        kinds = [k for k in kinds if k != "label"] + ["label"]
    schema = [ColumnSpec(f"c{i}", kind,
                         draw(st.none() | st.lists(st.sampled_from(WORDS), min_size=1,
                                                   max_size=4, unique=True))
                         if kind != "numeric" else None)
              for i, kind in enumerate(kinds)]
    lines = [",".join(c.name for c in schema)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.integers(0, 19))
        if shape == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t ", '""'])))
            continue
        tokens = []
        for c in schema:
            pool = NUMBERS if c.type == "numeric" else (c.categories or WORDS)
            if draw(st.integers(0, 9)) == 0:
                pool = WORDS if c.type == "numeric" else NUMBERS
            tokens.append(_field(draw, draw(st.sampled_from(pool))))
        if shape == 1:
            tokens.pop()
        elif shape == 2:
            tokens.append("1")
        lines.append(",".join(tokens))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return schema, end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(load, path, schema):
    try:
        features, cat_vocab, labels, label_vocab = load(path, schema)
    except DataError as e:
        return "error", str(e)
    return ("ok", features.dtype, features.shape, features.flags.c_contiguous,
            features.tobytes(), None if labels is None else (labels.dtype, labels.tobytes()),
            cat_vocab, label_vocab)


def _via_load_csv(path, schema):
    ds = load_csv(path, schema)
    return ds.features, ds.cat_vocab, ds.labels, ds.label_vocab


class TestColumnarLoad:
    @settings(max_examples=300, deadline=None)
    @given(case=csv_files())
    def test_matches_cell_loop(self, tmp_path_factory, case):
        schema, text = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        reference = _outcome(qmatch.data._load_cells, path, schema)
        assert _outcome(_via_load_csv, path, schema) == reference
        try:
            fast = _outcome(qmatch.data._load_columns, path, schema)
        except Exception:
            return  # refused: load_csv answered through the cell loop, checked above
        assert fast == reference

    def test_clean_file_never_reaches_cell_loop(self, tmp_path, monkeypatch):
        def cell_loop(path, schema):
            raise AssertionError("clean file fell back to the per-cell loop")

        monkeypatch.setattr(qmatch.data, "_load_cells", cell_loop)
        schema = [ColumnSpec("age", "numeric"), ColumnSpec("color", "categorical"),
                  ColumnSpec("size", "categorical", ["s", "m", "l"]),
                  ColumnSpec("w", "numeric"), ColumnSpec("y", "label")]
        p = write_csv(tmp_path / "a.csv",
                      "age,color,size,w,y\r\n 1.5 ,red,l,-0,yes\r\n\r\n"
                      '"2e1","bl""ue", m ,1e-400,no\r\n-3,red,s,.5,"yes"\r\n')
        ds = load_csv(p, schema)
        np.testing.assert_array_equal(ds.features, [[1.5, 1, 2, -0.0], [20.0, 0, 1, 0.0],
                                                    [-3.0, 1, 0, 0.5]])
        assert np.signbit(ds.features[0, 3]) and ds.features.flags.c_contiguous
        assert ds.cat_vocab == {1: ['bl"ue', "red"], 2: ["s", "m", "l"]}
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.labels.dtype == np.int64 and ds.label_vocab == ["no", "yes"]


class TestPreprocess:
    def test_streaming_stats_match_exact(self, rng):
        ds = make_fixture_dataset(n=400, seed=3)
        state = fit_preprocess(ds)
        numeric = [j for j in range(ds.num_features) if j not in ds.cat_vocab]
        np.testing.assert_allclose(state.mean[numeric],
                                   ds.features[:, numeric].mean(axis=0),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state.var[numeric],
                                   ds.features[:, numeric].var(axis=0),
                                   rtol=1e-10, atol=1e-12)

    def test_standardized_output(self):
        ds = make_fixture_dataset(n=300, seed=1)
        state = fit_preprocess(ds)
        out = apply_preprocess(state, ds.features)
        numeric_cols = [col for card, col in zip(state.cardinality, state.start_column)
                        if card is None]
        np.testing.assert_allclose(out[:, numeric_cols].mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out[:, numeric_cols].std(axis=0), 1.0, atol=1e-3)

    def test_one_hot_blocks_sum_to_one(self):
        ds = make_fixture_dataset(n=200, seed=2)
        state = fit_preprocess(ds)
        out = apply_preprocess(state, ds.features)
        for card, start in zip(state.cardinality, state.start_column):
            if card is None:
                continue
            block = out[:, start:start + card]
            np.testing.assert_array_equal(block.sum(axis=1), 1.0)
            assert set(np.unique(block)) <= {0.0, 1.0}

    def test_output_dim(self):
        ds = make_fixture_dataset(n=100)
        state = fit_preprocess(ds)
        assert state.output_dim == 6 + ds.cardinality(6) + ds.cardinality(7)

    def test_constant_column_maps_to_zero(self):
        feats = np.column_stack([np.full(20, 3.0), np.arange(20, dtype=float)])
        ds = TabularDataset(feats, {}, None)
        state = fit_preprocess(ds)
        out = apply_preprocess(state, feats)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert np.std(out[:, 1]) > 0.5

    def test_fit_on_subset_rows(self):
        ds = make_fixture_dataset(n=100, seed=4)
        rows = np.arange(40)
        state = fit_preprocess(ds, rows=rows)
        assert state.count == 40
        np.testing.assert_allclose(state.mean[0], ds.features[:40, 0].mean())

    @pytest.mark.parametrize("quantile", [False, True])
    def test_empty_fitting_set_rejected(self, quantile):
        ds = make_fixture_dataset(n=100, seed=4)
        with pytest.raises(DataError, match="0 rows"):
            fit_preprocess(ds, rows=np.arange(0), quantile=quantile)

    def test_quantile_transform_gaussianizes(self, rng):
        # heavily skewed column becomes approximately normal after rank mapping
        skew = rng.exponential(size=(500, 1)) ** 2
        ds = TabularDataset(skew, {}, None)
        state = fit_preprocess(ds, quantile=True)
        out = apply_preprocess(state, skew)
        assert abs(float(np.mean(out ** 3))) < 0.3  # raw skewness ~ 10
        assert abs(float(out.mean())) < 0.05

    def test_quantile_handles_unseen_extremes(self, rng):
        ds = TabularDataset(rng.normal(size=(100, 1)), {}, None)
        state = fit_preprocess(ds, quantile=True)
        out = apply_preprocess(state, np.array([[1e9], [-1e9]]))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("fitted", [[3.0, 1.0, 2.0, 2.0, 2.0, 5.0, 5.0, 0.5], [7.0]])
    def test_quantile_lookup_matches_per_cell_scores(self, fitted):
        def per_cell(values, table):  # the former frompyfunc path, one inv_cdf per value
            ranks = np.searchsorted(table, values, side="right")
            p = np.clip(ranks / (len(table) + 1), 1e-6, 1 - 1e-6)
            return np.array([NormalDist().inv_cdf(float(q)) for q in p])

        x = np.array(fitted)[:, None]
        state = fit_preprocess(TabularDataset(x, {}, None), quantile=True)
        table = state.quantile_tables[0]
        # ties, the fitted min and max, between them, below and above the fitted range
        probe = np.array([2.0, 5.0, 0.5, 7.0, 1.5, 4.0, 0.4999, -1e9, 5.0001, 1e9, np.inf])
        for values in (x[:, 0], probe):
            got = state.scores[np.searchsorted(table, values, side="right")]
            assert got.dtype == np.float64
            assert got.tobytes() == per_cell(values, table).tobytes()
        scaled = (per_cell(probe, table) - state.mean[0]) / np.sqrt(state.var[0] + 1e-6)
        out = apply_preprocess(state, probe[:, None])[:, 0]
        assert out.tobytes() == (scaled if state.var[0] >= 1e-12 else np.zeros_like(scaled)).tobytes()
        assert "scores" not in state.to_dict()

    def test_state_round_trip(self):
        ds = make_fixture_dataset(n=80)
        state = fit_preprocess(ds, quantile=True)
        from qmatch.data import PreprocessState
        clone = PreprocessState.from_dict(json.loads(json.dumps(state.to_dict())))
        np.testing.assert_array_equal(
            apply_preprocess(clone, ds.features), apply_preprocess(state, ds.features))

    @pytest.mark.parametrize("quantile", [False, True])
    def test_state_of_an_older_file_loads_equal(self, quantile):
        """preprocess.json once also held `quantile` and `epsilon`, which every
        file held at the values the tables and EPSILON now give."""
        ds = make_fixture_dataset(n=80)
        state = fit_preprocess(ds, quantile=quantile)
        older = {**state.to_dict(), "quantile": quantile, "epsilon": 1e-06}
        clone = qmatch.data.PreprocessState.from_dict(json.loads(json.dumps(older)))
        assert clone.to_dict() == state.to_dict()
        assert same_bits(apply_preprocess(clone, ds.features),
                         apply_preprocess(state, ds.features))

    def test_bad_batch_shape(self):
        ds = make_fixture_dataset(n=30)
        state = fit_preprocess(ds)
        with pytest.raises(DataError, match="does not match"):
            apply_preprocess(state, np.zeros((2, 3)))

    def test_out_of_range_code(self):
        ds = make_fixture_dataset(n=30)
        state = fit_preprocess(ds)
        bad = ds.features[:2].copy()
        bad[0, 6] = 99
        with pytest.raises(DataError, match="outside"):
            apply_preprocess(state, bad)

    def test_expand_mask_covers_one_hot_blocks(self):
        ds = make_fixture_dataset(n=10)
        state = fit_preprocess(ds)
        mask = np.zeros((2, ds.num_features))
        mask[0, 0] = 1.0
        mask[1, 6] = 1.0
        wide = expand_mask(state, mask)
        assert wide.shape == (2, state.output_dim)
        assert wide[0].sum() == 1.0
        start, card = state.start_column[6], state.cardinality[6]
        np.testing.assert_array_equal(wide[1, start:start + card], 1.0)
        assert wide[1].sum() == card

    def test_cardinality_is_one_entry_per_feature(self):
        ds = make_fixture_dataset(n=10)
        state = fit_preprocess(ds)
        assert state.cardinality == ds.cardinalities() == [None] * 6 + [
            ds.cardinality(6), ds.cardinality(7)]
        np.testing.assert_array_equal(state.start_column,
                                      [0, 1, 2, 3, 4, 5, 6, 6 + ds.cardinality(6)])
        np.testing.assert_array_equal(
            state.feature_of_column, np.repeat(np.arange(8), [1] * 6 + state.cardinality[6:]))
        assert "output_dim" not in state.to_dict()

    @pytest.mark.parametrize("cardinality, message", [
        ([None, 3], "one entry per feature (2)"),
        ([None, 3, 2, None], "one entry per feature (4)"),
        ([None, 3, 0], "null or an int >= 1, got 0"),
        ([None, 3, -1], "null or an int >= 1, got -1"),
        ([None, "3", 2], "null or an int >= 1, got '3'"),
        ([None, 3.0, 2], "null or an int >= 1, got 3.0"),
        ([None, True, 2], "null or an int >= 1, got True"),
        ((None, 3, 2), "must be a list"),
        ({"0": None}, "must be a list"),
    ], ids=["short", "long", "zero", "negative", "string", "float", "bool", "tuple", "object"])
    def test_bad_cardinality_is_refused(self, cardinality, message):
        state = fit_preprocess(TabularDataset(np.array([[1.0, 0, 1], [2.0, 2, 0]]),
                                              {1: ["a", "b", "c"], 2: ["x", "y"]}, None))
        good = state.to_dict()
        assert good["cardinality"] == [None, 3, 2]
        with pytest.raises(DataError, match=re.escape(message)):
            qmatch.data.PreprocessState.from_dict({**good, "cardinality": cardinality})


    @pytest.mark.parametrize("edit", [lambda t: t[:-1], lambda t: t + [9.0]],
                             ids=["one_short", "one_long"])
    def test_quantile_table_of_other_than_count_values_is_refused(self, edit):
        x = np.array([[3.0, 0], [1.0, 1], [2.0, 0], [5.0, 1]])
        state = fit_preprocess(TabularDataset(x, {1: ["a", "b"]}, None), quantile=True)
        good = state.to_dict()
        assert len(good["quantile_tables"]["0"]) == good["count"] == 4
        assert len(state.scores) == 5 and "scores" not in good
        with pytest.raises(DataError, match=re.escape("a table of count (4) values")):
            qmatch.data.PreprocessState.from_dict(
                {**good, "quantile_tables": {"0": edit(good["quantile_tables"]["0"])}})

    def test_quantile_state_without_numeric_features_derives_no_scores(self):
        state = fit_preprocess(TabularDataset(np.array([[0.0], [1.0]]), {0: ["a", "b"]}, None),
                               quantile=True)
        assert state.quantile_tables == {} and state.scores is None
        # no table reads count, so a large one costs nothing to load
        loaded = qmatch.data.PreprocessState.from_dict({**state.to_dict(), "count": 10**6})
        assert loaded.scores is None


class TestSplits:
    def test_adult_preset_sizes(self):
        spec = preset_split("adult1pct")
        assert spec.pretext_train + spec.pretext_val == 8_170
        assert spec.pretext_val == round(0.05 * 8_170)
        assert spec.down_train == 86
        assert spec.down_val == 86
        assert spec.test == 16_281

    def test_all_presets_well_formed(self):
        for name in PRESETS:
            spec = preset_split(name)
            assert spec.total() > 0
            assert spec.pretext_val == round(0.05 * (spec.pretext_train + spec.pretext_val))

    def test_unknown_preset(self):
        with pytest.raises(DataError, match="unknown preset"):
            preset_split("nope")

    def test_sizes_and_disjointness(self):
        ds = make_fixture_dataset(n=600)
        spec = SplitSpec(pretext_train=300, pretext_val=20, down_train=60,
                         down_val=60, test=100, seed=5)
        splits = make_splits(ds, spec)
        sizes = {k: len(v) for k, v in splits.items()}
        assert sizes == {"pretext_train": 300, "pretext_val": 20,
                         "down_train": 60, "down_val": 60, "test": 100}
        allidx = np.concatenate(list(splits.values()))
        assert len(np.unique(allidx)) == len(allidx)

    def test_seed_reproducibility(self):
        ds = make_fixture_dataset(n=600)
        spec = SplitSpec(200, 10, 50, 50, 100, seed=11)
        a = make_splits(ds, spec)
        b = make_splits(ds, spec)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_different_seed_differs(self):
        ds = make_fixture_dataset(n=600)
        a = make_splits(ds, SplitSpec(200, 10, 50, 50, 100, seed=1))
        b = make_splits(ds, SplitSpec(200, 10, 50, 50, 100, seed=2))
        assert not np.array_equal(a["test"], b["test"])

    def test_stratification_keeps_every_class(self):
        ds = make_fixture_dataset(n=600, num_classes=3)
        splits = make_splits(ds, SplitSpec(300, 20, 9, 9, 100, seed=0))
        for part in ("down_train", "down_val"):
            present = np.unique(ds.labels[splits[part]])
            np.testing.assert_array_equal(present, [0, 1, 2])

    def test_stratification_proportions(self):
        ds = make_fixture_dataset(n=600, num_classes=3)
        splits = make_splits(ds, SplitSpec(100, 10, 90, 90, 100, seed=0))
        counts = np.bincount(ds.labels[splits["down_train"]], minlength=3)
        # balanced fixture: each class should get roughly a third
        assert counts.min() >= 20

    def test_label_fraction_overrides_count(self):
        ds = make_fixture_dataset(n=600)
        spec = SplitSpec(200, 10, 50, 30, 100, label_fraction=1.0, seed=0)
        splits = make_splits(ds, spec)
        pool = 600 - 200 - 10 - 100
        assert len(splits["down_train"]) + len(splits["down_val"]) == pool

    @pytest.mark.parametrize("field, value", [
        ("pretext_train", -5), ("test", -1), ("label_fraction", 0.0),
        ("label_fraction", 1.5), ("label_fraction", float("nan")), ("seed", -1),
        ("seed", 1.5),
    ])
    def test_spec_values_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            SplitSpec(**{**dict(pretext_train=200, pretext_val=10, down_train=50,
                                down_val=30, test=100), field: value})

    def test_oversized_spec_rejected(self):
        ds = make_fixture_dataset(n=100)
        with pytest.raises(DataError, match="splits need"):
            make_splits(ds, SplitSpec(200, 10, 50, 50, 100))

    def test_too_few_for_classes_rejected(self):
        ds = make_fixture_dataset(n=600, num_classes=3)
        with pytest.raises(DataError, match="stratify"):
            make_splits(ds, SplitSpec(300, 20, 2, 2, 100))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partition_property(self, seed):
        ds = make_fixture_dataset(n=200, seed=0)
        splits = make_splits(ds, SplitSpec(80, 5, 30, 30, 40, seed=seed))
        allidx = np.concatenate(list(splits.values()))
        assert len(np.unique(allidx)) == len(allidx) == 185
        assert allidx.min() >= 0 and allidx.max() < 200

    def test_manifest_round_trip(self, tmp_path):
        ds = make_fixture_dataset(n=300)
        splits = make_splits(ds, SplitSpec(100, 10, 40, 40, 50, seed=3))
        p = tmp_path / "manifest.json"
        save_manifest(splits, p, metadata={"dataset": "fixture"})
        back = load_manifest(p)
        assert set(back) == set(splits)
        for k in splits:
            np.testing.assert_array_equal(back[k], splits[k])

    def test_manifest_bytes_deterministic(self, tmp_path):
        ds = make_fixture_dataset(n=300)
        splits = make_splits(ds, SplitSpec(100, 10, 40, 40, 50, seed=3))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_manifest(splits, p1)
        save_manifest(splits, p2)
        assert p1.read_bytes() == p2.read_bytes()
