import json
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from modens import (Dataset, DatasetFormatError, GeneratorConfig, benchgen, load_dataset_csv,
                    save_dataset_csv)
from modens.cli import main


def make_dataset(rng, n=12, d=3, potential=False):
    po = rng.normal(0, 1, (n, 2)) if potential else None
    return Dataset(covariates=rng.normal(0, 1, (n, d)),
                   treatments=rng.integers(0, 2, n),
                   outcomes=rng.normal(0, 1, n),
                   potential_outcomes=po)


class TestRoundTrip:
    @pytest.mark.parametrize("potential", [False, True])
    def test_save_load_identity(self, rng, tmp_path, potential):
        ds = make_dataset(rng, potential=potential)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.covariates, ds.covariates)
        assert np.array_equal(back.treatments, ds.treatments)
        assert np.array_equal(back.outcomes, ds.outcomes)
        if potential:
            assert np.array_equal(back.potential_outcomes, ds.potential_outcomes)
        else:
            assert back.potential_outcomes is None


def hard_dataset(potential):
    """Values whose text is easy to get wrong: signed zeros side by side,
    the smallest subnormal, 1e16 and 1e-5 (where repr switches notation),
    0.1, and values repeated within a column, across columns and between
    a covariate and an outcome."""
    cov = np.array([[-0.0, 0.0, 0.1],
                    [0.0, -0.0, 0.1],
                    [5e-324, 1e16, 1e-5],
                    [1e-5, 5e-324, 1e16],
                    [0.1, 0.1, -0.0]])
    y = np.array([0.1, -0.0, 1e16, 5e-324, 0.0])
    po = np.column_stack([y[::-1], cov[:, 1]]) if potential else None
    return Dataset(covariates=cov, treatments=np.array([0, 1, 1, 0, 1]), outcomes=y,
                   potential_outcomes=po)


def assert_same_bytes_as_reference(ds, tmp_path):
    save_dataset_csv(ds, tmp_path / "new.csv")
    oracles.reference_save_dataset_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_bit_identical(a, b):
    for name in ("covariates", "treatments", "outcomes", "potential_outcomes"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def load_outcome(load, path):
    """The dataset `load` reads from `path`, or its DatasetFormatError text."""
    try:
        return load(path)
    except DatasetFormatError as exc:
        return str(exc)


class TestWriterBytes:
    @pytest.mark.parametrize("potential", [False, True])
    def test_hard_values(self, tmp_path, potential):
        assert_same_bytes_as_reference(hard_dataset(potential), tmp_path)
        text = (tmp_path / "new.csv").read_text()
        assert "-0.0,0.0,0.1,0," in text and "5e-324" in text and "1e+16" in text

    @pytest.mark.parametrize("potential", [False, True])
    def test_repeated_values_across_write_blocks(self, rng, tmp_path, potential):
        n = 2500
        grid = np.concatenate([rng.normal(0, 1, 200), [-0.0, 0.0]])
        covariates = rng.choice(grid, (n, 4))
        # in the first and third blocks only: the third block has to format
        # it again, since the writer keeps the texts of one block back
        covariates[[5, 2100], [0, 3]] = 0.1234
        ds = Dataset(covariates=covariates,
                     treatments=rng.integers(0, 2, n),
                     outcomes=rng.choice(np.concatenate([grid, rng.normal(0, 1, 200)]), n),
                     potential_outcomes=rng.choice(grid, (n, 2)) if potential else None)
        assert_same_bytes_as_reference(ds, tmp_path)

    def test_generate_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_train": 60, "n_valid": 12, "n_test": 20}))
        out = tmp_path / "data"
        assert main(["generate", "--seed", "6", "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
        config = GeneratorConfig(seed=6, n_train=60, n_valid=12, n_test=20)
        splits = benchgen.generate_dataset(None, config)
        for name, ds in zip(("train", "valid", "test"), splits):
            oracles.reference_save_dataset_csv(ds, tmp_path / f"{name}.ref.csv")
            assert (out / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.ref.csv").read_bytes()

    def test_default_train_split_peak_memory(self, rng, tmp_path):
        # the writer codes the distinct floats of one 1024-row block at a
        # time and keeps the texts of one block back, so its working set is
        # a few block-sized arrays, 3.6e6 B in all for the default train
        # split, whatever the row count
        train, _, _ = benchgen.generate_dataset(None, GeneratorConfig(seed=0))
        save_dataset_csv(make_dataset(rng), tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            save_dataset_csv(train, tmp_path / "train.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6


def random_csv_text(rng, potential):
    """A dataset CSV the seed reader accepts, in assorted spellings: repr,
    %g, %e and 17-digit floats, quoted or padded fields, signed zeros and
    subnormals, padded or quoted treatments, blank lines, LF or CRLF."""
    d = int(rng.integers(1, 5))
    header = [f"x{i}" for i in range(1, d + 1)] + ["t", "y"] + (["y0", "y1"] if potential else [])
    lines = [",".join(header)]
    for _ in range(int(rng.integers(1, 60))):
        if rng.random() < 0.1:
            lines.append("")
        fields = []
        for j in range(len(header)):
            if j == d:
                fields.append(str(rng.choice(["0", "1", " 1", "0 ", '"1"'])))
                continue
            v = float(rng.choice([rng.normal(), rng.normal() * 1e300, rng.normal() * 1e-300,
                                  float(rng.integers(-5, 5)), -0.0, 5e-324]))
            spellings = [repr(v), f"{v:.3g}", f"{v:e}", f"{v:.17g}", f'"{v!r}"', f" {v!r} "]
            fields.append(spellings[int(rng.integers(len(spellings)))])
        lines.append(",".join(fields))
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    return eol.join(lines) + eol


# name -> (file text, None if it loads or a fragment of its error); each
# behaves as under the reference reader
SEED_CASES = {
    "blank-lines-lf": ("x1,t,y\n\n0.5,1,2\n\n\n0.25,0,3\n", None),
    "blank-lines-crlf": ("x1,t,y\r\n\r\n0.5,1,2\r\n\r\n0.25,0,3\r\n", None),
    "cr-line-ends": ("x1,t,y\r0.5,1,2\r0.25,0,3\r", None),
    "no-final-line-end": ("x1,t,y\n0.5,1,2", None),
    "quoted-numbers": ('x1,t,y\r\n"0.5",1,"2"\r\n', None),
    "padded-treatment": ("x1,t,y\n0.5, 1 ,2\n", None),
    "padded-numbers": ("x1,x2,t,y\n 0.5 ,-1e-3 ,0, 2\n", None),
    "float-treatment": ("x1,t,y\n0.5,0,2\n\n0.5,1.0,2\n", "row 4: treatment must be 0 or 1"),
    "hash-comment": ("x1,t,y\n0.5,1,2 # c\n", "row 2: could not convert string to float"),
    "hash-line": ("x1,t,y\n# c\n0.5,1,2\n", "row 2: expected 3 fields, got 1"),
    "short-row": ("x1,t,y\n0.5,1,2\n\n0.25,0\n", "row 4: expected 3 fields, got 2"),
    "long-row": ("x1,t,y\r\n0.5,1,2\r\n0.25,0,3,4\r\n", "row 3: expected 3 fields, got 4"),
    "every-row-long": ("x1,t,y\n0.5,1,2,9\n0.25,0,3,9\n", "row 2: expected 3 fields, got 4"),
    "whitespace-line": ("x1,t,y\n0.5,1,2\n   \n", "row 3: expected 3 fields, got 1"),
    "bad-float": ("x1,t,y\n0.5,1,abc\n", "row 2: could not convert string to float: 'abc'"),
    "empty-field": ("x1,t,y\n,1,2\n", "row 2: could not convert string to float: ''"),
    "first-bad-row-wins": ("x1,t,y\n0.5,1,2\n0.5,7,x\n0.5,1\n", "row 3: treatment must be"),
    "bad-potential": ("x1,t,y,y0,y1\n0.5,1,2,3,4\n0.5,0,2,3,oops\n", "row 3: could not"),
    "header-only": ("x1,t,y\n", "no data rows"),
    "header-and-blank-lines": ("x1,t,y\n\n\r\n", "no data rows"),
}


class TestReader:
    def test_generated_files_match_reference(self, tmp_path):
        config = GeneratorConfig(seed=9, n_train=80, n_valid=16, n_test=30)
        for path in benchgen.write_benchmark(None, config, tmp_path).values():
            assert_bit_identical(load_dataset_csv(path), oracles.reference_load_dataset_csv(path))

    @pytest.mark.parametrize("potential", [False, True])
    def test_random_files_match_reference(self, tmp_path, potential):
        rng = np.random.default_rng(2024 + potential)
        path = tmp_path / "r.csv"
        for _ in range(30):
            path.write_bytes(random_csv_text(rng, potential).encode())
            assert_bit_identical(load_dataset_csv(path), oracles.reference_load_dataset_csv(path))

    @pytest.mark.parametrize("name", sorted(SEED_CASES))
    def test_edge_case_behaves_as_reference(self, tmp_path, name):
        text, error = SEED_CASES[name]
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        new = load_outcome(load_dataset_csv, path)
        ref = load_outcome(oracles.reference_load_dataset_csv, path)
        if error is None:
            assert_bit_identical(new, ref)
        else:
            assert new == ref
            assert new.startswith(f"{path}: ") and error in new

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x1,t,y\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DatasetFormatError, match="no data rows"):
                load_dataset_csv(path)
        assert caught == []

    def test_digit_group_underscore_rejected(self, tmp_path):
        # the one spelling float() takes and np.loadtxt does not
        path = tmp_path / "u.csv"
        path.write_text("x1,t,y\n0.5,1,2\n1_000,0,2\n")
        with pytest.raises(DatasetFormatError,
                           match="row 3: could not convert string to float: '1_000'"):
            load_dataset_csv(path)
        assert oracles.reference_load_dataset_csv(path).covariates[1, 0] == 1000.0

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"x1,t,y\r\n0.5,1,2\r\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert_bit_identical(load_dataset_csv(marked), load_dataset_csv(plain))

    @pytest.mark.parametrize("header,row,message", [
        ("x1,t,y", "0.5,1,nan", "row 4: y must be finite, got 'nan'"),
        ("x1,t,y", "0.5,1,inf", "row 4: y must be finite, got 'inf'"),
        ("x1,t,y", "-Infinity,0,2", "row 4: x1 must be finite, got '-Infinity'"),
        ("x1,t,y", "1e999,0,2", "row 4: x1 must be finite, got '1e999'"),
        ("x1,t,y,y0,y1", "0.5,1,2,3,NaN", "row 4: y1 must be finite, got 'NaN'"),
    ], ids=["nan", "inf", "minus-infinity", "overflow", "potential-nan"])
    def test_non_finite_value_named_by_row(self, tmp_path, header, row, message):
        width = header.count(",") + 1
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\n{','.join(['0.25', '0'] + ['1'] * (width - 2))}\n\n{row}\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_malformed_row_reported_before_non_finite_value(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,t,y\n0.5,1,nan\n0.5,2,1\n")
        with pytest.raises(DatasetFormatError, match="row 3: treatment must be 0 or 1"):
            load_dataset_csv(path)

    def test_blank_lines_before_header_skipped(self, tmp_path):
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_bytes(b"x1,t,y\r\n0.5,1,2\r\n0.25,0,3\r\n")
        padded.write_bytes(b"\r\n\n" + plain.read_bytes())
        assert_bit_identical(load_dataset_csv(padded), load_dataset_csv(plain))

    @pytest.mark.parametrize("text,message", [
        ("\nx1,t,y\n0.5,1,2\n0.25,0\n", "row 4: expected 3 fields, got 2"),
        ("\n\nx1,t,y\n0.5,1,2\n\n0.5,1,nan\n", "row 6: y must be finite, got 'nan'"),
        ("\r\nx1,t,y\r\n0.5,7,2\r\n", "row 3: treatment must be 0 or 1, got '7'"),
    ], ids=["short-row", "non-finite", "treatment"])
    def test_rows_after_blank_first_line_named_by_file_line(self, tmp_path, text, message):
        path = tmp_path / "b.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DatasetFormatError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["\n", "\r\n\r\n", "\n\n\n"])
    def test_blank_lines_only_is_empty_file(self, tmp_path, text):
        path = tmp_path / "b.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DatasetFormatError, match="empty file"):
            load_dataset_csv(path)


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset_csv(path)

    def test_missing_field_names_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x1,t,y\n0.5,0,1.0\n0.25,1\n")
        with pytest.raises(DatasetFormatError, match="row 3"):
            load_dataset_csv(path)

    def test_non_binary_treatment_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,t,y\n0.5,2,1.0\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            load_dataset_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("x1,t,y\n")
        with pytest.raises(DatasetFormatError, match="no data"):
            load_dataset_csv(path)


class TestValidation:
    def test_inconsistent_lengths(self, rng):
        with pytest.raises(ValueError):
            Dataset(covariates=rng.normal(0, 1, (5, 2)),
                    treatments=np.zeros(4, dtype=int),
                    outcomes=np.zeros(5))

    def test_non_binary_treatments(self, rng):
        with pytest.raises(ValueError):
            Dataset(covariates=rng.normal(0, 1, (3, 2)),
                    treatments=np.array([0, 1, 2]),
                    outcomes=np.zeros(3))

    def test_nan_rejected(self, rng):
        y = np.zeros(3)
        y[1] = np.nan
        with pytest.raises(ValueError):
            Dataset(covariates=rng.normal(0, 1, (3, 2)),
                    treatments=np.zeros(3, dtype=int),
                    outcomes=y)
