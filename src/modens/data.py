"""Observational dataset container and its CSV schema.

The on-disk format is a UTF-8, comma-separated file with header columns
``x1..xd, t, y`` and optionally ``y0, y1`` (de-confounded potential
outcomes, test sets only).  The writer ends every line with CRLF, as
``csv.writer`` does, writes ``t`` as ``0``/``1`` and every float as its
shortest round-trip ``repr``, so regeneration under a fixed seed is
byte-identical.  It formats each distinct float once and writes in blocks
of rows.

The reader parses the data rows with one ``np.loadtxt`` call.  It accepts
LF or CRLF line ends, blank lines, quoted numbers and a UTF-8 byte-order
mark; it rejects ``#`` comments, digit-group underscores (``1_000``) and
non-finite values.  Error messages name the row, counting the header as
row 1 and blank lines as rows.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_EOL = "\r\n"
_WRITE_BLOCK_ROWS = 1024


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries row/column context."""


@dataclass(frozen=True)
class Dataset:
    """Covariates, binary treatments, factual outcomes; optionally both-arm
    potential outcomes for de-confounded test evaluation."""

    covariates: np.ndarray        # (n, d) float64
    treatments: np.ndarray        # (n,) int64 in {0, 1}
    outcomes: np.ndarray          # (n,) float64
    potential_outcomes: np.ndarray | None = None   # (n, 2) float64

    def __post_init__(self):
        cov = np.ascontiguousarray(self.covariates, dtype=np.float64)
        t = np.ascontiguousarray(self.treatments, dtype=np.int64)
        y = np.ascontiguousarray(self.outcomes, dtype=np.float64)
        if cov.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix")
        n = cov.shape[0]
        if t.shape != (n,) or y.shape != (n,):
            raise ValueError("inconsistent row counts across columns")
        if not np.isin(t, (0, 1)).all():
            raise ValueError("treatments must be binary 0/1")
        if not np.isfinite(cov).all() or not np.isfinite(y).all():
            raise ValueError("covariates and outcomes must be finite")
        po = self.potential_outcomes
        if po is not None:
            po = np.ascontiguousarray(po, dtype=np.float64)
            if po.shape != (n, 2):
                raise ValueError("potential_outcomes must have shape (n, 2)")
            if not np.isfinite(po).all():
                raise ValueError("potential_outcomes must be finite")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "treatments", t)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "potential_outcomes", po)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


def _expected_header(d: int, with_potential: bool) -> list[str]:
    cols = [f"x{i}" for i in range(1, d + 1)] + ["t", "y"]
    if with_potential:
        cols += ["y0", "y1"]
    return cols


def save_dataset_csv(ds: Dataset, path: str | Path) -> None:
    with_potential = ds.potential_outcomes is not None
    columns = [ds.covariates, ds.outcomes[:, None]]
    if with_potential:
        columns.append(ds.potential_outcomes)
    floats = np.hstack(columns)
    # Unique bit patterns, not unique values, so -0.0 keeps its own text.
    # Rank-normalized covariates share one grid of values, so a generated
    # file holds far fewer distinct floats than cells.
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()] + ["0", "1"],
                    dtype=object)
    cells = np.insert(inverse.reshape(floats.shape), ds.d, len(bits) + ds.treatments, axis=1)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_expected_header(ds.d, with_potential)) + _EOL)
        for start in range(0, ds.n, _WRITE_BLOCK_ROWS):
            rows = text[cells[start:start + _WRITE_BLOCK_ROWS]].tolist()
            fh.write("".join([",".join(row) + _EOL for row in rows]))


def _open_for_reading(path: Path):
    # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
    return path.open("r", newline="", encoding="utf-8-sig")


def _treatment(field: str) -> float:
    value = field.strip()
    if value not in ("0", "1"):
        raise ValueError(f"treatment must be 0 or 1, got {value!r}")
    return float(value)


def _number(field: str) -> float:
    """`float`, narrowed to the fields `np.loadtxt` accepts: no digit-group
    underscores and no non-ASCII digits."""
    core = field.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(core)


def _row_error(path: Path, header: list[str], problem: str) -> DatasetFormatError:
    """The error naming the first bad row of a file the bulk parse rejected.

    Reads the file again record by record, as `csv` splits it.  A malformed
    row anywhere is reported before a non-finite value; `problem` describes
    a file in which neither shows.
    """
    d = header.index("t")
    non_finite = None
    with _open_for_reading(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                return DatasetFormatError(
                    f"{path}: row {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [_treatment(v) if j == d else _number(v) for j, v in enumerate(row)]
            except ValueError as exc:
                return DatasetFormatError(f"{path}: row {lineno}: {exc}")
            bad = np.flatnonzero(~np.isfinite(values))
            if non_finite is None and bad.size:
                j = bad[0]
                non_finite = DatasetFormatError(
                    f"{path}: row {lineno}: {header[j]} must be finite, got {row[j]!r}")
    return non_finite or DatasetFormatError(f"{path}: {problem}")


def load_dataset_csv(path: str | Path) -> Dataset:
    path = Path(path)
    with _open_for_reading(path) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        d = 0
        while d < len(header) and header[d] == f"x{d + 1}":
            d += 1
        if d == 0:
            raise DatasetFormatError(f"{path}: header must start with x1..xd, got {header[:3]}")
        rest = header[d:]
        if rest == ["t", "y"]:
            with_potential = False
        elif rest == ["t", "y", "y0", "y1"]:
            with_potential = True
        else:
            raise DatasetFormatError(
                f"{path}: expected columns t,y[,y0,y1] after x{d}, got {rest}")
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as "no data rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # comments=None: the default "#" would accept a field like "2 # c"
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                   converters={d: _treatment})
        except ValueError as exc:
            raise _row_error(path, header, str(exc)) from None
    if table.shape[0] == 0:
        raise DatasetFormatError(f"{path}: no data rows")
    if table.shape[1] != len(header) or not np.isfinite(table).all():
        raise _row_error(path, header, f"rows must hold {len(header)} finite numbers")
    return Dataset(
        covariates=table[:, :d],
        treatments=table[:, d].astype(np.int64),
        outcomes=table[:, d + 1],
        potential_outcomes=table[:, d + 2:] if with_potential else None,
    )
