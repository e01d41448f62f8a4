"""Data ingestion, feature preparation, and report rendering.

rolling_volatility delays the volatility weights here; features are
lagged in cli._prepare. Both happen once, before any moment matrix is
formed; the estimation modules never shift time themselves.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyPanel,
    ParseError,
    ShapeMismatch,
    ZeroVolatilityWindow,
)
from .moments import ReturnsPanel


@dataclass
class RollingVolSpec:
    """Trailing mean of cross-asset median absolute returns, then a delay."""

    window: int = 11
    lag: int = 1

    def __post_init__(self):
        if self.window < 1 or self.lag < 1:
            raise ShapeMismatch(f"volatility window and lag must be positive, "
                                f"got window {self.window}, lag {self.lag}")


@dataclass
class LoadedData:
    panel: ReturnsPanel
    features: np.ndarray | None
    n_dropped: int


def load_csv(
    path: str,
    asset_columns: list[str],
    feature_columns: list[str] | None = None,
    date_column: str | None = None,
) -> LoadedData:
    """Read an aligned returns (and optional feature) panel from CSV.

    UTF-8, header row, decimal-point numbers. Rows with any missing,
    unparseable, NaN or infinite selected value, or no timestamp when a
    date column is named, are dropped and counted; blank lines are
    skipped. Row order is preserved; non-increasing timestamps only warn.
    """
    feature_columns = feature_columns or []
    columns = asset_columns + feature_columns
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: no header row")
            where = {name: i for i, name in enumerate(header)}  # a repeated name reads its last
            missing = [c for c in columns if c not in where]
            if date_column and date_column not in where:
                missing.append(date_column)
            if missing:
                raise ParseError(f"{path}: missing columns {missing}")
            picks = [where[c] for c in columns]
            stamp_at = where[date_column] if date_column else None
            parsed, stamps = [], []
            n_dropped = 0
            for row in reader:
                if not row:  # a blank line is no row
                    continue
                try:
                    picked = [float(row[i]) for i in picks]
                    stamp = row[stamp_at] if date_column else None
                except (IndexError, ValueError):  # a short row or an unparseable value
                    n_dropped += 1
                    continue
                parsed.append(picked)
                stamps.append(stamp)
    except OSError as exc:  # the OS message repeats the path
        raise ParseError(f"{path}: {exc.strerror or 'not found'}") from exc
    # then drop the parsed rows with a NaN or infinite value, all at once
    values = np.array(parsed, dtype=float).reshape(len(parsed), len(columns))
    finite = np.isfinite(values).all(axis=1)
    n_dropped += int(finite.size - np.count_nonzero(finite))
    values = values[finite]
    if not values.shape[0]:
        raise EmptyPanel(f"{path}: no usable rows")
    if date_column:
        stamps = list(compress(stamps, finite))
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            warnings.warn(f"{path}: timestamps are not strictly increasing", RuntimeWarning)
    else:
        stamps = None
    n_assets = len(asset_columns)
    panel = ReturnsPanel(np.ascontiguousarray(values[:, :n_assets]),
                         asset_names=list(asset_columns), timestamps=stamps)
    features = np.ascontiguousarray(values[:, n_assets:]) if feature_columns else None
    return LoadedData(panel, features, n_dropped)


def write_csv(path: str, values: np.ndarray, columns: list[str], timestamps: list | None = None):
    """Write a panel back out; the inverse of load_csv up to float text.

    Timestamps, when given, go in a leading `date` column.
    """
    values = np.atleast_2d(values)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (["date"] if timestamps is not None else []) + list(columns)
        writer.writerow(header)
        for i, row in enumerate(values):
            lead = [timestamps[i]] if timestamps is not None else []
            writer.writerow(lead + [repr(float(v)) for v in row])


def rolling_volatility(values: np.ndarray, spec: RollingVolSpec | None = None) -> np.ndarray:
    """Quietude weights: reciprocal trailing volatility, delayed.

    The volatility proxy at time i is the mean over the trailing window
    of the cross-asset median absolute return; the weight applies `lag`
    periods later. Entries before the first full window are NaN and must
    be dropped by the caller.
    """
    spec = spec or RollingVolSpec()
    values = np.atleast_2d(np.asarray(values, dtype=float))
    t = values.shape[0]
    if spec.window + spec.lag >= t:
        raise ShapeMismatch(f"window+lag must be below T={t}")
    med = np.median(np.abs(values), axis=1)
    # vol[j] is the mean of the window ending at row j + window - 1
    vol = sliding_window_view(med, spec.window).mean(axis=1)
    zero = np.flatnonzero(vol < 1e-300)
    if zero.size:
        raise ZeroVolatilityWindow(
            f"volatility window ending at row {zero[0] + spec.window - 1} is zero")
    weights = np.full(t, np.nan)
    weights[spec.window - 1 + spec.lag :] = 1.0 / vol[: t - spec.window + 1 - spec.lag]
    return weights


# --- report rendering ----------------------------------------------------

@dataclass
class ReportTable:
    title: str
    columns: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def render_tsv(tables: list[ReportTable]) -> str:
    out = []
    for tbl in tables:
        out.append(f"# {tbl.title}")
        for k in sorted(tbl.metadata):
            out.append(f"# {k}={_fmt(tbl.metadata[k])}")
        out.append("\t".join(tbl.columns))
        for row in tbl.rows:
            out.append("\t".join(_fmt(v) for v in row))
        out.append("")
    return "\n".join(out)


def render_json(tables: list[ReportTable]) -> str:
    import json  # only a --format json run pays for it

    payload = [
        {
            "title": tbl.title,
            "metadata": tbl.metadata,
            "columns": tbl.columns,
            "rows": [[v if not isinstance(v, np.generic) else v.item() for v in row]
                     for row in tbl.rows],
        }
        for tbl in tables
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def report(tables: list[ReportTable], fmt: str) -> str:
    if fmt == "tsv":
        return render_tsv(tables)
    if fmt == "json":
        return render_json(tables)
    raise ShapeMismatch(f"unknown format {fmt!r}")
