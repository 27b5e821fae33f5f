"""Seeded benchmark inputs, made with numpy alone so a change to navae cannot alter them."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EULER_GAMMA = 0.5772156649015329
OLS_BETA = (2.0, 1.0, -3.0)
REGRESSOR_COV = np.array([[1.0, 0.5 * math.sqrt(2.0)], [0.5 * math.sqrt(2.0), 2.0]])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def mean_values(seed: int, rows: int) -> np.ndarray:
    """Exponential(1) draws for the mean-ci CSV."""
    return _rng(seed, 0).exponential(1.0, rows)


def ols_columns(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, X) of a heteroskedastic linear model with centred Gumbel errors; X has no intercept."""
    rng = _rng(seed, 1)
    x = rng.standard_normal((rows, 2)) @ np.linalg.cholesky(REGRESSOR_COV).T
    scale = np.abs(x[:, 0] + x[:, 1]) * math.sqrt(6.0) / math.pi
    eps = scale * (rng.gumbel(0.0, 1.0, rows) - EULER_GAMMA)
    y = OLS_BETA[0] + x @ np.asarray(OLS_BETA[1:]) + eps
    return y, x


def _write(path: Path, header: str, table: np.ndarray) -> None:
    row_format = ",".join(["%.17g"] * table.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(row_format % tuple(row) for row in table.tolist()))
        fh.write("\n")


def write_csvs(directory: Path, seed: int, mean_rows: int, ols_rows: int) -> dict[str, str]:
    """Write the mean and OLS CSVs with 17 significant digits; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    mean_csv = directory / "mean.csv"
    ols_csv = directory / "ols.csv"
    _write(mean_csv, "x", mean_values(seed, mean_rows)[:, None])
    y, x = ols_columns(seed, ols_rows)
    _write(ols_csv, "y,x1,x2", np.column_stack([y, x]))
    return {"mean_csv": str(mean_csv), "ols_csv": str(ols_csv)}
