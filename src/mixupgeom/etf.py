"""Simplex equiangular tight frame construction and deviation metrics.

A simplex ETF classifier has C rows of common norm |m| in dimension
d >= C, pairwise cosine -1/(C-1), and rows summing to zero. Rows are
derived from a seeded orthonormal basis, so builds are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimplexEtf:
    """Classifier geometry: rows W = m*sqrt(C/(C-1))*(I - 11^T/C) U^T."""

    num_classes: int
    multiplier: float
    basis: np.ndarray  # d x C, orthonormal columns
    rows: np.ndarray  # C x d


@dataclass(frozen=True)
class EtfMetrics:
    """How far a classifier is from a simplex ETF.

    norm_cv: coefficient of variation of the row norms.
    cosine_std: standard deviation of pairwise cosines over ordered
    distinct pairs. Both use the population std convention and are 0
    for an exact ETF.
    """

    norm_cv: float
    cosine_std: float


def _orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the columns of mat."""
    q = mat.astype(float).copy()
    d, c = q.shape
    for j in range(c):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        norm = np.linalg.norm(q[:, j])
        if norm < 1e-10:
            raise ValueError("degenerate random basis; use a different seed")
        q[:, j] /= norm
    return q


def build_simplex_etf(C: int, d: int, m: float, seed: int) -> SimplexEtf:
    """Construct a simplex ETF with C classes in dimension d >= C.

    The orthonormal basis U comes from seeded uniform entries in [-1, 1]
    followed by modified Gram-Schmidt, so the result is deterministic
    given the seed.
    """
    if C < 2:
        raise ValueError(f"need at least 2 classes, got {C}")
    if d < C:
        raise ValueError(f"feature dimension {d} must be >= class count {C}")
    if m == 0:
        raise ValueError("multiplier must be nonzero")
    rng = np.random.default_rng(seed)
    u = _orthonormalize(rng.uniform(-1.0, 1.0, size=(d, C)))
    scale = m * np.sqrt(C / (C - 1.0))
    centering = np.eye(C) - np.ones((C, C)) / C
    rows = scale * centering @ u.T
    return SimplexEtf(num_classes=C, multiplier=float(m), basis=u, rows=rows)


def etf_deviation_metrics(w: np.ndarray) -> EtfMetrics:
    """Figure-of-merit pair (norm_cv, cosine_std) for a C x d classifier."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("classifier must be a matrix with at least 2 rows")
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("classifier has a zero row; cosines are undefined")
    unit = w / norms[:, None]
    cos = unit @ unit.T
    off = cos[~np.eye(len(w), dtype=bool)]
    return EtfMetrics(
        norm_cv=float(np.std(norms) / np.mean(norms)),
        cosine_std=float(np.std(off)),
    )


# The row reader of every CSV the package reads. It lives here because
# every module that reads a file already imports this one.


def _bad_row(source, lineno: int, what: str, reason) -> ValueError:
    return ValueError(f"{source}:{lineno}: bad {what} row: {reason}")


def _bad_header(source, what: str, expected: str) -> ValueError:
    return ValueError(f"{source}:1: expected {what} header {expected!r}")


def _parse_rows(lines, source, what: str, parse, start: int = 1) -> list:
    """[parse(line) for every non-blank line of lines], stripped and
    numbered from start. A ValueError from parse is raised again as
    'source:line: bad <what> row: <reason>'."""
    out = []
    for lineno, line in enumerate(lines, start):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(parse(line))
        except ValueError as exc:
            raise _bad_row(source, lineno, what, exc) from None
    return out


def _finite_floats(parts) -> list:
    """parts as floats; a value that does not parse or is not finite
    raises ValueError."""
    row = [float(v) for v in parts]
    for v in row:
        if not math.isfinite(v):
            raise ValueError(f"value {v} is not finite")
    return row


def read_classifier_csv(path) -> np.ndarray:
    """One row per non-blank line, no header. A row that does not parse,
    holds a value that is not finite or is wider or narrower than the
    first raises ValueError naming path:line."""
    width = None

    def parse(line):
        nonlocal width
        row = _finite_floats(line.split(","))
        width = width or len(row)
        if len(row) != width:
            raise ValueError(f"{len(row)} values, the first row has {width}")
        return row

    with open(path) as fh:
        rows = _parse_rows(fh, path, "classifier", parse)
    if not rows:
        raise ValueError(f"{path}: empty classifier file")
    return np.array(rows)
