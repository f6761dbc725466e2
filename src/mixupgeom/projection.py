"""Two-dimensional simplex view of high-dimensional activations.

For a chosen 3-class subset, the row-normalized classifier is reduced to
its orthogonal polar factor Q (a semi-orthogonal 3 x d map onto the
classifier frame), and the three resulting coordinates are rendered
through a fixed triangle: the 2 x 3 vertex matrix TRIANGLE has unit
columns summing to zero, so the constant direction -- which the rank-2
classifier cannot pin down -- is annihilated and the view is well
defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _floattext
from .theory import CSV_FRONT, _columns, _heads

# Triangle vertices as columns: one up, two down, unit norm, zero sum.
TRIANGLE = np.array(
    [
        [0.0, -np.sqrt(3.0) / 2.0, np.sqrt(3.0) / 2.0],
        [1.0, -0.5, -0.5],
    ]
)


@dataclass(frozen=True)
class ProjectionOperator:
    """Affine map h -> TRIANGLE Q (h - center) from feature space to the plane."""

    Q: np.ndarray  # 3 x d, semi-orthogonal
    center: np.ndarray  # d-vector


def _orthonormal_completion(vt: np.ndarray, k: int) -> np.ndarray:
    """Deterministic replacement for right-singular row k: the first
    standard basis vector with a nonzero residual against the other
    rows, orthonormalized."""
    d = vt.shape[1]
    others = [vt[j] for j in range(vt.shape[0]) if j != k]
    for axis in range(d):
        v = np.zeros(d)
        v[axis] = 1.0
        for o in others:
            v -= (o @ v) * o
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm
    raise ValueError("could not complete an orthonormal basis")


def build_projection(
    w_rows: np.ndarray, activation_mean: np.ndarray | None = None
) -> ProjectionOperator:
    """Build the planar view operator from three classifier rows.

    Rows are normalized to unit length, then Q = U V^T from their SVD
    (the orthogonal polar factor). A zero singular value (exact rank-2
    input) gets its right vector rebuilt by Gram-Schmidt and its left
    vector signed so that its largest-magnitude entry is positive; the
    TRIANGLE 1 = 0 identity renders that pair inconsequential. A regular
    pair needs no sign fix: flipping its u and vt together leaves Q
    unchanged bit for bit.
    """
    w = np.asarray(w_rows, dtype=float)
    if w.ndim != 2 or w.shape[0] != 3:
        raise ValueError(f"expected a 3 x d classifier block, got shape {w.shape}")
    if w.shape[1] < 3:
        raise ValueError(f"projection needs classifier rows of width 3 or more, got {w.shape[1]}")
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("classifier block has a zero row")
    unit = w / norms[:, None]
    u, s, vt = np.linalg.svd(unit, full_matrices=False)
    if s[0] < 1e-12:
        raise ValueError("classifier block is numerically rank zero")
    vt = vt.copy()
    u = u.copy()
    for k in range(3):
        if s[k] < 1e-12 * s[0]:
            vt[k] = _orthonormal_completion(vt, k)
            if u[np.argmax(np.abs(u[:, k])), k] < 0.0:
                u[:, k] = -u[:, k]
    q = u @ vt
    center = (
        np.zeros(w.shape[1])
        if activation_mean is None
        else np.asarray(activation_mean, dtype=float)
    )
    if center.shape != (w.shape[1],):
        raise ValueError(
            f"activation mean has shape {center.shape}, expected ({w.shape[1]},)"
        )
    return ProjectionOperator(Q=q, center=center)


def project_vector(op: ProjectionOperator, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != op.center.shape:
        raise ValueError(f"feature has shape {h.shape}, expected {op.center.shape}")
    return TRIANGLE @ (op.Q @ (h - op.center))


def project(op: ProjectionOperator, h) -> np.ndarray:
    """n x 2 array whose row k is project_vector(op, h[k]), bit for bit,
    for an n x d array h. The rows are taken in blocks of about
    _floattext.CHUNK floats (32 KB; _floattext.block_rows), so that its
    memory stays flat however many rows it projects, and numpy runs each
    block's products as one matrix-vector product per row, as
    project_vector does."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[1:] != op.center.shape:
        raise ValueError(f"features have shape {h.shape}, expected (n, {op.center.size})")
    points = np.empty((len(h), 2))
    rows = _floattext.block_rows(h.shape[1])
    for lo in range(0, len(h), rows):
        block = h[lo : lo + rows] - op.center
        points[lo : lo + rows] = (TRIANGLE @ (op.Q @ block[:, :, None]))[:, :, 0]
    return points


POINTS_HEADER = ",".join(CSV_FRONT + ["px", "py"])


def points_to_csv(fronts, points: np.ndarray) -> str:
    """The points CSV: the tags of each (class_i, class_ip, lambda,
    amplified) in fronts, followed by its projected point."""
    parts = [POINTS_HEADER.encode() + b"\n"]
    if fronts:
        head, rows = _heads(*_columns(fronts)), _floattext.block_rows(2)
        parts += [
            _floattext.rows_bytes(head[lo : lo + rows], points[lo : lo + rows])
            for lo in range(0, len(points), rows)
        ]
    return b"".join(parts).decode("ascii")
