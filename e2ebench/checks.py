"""Correctness checks on the files the workloads write.

Every check recomputes the expected result with this module's own numpy
code, or tests a property the method must have; none of them imports
the program or compares against a stored copy of an earlier output.
Each check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

STATIONARITY_TOL = 1e-8  # acceptance criterion 3's gradient-norm bound
GEOMETRY_RTOL = 1e-9  # off-ray / off-span residual, relative to |h|
LOSS_RTOL = 1e-11
PROJECTION_RTOL = 1e-10
ECE_ATOL = 1e-12
PRINTED_ATOL = 5e-7 + 1e-12  # values the CLI prints with six decimals
MIN_ACCURACY = 0.95

SAME_CLASS = "same_class"
FEATURE_META = ["class_i", "class_ip", "lambda", "kind", "amplified"]
POINTS_HEADER = "class_i,class_ip,lambda,kind,amplified,px,py"
PREDICTIONS_HEADER = "confidence,predicted,label"

# Unit triangle: vertex k sits at angle 90 + 120 k degrees, so the three
# columns have unit norm and sum to zero.
_ANGLES = np.deg2rad(90.0 + 120.0 * np.arange(3))
TRIANGLE = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)])


# ------------------------------------------------------------------ readers


@dataclass
class Table:
    """Feature or point rows: metadata columns plus a float matrix."""

    class_i: np.ndarray
    class_ip: np.ndarray
    lam: np.ndarray
    kind: np.ndarray
    amplified: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.class_i)

    @property
    def same(self):
        return self.kind == SAME_CLASS


def _read_table(path, header_check) -> Table:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        header_check(header)
        kinds = np.array([line.split(",", 4)[3] for line in fh if line.strip()])
    ncols = len(header)
    cols = [0, 1, 2, 4] + list(range(5, ncols))
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return Table(
        class_i=data[:, 0].astype(int),
        class_ip=data[:, 1].astype(int),
        lam=data[:, 2],
        kind=kinds,
        amplified=data[:, 3].astype(int),
        values=data[:, 4:],
    )


def read_features(path) -> Table:
    """Feature CSV: class_i,class_ip,lambda,kind,amplified,h_0,..."""

    def check(header):
        if header[:5] != FEATURE_META or header[5:] != [
            f"h_{j}" for j in range(len(header) - 5)
        ]:
            raise ValueError(f"{path}: unexpected feature header")

    return _read_table(path, check)


def read_points(path) -> Table:
    def check(header):
        if ",".join(header) != POINTS_HEADER:
            raise ValueError(f"{path}: unexpected point header")

    return _read_table(path, check)


def read_dataset(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:], data[:, 0].astype(int)


def read_predictions(path):
    with open(path) as fh:
        if fh.readline().strip() != PREDICTIONS_HEADER:
            raise ValueError(f"{path}: unexpected predictions header")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1].astype(int), data[:, 2].astype(int)


def read_rows(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------- references


def simplex_etf(C: int, d: int, m: float, seed: int) -> np.ndarray:
    """C x d simplex-ETF rows m*sqrt(C/(C-1))*(I - 11^T/C) U^T.

    U orthonormalises the seeded uniform [-1, 1] draws the program's
    construction starts from. Householder QR with the diagonal of R made
    positive gives the same basis as Gram-Schmidt, by another algorithm.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(d, C)))
    u = q * np.sign(np.diag(r))
    centering = np.eye(C) - np.ones((C, C)) / C
    return m * np.sqrt(C / (C - 1.0)) * centering @ u.T


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _soft_targets(t: Table, C: int) -> np.ndarray:
    y = np.zeros((len(t), C))
    rows = np.arange(len(t))
    lam = np.where(t.same, 1.0, t.lam)
    np.add.at(y, (rows, t.class_i), lam)
    np.add.at(y, (rows, t.class_ip), 1.0 - lam)
    return y


def mean_loss(t: Table, w: np.ndarray, lambda_h: float) -> float:
    """Mean soft-target cross entropy plus (lambda_h/2)|h|^2."""
    h = t.values
    ce = -(_soft_targets(t, len(w)) * _log_softmax(h @ w.T)).sum(axis=1)
    return float(np.mean(ce + 0.5 * lambda_h * (h * h).sum(axis=1)))


def polar_factor(rows: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U V^T of the row-normalised block."""
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    u, _, vt = np.linalg.svd(unit, full_matrices=False)
    return u @ vt


def forward_logits(model: dict, x: np.ndarray):
    """(last hidden activations, logits) of the model JSON's MLP."""
    if model["config"]["activation"] != "relu":
        raise ValueError("reference forward pass covers ReLU models only")
    a = np.asarray(x, dtype=float)
    for w, b in zip(model["weights"], model["biases"]):
        a = np.maximum(a @ np.asarray(w).T + np.asarray(b), 0.0)
    return a, a @ np.asarray(model["clf_w"]).T + np.asarray(model["clf_b"])


def reference_ece(conf, pred, label, bins: int) -> float:
    """Equal-width bins, left-closed, the last one closed at 1."""
    conf = np.asarray(conf, dtype=float)
    idx = np.minimum(np.floor(conf * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    hits = np.bincount(idx, weights=(pred == label).astype(float), minlength=bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    filled = counts > 0
    gap = np.abs(hits[filled] - conf_sum[filled]) / counts[filled]
    return float((counts[filled] / conf.size * gap).sum())


# ------------------------------------------------------------------ checks


def check_row_count(t: Table, expected: int, what: str) -> list[str]:
    if len(t) != expected:
        return [f"{what}: {len(t)} rows, expected {expected}"]
    return []


def check_stationarity(t: Table, w: np.ndarray, lambda_h: float) -> list[str]:
    """|W^T (softmax(W h) - y) + lambda_h h| <= 1e-8 on every row."""
    h = t.values
    p = np.exp(_log_softmax(h @ w.T))
    grad = (p - _soft_targets(t, len(w))) @ w + lambda_h * h
    norms = np.linalg.norm(grad, axis=1)
    bad = np.flatnonzero(~(norms <= STATIONARITY_TOL))
    if bad.size:
        k = bad[np.argmax(norms[bad])]
        return [
            f"stationarity: {bad.size} rows above {STATIONARITY_TOL:g}, "
            f"worst |grad| {norms[k]:.3e} at row {k}"
        ]
    return []


def check_feature_geometry(t: Table, w: np.ndarray) -> list[str]:
    """Same-class rows lie on their positive classifier ray; different-
    class rows lie in span{w_i, w_ip}."""
    errors = []
    h = t.values
    hn = np.linalg.norm(h, axis=1)
    if np.any(t.same != (t.class_i == t.class_ip)):
        errors.append("kind: same_class does not match class_i == class_ip")
    same = np.flatnonzero(t.same)
    if same.size:
        unit = w / np.linalg.norm(w, axis=1, keepdims=True)
        along = np.einsum("nd,nd->n", h[same], unit[t.class_i[same]])
        off = np.linalg.norm(h[same] - along[:, None] * unit[t.class_i[same]], axis=1)
        if np.any(along <= 0.0):
            errors.append("same-class ray: a row points away from its classifier row")
        if np.any(off > GEOMETRY_RTOL * hn[same]):
            errors.append(
                f"same-class ray: off-ray residual up to {off.max():.3e}"
            )
    diff = np.flatnonzero(~t.same)
    worst = 0.0
    failed = False
    pairs = np.stack([t.class_i[diff], t.class_ip[diff]], axis=1)
    for i, ip in np.unique(pairs, axis=0):
        rows = diff[(pairs[:, 0] == i) & (pairs[:, 1] == ip)]
        basis, _ = np.linalg.qr(w[[i, ip]].T)
        resid = h[rows] - (h[rows] @ basis) @ basis.T
        off = np.linalg.norm(resid, axis=1)
        worst = max(worst, float(off.max()))
        failed = failed or bool(np.any(off > GEOMETRY_RTOL * hn[rows]))
    if failed:
        errors.append(f"different-class span: off-span residual up to {worst:.3e}")
    return errors


def check_loss(t: Table, w, lambda_h, summary_loss, printed) -> list[str]:
    """The summary's mean loss equals the loss recomputed from the rows;
    the printed six-decimal value agrees with it."""
    want = mean_loss(t, w, lambda_h)
    errors = []
    if not abs(summary_loss - want) <= LOSS_RTOL * max(1.0, abs(want)):
        errors.append(f"loss: summary {summary_loss!r}, recomputed {want!r}")
    if not abs(printed - want) <= PRINTED_ATOL:
        errors.append(f"loss: printed {printed!r}, recomputed {want!r}")
    return errors


def check_projection(features: Table, points: Table, rows, center: bool) -> list[str]:
    """Each point equals A Q (h - c): Q the polar factor of the
    row-normalised 3-row block, c the mean feature or the origin."""
    if len(points) != len(features):
        return [f"projection: {len(points)} points for {len(features)} features"]
    errors = []
    for name in ("class_i", "class_ip", "amplified", "kind"):
        if np.any(getattr(points, name) != getattr(features, name)):
            errors.append(f"projection: {name} column differs from the features")
    same_lam = (points.lam == features.lam) | (
        np.isnan(points.lam) & np.isnan(features.lam)
    )
    if not np.all(same_lam):
        errors.append("projection: lambda column differs from the features")
    h = features.values
    c = h.mean(axis=0) if center else np.zeros(h.shape[1])
    shifted = h - c
    want = shifted @ polar_factor(np.asarray(rows, dtype=float)).T @ TRIANGLE.T
    err = np.linalg.norm(points.values - want, axis=1)
    scale = 1.0 + np.linalg.norm(shifted, axis=1)
    if np.any(~(err <= PROJECTION_RTOL * scale)):
        k = int(np.argmax(err / scale))
        errors.append(f"projection: point {k} is {err[k]:.3e} from A Q (h - c)")
    return errors


def check_accuracy(model: dict, x, labels) -> tuple[float, list[str]]:
    _, logits = forward_logits(model, x)
    acc = float(np.mean(logits.argmax(axis=1) == labels))
    if not acc >= MIN_ACCURACY:
        return acc, [f"accuracy: {acc:.4f} on the clean points, below {MIN_ACCURACY}"]
    return acc, []


def check_activations(t: Table, count: int, width: int) -> list[str]:
    errors = check_row_count(t, count, "activations")
    if t.values.shape[1] != width:
        errors.append(f"activations: width {t.values.shape[1]}, expected {width}")
    if np.any(t.values < 0.0):
        errors.append("activations: negative entry after ReLU")
    if np.any(t.same != (t.class_i == t.class_ip)):
        errors.append("activations: same_class does not match class_i == class_ip")
    return errors


def check_predictions(model: dict, x, labels, conf, pred, label) -> list[str]:
    """Confidences and argmax classes equal the reference softmax."""
    _, logits = forward_logits(model, x)
    probs = np.exp(_log_softmax(logits))
    errors = []
    if len(conf) != len(labels):
        return [f"predictions: {len(conf)} rows for {len(labels)} points"]
    if np.any(label != labels):
        errors.append("predictions: label column differs from the dataset")
    if np.any(pred != probs.argmax(axis=1)):
        errors.append("predictions: predicted class differs from the argmax")
    if not np.allclose(conf, probs.max(axis=1), rtol=1e-12, atol=1e-12):
        errors.append("predictions: confidence differs from the max probability")
    return errors


def check_ece(conf, pred, label, bins, report: dict, printed: float) -> list[str]:
    want = reference_ece(conf, pred, label, bins)
    errors = []
    if not abs(report["ece"] - want) <= ECE_ATOL:
        errors.append(f"ece: report {report['ece']!r}, recomputed {want!r}")
    if not abs(printed - want) <= PRINTED_ATOL:
        errors.append(f"ece: printed {printed!r}, recomputed {want!r}")
    return errors


def check_determinism(pass_digests: list[dict]) -> list[tuple[int, str]]:
    """(pass index, file) for every file that differs from pass 0."""
    first = pass_digests[0]
    return [
        (k, name)
        for k, digests in enumerate(pass_digests[1:], start=1)
        for name in sorted(set(first) | set(digests))
        if digests.get(name) != first.get(name)
    ]


# -------------------------------------------------------------- information


def same_class_cosine(t: Table, clf_w: np.ndarray, center: np.ndarray) -> float:
    """Mean cosine of centred same-class activations to their classifier
    row; ``center`` is the mean activation of the clean points, as in
    acceptance criterion 10. Reported, never gated."""
    rows = np.flatnonzero(t.same)
    h = t.values[rows] - center
    w = clf_w[t.class_i[rows]]
    cos = np.einsum("nd,nd->n", h, w) / (
        np.linalg.norm(h, axis=1) * np.linalg.norm(w, axis=1)
    )
    return float(cos.mean())


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
