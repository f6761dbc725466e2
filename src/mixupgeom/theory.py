"""Closed-form optimal last-layer features for the mixup objective.

Solves the scalar fixed-point equations behind the two solution
families (same-class features on the classifier ray, different-class
features in the span of the two mixed classifier rows), assembles
feature vectors against a concrete simplex ETF, and applies the
channel amplification used for the perturbed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .etf import SimplexEtf
from .mixup import DIFFERENT_CLASS, SAME_CLASS


@dataclass(frozen=True)
class TheoryParams:
    C: int
    m: float
    lambda_h: float
    d: int

    def __post_init__(self):
        if self.C < 2:
            raise ValueError(f"need at least 2 classes, got {self.C}")
        if self.m == 0 or not math.isfinite(self.m):
            raise ValueError(f"multiplier must be finite and nonzero, got {self.m}")
        if not 0 < self.lambda_h < math.inf:
            raise ValueError(f"lambda_h must be positive and finite, got {self.lambda_h}")
        if self.d < self.C:
            raise ValueError(f"feature dimension {self.d} must be >= {self.C}")


@dataclass(frozen=True)
class SameClassSolution:
    """Scalar description of the optimal same-class feature: it is
    coeff * w_i, with all other rows at inner product K < 0."""

    num_classes: int
    multiplier: float
    k: float
    inner_self: float  # (1-C) K
    coeff: float  # (1-C) K / m^2
    residual: float  # |log-form scalar equation| at K


@dataclass(frozen=True)
class DifferentClassSolution:
    """Scalar description of the optimal different-class feature
    h = coeff_i * w_i + coeff_ip * w_ip for a given mixing coefficient."""

    num_classes: int
    multiplier: float
    lam: float
    k_lambda: float
    inner_i: float
    inner_ip: float
    p_i: float
    p_ip: float
    p_tail: float
    coeff_i: float
    coeff_ip: float


@dataclass
class FeatureRecord:
    class_i: int
    class_ip: int
    lam: float
    h: np.ndarray
    kind: str  # SAME_CLASS or DIFFERENT_CLASS
    amplified: bool = False


def _solve_cells(cells, lams):
    """Both solution families of every parameter cell, from arrays.

    Returns the same-class solution of each cell and a dict of the
    different-class fields that follow lam, keyed by the names of
    DifferentClassSolution in its order, each a cells x lams array; lams
    is a list of floats. One kernel solve covers the same-class equation
    of all cells, one the interior lam of the cells with C >= 3 and one
    those of the C = 2 cells, which have no tail and their own scalar
    equation (inner products +/-x). At lam exactly 0 or 1 the target is
    one-hot, so the solution is the same-class one of the surviving
    class: the formulas run with k = K.
    """
    for v in lams:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {v}")
    C, m2, lh = (
        np.array([[v] for v in column])
        for column in zip(*((p.C, p.m**2, p.lambda_h) for p in cells))
    )
    lam = np.array(lams, dtype=float)[None, :]
    one, zero = lam == 1.0, lam == 0.0
    interior = ~(one | zero)
    same_k = kernels.solve_same_class_k(C, m2, lh)
    sames = [
        SameClassSolution(
            num_classes=p.C,
            multiplier=p.m,
            k=k,
            inner_self=(1.0 - p.C) * k,
            coeff=(1.0 - p.C) * k / p.m**2,
            residual=abs(float(kernels.same_class_equation(k, p.C, p.m**2, p.lambda_h))),
        )
        for p, k in zip(cells, same_k.ravel().tolist())
    ]
    inner_self = (1.0 - C) * same_k
    k = np.broadcast_to(same_k, (len(C), lam.size)).copy()
    x = np.where(one, inner_self, k)
    cols = np.flatnonzero(interior)
    wide, two = np.flatnonzero(C >= 3), np.flatnonzero(C == 2)
    if cols.size and wide.size:
        at = np.ix_(wide, cols)
        k[at], x[at] = kernels.solve_diff_k(C[wide], m2[wide], lh[wide], lam[:, cols])
    if cols.size and two.size:
        at = np.ix_(two, cols)
        k[at] = 0.0
        x[at] = kernels.solve_two_class_inner(m2[two], lh[two], lam[:, cols])
    x_ip = np.where(one, k, np.where(zero, inner_self, -(C - 2.0) * k - x))
    decay = (1.0 - C) * lh
    p_tail = decay * k / (C * m2)
    p_top = 1.0 - (C - 1.0) * p_tail
    p_i = np.where(one, p_top, lam + decay * x / (C * m2))
    p_ip = np.where(zero, p_top, (1.0 - lam) + decay * x_ip / (C * m2))
    bad = (C >= 3) & interior & ~((0.0 < p_i) & (p_i < 1.0) & (0.0 < p_ip) & (p_ip < 1.0))
    if bad.any():
        j = np.flatnonzero(bad)[0]
        raise kernels.KernelSolveError(
            f"solution probabilities out of range: p_i={p_i.flat[j]}, p_ip={p_ip.flat[j]}"
        )
    # C = 2 keeps +/-x / (2 m^2): the general form with k = 0 rounds otherwise.
    pair = (C == 2) & interior
    scale = (1.0 - C) / (C * m2)
    coeff_i = np.where(pair, x / (2.0 * m2), scale * (k - x))
    coeff_ip = np.where(pair, -x / (2.0 * m2), scale * ((C - 1.0) * k + x))
    return sames, dict(
        k_lambda=k, inner_i=x, inner_ip=x_ip, p_i=p_i, p_ip=p_ip, p_tail=p_tail,
        coeff_i=coeff_i, coeff_ip=coeff_ip,
    )


def solve_grid(cells, lams) -> list[tuple[SameClassSolution, list[DifferentClassSolution]]]:
    """For each parameter cell, its same-class solution and its
    different-class solutions at every lam in lams (each in [0, 1]),
    from one array solve of the whole grid."""
    lams = [float(v) for v in lams]
    sames, diff = _solve_cells(list(cells), lams)
    grid = []
    for same, cell in zip(sames, np.stack(list(diff.values()), axis=-1).tolist()):
        head = (same.num_classes, same.multiplier)
        grid.append((same, [DifferentClassSolution(*head, lam, *v) for lam, v in zip(lams, cell)]))
    return grid


def solve_same_class(params: TheoryParams) -> SameClassSolution:
    """The unique K < 0 of the same-class equation and its derived
    fields. Independent of the mixing coefficient: the soft target
    collapses to a single one-hot vector when both sources share a
    class. One-cell form of solve_grid."""
    return solve_grid([params], [])[0][0]


def solve_different_class(params: TheoryParams, lam: float) -> DifferentClassSolution:
    """Fixed-point solve for the different-class feature at one
    coefficient lam in [0, 1]; one-cell form of solve_grid."""
    return solve_grid([params], [lam])[0][1][0]


def _pair_features(rows, i, ip, coeff_i, coeff_ip):
    """coeff_i * w_i + coeff_ip * w_ip; i, ip and the coefficients may be
    arrays that broadcast against the rows."""
    return coeff_i * rows[i] + coeff_ip * rows[ip]


def _channel_shift(rows, i, ip, eps):
    """eps * (w_i + w_ip), which equals -eps * sum_{j != i, ip} w_j because
    the rows sum to 0; arrays broadcast as in _pair_features."""
    return eps * (rows[i] + rows[ip])


def assemble_feature(solution, etf: SimplexEtf, i: int, ip: int) -> FeatureRecord:
    """Materialize a scalar solution as a d-vector in the ETF row basis."""
    C = etf.num_classes
    if not (0 <= i < C and 0 <= ip < C):
        raise ValueError(f"class index out of range for C={C}: ({i}, {ip})")
    if solution.num_classes != C or solution.multiplier != etf.multiplier:
        raise ValueError("solution parameters do not match the supplied ETF")
    if isinstance(solution, SameClassSolution):
        if i != ip:
            raise ValueError("same-class solution needs i == ip")
        h = solution.coeff * etf.rows[i]
        return FeatureRecord(class_i=i, class_ip=ip, lam=math.nan, h=h, kind=SAME_CLASS)
    if i == ip:
        raise ValueError("different-class solution needs i != ip")
    h = _pair_features(etf.rows, i, ip, solution.coeff_i, solution.coeff_ip)
    return FeatureRecord(
        class_i=i, class_ip=ip, lam=solution.lam, h=h, kind=DIFFERENT_CLASS
    )


def epsilon_amplification(lam: float) -> float:
    """Channel amplification magnitude, peaking at lam = 0.5 with value
    0.4 and symmetric about it."""
    return 0.8 * math.exp(-20.0 * (lam - 0.5) ** 4) - 0.4


def amplify(record: FeatureRecord, etf: SimplexEtf) -> FeatureRecord:
    """Push a different-class feature along w_i + w_ip by epsilon(lam);
    same-class records pass through unchanged."""
    if record.kind == SAME_CLASS:
        return record
    eps = epsilon_amplification(record.lam)
    shift = _channel_shift(etf.rows, record.class_i, record.class_ip, eps)
    return FeatureRecord(
        class_i=record.class_i,
        class_ip=record.class_ip,
        lam=record.lam,
        h=record.h + shift,
        kind=record.kind,
        amplified=True,
    )


def generate_configuration(
    params: TheoryParams,
    etf: SimplexEtf,
    class_subset,
    lambda_samples,
    amplified: bool = False,
) -> list[FeatureRecord]:
    """One feature per (lambda sample, ordered class pair), lambda-major
    order, with lambda samples shared across pairs.

    The features of each family are built with one broadcast, with the
    arithmetic of assemble_feature and amplify. All same-class records
    of one class share one h array; the different-class records are
    rows of one matrix.
    """
    class_subset = list(class_subset)
    lambda_samples = [float(v) for v in lambda_samples]
    if not class_subset:
        raise ValueError("empty class subset")
    if not lambda_samples:
        raise ValueError("empty lambda sample list")
    for c in class_subset:
        if not 0 <= c < params.C:
            raise ValueError(f"class {c} out of range for C={params.C}")
    if params.C != etf.num_classes or params.m != etf.multiplier:
        raise ValueError("solution parameters do not match the supplied ETF")
    (same,), diff = _solve_cells([params], lambda_samples)
    rows = etf.rows
    same_h = {c: same.coeff * rows[c] for c in class_subset}
    pairs = [(a, b) for a in class_subset for b in class_subset if a != b]
    i = np.array([a for a, _ in pairs], dtype=int)
    ip = np.array([b for _, b in pairs], dtype=int)
    coeff_i, coeff_ip = diff["coeff_i"][0, :, None, None], diff["coeff_ip"][0, :, None, None]
    h = _pair_features(rows, i, ip, coeff_i, coeff_ip)
    if amplified:
        eps = np.array([epsilon_amplification(lam) for lam in lambda_samples])
        h = h + _channel_shift(rows, i, ip, eps[:, None, None])
    diff_h = iter(h.reshape(-1, rows.shape[1]))
    records = []
    for lam in lambda_samples:
        for a in class_subset:
            for b in class_subset:
                if a == b:
                    records.append(FeatureRecord(a, b, lam, same_h[a], SAME_CLASS))
                else:
                    records.append(
                        FeatureRecord(a, b, lam, next(diff_h), DIFFERENT_CLASS, amplified)
                    )
    return records


CSV_KINDS = {SAME_CLASS, DIFFERENT_CLASS}


def features_to_csv(records, path) -> None:
    """Header class_i,class_ip,lambda,kind,amplified,h_0,...,h_{d-1};
    floats in shortest round-trip form. Each distinct h array is
    formatted once, so records that share one (the same-class records of
    a configuration) share its text."""
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    d = len(records[0].h)
    header = "class_i,class_ip,lambda,kind,amplified," + ",".join(
        f"h_{j}" for j in range(d)
    )
    # Keyed by id(h): every h stays alive in records while the dict is used.
    texts = {}
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in records:
            text = texts.get(id(r.h))
            if text is None:
                h = np.asarray(r.h, dtype=float)
                if h.shape != (d,):
                    raise ValueError(f"feature has shape {h.shape}, the file has {d} values")
                text = texts[id(r.h)] = ",".join(map(repr, h.tolist()))
            front = f"{r.class_i},{r.class_ip},{float(r.lam)!r},{r.kind},{int(r.amplified)}"
            fh.write(f"{front},{text}\n")


def features_from_csv(path) -> list[FeatureRecord]:
    """Read features_to_csv output. A row that does not match the header
    raises ValueError naming path:line: a count of h values other than
    the header's, an unknown kind or an amplified flag other than 0/1."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:5] != ["class_i", "class_ip", "lambda", "kind", "amplified"]:
            raise ValueError(f"{path}:1: unexpected feature CSV header")
        d = len(header) - 5
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) - 5 != d:
                    raise ValueError(f"{len(parts) - 5} h values, the header has {d}")
                kind, flag = parts[3], parts[4]
                if kind not in CSV_KINDS:
                    raise ValueError(f"unknown kind {kind!r}")
                if flag not in ("0", "1"):
                    raise ValueError(f"amplified must be 0 or 1, got {flag!r}")
                records.append(
                    FeatureRecord(
                        class_i=int(parts[0]),
                        class_ip=int(parts[1]),
                        lam=float(parts[2]),
                        h=np.fromiter(map(float, parts[5:]), float, d),
                        kind=kind,
                        amplified=flag == "1",
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad feature row: {exc}") from None
    return records
