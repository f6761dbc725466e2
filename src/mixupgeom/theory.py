"""Closed-form optimal last-layer features for the mixup objective.

Solves the scalar fixed-point equations behind the two solution
families (same-class features on the classifier ray, different-class
features in the span of the two mixed classifier rows), assembles
feature vectors against a concrete simplex ETF, and applies the
channel amplification used for the perturbed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    inner_tail: float  # K
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
    partition_s: float
    coeff_i: float
    coeff_ip: float
    residual: float  # gradient norm of the assembled feature


@dataclass
class FeatureRecord:
    class_i: int
    class_ip: int
    lam: float
    h: np.ndarray
    kind: str  # SAME_CLASS or DIFFERENT_CLASS
    amplified: bool = False


def _gram(C: int, m2: float) -> np.ndarray:
    return m2 * (C / (C - 1.0)) * (np.eye(C) - np.ones((C, C)) / C)


def _diff_gradient_norm(sol: DifferentClassSolution, lambda_h: float) -> float:
    """Gradient norm of the assembled feature, computed intrinsically
    from the ETF Gram matrix (independent of the embedding dimension)."""
    C = sol.num_classes
    m2 = sol.multiplier**2
    coeffs = np.zeros(C)
    v = np.full(C, sol.p_tail)
    v[0] = sol.p_i - sol.lam
    v[1] = sol.p_ip - (1.0 - sol.lam)
    coeffs[0] = sol.coeff_i
    coeffs[1] = sol.coeff_ip
    # grad = W^T (p - y) + lambda_h h = W^T (v + lambda_h c)
    u = v + lambda_h * coeffs
    g = _gram(C, m2)
    return math.sqrt(max(float(u @ g @ u), 0.0))


def _columns(cells):
    """C, m2 and lh of each parameter cell, as columns that broadcast
    against a row of mixing coefficients."""
    return tuple(
        np.array([[v] for v in values])
        for values in zip(*((p.C, p.m**2, p.lambda_h) for p in cells))
    )


def solve_same_classes(cells) -> list[SameClassSolution]:
    """Unique K < 0 of the same-class equation and its derived fields,
    for every parameter cell in one kernel solve.

    Independent of the mixing coefficient: the soft target collapses to
    a single one-hot vector when both sources share a class.
    """
    cells = list(cells)
    ks = kernels.solve_same_class_k(*_columns(cells)).ravel().tolist()
    solutions = []
    for params, k in zip(cells, ks):
        C, m2, lh = params.C, params.m**2, params.lambda_h
        solutions.append(
            SameClassSolution(
                num_classes=C,
                multiplier=params.m,
                k=k,
                inner_self=(1.0 - C) * k,
                inner_tail=k,
                coeff=(1.0 - C) * k / m2,
                residual=abs(float(kernels.same_class_equation(k, C, m2, lh))),
            )
        )
    return solutions


def solve_same_class(params: TheoryParams) -> SameClassSolution:
    """The same-class solution of one parameter cell; see
    solve_same_classes."""
    return solve_same_classes([params])[0]


def _diff_from_same(
    params: TheoryParams, same: SameClassSolution, lam: float
) -> DifferentClassSolution:
    """Degenerate lam in {0, 1}: the target is one-hot, so the solution
    is the same-class one for the surviving class."""
    C, m2 = params.C, params.m**2
    k = same.k
    p = params.lambda_h * (1.0 - C) * k / (C * m2)
    p_top = 1.0 - (C - 1.0) * p
    s = math.exp(k) / p
    if lam == 1.0:
        inner_i, inner_ip = same.inner_self, k
        p_i, p_ip = p_top, p
    else:
        inner_i, inner_ip = k, same.inner_self
        p_i, p_ip = p, p_top
    sol = DifferentClassSolution(
        num_classes=C,
        multiplier=params.m,
        lam=lam,
        k_lambda=k,
        inner_i=inner_i,
        inner_ip=inner_ip,
        p_i=p_i,
        p_ip=p_ip,
        p_tail=p,
        partition_s=s,
        coeff_i=(1.0 - C) / (C * m2) * (k - inner_i),
        coeff_ip=(1.0 - C) / (C * m2) * ((C - 1.0) * k + inner_i),
        residual=0.0,
    )
    return replace(sol, residual=_diff_gradient_norm(sol, params.lambda_h))


def _diff_two_class(params: TheoryParams, lam: float, x: float) -> DifferentClassSolution:
    """C = 2: no tail classes. Inner products are +/-x with x the root of
    a single increasing scalar equation; the tail value degenerates to 0
    (stored as k_lambda = 0 with p_tail = 0)."""
    m2 = params.m**2
    s = math.exp(x) + math.exp(-x)
    sol = DifferentClassSolution(
        num_classes=2,
        multiplier=params.m,
        lam=lam,
        k_lambda=0.0,
        inner_i=x,
        inner_ip=-x,
        p_i=math.exp(x) / s,
        p_ip=math.exp(-x) / s,
        p_tail=0.0,
        partition_s=s,
        coeff_i=x / (2.0 * m2),
        coeff_ip=-x / (2.0 * m2),
        residual=0.0,
    )
    return replace(sol, residual=_diff_gradient_norm(sol, params.lambda_h))


def _diff_from_root(
    params: TheoryParams, lam: float, k: float, inner_i: float
) -> DifferentClassSolution:
    """C >= 3: the solution fixed by the tail value k and inner_i."""
    C, m2, lh = params.C, params.m**2, params.lambda_h
    inner_ip = -(C - 2.0) * k - inner_i
    p_tail = (1.0 - C) * lh * k / (C * m2)
    p_i = lam + (1.0 - C) * lh * inner_i / (C * m2)
    p_ip = (1.0 - lam) + (1.0 - C) * lh * inner_ip / (C * m2)
    sol = DifferentClassSolution(
        num_classes=C,
        multiplier=params.m,
        lam=lam,
        k_lambda=k,
        inner_i=inner_i,
        inner_ip=inner_ip,
        p_i=p_i,
        p_ip=p_ip,
        p_tail=p_tail,
        partition_s=math.exp(k) / p_tail,
        coeff_i=(1.0 - C) / (C * m2) * (k - inner_i),
        coeff_ip=(1.0 - C) / (C * m2) * ((C - 1.0) * k + inner_i),
        residual=0.0,
    )
    sol = replace(sol, residual=_diff_gradient_norm(sol, params.lambda_h))
    if not (0.0 < p_i < 1.0 and 0.0 < p_ip < 1.0):
        raise kernels.KernelSolveError(
            f"solution probabilities out of range: p_i={p_i}, p_ip={p_ip}"
        )
    return sol


def _solve_different(cells, lams, sames) -> list[list[DifferentClassSolution]]:
    """Different-class solutions of every cell at every lam (each in
    [0, 1]). The distinct interior coefficients of all cells with C >= 3
    are one kernel solve, and those of all cells with C = 2, which have
    their own scalar equation, another. Degenerate targets (lam exactly 0
    or 1) take the cell's same-class solution from ``sames``, or from one
    solve of all cells here when ``sames`` is None."""
    lams = [float(v) for v in lams]
    for lam in lams:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
    interior = list(dict.fromkeys(v for v in lams if 0.0 < v < 1.0))
    by_lam = [{} for _ in cells]
    wide = [n for n, p in enumerate(cells) if p.C >= 3]
    if interior and wide:
        ks, xs = kernels.solve_diff_k(*_columns([cells[n] for n in wide]), interior)
        for n, k_row, x_row in zip(wide, ks.tolist(), xs.tolist()):
            by_lam[n] = {
                lam: _diff_from_root(cells[n], lam, k, x)
                for lam, k, x in zip(interior, k_row, x_row)
            }
    two = [n for n, p in enumerate(cells) if p.C == 2]
    if interior and two:
        _, m2, lh = _columns([cells[n] for n in two])
        xs = kernels.solve_two_class_inner(m2, lh, interior)
        for n, x_row in zip(two, xs.tolist()):
            by_lam[n] = {
                lam: _diff_two_class(cells[n], lam, x) for lam, x in zip(interior, x_row)
            }
    if sames is None and any(lam in (0.0, 1.0) for lam in lams):
        sames = solve_same_classes(cells)
    return [
        [solved.get(lam) or _diff_from_same(params, sames[n], lam) for lam in lams]
        for n, (params, solved) in enumerate(zip(cells, by_lam))
    ]


def solve_grid(cells, lams) -> list[tuple[SameClassSolution, list[DifferentClassSolution]]]:
    """For each parameter cell, its same-class solution and its
    different-class solutions at every lam in lams: one same-class and
    one different-class kernel solve for the whole grid."""
    cells = list(cells)
    sames = solve_same_classes(cells)
    return list(zip(sames, _solve_different(cells, lams, sames)))


def solve_different_classes(params: TheoryParams, lams) -> list[DifferentClassSolution]:
    """Fixed-point solves for the different-class feature, one per
    coefficient in lams (each in [0, 1]); the same-class equation is
    solved only if some lam is exactly 0 or 1. See solve_grid."""
    return _solve_different([params], lams, None)[0]


def solve_different_class(params: TheoryParams, lam: float) -> DifferentClassSolution:
    """Fixed-point solve for the different-class feature at one
    coefficient lam in [0, 1]; see solve_different_classes."""
    return solve_different_classes(params, [lam])[0]


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
    ((same, diff),) = solve_grid([params], lambda_samples)
    rows = etf.rows
    same_h = {c: same.coeff * rows[c] for c in class_subset}
    pairs = [(a, b) for a in class_subset for b in class_subset if a != b]
    i = np.array([a for a, _ in pairs], dtype=int)
    ip = np.array([b for _, b in pairs], dtype=int)
    coeff = np.array([(s.coeff_i, s.coeff_ip) for s in diff])[:, :, None, None]
    h = _pair_features(rows, i, ip, coeff[:, 0], coeff[:, 1])
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
