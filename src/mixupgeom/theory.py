"""Closed-form optimal last-layer features for the mixup objective.

Solves the scalar fixed-point equations behind the two solution
families (same-class features on the classifier ray, different-class
features in the span of the two mixed classifier rows), assembles
feature vectors against a concrete simplex ETF, and applies the
channel amplification used for the perturbed configuration.
"""

from __future__ import annotations

import array
import collections
import contextlib
import math
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import kernels
from .etf import SimplexEtf, _bad_header, _bad_row
from .mixup import DIFFERENT_CLASS, SAME_CLASS


@dataclass(frozen=True)
class TheoryParams:
    """One parameter cell of the closed form. The domain: C >= 2 classes
    (tested up to 1000); a multiplier m that is finite and nonzero with
    a positive finite square (tested from 0.05 to 100); lambda_h positive
    and finite (tested from 1e-10 to 10); a feature dimension d >= C.
    The mixing coefficients the solves take must lie in [0, 1]. A value
    outside the domain raises ValueError naming it."""

    C: int
    m: float
    lambda_h: float
    d: int

    def __post_init__(self):
        if self.C < 2:
            raise ValueError(f"need at least 2 classes, got {self.C}")
        if self.m == 0 or not math.isfinite(self.m):
            raise ValueError(f"multiplier must be finite and nonzero, got {self.m}")
        if not 0 < self.m * self.m < math.inf:
            raise ValueError(f"multiplier m={self.m} has no positive finite square")
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
CSV_FRONT = ["class_i", "class_ip", "lambda", "kind", "amplified"]

# Floats of text work each process must get. A fork costs CPU whether or
# not another CPU is free: in a 39 MB process that had run a theory-solve,
# a fork, exit and wait and the re-faulting of the copy-on-write heap
# after it took 4.3 ms more CPU than no fork (median of 60), and a child
# that formats or parses also copies every page it writes. Writing a file
# and reading it back in two processes against one, medians of 7-15 runs
# on a 2-vCPU guest that shared its CPUs with other load: 90 000 floats
# 18-19% more wall time and 12-17% more CPU; 250 000 floats 21-36% less
# wall, 10-17% more CPU; 500 000 and 1 000 000 floats 37-44% less wall,
# -5 to +11% CPU. Where no second CPU is free the extra CPU is extra wall
# time, and the guest's second CPU came and went within seconds. So a
# second process starts from 500 000 floats, where a busy machine loses
# about a tenth at most and an idle one gains a third or more.
FLOOR = 250_000


def _process_count(floats: int) -> int:
    """Processes that share text work of this many floats: one per CPU
    this process may run on, each with at least FLOOR floats."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, floats // FLOOR))


def _reap(pid: int, fd: int):
    """The (ok, value) a child made by _fork_map sent through fd, once
    the child has ended."""
    with open(fd, "rb") as fh:
        try:
            reply = pickle.load(fh)
        except (EOFError, pickle.UnpicklingError):
            reply = None
    status = os.waitpid(pid, 0)[1]
    if reply is None:
        code = os.waitstatus_to_exitcode(status)
        reply = (False, f"feature CSV worker {pid} ended without a result (exit {code})")
    return reply


def _fork_map(work, blocks) -> list:
    """[work(block) for block in blocks], the first block run here and
    every other in a child made with os.fork, which pickles its result
    back through a pipe. A child's exception is raised here as a
    ValueError with its message, after every child has ended. work must
    make no BLAS call: a fork copies no thread, and BLAS may have some."""
    children = []
    try:
        for j, block in enumerate(blocks[1:], 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                try:
                    os.close(r)
                    try:
                        reply = (True, work(block))
                    except Exception as exc:
                        reply = (False, str(exc))
                    # Protocol 5 reads a contiguous array's bytes into one
                    # buffer that the array here is a view of: no copy.
                    with open(w, "wb") as fh:
                        pickle.dump(reply, fh, 5)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        results = [work(blocks[0])]
    finally:
        replies = [_reap(pid, r) for pid, r in children]
    for ok, value in replies:
        if not ok:
            raise ValueError(value)
        results.append(value)
    return results


def _write_rows(records, fh) -> None:
    """One CSV line per record; floats in shortest round-trip form. An h
    array that several records share (the same-class records of a
    configuration) is formatted once and its text kept; other rows are
    not kept once written."""
    # Keyed by id(h): every h stays alive in records while these are used.
    shared = {key for key, n in collections.Counter(id(r.h) for r in records).items() if n > 1}
    texts = {}
    for r in records:
        text = texts.get(id(r.h))
        if text is None:
            text = ",".join(map(repr, np.asarray(r.h, dtype=float).tolist()))
            if id(r.h) in shared:
                texts[id(r.h)] = text
        front = f"{r.class_i},{r.class_ip},{float(r.lam)!r},{r.kind},{int(r.amplified)}"
        fh.write(f"{front},{text}\n")


def features_to_csv(records, path) -> None:
    """Header class_i,class_ip,lambda,kind,amplified,h_0,...,h_{d-1}, then
    one row per record (see _write_rows). The records are cut into one
    contiguous block per process (_process_count); every block but the
    first is written to its own new part file beside path, and the parts
    are appended to path in order."""
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    d = len(records[0].h)
    for r in records:
        if np.shape(r.h) != (d,):
            raise ValueError(f"feature has shape {np.shape(r.h)}, the file has {d} values")
    n = _process_count(len(records) * d)
    cuts = [len(records) * j // n for j in range(n + 1)]
    parts = []

    def write(j):
        with open(path if j == 0 else parts[j - 1], "a" if j == 0 else "w") as fh:
            _write_rows(records[cuts[j]:cuts[j + 1]], fh)

    try:
        # Each part file is made new here, so no file of the caller's is
        # overwritten or removed.
        for _ in range(1, n):
            fd, part = tempfile.mkstemp(prefix=".part-", dir=os.path.dirname(os.path.abspath(path)))
            os.close(fd)
            parts.append(part)
        with open(path, "w") as out:
            out.write(",".join(CSV_FRONT + [f"h_{j}" for j in range(d)]) + "\n")
        _fork_map(write, range(n))
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _parse_row(line: str, d: int, values) -> tuple:
    """(class_i, class_ip, lambda, kind, amplified) of one CSV row; its d
    h values are appended to the array values."""
    parts = line.split(",")
    if len(parts) - 5 != d:
        raise ValueError(f"{len(parts) - 5} h values, the header has {d}")
    kind, flag = parts[3], parts[4]
    if kind not in CSV_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if flag not in ("0", "1"):
        raise ValueError(f"amplified must be 0 or 1, got {flag!r}")
    front = (int(parts[0]), int(parts[1]), float(parts[2]), kind, flag == "1")
    values.extend(map(float, parts[5:]))
    return front


def _read_rows(path, lo: int, hi: int, d: int):
    """Parse the lines that start in bytes [lo, hi) of path. Returns
    (fronts, h, lines read, bad): the _parse_row tuple of each row, its
    h values as a rows x d array, and None or (line within the block,
    message) of the first malformed row, at which reading stops. Blank
    lines are skipped but counted."""
    fronts, values = [], array.array("d")
    lines, pos = 0, lo
    with open(path, "rb") as fh:
        fh.seek(lo)
        for raw in fh:
            if pos >= hi:
                break
            pos += len(raw)
            lines += 1
            try:
                line = raw.decode().strip()
                if line:
                    fronts.append(_parse_row(line, d, values))
            except ValueError as exc:
                return fronts, None, lines, (lines, str(exc))
    return fronts, np.frombuffer(values, dtype=float).reshape(len(fronts), d), lines, None


def features_from_csv(path) -> list[FeatureRecord]:
    """Read features_to_csv output. A row that does not match the header
    raises ValueError naming path:line: a count of h values other than
    the header's, an unknown kind or an amplified flag other than 0/1.
    The rows are cut at line starts into one contiguous byte range per
    process (_process_count, estimated from the first row's length);
    every range but the first is parsed in a child."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        if header[:5] != CSV_FRONT:
            raise _bad_header(path, "feature", ",".join(CSV_FRONT) + ",h_0,...")
        d = len(header) - 5
        start = fh.tell()
        size = os.fstat(fh.fileno()).st_size
        first = len(fh.readline())
        n = _process_count((size - start) // max(first, 1) * d)
        cuts = [start]
        for j in range(1, n):
            fh.seek(start + (size - start) * j // n - 1)
            fh.readline()
            cuts.append(fh.tell())
        cuts.append(size)
    blocks = list(zip(cuts, cuts[1:]))
    records, line = [], 1
    for fronts, h, lines, bad in _fork_map(lambda b: _read_rows(path, *b, d), blocks):
        if bad is not None:
            raise _bad_row(path, line + bad[0], "feature", bad[1])
        records += [
            FeatureRecord(i, ip, lam, row, kind, amplified)
            for (i, ip, lam, kind, amplified), row in zip(fronts, h)
        ]
        line += lines
    return records
