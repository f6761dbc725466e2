"""Closed-form optimal last-layer features for the mixup objective.

Solves the scalar fixed-point equations behind the two solution
families (same-class features on the classifier ray, different-class
features in the span of the two mixed classifier rows), assembles
feature vectors against a concrete simplex ETF, and applies the
channel amplification used for the perturbed configuration.
"""

from __future__ import annotations

import array
import contextlib
import math
import operator
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import _floattext, kernels
from .etf import SimplexEtf, _bad_header, _finite_floats, _parse_rows, _utf8
from .mixup import _check_lambdas

SAME_CLASS = "same_class"
DIFFERENT_CLASS = "different_class"


@dataclass(frozen=True)
class TheoryParams:
    """One parameter cell of the closed form. The domain: C >= 2 classes
    (tested up to 2000); a multiplier m that is finite and nonzero with
    a positive finite square (tested from 0.05 to 100); lambda_h positive
    and finite (tested from 1e-10 to 10). The feature dimension is the
    width of the ETF's rows (build_simplex_etf), and the mixing
    coefficients the solves take must lie in [0, 1]. A value outside the
    domain raises ValueError naming it."""

    C: int
    m: float
    lambda_h: float

    def __post_init__(self):
        if self.C < 2:
            raise ValueError(f"need at least 2 classes, got {self.C}")
        if self.m == 0 or not math.isfinite(self.m):
            raise ValueError(f"multiplier must be finite and nonzero, got {self.m}")
        if not 0 < self.m * self.m < math.inf:
            raise ValueError(f"multiplier m={self.m} has no positive finite square")
        if not 0 < self.lambda_h < math.inf:
            raise ValueError(f"lambda_h must be positive and finite, got {self.lambda_h}")


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
    amplified: bool = False

    @property
    def kind(self) -> str:
        """SAME_CLASS where both sources share a class, else DIFFERENT_CLASS."""
        return SAME_CLASS if self.class_i == self.class_ip else DIFFERENT_CLASS


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
    _check_lambdas(lams)
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
        return FeatureRecord(class_i=i, class_ip=ip, lam=math.nan, h=h)
    if i == ip:
        raise ValueError("different-class solution needs i != ip")
    h = solution.coeff_i * etf.rows[i] + solution.coeff_ip * etf.rows[ip]
    return FeatureRecord(class_i=i, class_ip=ip, lam=solution.lam, h=h)


def epsilon_amplification(lam: float) -> float:
    """Channel amplification magnitude, peaking at lam = 0.5 with value
    0.4 and symmetric about it."""
    return 0.8 * math.exp(-20.0 * (lam - 0.5) ** 4) - 0.4


def amplify(record: FeatureRecord, etf: SimplexEtf) -> FeatureRecord:
    """Push a different-class feature along w_i + w_ip by epsilon(lam),
    which is -epsilon(lam) times the sum of the other rows, because the
    rows sum to 0; same-class records pass through unchanged."""
    if record.kind == SAME_CLASS:
        return record
    eps = epsilon_amplification(record.lam)
    shift = eps * (etf.rows[record.class_i] + etf.rows[record.class_ip])
    return FeatureRecord(
        class_i=record.class_i,
        class_ip=record.class_ip,
        lam=record.lam,
        h=record.h + shift,
        amplified=True,
    )


class Configuration:
    """The records of generate_configuration, held as the theorem gives
    them: the ETF rows and a few coefficients per lambda, never as an
    n x d matrix. Record k is lambda t = k // s^2 and the classes
    a = classes[k // s % s], b = classes[k % s] of an s-class subset.

    A record's h is made when its block is asked for, with the arithmetic
    of assemble_feature and amplify: same_coeff * w_a for a same-class
    record; else coeff_i[t] * w_a, then += coeff_ip[t] * w_b, then +=
    eps[t] * (w_a + w_b) when amplified.
    """

    def __init__(self, rows, classes, lams, same_coeff, coeff_i, coeff_ip, eps=None):
        self.rows, self.classes, self.lams = rows, classes, lams
        self.same_coeff, self.coeff_i, self.coeff_ip, self.eps = same_coeff, coeff_i, coeff_ip, eps

    def __len__(self):
        return len(self.lams) * len(self.classes) ** 2

    def _blocks(self, lo=0, hi=None, step=None):
        """(t, pair, h) of the records lo, ..., hi - 1, step records (by
        default about _floattext.CHUNK floats, _floattext.block_rows) at a
        time: the lambda index t and class pair index k % s^2 of each as
        arrays, and their h as a rows x d array."""
        hi = len(self) if hi is None else hi
        s, classes = len(self.classes), np.array(self.classes)
        step = step or _floattext.block_rows(self.rows.shape[1])
        for first in range(lo, hi, step):
            k = np.arange(first, min(first + step, hi))
            t, pair = np.divmod(k, s * s)
            a, b = classes[pair // s], classes[pair % s]
            h = self.coeff_i[t, None] * self.rows[a]
            h += self.coeff_ip[t, None] * self.rows[b]
            if self.eps is not None:
                h += self.eps[t, None] * (self.rows[a] + self.rows[b])
            same = a == b
            h[same] = self.same_coeff * self.rows[a[same]]
            yield t, pair, h

    def blocks(self, lo=0, hi=None):
        """(fronts, h) of the records lo, ..., hi - 1, in the blocks of
        _blocks: the (class_i, class_ip, lambda, amplified) of each and
        their h as a rows x d array."""
        s, classes = len(self.classes), np.array(self.classes)
        for t, pair, h in self._blocks(lo, hi):
            a, b = classes[pair // s], classes[pair % s]
            amplified = ((a != b) & (self.eps is not None)).tolist()
            lams = [self.lams[j] for j in t.tolist()]
            yield list(zip(a.tolist(), b.tolist(), lams, amplified)), h


def generate_configuration(
    params: TheoryParams,
    etf: SimplexEtf,
    class_subset,
    lambda_samples,
    amplified: bool = False,
) -> Configuration:
    """One feature per (lambda sample, ordered class pair), lambda-major
    order, with lambda samples shared across pairs; held as the
    coefficients of one solve (see Configuration)."""
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
    eps = None
    if amplified:
        eps = np.array([epsilon_amplification(lam) for lam in lambda_samples])
    return Configuration(
        etf.rows, class_subset, lambda_samples, same.coeff,
        diff["coeff_i"][0], diff["coeff_ip"][0], eps,
    )


CSV_FRONT = ["class_i", "class_ip", "lambda", "kind", "amplified"]

# Floats of text work each process must get, so that a second process
# starts at 500 000. A fork costs CPU whether or not another CPU is free:
# in a 39 MB process that had run a theory-solve, a fork, exit and wait
# and the re-faulting of the copy-on-write heap after it took 4.3 ms more
# CPU than no fork (median of 60), and a child that formats or parses
# also copies every page it writes. A theory-wide pass (1 000 000 floats
# written and read back; 20 s e2ebench runs at seed 0 on a 2-vCPU guest)
# took 0.37-0.40 s with the fork and 0.60-0.62 s in one process.
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
    """The error text of a child made by _forked, read from fd once the
    child has ended; empty after a clean run."""
    with open(fd, "rb") as fh:
        error = fh.read().decode()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code and not error:
        error = f"feature CSV worker {pid} ended without a result (exit {code})"
    return error


@contextlib.contextmanager
def _forked(work, n: int, folder, mode: str):
    """Run work(j, part) for j = 0, ..., n - 1 and yield the parts of
    j = 1, ..., n - 1, rewound, in order.

    Each part is an unnamed temporary file opened with mode in folder (the
    temporary directory when folder is None) before the fork, and closed
    when the with block ends. Every j but 0 runs in a child made with
    os.fork, which flushes its part and exits 0, or after an exception
    writes its text to a pipe and exits 1: a child hands back its rows
    only through its part. j = 0 runs here with part None. Every child is
    waited for, and then the first child's error is raised here as a
    ValueError; an exception of j = 0 is raised instead. work must make no
    BLAS call in a child: a fork copies no thread, and BLAS may have some.
    The writer's children format with _floattext.rows_bytes, whose numpy
    integer arithmetic calls no BLAS; what j = 0 does here (the reader's
    projection of its own rows, say) may call BLAS."""
    with contextlib.ExitStack() as stack:
        parts = [
            stack.enter_context(tempfile.TemporaryFile(mode, dir=folder)) for _ in range(1, n)
        ]
        children = []
        try:
            for j, part in enumerate(parts, 1):
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
                        work(j, part)
                        part.flush()
                        os._exit(0)
                    except Exception as exc:
                        os.write(w, str(exc).encode())
                    finally:
                        os._exit(1)
                os.close(w)
                children.append((pid, r))
            work(0, None)
        finally:
            errors = [_reap(pid, r) for pid, r in children]
        for error in errors:
            if error:
                raise ValueError(error)
        for part in parts:
            part.seek(0)
        yield parts


def _front_problem(i, ip, lam: float):
    """Why class ids i, ip and lambda lam cannot start a feature row, or
    None."""
    if i >= 0 and ip >= 0 and 0.0 <= lam <= 1.0:
        return None
    for c in (i, ip):
        if c < 0:
            return f"class {c} is negative"
    return f"lambda {lam} is not in [0, 1]"


def _check_front(k: int, i, ip, lam: float) -> None:
    """Raise ValueError naming feature record k if its class ids i, ip and
    lambda lam have a _front_problem."""
    problem = _front_problem(i, ip, lam)
    if problem:
        raise ValueError(f"feature record {k}: {problem}")


def _refuse(bad, first: int, i, ip, lam) -> None:
    """_check_front of the first row k with bad[k], as feature record
    first + k, where row k has class ids i[k], ip[k] and lambda lam[k]."""
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        _check_front(first + k, int(i[k]), int(ip[k]), float(lam[k]))


def _refuse_h(h, rows, first: int) -> None:
    """Raise ValueError naming the first row of h that holds a value that
    is not finite, as feature record first + rows[k] for row k of h."""
    bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
    if bad.size:
        row = h[bad[0]]
        raise ValueError(
            f"feature record {first + rows[bad[0]]}: "
            f"value {row[~np.isfinite(row)][0]} is not finite"
        )


def _tag_tables(i, ip, amplified):
    """The CSV_FRONT text of a row before and after its lambda, "i,ip," and
    ",kind,flag,", for each (class_i, class_ip, amplified) of the lists,
    as two _floattext.padded tables."""
    before = [f"{a},{b},".encode() for a, b in zip(i, ip)]
    after = [
        f",{SAME_CLASS if a == b else DIFFERENT_CLASS},{int(f)},".encode()
        for a, b, f in zip(i, ip, amplified)
    ]
    return _floattext.padded(before), _floattext.padded(after)


def _columns(fronts):
    """The class_i, class_ip, lambda and amplified of (class_i, class_ip,
    lambda, amplified) tuples, as four arrays. A class id that is not an
    integer raises TypeError, a lambda that float() refuses its error."""
    i, ip, lam, amplified = zip(*fronts)
    count = len(fronts)
    i, ip = (np.fromiter(map(operator.index, c), np.int64, count) for c in (i, ip))
    lam = np.fromiter(map(float, lam), np.float64, count)
    return i, ip, lam, np.fromiter(amplified, bool, count)


def _heads(i, ip, lam, amplified) -> np.ndarray:
    """The CSV_FRONT text and ',' of each row, for arrays of its class ids,
    lambda and amplified flag, as rows of a uint8 array padded with zero
    bytes (the head of _floattext.rows_bytes). The text around lambda comes
    from a table of each (class_i, class_ip, amplified) that occurs."""
    (ids, code), (ids_p, code_p) = (np.unique(c, return_inverse=True) for c in (i, ip))
    key = (code.reshape(-1) * len(ids_p) + code_p.reshape(-1)) * 2 + amplified
    keys, key = np.unique(key, return_inverse=True)
    pairs, flags = np.divmod(keys, 2)
    before, after = _tag_tables(
        ids[pairs // len(ids_p)].tolist(), ids_p[pairs % len(ids_p)].tolist(), flags.tolist()
    )
    key = key.reshape(-1)
    return np.concatenate([before[key], _floattext.cells(lam[:, None]), after[key]], axis=1)


def _configuration_lines(config: Configuration):
    """lines(lo, hi), the bytes of the CSV rows of records lo, ..., hi - 1
    of config, a block (Configuration._blocks) at a time. The text around
    lambda comes from a table of the s^2 class pairs, each lambda is
    formatted once, and so is each class's same-class row, which every
    same-class record of a class whose row is finite takes. A block holds
    about _floattext.CHUNK floats that are formatted anew, which is more
    records than that many floats, since each float pass has a fixed
    cost."""
    s, classes = len(config.classes), np.array(config.classes, dtype=np.int64)
    a, b = np.repeat(classes, s), np.tile(classes, s)
    before, after = _tag_tables(a.tolist(), b.tolist(), (a != b) & (config.eps is not None))
    lams = np.array(config.lams, dtype=np.float64)
    lam_text = _floattext.cells(lams[:, None])
    same = config.same_coeff * config.rows[classes]
    same_text = _floattext.cells(same)
    # The same-class table row of each class pair: its class's, where the
    # pair is same-class and that row is finite; else -1, formatted anew.
    index = np.arange(s * s) // s
    take = np.where((a == b) & np.isfinite(same).all(axis=1)[index], index, -1)
    bad_pair, bad_lam = (a < 0) | (b < 0), ~((lams >= 0.0) & (lams <= 1.0))
    fresh_pairs = max(np.count_nonzero(take < 0), 1)
    step = _floattext.block_rows(config.rows.shape[1]) * s * s // fresh_pairs

    def lines(lo, hi):
        first = lo
        for t, pair, h in config._blocks(lo, hi, step):
            _refuse(bad_pair[pair] | bad_lam[t], first, a[pair], b[pair], lams[t])
            pick = take[pair]
            fresh = np.flatnonzero(pick < 0)
            _refuse_h(h[fresh] if fresh.size < len(pick) else h, fresh, first)
            head = np.concatenate([before[pair], lam_text[t], after[pair]], axis=1)
            yield _floattext.rows_bytes(head, h, same_text, pick)
            first += len(pick)

    return lines


def _pair_lines(fronts, h):
    """lines(lo, hi), the bytes of the CSV rows of records lo, ..., hi - 1
    of a (fronts, h) pair, a block of _floattext.block_rows rows at a time.
    The range's fronts become arrays, and their heads are made (_heads),
    at once; each block's fronts are checked before its h."""
    step = _floattext.block_rows(h.shape[1])

    def lines(lo, hi):
        try:
            i, ip, lam, amplified = _columns(fronts[lo:hi])
        except (TypeError, ValueError, OverflowError):
            # An earlier block's problem, else the conversion's error.
            for first in range(lo, hi, step):
                last = min(first + step, hi)
                for k, (c, c_p, v, _) in enumerate(fronts[first:last], first):
                    _check_front(k, c, c_p, float(v))
                _refuse_h(h[first:last], range(last - first), first)
            raise
        bad = (i < 0) | (ip < 0) | ~((lam >= 0.0) & (lam <= 1.0))
        head = _heads(i, ip, lam, amplified)
        for at in range(0, hi - lo, step):
            block, rows = slice(at, at + step), h[lo + at : min(lo + at + step, hi)]
            _refuse(bad[block], lo + at, i[block], ip[block], lam[block])
            _refuse_h(rows, range(len(rows)), lo + at)
            yield _floattext.rows_bytes(head[block], rows)

    return lines


def features_to_csv(rows, path) -> None:
    """Header class_i,class_ip,lambda,kind,amplified,h_0,...,h_{d-1}, then
    one row per record of rows: a Configuration, or a (fronts, h) pair of
    (class_i, class_ip, lambda, amplified) tuples and a len(fronts) x d
    array. The kind follows from the class pair. A negative class id, a
    lambda outside [0, 1] or an h value that is not finite raises
    ValueError naming its record, counted from 0; in each block the first
    two are looked for before the third.

    The records are cut into one contiguous range per process
    (_process_count), each written in blocks (Configuration._blocks, or
    slices of _floattext.block_rows rows of the pair), each block's rows
    as one buffer of bytes from _floattext.rows_bytes, in one write. Their
    heads are gathered from small tables: the text around lambda for each
    class pair and flag that occurs, and lambda's text, formatted once per
    lambda of a Configuration and once per range of a pair. Each
    same-class row of a Configuration is formatted once, before any fork,
    and a block of a Configuration holds about _floattext.CHUNK floats
    that are formatted anew (_configuration_lines). The first range is
    written to path, every other by a child of _forked to its binary
    part, in path's folder, and the parts are appended to path in
    order."""
    if isinstance(rows, Configuration):
        count, d = len(rows), rows.rows.shape[1]
        lines = _configuration_lines(rows)
    else:
        fronts, h = rows
        if np.ndim(h) != 2 or len(h) != len(fronts):
            n = len(fronts)
            raise ValueError(f"h has shape {np.shape(h)}, {n} fronts need shape ({n}, d)")
        if not fronts:
            raise ValueError("no records to write")
        count, d = h.shape
        lines = _pair_lines(fronts, h)

    n = _process_count(count * d)
    cuts = [count * j // n for j in range(n + 1)]
    folder = os.path.dirname(os.path.abspath(path))
    with open(path, "wb") as out:
        out.write(",".join(CSV_FRONT + [f"h_{j}" for j in range(d)]).encode() + b"\n")
        # Flushed before the fork, so that no child holds the header.
        out.flush()

        def write(j, part):
            (part or out).writelines(lines(cuts[j], cuts[j + 1]))

        with _forked(write, n, folder, "w+b") as parts:
            for part in parts:
                shutil.copyfileobj(part, out)


def _front(class_i: str, class_ip: str, lam: str, kind: str, flag: str) -> tuple:
    """(class_i, class_ip, lambda, amplified) of the CSV_FRONT fields of a
    feature row. An unknown kind, a flag other than 0/1, a field that does
    not parse, a _front_problem or a kind that does not follow from the
    class pair raises ValueError, in that order."""
    if kind not in (SAME_CLASS, DIFFERENT_CLASS):
        raise ValueError(f"unknown kind {kind!r}")
    if flag not in ("0", "1"):
        raise ValueError(f"amplified must be 0 or 1, got {flag!r}")
    i, ip, lam = int(class_i), int(class_ip), float(lam)
    problem = _front_problem(i, ip, lam)
    if problem:
        raise ValueError(problem)
    if (kind == SAME_CLASS) != (i == ip):
        raise ValueError(f"kind {kind} does not match classes {i} and {ip}")
    return i, ip, lam, flag == "1"


def _parse_row(raw: bytes, d: int, values) -> tuple:
    """The _front of one CSV row; its d h values are appended to the array
    values."""
    parts = raw.decode().split(",")
    if len(parts) - 5 != d:
        raise ValueError(f"{len(parts) - 5} h values, the header has {d}")
    front = _front(*parts[:5])
    h = list(map(float, parts[5:]))
    # A sum is finite unless some value is not, or the sum overflows.
    if not math.isfinite(sum(h)):
        _finite_floats(h)
    values.extend(h)
    return front


def _pieces(fh, lo: int, hi: int):
    """Bytes [lo, hi) of fh, from a line start, in pieces of whole lines of
    about _floattext.CHUNK * WINDOW bytes (and of at least one line), each
    parsed in one numpy pass: each a uint8 array of _floattext.WINDOW
    bytes and then its lines, the last ended by its newline unless it ends
    the range. One buffer is reused, so a piece holds until the next is
    asked for. A file that ends early ends the range."""
    pad = _floattext.WINDOW
    buf = bytearray(pad + _floattext.CHUNK * pad)
    fh.seek(lo)
    have, left = 0, hi - lo
    while have or left:
        room = len(buf) - pad - have
        if left and room:
            got = fh.readinto(memoryview(buf)[pad + have : pad + have + min(room, left)])
            have += got
            left = left - got if got else 0
        cut = have if not left else buf.rfind(b"\n", pad, pad + have) + 1 - pad
        if cut > 0:
            yield np.frombuffer(buf, dtype=np.uint8, count=pad + cut)
            buf[pad : pad + have - cut] = buf[pad + cut : pad + have]
            have -= cut
        elif not room:
            # A line longer than the buffer. A new buffer, since the last
            # piece may still be held.
            buf = buf + bytes(len(buf) - pad)


def _parse_piece(text, d: int):
    """(fronts, h) of the lines of a piece (see _pieces) as _parse_row reads
    them, when every line is in the layout features_to_csv writes: d + 5
    fields, each ended by ',' but the last by '\n'; front fields that
    _front takes; h values that are finite. None otherwise. The h values
    are read by _floattext.floats."""
    pad, k = _floattext.WINDOW, d + 5
    # Every byte below '-' is a separator in that layout.
    seps = np.flatnonzero(text[pad:] < ord("-"))
    if not seps.size or seps.size % k or text[-1] != ord("\n"):
        return None
    seps += pad
    bad = text[seps].reshape(-1, k) != ord(",")
    bad[:, -1] = text[seps[k - 1 :: k]] != ord("\n")
    if bad.any():
        return None
    ends = seps.reshape(-1, k)
    sizes = np.diff(seps, prepend=pad - 1).reshape(-1, k) - 1
    # Each row's front fields, from its start to the separator after them.
    raw = text.tobytes()
    starts, stops = [pad, *(ends[:-1, -1] + 1).tolist()], ends[:, 4].tolist()
    try:
        fronts = [_front(*raw[a:b].decode().split(",")) for a, b in zip(starts, stops)]
        h = _floattext.floats(text, ends[:, 5:].ravel(), sizes[:, 5:].ravel())
    except ValueError:
        return None
    if not np.isfinite(h).all():
        return None
    return fronts, h.reshape(len(fronts), d)


def _read_blocks(path, lo: int, hi: int, d: int, put) -> None:
    """put(fronts, h) for each piece (_pieces) of the lines that start in
    bytes [lo, hi) of path that holds a row: the _front tuple of each row
    and its h values as a rows x d array, in file order. A piece is
    parsed by _parse_piece or, where it breaks the writer's layout, line
    by line by _parse_row, so that a malformed row raises _parse_rows'
    path:line error. Lines are numbered as in the whole file."""
    with open(path, "rb") as fh:
        line = 1
        for at in range(0, lo, 1 << 16):
            line += fh.read(min(lo - at, 1 << 16)).count(b"\n")
        for text in _pieces(fh, lo, hi):
            piece = _parse_piece(text, d)
            if piece is None:
                lines = text[_floattext.WINDOW :].tobytes().split(b"\n")
                values = array.array("d")
                new = _parse_rows(
                    lines, path, "feature", lambda raw: _parse_row(raw, d, values), line
                )
                piece = new, np.frombuffer(values, dtype=float).reshape(len(new), d)
                line += len(lines) - 1
            else:
                line += len(piece[0])
            if piece[0]:
                put(*piece)


def features_from_csv(path, each) -> None:
    """Read features_to_csv output. A header other than
    class_i,class_ip,lambda,kind,amplified,h_0,...,h_{d-1} raises
    ValueError naming path:1. A row that does not match the header raises
    ValueError naming path:line: a count of h values other than the
    header's, an unknown kind, a kind that does not follow from the class
    pair, an amplified flag other than 0/1, a negative class id, a lambda
    outside [0, 1] or an h value that is not finite.

    The rows are cut at line starts into one contiguous byte range per
    process (_process_count, estimated from the first row's length), and
    each range is read in pieces of about _floattext.CHUNK * WINDOW bytes
    of text (_read_blocks). Every range but the first is parsed by a child
    of _forked, which writes each piece to its part (in the temporary
    directory): its fronts pickled, then its h values as raw doubles. The
    parts are read back piece by piece once every child has ended.

    each(fronts, h) is called for every piece in file order, with the
    _front tuple of each row and their h as a rows x d array, every row
    once and no piece empty; no step holds every row.
    """
    with open(path, "rb") as fh:
        header = _utf8(fh.readline(), path, 1).strip().split(",")
        d = len(header) - 5
        if header != CSV_FRONT + [f"h_{j}" for j in range(d)]:
            raise _bad_header(path, "feature", ",".join(CSV_FRONT) + ",h_0,...")
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

    def read(j, part):
        def put(fronts, h):
            pickle.dump(fronts, part)
            part.write(h)

        _read_blocks(path, cuts[j], cuts[j + 1], d, put if part else each)

    with _forked(read, n, None, "w+b") as parts:
        for part in parts:
            while part.peek(1):
                fronts = pickle.load(part)
                h = np.empty((len(fronts), d))
                part.readinto(h)
                each(fronts, h)
