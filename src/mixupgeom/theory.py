"""Closed-form optimal last-layer features for the mixup objective.

Solves the scalar fixed-point equations behind the two solution
families (same-class features on the classifier ray, different-class
features in the span of the two mixed classifier rows), assembles
feature vectors against a concrete simplex ETF, and applies the
channel amplification used for the perturbed configuration.
"""

from __future__ import annotations

import array
import collections.abc
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

SAME_CLASS = "same_class"
DIFFERENT_CLASS = "different_class"


@dataclass(frozen=True)
class TheoryParams:
    """One parameter cell of the closed form. The domain: C >= 2 classes
    (tested up to 2000); a multiplier m that is finite and nonzero with
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


# The rows of a Configuration are made in blocks of about this many
# floats (512 KB), so that no step holds every row; the writer takes them
# in smaller blocks of _floattext.CHUNK floats.
_BLOCK_FLOATS = 1 << 16


class Configuration(collections.abc.Sequence):
    """The records of generate_configuration, held as the theorem gives
    them: the ETF rows and a few coefficients per lambda, never as an
    n x d matrix. Record k is lambda t = k // s^2 and the classes
    a = classes[k // s % s], b = classes[k % s] of an s-class subset.

    A record's h is made when it is asked for, with the arithmetic of
    assemble_feature and amplify: coeff_i[t] * w_a, then += coeff_ip[t] *
    w_b, then += eps[t] * (w_a + w_b) when amplified. Each class's
    same-class row, same_coeff * w_a, is made once; its records share it
    read-only.
    """

    def __init__(self, rows, classes, lams, same_coeff, coeff_i, coeff_ip, eps=None):
        self.rows, self.classes, self.lams = rows, classes, lams
        self.same_coeff, self.coeff_i, self.coeff_ip, self.eps = same_coeff, coeff_i, coeff_ip, eps
        self.same_rows = {a: same_coeff * rows[a] for a in classes}
        for h in self.same_rows.values():
            h.flags.writeable = False

    def __len__(self):
        return len(self.lams) * len(self.classes) ** 2

    def __getitem__(self, k):
        if isinstance(k, slice):
            start, stop, step = k.indices(len(self))
            if step == 1:
                return list(self.records(start, stop))
            return [self[j] for j in range(start, stop, step)]
        k = operator.index(k)
        if not -len(self) <= k < len(self):
            raise IndexError("configuration index out of range")
        k %= len(self)
        return next(self.records(k, k + 1))

    def __iter__(self):
        return self.records()

    def records(self, lo=0, hi=None):
        """The records lo, ..., hi - 1, whose rows are made a block of
        about _BLOCK_FLOATS floats at a time."""
        hi = len(self) if hi is None else hi
        s, classes = len(self.classes), np.array(self.classes)
        step = max(1, _BLOCK_FLOATS // max(self.rows.shape[1], 1))
        for first in range(lo, hi, step):
            k = np.arange(first, min(first + step, hi))
            t, a, b = k // (s * s), classes[k // s % s], classes[k % s]
            h = self.coeff_i[t, None] * self.rows[a]
            h += self.coeff_ip[t, None] * self.rows[b]
            if self.eps is not None:
                h += self.eps[t, None] * (self.rows[a] + self.rows[b])
            for j, i, ip, row in zip(t.tolist(), a.tolist(), b.tolist(), h):
                if i == ip:
                    yield FeatureRecord(i, ip, self.lams[j], self.same_rows[i])
                else:
                    yield FeatureRecord(i, ip, self.lams[j], row, self.eps is not None)


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
# also copies every page it writes. The sizes were set when the writer
# formatted each float with repr and the reader parsed each with float():
# then, writing a file and reading it back in two processes against one
# (medians of 7-15 runs on a 2-vCPU guest that shared its CPUs with other
# load) took 18-19% more wall time at 90 000 floats, 21-36% less at
# 250 000 and 37-44% less at 500 000 and 1 000 000. With the numpy
# formatter and reader of _floattext, a theory-wide pass (1 000 000
# floats written and read back; 20 s e2ebench runs at seed 0 on the same
# kind of guest) took 0.37-0.40 s with the fork (10 runs), and 3 runs
# each took 0.60-0.62 s with FLOOR raised so that no second process
# starts, 0.47-0.48 s with only the reader in one process, 0.49-0.54 s
# with only the writer in one and 0.76-0.82 s with threads in place of
# os.fork. Sizes below 1 000 000 floats were not measured again.
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
    The writer's children format with _floattext.rows_text, whose numpy
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


def _tags(r) -> str:
    """The CSV_FRONT columns of record r, as every feature and points CSV
    writes them."""
    return f"{r.class_i},{r.class_ip},{float(r.lam)!r},{r.kind},{int(r.amplified)}"


def _front_problem(i, ip, lam: float):
    """Why class ids i, ip and lambda lam cannot start a feature row, or
    None."""
    for c in (i, ip):
        if c < 0:
            return f"class {c} is negative"
    if not 0.0 <= lam <= 1.0:
        return f"lambda {lam} is not in [0, 1]"
    return None


def _write_rows(records, lo: int, hi: int, fh, same_texts, d: int) -> None:
    """The CSV lines of records[lo:hi], of d h values each. Records are
    sliced, and their h formatted, about _floattext.CHUNK floats at a
    time. A same-class record of a class in same_texts is written with
    that text. A negative class id, a lambda outside [0, 1] or an h value
    that is not finite raises ValueError naming its record."""
    step = max(1, _floattext.CHUNK // max(d, 1))
    for first in range(lo, hi, step):
        batch = records[first : min(first + step, hi)]
        for k, r in enumerate(batch, first):
            lam = float(r.lam)
            if not (0.0 <= lam <= 1.0 and r.class_i >= 0 and r.class_ip >= 0):
                problem = _front_problem(r.class_i, r.class_ip, lam)
                raise ValueError(f"feature record {k}: {problem}")
        texts = [same_texts.get(r.class_i) if r.class_i == r.class_ip else None for r in batch]
        new = [k for k, text in enumerate(texts) if text is None]
        h = np.array([batch[k].h for k in new], dtype=float).reshape(len(new), d)
        bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
        if bad.size:
            row = h[bad[0]]
            raise ValueError(
                f"feature record {first + new[bad[0]]}: "
                f"value {row[~np.isfinite(row)][0]} is not finite"
            )
        for k, text in zip(new, _floattext.rows_text(h)):
            texts[k] = text
        fh.write("".join(f"{_tags(r)},{text}\n" for r, text in zip(batch, texts)))


def features_to_csv(records, path) -> None:
    """Header class_i,class_ip,lambda,kind,amplified,h_0,...,h_{d-1}, then
    one row per record; the kind follows from the class pair. An h value
    that is not finite raises ValueError naming its record, counted from
    0. The records are cut into one contiguous block per process
    (_process_count). The first block is written to path, every other by
    a child of _forked to its part, in path's folder, and the parts are
    appended to path in order.

    A Configuration is written from its coefficients: each process makes
    the rows of its own block as _write_rows slices them, and each
    class's same-class row is formatted once, before any fork."""
    if isinstance(records, Configuration):
        d, same = records.rows.shape[1], records.same_rows
        texts = _floattext.rows_text(np.array(list(same.values())))
        # A row that is not finite is left to _write_rows, which names it.
        same_texts = {a: t for a, t in zip(same, texts) if np.isfinite(same[a]).all()}
    else:
        records, same_texts = list(records), {}
        if not records:
            raise ValueError("no records to write")
        d = len(records[0].h)
        for r in records:
            if np.shape(r.h) != (d,):
                raise ValueError(f"feature has shape {np.shape(r.h)}, the file has {d} values")
    n = _process_count(len(records) * d)
    cuts = [len(records) * j // n for j in range(n + 1)]
    folder = os.path.dirname(os.path.abspath(path))
    with open(path, "w") as out:
        out.write(",".join(CSV_FRONT + [f"h_{j}" for j in range(d)]) + "\n")
        # Flushed before the fork, so that no child holds the header.
        out.flush()

        def write(j, part):
            _write_rows(records, cuts[j], cuts[j + 1], part or out, same_texts, d)

        with _forked(write, n, folder, "w+") as parts:
            for part in parts:
                shutil.copyfileobj(part, out)


def _parse_row(raw: bytes, d: int, values) -> tuple:
    """(class_i, class_ip, lambda, amplified) of one CSV row; its d h
    values are appended to the array values."""
    parts = raw.decode().split(",")
    if len(parts) - 5 != d:
        raise ValueError(f"{len(parts) - 5} h values, the header has {d}")
    kind, flag = parts[3], parts[4]
    if kind not in (SAME_CLASS, DIFFERENT_CLASS):
        raise ValueError(f"unknown kind {kind!r}")
    if flag not in ("0", "1"):
        raise ValueError(f"amplified must be 0 or 1, got {flag!r}")
    front = (int(parts[0]), int(parts[1]), float(parts[2]), flag == "1")
    problem = _front_problem(*front[:3])
    if problem:
        raise ValueError(problem)
    if (kind == SAME_CLASS) != (front[0] == front[1]):
        raise ValueError(f"kind {kind} does not match classes {front[0]} and {front[1]}")
    h = list(map(float, parts[5:]))
    # A sum is finite unless some value is not, or the sum overflows.
    if not math.isfinite(sum(h)):
        _finite_floats(h)
    values.extend(h)
    return front


# The reader takes a byte range's text in pieces of about this many bytes
# (and of at least one line), each parsed in one numpy pass.
_PIECE_BYTES = 96 << 10


def _pieces(fh, lo: int, hi: int):
    """Bytes [lo, hi) of fh, from a line start, in pieces of whole lines of
    about _PIECE_BYTES: each a uint8 array of _floattext.WINDOW bytes and
    then its lines, the last ended by its newline unless it ends the
    range. One buffer is reused, so a piece holds until the next is asked
    for. A file that ends early ends the range."""
    pad = _floattext.WINDOW
    buf = bytearray(pad + _PIECE_BYTES)
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


def _fields_are(text, ends, sizes, word: str):
    """Where the field text[e - s : e] is word."""
    want = np.frombuffer(word.encode(), dtype=np.uint8)
    got = text[ends[:, None] - want.size + np.arange(want.size)]
    return (sizes == want.size) & (got == want).all(axis=1)


def _parse_piece(text, d: int):
    """(fronts, h) of the lines of a piece (see _pieces) as _parse_row reads
    them, when every line is in the layout features_to_csv writes: d + 5
    fields, each ended by ',' but the last by '\n'; class ids of 1 to 8
    ASCII digits; a kind that follows from them; a flag 0 or 1; a lambda
    in [0, 1] and h values that are finite. None otherwise. The floats are
    read by _floattext.floats."""
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
    rows = len(ends)
    classes, ok = _floattext.naturals(text, ends[:, :2].ravel(), sizes[:, :2].ravel())
    i, ip = classes.reshape(-1, 2).T
    same = _fields_are(text, ends[:, 3], sizes[:, 3], SAME_CLASS)
    flag = text[ends[:, 4] - 1]
    if not (
        ok.all()
        and (same == (i == ip)).all()
        and (same | _fields_are(text, ends[:, 3], sizes[:, 3], DIFFERENT_CLASS)).all()
        and (sizes[:, 4] == 1).all()
        and ((flag == ord("0")) | (flag == ord("1"))).all()
    ):
        return None
    # Lambda and the h values, in one call.
    cols = np.arange(4, k)
    cols[0] = 2
    ends, sizes = ends[:, cols].ravel(), sizes[:, cols].ravel()
    del seps
    try:
        floats = _floattext.floats(text, ends, sizes)
    except ValueError:
        return None
    floats = floats.reshape(rows, d + 1)
    lam, h = floats[:, 0], floats[:, 1:]
    if not (((lam >= 0.0) & (lam <= 1.0)).all() and np.isfinite(h).all()):
        return None
    fronts = list(zip(i.tolist(), ip.tolist(), lam.tolist(), (flag == ord("1")).tolist()))
    return fronts, h


def _read_blocks(path, lo: int, hi: int, d: int, put) -> None:
    """put(fronts, h) for each piece (_pieces) of the lines that start in
    bytes [lo, hi) of path that holds a row: the _parse_row tuple of each
    row and its h values as a rows x d array, in file order. A piece is
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


def features_from_csv(path, each=None) -> list[FeatureRecord]:
    """Read features_to_csv output. A row that does not match the header
    raises ValueError naming path:line: a count of h values other than
    the header's, an unknown kind, a kind that does not follow from the
    class pair, an amplified flag other than 0/1, a negative class id, a
    lambda outside [0, 1] or an h value that is not finite.

    The rows are cut at line starts into one contiguous byte range per
    process (_process_count, estimated from the first row's length), and
    each range is read and handed on in pieces of about _PIECE_BYTES of
    text (_read_blocks). A piece in the layout the writer makes is parsed
    in numpy, its floats by _floattext.floats, bit for bit as float()
    reads them; any other piece line by line, as the records and errors
    were always read. Every range but the first is parsed by a child of
    _forked, which writes each piece to its part (in the temporary
    directory): the piece's tags pickled, then its h values as raw
    doubles. The parts are read back piece by piece once every child has
    ended.

    Without each, the records are returned with their h. With each, the
    records of every piece are passed to each(block) in file order, every
    row once and no block empty, and the records returned carry no h (h is
    None): no step holds every row.
    """
    with open(path, "rb") as fh:
        header = _utf8(fh.readline(), path, 1).strip().split(",")
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
    records = []

    def take(fronts, h):
        block = [
            FeatureRecord(i, ip, lam, row, amplified)
            for (i, ip, lam, amplified), row in zip(fronts, h)
        ]
        if each is None:
            records.extend(block)
            return
        each(block)
        records.extend(FeatureRecord(i, ip, lam, None, amp) for i, ip, lam, amp in fronts)

    def read(j, part):
        def put(fronts, h):
            pickle.dump(fronts, part)
            # _parse_piece's h is a column slice; write takes only
            # contiguous buffers.
            part.write(np.ascontiguousarray(h))

        _read_blocks(path, cuts[j], cuts[j + 1], d, put if part else take)

    with _forked(read, n, None, "w+b") as parts:
        for part in parts:
            while part.peek(1):
                fronts = pickle.load(part)
                h = np.empty((len(fronts), d))
                part.readinto(h)
                take(fronts, h)
    return records
