"""Fixed-point solvers behind the closed-form optimal features.

Every solver takes its parameters (C, m2, lh and, for the
different-class equations, the mixing coefficient lam) as numpy arrays
that broadcast together, so a whole grid of parameter cells and mixing
coefficients is one solve. All equations go through one bracketed root
finder, Chandrupatla's (1997) hybrid of inverse quadratic interpolation
and bisection, run elementwise: each element iterates and stops on its
own, so a value solved alone gives bit-for-bit the result it gets
inside a batch.

``m2`` always denotes the squared classifier multiplier and ``lh`` the
feature-decay coefficient. The tail inner product k < 0 is solved in
u = log(-k), which keeps its relative precision however close to 0 the
root lies.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_MAX_EXPAND = 60
_MAX_ITER = 200
# Search range of u = log(-k); exp(u) and (C - 2) * exp(u) stay finite.
_U_LIMITS = (-700.0, 50.0)
_X_LIMITS = (-1e18, 1e18)


class KernelSolveError(RuntimeError):
    """Raised when a root find cannot bracket or converge."""


def _find_root(f, lo, hi, limits, what, args=()):
    """Elementwise root of f(x, *args), increasing in x, on arrays.

    lo, hi and ``args`` broadcast together; the roots come back in the
    broadcast shape. [lo, hi] is moved outwards, doubling its width on
    the side of the root, until f changes sign, never beyond ``limits``;
    Chandrupatla's method then narrows it to a few ulps. ``what(j)``
    names the equation and the parameters of flat element j in errors.
    """
    lo, hi, *args = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), *args
    )
    shape = lo.shape
    lo, hi, *args = (np.ravel(v) for v in (lo, hi, *args))
    flo, fhi = f(lo, *args), f(hi, *args)
    for _ in range(_MAX_EXPAND):
        below = flo > 0.0  # the root lies below lo
        above = fhi < 0.0  # the root lies above hi
        if not (below.any() or above.any()):
            break
        stuck = (below & (lo <= limits[0])) | (above & (hi >= limits[1]))
        if stuck.any():
            j = np.flatnonzero(stuck)[0]
            raise KernelSolveError(f"{what(j)}: no sign change in {list(limits)}")
        width = hi - lo
        probe = np.where(
            below,
            np.maximum(lo - 2.0 * width, limits[0]),
            np.minimum(hi + 2.0 * width, limits[1]),
        )
        fprobe = f(probe, *args)
        lo, hi, flo, fhi = (
            np.where(below, probe, np.where(above, hi, lo)),
            np.where(below, lo, np.where(above, probe, hi)),
            np.where(below, fprobe, np.where(above, fhi, flo)),
            np.where(below, flo, np.where(above, fprobe, fhi)),
        )
    else:
        j = np.flatnonzero((flo > 0.0) | (fhi < 0.0))[0]
        raise KernelSolveError(f"{what(j)}: bracket expansion failed")

    # Chandrupatla: a is the newest point, [a, b] brackets the root and
    # c is the point dropped last.
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)
    live = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
    args = [v[live] for v in args]
    t = np.full(live.size, 0.5)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            return root.reshape(shape)
        xt = a + t * (b - a)
        ft = f(xt, *args)
        same = np.signbit(ft) == np.signbit(fa)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = xt, ft
        a_best = np.abs(fa) < np.abs(fb)
        xm = np.where(a_best, a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = 2.0 * _EPS * (np.abs(xm) + 1.0) / np.abs(b - a)
            stop = (tl > 0.5) | (np.where(a_best, fa, fb) == 0.0)
            root[live[stop]] = xm[stop]
            keep = ~stop
            live = live[keep]
            a, b, c, fa, fb, fc, tl = (v[keep] for v in (a, b, c, fa, fb, fc, tl))
            args = [v[keep] for v in args]
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            interpolate = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(
                interpolate,
                fa / (fb - fa) * fc / (fb - fc)
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb),
                0.5,
            )
        t = np.clip(t, tl, 1.0 - tl)
    raise KernelSolveError(f"{what(live[0])}: no convergence in {_MAX_ITER} iterations")


def _naming(equation: str, **params):
    """``what`` for _find_root: the equation and the values of ``params``
    (arrays that broadcast to the solve's shape) at flat element j."""

    def what(j):
        arrays = np.broadcast_arrays(*(np.asarray(v) for v in params.values()))
        values = ", ".join(f"{k}={v.flat[j].item()!r}" for k, v in zip(params, arrays))
        return f"{equation} ({values})"

    return what


# math.log of every element, -inf where it has none. np.log differs from
# math.log in the last bit on a few inputs, and the roots would follow it;
# callers take it once per parameter cell, before the cells are broadcast
# against the lambdas.
_math_log = np.vectorize(lambda v: math.log(v) if v > 0.0 else -math.inf, otypes=[float])


def same_class_equation(k, C: int, m2: float, lh: float):
    """Log-form residual of the same-class scalar equation at k < 0.

    The raw equation equates exp(-C*k) with C*m2/((1-C)*lh*k) + 1 - C.
    exp(-C*k) overflows for modestly negative k at large C, so the
    residual is evaluated as -C*k - log(rhs). When rhs <= 0 the raw
    residual is certainly positive and +inf is returned; so it is when
    rhs overflows. The residual is strictly decreasing in k. Works on
    floats and arrays.
    """
    with np.errstate(divide="ignore", over="ignore"):
        rhs = C * m2 / ((1.0 - C) * lh * k) + 1.0 - C
        return -C * k - np.log(np.maximum(rhs, 0.0))


def solve_same_class_k(C, m2, lh):
    """The unique root K < 0 of the same-class equation, for C, m2 and lh
    broadcast together; an array of their broadcast shape."""
    u = _find_root(
        lambda u, C, m2, lh: same_class_equation(-np.exp(u), C, m2, lh),
        -1.0,
        1.0,
        _U_LIMITS,
        _naming("same-class equation", C=C, m2=m2, lh=lh),
        [C, m2, lh],
    )
    return -np.exp(u)


def _inner(r):
    """Root t of t + exp(t) = r, elementwise (the Lambert W function,
    t = log W(exp(r))). Substituting each bracket end into t + exp(t) - r
    shows its sign."""
    big = r > 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(big, np.log(0.5 * r), r - 1.0)
        hi = np.where(big, np.log(r), r)
    return _find_root(
        lambda t, r: t + np.exp(t) - r, lo, hi, _X_LIMITS, _naming("inner solve", r=r), [r]
    )


def _diff_state(u, lam, c2, neg_beta, log_neg_beta, log_c2):
    """Outer residual and inner product x = <w_i, h> at k = -exp(u).

    With beta = (1-C)*lh/(C*m2), the tail identity fixes the partition
    sum S through log(S) = k - log(beta*k). The inner product solves
    x = log(S) + log(lam + beta*x); putting lam + beta*x = -beta*exp(t)
    turns it into t + exp(t) = lam/(-beta) - k + u, and then
    x = k - u + t. The residual is log((C-2)*exp(k) + exp(x) + exp(x_ip))
    minus log(S), with x_ip = -(C-2)*k - x; it increases with u. The
    cell constants are c2 = C - 2, -beta and their logs.
    """
    k = -np.exp(u)
    log_s = k - log_neg_beta - u
    x = k - u + _inner(lam / neg_beta - k + u)
    x_ip = -c2 * k - x
    tail = k + log_c2
    top = np.maximum(np.maximum(tail, x), x_ip)
    lse = top + np.log(np.exp(tail - top) + np.exp(x - top) + np.exp(x_ip - top))
    return lse - log_s, x


def solve_diff_k(C, m2, lh, lams):
    """Different-class fixed points for 0 < lam < 1 and C >= 3, with C,
    m2, lh and lams broadcast together: give the parameters of many
    cells as a column to solve every cell at every lam in one call.

    Returns arrays (k_lambda, inner_i) of the broadcast shape.
    """
    what = _naming("different-class fixed point", C=C, m2=m2, lh=lh, lam=lams)
    C, m2, lh, lams = (np.asarray(v, dtype=float) for v in (C, m2, lh, lams))
    c2 = C - 2.0
    with np.errstate(over="ignore"):
        neg_beta = (C - 1.0) * lh / (C * m2)
    cell = [c2, neg_beta, _math_log(neg_beta), _math_log(c2)]
    bad = ~(np.isfinite(cell[2]) & np.isfinite(cell[3]))
    if bad.any():
        j = np.flatnonzero(np.broadcast_to(bad, np.broadcast_shapes(bad.shape, lams.shape)))[0]
        raise KernelSolveError(f"{what(j)}: log(-beta) or log(C - 2) is not finite")
    u = _find_root(
        lambda u, lam, *cell: _diff_state(u, lam, *cell)[0],
        -1.0,
        1.0,
        _U_LIMITS,
        what,
        [lams, *cell],
    )
    k, x = -np.exp(u), _diff_state(u, lams, *cell)[1]
    # x = k - u + t keeps few digits where x is small beside u. One Newton
    # step on x - k for x + exp(x - k + u) = lam/(-beta), which holds no
    # u, restores them; x - k + u is t to rounding, so exp stays finite.
    e = np.exp(x - k + u)
    return k, x - (x + e - lams / neg_beta) / (1.0 + e)


def solve_two_class_inner(m2, lh, lams):
    """Two-class different-class case: inner products are +/-x, with x
    solving sigmoid(2x) - lam + lh*x/(2*m2) = 0, increasing in x.
    m2, lh and lams broadcast together; one x per element."""

    def g(x, lam, m2, lh):
        return np.exp(-np.logaddexp(0.0, -2.0 * x)) - lam + lh * x / (2.0 * m2)

    return _find_root(
        g,
        -1.0,
        1.0,
        _X_LIMITS,
        _naming("two-class equation", m2=m2, lh=lh, lam=lams),
        [np.asarray(v, dtype=float) for v in (lams, m2, lh)],
    )
