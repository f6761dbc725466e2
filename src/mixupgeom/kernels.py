"""Fixed-point solvers behind the closed-form optimal features.

The different-class solvers take every mixing coefficient of a
configuration as one numpy array, and the same-class solve is a
one-element array. All equations go through one bracketed root finder,
Chandrupatla's (1997) hybrid of inverse quadratic interpolation and
bisection, run elementwise: each element iterates and stops on its own,
so a value solved alone gives bit-for-bit the result it gets inside a
batch.

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

    [lo, hi] is moved outwards, doubling its width on the side of the
    root, until f changes sign, never beyond ``limits``; Chandrupatla's
    method then narrows it to a few ulps. ``args`` are arrays with one
    entry per element. ``what`` names the equation and its parameters in
    errors. Returns the roots as an array.
    """
    lo, hi, *args = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), *args
    )
    lo, hi = lo.copy(), hi.copy()
    flo, fhi = f(lo, *args), f(hi, *args)
    for _ in range(_MAX_EXPAND):
        below = flo > 0.0  # the root lies below lo
        above = fhi < 0.0  # the root lies above hi
        if not (below.any() or above.any()):
            break
        if np.any(below & (lo <= limits[0])) or np.any(above & (hi >= limits[1])):
            raise KernelSolveError(f"{what}: no sign change in {list(limits)}")
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
        raise KernelSolveError(f"{what}: bracket expansion failed")

    # Chandrupatla: a is the newest point, [a, b] brackets the root and
    # c is the point dropped last.
    root = np.where(np.abs(flo) < np.abs(fhi), lo, hi)
    live = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
    args = [v[live] for v in args]
    t = np.full(live.size, 0.5)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            return root
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
    raise KernelSolveError(f"{what}: no convergence in {_MAX_ITER} iterations")


def same_class_equation(k, C: int, m2: float, lh: float):
    """Log-form residual of the same-class scalar equation at k < 0.

    The raw equation equates exp(-C*k) with C*m2/((1-C)*lh*k) + 1 - C.
    exp(-C*k) overflows for modestly negative k at large C, so the
    residual is evaluated as -C*k - log(rhs). When rhs <= 0 the raw
    residual is certainly positive and +inf is returned. The residual is
    strictly decreasing in k. Works on floats and arrays.
    """
    rhs = C * m2 / ((1.0 - C) * lh * k) + 1.0 - C
    with np.errstate(divide="ignore"):
        return -C * k - np.log(np.maximum(rhs, 0.0))


def solve_same_class_k(C: int, m2: float, lh: float) -> float:
    """The unique root K < 0 of the same-class equation."""
    u = _find_root(
        lambda u: same_class_equation(-np.exp(u), C, m2, lh),
        np.array([-1.0]),
        np.array([1.0]),
        _U_LIMITS,
        f"same-class equation (C={C}, m2={m2}, lh={lh})",
    )
    return float(-np.exp(u[0]))


def _inner(r):
    """Root t of t + exp(t) = r, elementwise (the Lambert W function,
    t = log W(exp(r))). Substituting each bracket end into t + exp(t) - r
    shows its sign."""
    big = r > 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(big, np.log(0.5 * r), r - 1.0)
        hi = np.where(big, np.log(r), r)
    return _find_root(
        lambda t, r: t + np.exp(t) - r, lo, hi, _X_LIMITS, "inner solve", [r]
    )


def _diff_state(u, C, m2, lh, lam):
    """Outer residual and inner product x = <w_i, h> at k = -exp(u).

    With beta = (1-C)*lh/(C*m2), the tail identity fixes the partition
    sum S through log(S) = k - log(beta*k). The inner product solves
    x = log(S) + log(lam + beta*x); putting lam + beta*x = -beta*exp(t)
    turns it into t + exp(t) = lam/(-beta) - k + u, and then
    x = k - u + t. The residual is log((C-2)*exp(k) + exp(x) + exp(x_ip))
    minus log(S), with x_ip = -(C-2)*k - x; it increases with u.
    """
    k = -np.exp(u)
    neg_beta = (C - 1.0) * lh / (C * m2)
    log_s = k - math.log(neg_beta) - u
    x = k - u + _inner(lam / neg_beta - k + u)
    x_ip = -(C - 2.0) * k - x
    tail = k + math.log(C - 2.0)
    top = np.maximum(np.maximum(tail, x), x_ip)
    lse = top + np.log(np.exp(tail - top) + np.exp(x - top) + np.exp(x_ip - top))
    return lse - log_s, x


def solve_diff_k(C: int, m2: float, lh: float, lams):
    """Different-class fixed points for an array of 0 < lam < 1, C >= 3.

    Returns arrays (k_lambda, inner_i), one entry per lam.
    """
    lams = np.asarray(lams, dtype=float)
    u = _find_root(
        lambda u, lam: _diff_state(u, C, m2, lh, lam)[0],
        -1.0,
        1.0,
        _U_LIMITS,
        f"different-class fixed point (C={C}, m2={m2}, lh={lh})",
        [lams],
    )
    return -np.exp(u), _diff_state(u, C, m2, lh, lams)[1]


def solve_two_class_inner(m2: float, lh: float, lams):
    """Two-class different-class case: inner products are +/-x, with x
    solving sigmoid(2x) - lam + lh*x/(2*m2) = 0, increasing in x.
    Returns one x per entry of ``lams``."""

    def g(x, lam):
        return np.exp(-np.logaddexp(0.0, -2.0 * x)) - lam + lh * x / (2.0 * m2)

    return _find_root(
        g,
        -1.0,
        1.0,
        _X_LIMITS,
        f"two-class equation (m2={m2}, lh={lh})",
        [np.asarray(lams, dtype=float)],
    )
