"""The array solver against a plain-float reference, and over its stated
domain: C in [3, 1000], m in [0.05, 100], lambda_h in [1e-10, 10] and
lambda in (0, 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixupgeom import kernels
from mixupgeom.theory import TheoryParams, solve_different_classes


def _bisect(f, lo, hi):
    """Root of an increasing f with f(lo) <= 0 <= f(hi), to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def outer_residual(k, C, m2, lh, lam):
    """Log-form different-class outer residual at k < 0, straight from the
    defining equations: log S minus the log of the partition sum
    (C-2)*exp(k) + exp(x) + exp(x_ip). Here S = exp(k)/p_tail with
    p_tail = beta*k, x solves x = log S + log(lam + beta*x), and
    x_ip = -(C-2)*k - x."""
    beta = (1.0 - C) * lh / (C * m2)
    log_s = k - math.log(beta * k)

    def phi(x):
        p = lam + beta * x
        return math.inf if p <= 0.0 else x - log_s - math.log(p)

    x = _bisect(phi, min(0.0, log_s + math.log(lam)) - 1.0, -lam / beta)
    terms = (k + math.log(C - 2.0), x, -(C - 2.0) * k - x)
    top = max(terms)
    return log_s - top - math.log(sum(math.exp(v - top) for v in terms))


def reference_k(C, m2, lh, lam):
    """Bisection of outer_residual in u = log(-k)."""
    u = _bisect(lambda u: -outer_residual(-math.exp(u), C, m2, lh, lam), -60.0, 10.0)
    return -math.exp(u)


# The acceptance stationarity grid, plus the corner whose root lies
# closest to 0.
REFERENCE_GRID = [
    (C, m, lh) for C in (3, 5, 10) for m in (1.0, 3.0) for lh in (1e-6, 1e-2)
] + [(1000, 0.05, 10.0)]
INTERIOR_LAMBDAS = [round(0.1 * j, 1) for j in range(1, 10)]


@pytest.mark.parametrize("C, m, lh", REFERENCE_GRID)
def test_solver_matches_reference_bisection(C, m, lh):
    ks, _ = kernels.solve_diff_k(C, m * m, lh, INTERIOR_LAMBDAS)
    for lam, k in zip(INTERIOR_LAMBDAS, ks.tolist()):
        ref = reference_k(C, m * m, lh, lam)
        assert abs(k - ref) <= 1e-12 * abs(ref), (lam, k, ref)


classes = st.integers(3, 1000)
multipliers = st.floats(math.log(0.05), math.log(100.0)).map(math.exp)
decays = st.floats(-10.0, 1.0).map(lambda e: 10.0**e)
lambdas = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=25, deadline=None)
@given(C=classes, m=multipliers, lh=decays, lam=lambdas)
def test_solution_over_the_domain(C, m, lh, lam):
    (sol,) = solve_different_classes(TheoryParams(C=C, m=m, lambda_h=lh, d=C), [lam])
    assert abs(outer_residual(sol.k_lambda, C, m * m, lh, lam)) <= 1e-12
    assert 0.0 < sol.p_i < 1.0 and 0.0 < sol.p_ip < 1.0


@settings(max_examples=10, deadline=None)
@given(C=classes, m=multipliers, lh=decays, lam=lambdas)
def test_outer_residual_rises_in_k(C, m, lh, lam):
    # 400 points from k = -600/(C-2) up to k = -1e-14, evenly in log(-k).
    # Where lh is small the residual can sit on a plateau (near log 2 at
    # lam = 0.5) that is flat to rounding, so falls of rounding size pass.
    hi, lo = math.log(600.0 / (C - 2)), math.log(1e-14)
    ks = [-math.exp(hi + (lo - hi) * j / 399) for j in range(400)]
    f = [outer_residual(k, C, m * m, lh, lam) for k in ks]
    assert all(b >= a - 1e-12 for a, b in zip(f, f[1:]))
    assert f[-1] > f[0]


@settings(max_examples=15, deadline=None)
@given(C=classes, m=multipliers, lh=decays, lams=st.lists(lambdas, min_size=2, max_size=8))
def test_solving_alone_matches_the_batch(C, m, lh, lams):
    k_all, x_all = kernels.solve_diff_k(C, m * m, lh, lams)
    for j, lam in enumerate(lams):
        k_one, x_one = kernels.solve_diff_k(C, m * m, lh, [lam])
        assert k_one[0] == k_all[j] and x_one[0] == x_all[j]


cells = st.lists(st.tuples(classes, multipliers, decays), min_size=1, max_size=4)


@settings(max_examples=15, deadline=None)
@given(cells=cells, lams=st.lists(lambdas, min_size=1, max_size=4))
def test_grid_solve_matches_cell_by_cell_solves(cells, lams):
    # Parameters given as columns solve every cell at every lambda in one
    # call; each cell must get the bits it gets alone.
    C, m2, lh = ([[v] for v in column] for column in zip(*cells))
    m2 = [[m * m] for (m,) in m2]
    k_grid, x_grid = kernels.solve_diff_k(C, m2, lh, lams)
    same_grid = kernels.solve_same_class_k(C, m2, lh)
    assert k_grid.shape == x_grid.shape == (len(cells), len(lams))
    assert same_grid.shape == (len(cells), 1)
    for n, (c, m, decay) in enumerate(cells):
        k_cell, x_cell = kernels.solve_diff_k(c, m * m, decay, lams)
        assert k_cell.tobytes() == k_grid[n].tobytes()
        assert x_cell.tobytes() == x_grid[n].tobytes()
        same_cell = kernels.solve_same_class_k(c, m * m, decay)
        assert same_cell.shape == () and same_cell == same_grid[n, 0]


def test_solve_errors_name_the_failing_element():
    # The second cell's root lies beyond the search range.
    with np.errstate(over="ignore"), pytest.raises(
        kernels.KernelSolveError, match=r"^same-class equation \(C=3, m2=1e\+300, lh=1e-300\)"
    ):
        kernels.solve_same_class_k([[10], [3]], [[9.0], [1e300]], [[1e-6], [1e-300]])
