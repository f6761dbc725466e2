import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixupgeom.mixup import (
    BetaSpec,
    _draw,
    make_mixup_batch,
    mix,
    sample_lambdas,
)
from mixupgeom.theory import FeatureRecord, TheoryParams, solve_different_class, solve_grid
from mixupgeom.ufm import UfmConfig, per_sample_grad, per_sample_loss, total_objective


def scalar_two_gamma(spec, n, rng):
    """Reference sampler: each draw's two Gammas in turn."""
    out = []
    for _ in range(n):
        g1 = rng.gamma(spec.alpha)
        g2 = rng.gamma(spec.alpha)
        out.append(float(g1 / (g1 + g2)))
    return np.array(out)


def test_beta_spec_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        BetaSpec(0.0)
    with pytest.raises(ValueError):
        BetaSpec(-1.0)
    with pytest.raises(ValueError, match="alpha must be positive and finite, got inf"):
        BetaSpec(float("inf"))


@pytest.mark.parametrize("alpha", [1.0, 0.4, 2.0, 0.05])
def test_array_sampler_is_the_scalar_two_gamma_stream(alpha):
    spec = BetaSpec(alpha)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    assert np.array_equal(
        sample_lambdas(spec, 2000, rng_a), scalar_two_gamma(spec, 2000, rng_b)
    )
    # both generators are left in the same state
    assert rng_a.integers(1 << 62) == rng_b.integers(1 << 62)


@pytest.mark.parametrize("alpha", [1.0, 0.4])
def test_sample_mean_is_half(alpha):
    draws = sample_lambdas(BetaSpec(alpha), 100_000, np.random.default_rng(123))
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    assert draws.mean() == pytest.approx(0.5, abs=0.01)


def test_sample_variance_matches_beta():
    # Var Beta(a, a) = 1 / (4 (2a + 1))
    draws = sample_lambdas(BetaSpec(0.4), 100_000, np.random.default_rng(7))
    assert draws.var() == pytest.approx(1.0 / (4.0 * 1.8), abs=0.005)


def test_mix_convex_combination():
    b = mix([[1.0, 0.0], [0.0, 2.0]], [0, 1], [0], [1], [0.25], 2)
    assert np.allclose(b.x, [[0.25, 1.5]])
    assert np.allclose(b.y, [[0.25, 0.75]])
    assert b.y.sum() == pytest.approx(1.0)
    assert (b.class_i[0], b.class_ip[0]) == (0, 1)


def test_mix_same_class_kind():
    b = mix([[1.0], [2.0]], [1, 1], [0], [1], [0.9], 2)
    assert (b.class_i[0], b.class_ip[0]) == (1, 1)
    assert np.array_equal(b.y, [[0.0, 1.0]])


def test_mix_validation():
    inputs, labels = [[1.0], [2.0]], [0, 1]
    with pytest.raises(ValueError, match="lambda"):
        mix(inputs, labels, [0], [1], [1.5], 2)
    with pytest.raises(ValueError, match="line 3: label -1"):
        mix(inputs, [0, -1], [0], [0], [0.5], 2)
    with pytest.raises(ValueError, match="line 2: label 2"):
        mix(inputs, [2, 0], [1], [1], [0.5], 2)
    with pytest.raises(ValueError, match="source index i=-1"):
        mix(inputs, labels, [-1], [0], [0.5], 2)
    with pytest.raises(ValueError, match="source index j=2"):
        mix(inputs, labels, [0], [2], [0.5], 2)


def _lambda_calls():
    """A call of each function that takes mixing coefficients, by name:
    the scalar ones at lam, the others at 0.5, lam and 7.0."""
    params = TheoryParams(C=3, m=1.0, lambda_h=1e-3)
    w, h, cfg = np.eye(3), np.zeros(3), UfmConfig(lambda_h=1e-3)
    lams = lambda lam: [0.5, lam, 7.0]  # noqa: E731
    return {
        "solve_grid": lambda lam: solve_grid([params], lams(lam)),
        "solve_different_class": lambda lam: solve_different_class(params, lam),
        "per_sample_loss": lambda lam: per_sample_loss(w, h, 0, 1, lam, cfg),
        "per_sample_grad": lambda lam: per_sample_grad(w, h, 0, 1, lam, cfg),
        "total_objective": lambda lam: total_objective(
            w, [FeatureRecord(0, 1, v, h) for v in lams(lam)], cfg
        ),
        "mix": lambda lam: mix([[1.0], [2.0]], [0, 1], [0, 1, 0], [1, 0, 0], lams(lam), 2),
    }


LAMBDA_CALLS = _lambda_calls()


@pytest.mark.parametrize("name", list(LAMBDA_CALLS))
@pytest.mark.parametrize("lam, text", [(float("nan"), "nan"), (-0.5, "-0.5"), (1.5, "1.5")])
def test_the_first_lambda_outside_zero_one_is_named(name, lam, text):
    message = f"lambda must be in [0, 1], got {text}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LAMBDA_CALLS[name](lam)


@st.composite
def mix_cases(draw):
    rows = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    classes = draw(st.integers(1, 4))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    inputs = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                           min_size=rows, max_size=rows))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=rows, max_size=rows))
    n = draw(st.integers(0, 12))
    index = st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)
    lam = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                   min_size=n, max_size=n)
    i, j = draw(index), draw(index)
    return np.array(inputs), np.array(labels), i, j, draw(lam), classes


@settings(max_examples=200, deadline=None)
@given(mix_cases())
def test_mix_rows_are_convex_combinations(case):
    inputs, labels, i, j, lam, classes = case
    b = mix(inputs, labels, i, j, lam, classes)
    assert len(b) == len(lam) and b.x.shape == (len(lam), inputs.shape[1])
    assert np.all((b.lam >= 0.0) & (b.lam <= 1.0))
    xi, xj = inputs[i].reshape(b.x.shape), inputs[j].reshape(b.x.shape)
    # rounding, and underflow where the products leave the normal range
    slack = 1e-12 * np.maximum(np.abs(xi), np.abs(xj)) + 1e-300
    assert np.all(b.x >= np.minimum(xi, xj) - slack)
    assert np.all(b.x <= np.maximum(xi, xj) + slack)
    w = np.asarray(lam, dtype=float)[:, None]
    assert np.array_equal(b.x, w * xi + (1.0 - w) * xj)
    for k, w in enumerate(lam):
        if w in (0.0, 1.0):
            assert np.array_equal(b.x[k], inputs[i[k]] if w == 1.0 else inputs[j[k]])
    assert np.all(b.y >= 0.0)
    assert np.allclose(b.y.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(b.class_i, labels[i])
    assert np.array_equal(b.class_ip, labels[j])


def test_batch_shapes_and_labels():
    rng = np.random.default_rng(0)
    inputs = np.arange(12.0).reshape(6, 2)
    labels = np.array([0, 0, 1, 1, 2, 2])
    b = make_mixup_batch(inputs, labels, BetaSpec(1.0), 40, rng, 3)
    assert len(b) == 40
    assert b.x.shape == (40, 2) and b.y.shape == (40, 3)
    assert np.allclose(b.y.sum(axis=1), 1.0)
    assert np.all((b.src_i >= 0) & (b.src_i < 6) & (b.src_j >= 0) & (b.src_j < 6))
    w = b.lam[:, None]
    assert np.allclose(b.x, w * inputs[b.src_i] + (1 - w) * inputs[b.src_j])


def test_batch_deterministic_given_seed():
    inputs = np.arange(10.0).reshape(5, 2)
    labels = np.array([0, 1, 0, 1, 0])
    a, b = (
        make_mixup_batch(inputs, labels, BetaSpec(1.0), 8, np.random.default_rng(42), 2)
        for _ in range(2)
    )
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.src_i, b.src_i) and np.array_equal(a.src_j, b.src_j)


def test_batch_rejects_empty_dataset():
    with pytest.raises(ValueError):
        make_mixup_batch(
            np.zeros((0, 2)), np.zeros(0, dtype=int), BetaSpec(1.0), 4,
            np.random.default_rng(0), 1,
        )


@pytest.mark.parametrize("n", [1, 2, 3, 1500, 2**31 + 7, 10**12])
def test_draw_takes_i_and_j_from_one_call_as_from_two(n):
    spec = BetaSpec(0.4)
    for seed in range(20):
        i, j, lam = _draw(n, spec, 33, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want_i, want_j = rng.integers(n, size=33), rng.integers(n, size=33)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert lam.tobytes() == sample_lambdas(spec, 33, rng).tobytes()
