import numpy as np
import pytest

from mixupgeom.etf import build_simplex_etf
from mixupgeom.theory import (
    TheoryParams,
    assemble_feature,
    generate_configuration,
    solve_different_class,
)
from mixupgeom.ufm import (
    MinimizeOptions,
    UfmConfig,
    minimize_per_sample,
    per_sample_grad,
    per_sample_loss,
    softmax_probs,
    total_objective,
)


def test_config_validation():
    with pytest.raises(ValueError):
        UfmConfig(lambda_h=0.0)
    with pytest.raises(ValueError):
        UfmConfig(lambda_h=1e-6, lambda_w=-1.0)


def test_softmax_sums_to_one_and_survives_huge_logits():
    w = np.array([[1000.0, 0.0], [0.0, 1000.0], [-1000.0, -1000.0]])
    p = softmax_probs(w, np.array([1.0, 1.0]))
    assert p.sum() == pytest.approx(1.0)
    assert np.all(np.isfinite(p))


def test_zero_feature_loss_is_log_c():
    w = build_simplex_etf(5, 7, 2.0, seed=0).rows
    cfg = UfmConfig(lambda_h=1e-6)
    loss = per_sample_loss(w, np.zeros(7), 0, 1, 0.3, cfg)
    assert loss == pytest.approx(np.log(5.0), abs=1e-12)


def test_loss_at_balanced_optimum_is_log_two():
    # At lam = 0.5 with tiny decay the two target classes split the mass
    # evenly, so the cross entropy approaches log 2.
    params = TheoryParams(C=10, m=3.0, lambda_h=1e-6, d=100)
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    sol = solve_different_class(params, 0.5)
    rec = assemble_feature(sol, frame, 0, 1)
    cfg = UfmConfig(lambda_h=1e-6)
    value = per_sample_loss(frame.rows, rec.h, 0, 1, 0.5, cfg)
    assert abs(value - np.log(2.0)) < 1e-3


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 6))
    h = rng.normal(size=6)
    cfg = UfmConfig(lambda_h=1e-2)
    grad = per_sample_grad(w, h, 1, 2, 0.7, cfg)
    eps = 1e-6
    for k in range(6):
        dh = np.zeros(6)
        dh[k] = eps
        fd = (
            per_sample_loss(w, h + dh, 1, 2, 0.7, cfg)
            - per_sample_loss(w, h - dh, 1, 2, 0.7, cfg)
        ) / (2 * eps)
        assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_lambda_validation():
    w = np.eye(3)
    cfg = UfmConfig(lambda_h=1e-3)
    with pytest.raises(ValueError):
        per_sample_loss(w, np.zeros(3), 0, 1, -0.1, cfg)
    with pytest.raises(ValueError):
        per_sample_grad(w, np.zeros(3), 0, 1, 1.1, cfg)


def test_minimizer_matches_closed_form_and_is_init_independent():
    params = TheoryParams(C=5, m=3.0, lambda_h=1e-2, d=5)
    frame = build_simplex_etf(5, 5, 3.0, seed=0)
    cfg = UfmConfig(lambda_h=1e-2)
    sol = solve_different_class(params, 0.3)
    rec = assemble_feature(sol, frame, 0, 1)
    h_zero = minimize_per_sample(frame.rows, 0, 1, 0.3, cfg)
    h_rand = minimize_per_sample(
        frame.rows, 0, 1, 0.3, cfg, init=np.random.default_rng(9).normal(size=5)
    )
    scale = max(1.0, np.linalg.norm(rec.h))
    assert np.linalg.norm(h_zero - rec.h) / scale < 1e-4
    assert np.linalg.norm(h_rand - h_zero) / scale < 1e-4


def test_minimizer_reaches_tolerance():
    w = build_simplex_etf(3, 3, 1.0, seed=1).rows
    cfg = UfmConfig(lambda_h=1e-2)
    h = minimize_per_sample(w, 0, 1, 0.5, cfg, opts=MinimizeOptions(grad_tol=1e-11))
    grad = per_sample_grad(w, h, 0, 1, 0.5, cfg)
    assert np.linalg.norm(grad) <= 1e-11


def test_total_objective_mean_and_penalty():
    frame = build_simplex_etf(3, 4, 1.0, seed=0)
    cfg = UfmConfig(lambda_h=1e-3, lambda_w=0.5)
    params = TheoryParams(C=3, m=1.0, lambda_h=1e-3, d=4)
    sol = solve_different_class(params, 0.4)
    recs = [assemble_feature(sol, frame, 0, 1), assemble_feature(sol, frame, 1, 2)]
    report = total_objective(frame.rows, recs, cfg)
    direct = np.mean(
        [per_sample_loss(frame.rows, r.h, r.class_i, r.class_ip, r.lam, cfg) for r in recs]
    )
    assert report.mean_per_sample == pytest.approx(direct, abs=1e-15)
    assert report.classifier_penalty == pytest.approx(
        0.25 * float((frame.rows**2).sum()), abs=1e-12
    )
    with pytest.raises(ValueError):
        total_objective(frame.rows, [], cfg)


def test_total_objective_matches_per_sample_loop_on_a_configuration():
    # One row-wise log-softmax against the per-record loop over 900
    # records, with degenerate lambdas; the matrix product sums in another
    # order, so the tolerance is a few ulps of the mean per record.
    params = TheoryParams(C=10, m=3.0, lambda_h=1e-6, d=100)
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    lams = [0.0, 1.0] + list(np.random.default_rng(0).uniform(size=98))
    records = generate_configuration(params, frame, [0, 1, 2], lams, amplified=True)
    cfg = UfmConfig(lambda_h=1e-6)
    direct = sum(
        per_sample_loss(frame.rows, r.h, r.class_i, r.class_ip, r.lam, cfg) for r in records
    ) / len(records)
    report = total_objective(frame.rows, records, cfg)
    assert report.mean_per_sample == pytest.approx(direct, rel=1e-13)


def test_total_objective_rejects_lambda_outside_unit_interval():
    frame = build_simplex_etf(3, 4, 1.0, seed=0)
    params = TheoryParams(C=3, m=1.0, lambda_h=1e-3, d=4)
    rec = assemble_feature(solve_different_class(params, 0.4), frame, 0, 1)
    rec.lam = 1.5
    with pytest.raises(ValueError, match="got 1.5"):
        total_objective(frame.rows, [rec], UfmConfig(lambda_h=1e-3))
