"""Unconstrained-features mixup objective with a fixed classifier.

Per-sample loss, analytic gradient, and an independent gradient-descent
minimizer used as the oracle for the closed-form solver. The classifier
is held fixed throughout and carries no decay term.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UfmConfig:
    """Decay coefficient lambda_h on the features; must be positive."""

    lambda_h: float

    def __post_init__(self):
        if not self.lambda_h > 0:
            raise ValueError(f"lambda_h must be positive, got {self.lambda_h}")


@dataclass(frozen=True)
class ObjectiveReport:
    mean_per_sample: float


# minimize_per_sample's line search: first trial step, iteration cap,
# Armijo constant, backtracking factor and the nonmonotone window.
STEP_INIT = 1.0
MAX_ITER = 100_000
ARMIJO = 1e-4
SHRINK = 0.5
MEMORY = 10


class ConvergenceError(RuntimeError):
    def __init__(self, grad_norm: float):
        super().__init__(f"minimizer did not converge; final |grad| = {grad_norm:.3e}")
        self.grad_norm = grad_norm


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis, max-subtracted."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_probs(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Softmax of the logits W h, max-subtracted for overflow safety."""
    return np.exp(_log_softmax(np.asarray(w) @ np.asarray(h)))


def per_sample_loss(w, h, i: int, ip: int, lam: float, cfg: UfmConfig) -> float:
    """Soft-target cross entropy against lam*e_i + (1-lam)*e_ip plus the
    feature decay (lambda_h/2)*|h|^2."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    h = np.asarray(h, dtype=float)
    logp = _log_softmax(np.asarray(w) @ h)
    ce = -lam * logp[i] - (1.0 - lam) * logp[ip]
    return float(ce + 0.5 * cfg.lambda_h * (h @ h))


def per_sample_grad(w, h, i: int, ip: int, lam: float, cfg: UfmConfig) -> np.ndarray:
    """Analytic gradient W^T (p - target) + lambda_h * h."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    w = np.asarray(w)
    h = np.asarray(h, dtype=float)
    p = softmax_probs(w, h)
    p[i] -= lam
    p[ip] -= 1.0 - lam
    return w.T @ p + cfg.lambda_h * h


def minimize_per_sample(
    w,
    i: int,
    ip: int,
    lam: float,
    cfg: UfmConfig,
    init=None,
    grad_tol: float = 1e-10,
) -> np.ndarray:
    """Gradient descent with backtracking on the per-sample loss.

    The objective is strictly convex (softmax composition plus the
    strongly convex decay), so the minimizer is unique and independent
    of init. Softmax tail probabilities can be many orders of magnitude
    smaller than the leading curvature, which makes fixed-step descent
    hopelessly slow; the trial step therefore uses the Barzilai-Borwein
    spectral length with an Armijo test against the worst loss in a
    short recent window (nonmonotone acceptance, the standard pairing
    for spectral steps).
    """
    w = np.asarray(w, dtype=float)
    h = np.zeros(w.shape[1]) if init is None else np.asarray(init, dtype=float).copy()
    step = STEP_INIT
    loss = per_sample_loss(w, h, i, ip, lam, cfg)
    grad = per_sample_grad(w, h, i, ip, lam, cfg)
    recent = deque([loss], maxlen=MEMORY)
    for _ in range(MAX_ITER):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) <= grad_tol:
            return h
        ref = max(recent)
        while True:
            trial = h - step * grad
            trial_loss = per_sample_loss(w, trial, i, ip, lam, cfg)
            if trial_loss <= ref - ARMIJO * step * gnorm2:
                break
            step *= SHRINK
            if step < 1e-300:
                raise ConvergenceError(np.sqrt(gnorm2))
        new_grad = per_sample_grad(w, trial, i, ip, lam, cfg)
        s = trial - h
        y = new_grad - grad
        sy = float(s @ y)
        h, loss, grad = trial, trial_loss, new_grad
        recent.append(loss)
        step = float(s @ s) / sy if sy > 0.0 else step * 2.0
    raise ConvergenceError(float(np.linalg.norm(grad)))


def total_objective(w, features, cfg: UfmConfig) -> ObjectiveReport:
    """Mean per-sample value over feature records.

    Accepts any records carrying (h, class_i, class_ip, lam); the
    per-sample values come from one row-wise log-softmax over the n x d
    feature matrix and are summed in record order. The matrix is the one
    generate_configuration's records carry, else the records' h stacked.
    """
    h = getattr(features, "feature_matrix", lambda: None)()
    features = list(features)
    if not features:
        raise ValueError("empty feature list")
    w = np.asarray(w, dtype=float)
    if h is None:
        h = np.array([rec.h for rec in features], dtype=float)
    i = np.array([rec.class_i for rec in features])
    ip = np.array([rec.class_ip for rec in features])
    lam = np.array([rec.lam for rec in features], dtype=float)
    bad = lam[~((lam >= 0.0) & (lam <= 1.0))]
    if bad.size:
        raise ValueError(f"lambda must be in [0, 1], got {bad[0]}")
    logp = _log_softmax(h @ w.T)
    n = np.arange(len(features))
    ce = -lam * logp[n, i] - (1.0 - lam) * logp[n, ip]
    values = ce + 0.5 * cfg.lambda_h * np.einsum("nd,nd->n", h, h)
    return ObjectiveReport(mean_per_sample=sum(values.tolist()) / len(features))
