"""Unconstrained-features mixup objective with a fixed classifier.

Per-sample loss, analytic gradient, and an independent gradient-descent
minimizer used as the oracle for the closed-form solver. The classifier
is held fixed throughout; its decay term is reported separately and
never enters the per-sample value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UfmConfig:
    """Decay coefficients: lambda_h on features (must be positive),
    lambda_w on the classifier (reporting only)."""

    lambda_h: float
    lambda_w: float = 0.0

    def __post_init__(self):
        if not self.lambda_h > 0:
            raise ValueError(f"lambda_h must be positive, got {self.lambda_h}")
        if self.lambda_w < 0:
            raise ValueError(f"lambda_w must be nonnegative, got {self.lambda_w}")


@dataclass(frozen=True)
class MinimizeOptions:
    step_init: float = 1.0
    max_iter: int = 100_000
    grad_tol: float = 1e-10
    armijo: float = 1e-4
    shrink: float = 0.5
    memory: int = 10  # nonmonotone acceptance window


@dataclass(frozen=True)
class ObjectiveReport:
    mean_per_sample: float
    classifier_penalty: float


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
    opts: MinimizeOptions = MinimizeOptions(),
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
    step = opts.step_init
    loss = per_sample_loss(w, h, i, ip, lam, cfg)
    grad = per_sample_grad(w, h, i, ip, lam, cfg)
    recent = deque([loss], maxlen=opts.memory)
    for _ in range(opts.max_iter):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) <= opts.grad_tol:
            return h
        ref = max(recent)
        while True:
            trial = h - step * grad
            trial_loss = per_sample_loss(w, trial, i, ip, lam, cfg)
            if trial_loss <= ref - opts.armijo * step * gnorm2:
                break
            step *= opts.shrink
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
    """Mean per-sample value over feature records plus the separately
    reported classifier penalty (lambda_w/2)*|W|_F^2.

    Accepts any records carrying (h, class_i, class_ip, lam); the
    per-sample values come from one row-wise log-softmax over the n x d
    feature matrix and are summed in record order.
    """
    features = list(features)
    if not features:
        raise ValueError("empty feature list")
    w = np.asarray(w, dtype=float)
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
    penalty = 0.5 * cfg.lambda_w * float((w * w).sum())
    return ObjectiveReport(
        mean_per_sample=sum(values.tolist()) / len(features), classifier_penalty=penalty
    )
