"""Unconstrained-features mixup objective with a fixed classifier.

Per-sample loss, analytic gradient, an independent gradient-descent
minimizer used as the oracle for the closed-form solver, and the mean
objective over a set of records. The classifier is held fixed
throughout and carries no decay term. A closed-form configuration is
scored from its coefficients: each of its features is one or two
classifier rows times scalars, so its logits and norms follow from the
rows' products, and no feature vector is made.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mixup import _check_lambdas
from .theory import Configuration

# Logits per block of lambda in _configuration_terms (512 KB). It makes
# no h, and at paper scale blocks of _floattext.CHUNK would be 16 times as many.
_BLOCK_FLOATS = 1 << 16


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
    _check_lambdas(lam)
    h = np.asarray(h, dtype=float)
    logp = _log_softmax(np.asarray(w) @ h)
    ce = -lam * logp[i] - (1.0 - lam) * logp[ip]
    return float(ce + 0.5 * cfg.lambda_h * (h @ h))


def per_sample_grad(w, h, i: int, ip: int, lam: float, cfg: UfmConfig) -> np.ndarray:
    """Analytic gradient W^T (p - target) + lambda_h * h."""
    _check_lambdas(lam)
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


def _values(logits, sq_norms, i, ip, lam, lambda_h) -> np.ndarray:
    """The per-sample values of records with these logits, squared
    feature norms, class pairs and mixing coefficients."""
    _check_lambdas(lam)
    logp = _log_softmax(logits)
    n = np.arange(len(lam))
    ce = -lam * logp[n, i] - (1.0 - lam) * logp[n, ip]
    return ce + 0.5 * lambda_h * sq_norms


def _stacked_terms(w, features):
    """_values' arguments for records, from their h stacked."""
    h = np.array([rec.h for rec in features], dtype=float)
    i = np.array([rec.class_i for rec in features])
    ip = np.array([rec.class_ip for rec in features])
    lam = np.array([rec.lam for rec in features], dtype=float)
    yield h @ w.T, np.einsum("nd,nd->n", h, h), i, ip, lam


def _configuration_terms(w, config: Configuration):
    """_values' arguments for a Configuration, from its coefficients and
    a block of lambda at a time: record (t, a, b) has h = A w_a + B w_b,
    so its logits are A L[a] + B L[b] with L = rows @ w.T and its squared
    norm is A^2 G[a, a] + B^2 G[b, b] + 2 A B G[a, b] with G = rows @ rows.T."""
    classes = np.array(config.classes)
    s, rows = len(classes), config.rows[classes]
    logits, gram = rows @ w.T, rows @ rows.T
    norms, same = np.diag(gram), classes[:, None] == classes[None, :]
    i, ip = np.repeat(classes, s), np.tile(classes, s)
    lams = np.array(config.lams)
    step = max(1, _BLOCK_FLOATS // (s * s * logits.shape[1]))
    for lo in range(0, len(lams), step):
        block = slice(lo, lo + step)
        a, b = config.coeff_i[block, None, None], config.coeff_ip[block, None, None]
        if config.eps is not None:
            a, b = a + config.eps[block, None, None], b + config.eps[block, None, None]
        a, b = np.where(same, config.same_coeff, a), np.where(same, 0.0, b)
        n = len(a) * s * s
        yield (
            (a[..., None] * logits[:, None] + b[..., None] * logits[None]).reshape(n, -1),
            (a * a * norms[:, None] + b * b * norms[None] + 2.0 * a * b * gram).reshape(n),
            np.tile(i, len(a)), np.tile(ip, len(a)), np.repeat(lams[block], s * s),
        )


def total_objective(w, features, cfg: UfmConfig) -> ObjectiveReport:
    """Mean per-sample value over feature records.

    Accepts any records carrying (h, class_i, class_ip, lam). For a
    theory.Configuration the logits and squared norms come from its
    coefficients, its rows' products with w and their Gram matrix, a
    block of lambda at a time, so no h is made; for other records from
    their h stacked into one n x d matrix. Either way the per-sample
    values come from one row-wise log-softmax and are summed in record
    order by one sum over every value.
    """
    w = np.asarray(w, dtype=float)
    if isinstance(features, Configuration):
        terms = _configuration_terms(w, features)
    else:
        features = list(features)
        terms = _stacked_terms(w, features)
    if not features:
        raise ValueError("empty feature list")
    # One sum over one stream of every value, so that blocks round as a
    # single list would.
    values = itertools.chain.from_iterable(_values(*t, cfg.lambda_h).tolist() for t in terms)
    return ObjectiveReport(mean_per_sample=sum(values) / len(features))
