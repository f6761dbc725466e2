"""Constant-width MLP trained with mixup on synthetic Gaussian blobs.

Everything is plain numpy with manual backpropagation: the point is a
fully deterministic, desk-scale training loop whose last-layer geometry
can be inspected exactly, not speed. The classifier head is either
learned like any other layer or frozen to a simplex ETF.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .etf import (
    EtfMetrics,
    _bad_header,
    _finite_floats,
    _parse_rows,
    build_simplex_etf,
    etf_deviation_metrics,
)
from .mixup import BetaSpec, MixupBatch, _check_labels, _draw, _mix_rows
from .theory import FeatureRecord
from .ufm import _log_softmax

RELU = "relu"
TANH = "tanh"
ACTIVATIONS = (RELU, TANH)

CE_MIXUP = "ce_mixup"
MSE_MIXUP = "mse_mixup"
CE_BASELINE = "ce_baseline"
LOSS_KINDS = (CE_MIXUP, MSE_MIXUP, CE_BASELINE)

LEARNED = "learned"
FIXED_ETF = "fixed_etf"
CLASSIFIER_MODES = (LEARNED, FIXED_ETF)


@dataclass(frozen=True)
class SyntheticDataset:
    """Gaussian blobs: samples_per_class points around each class mean.

    Class means must be pairwise at least 4 * noise_scale apart, so the
    blobs are linearly separable with overwhelming probability.
    """

    num_classes: int
    input_dim: int
    class_means: np.ndarray  # C x D
    noise_scale: float
    samples_per_class: int
    seed: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=float)
        if means.shape != (self.num_classes, self.input_dim):
            raise ValueError(
                f"class means have shape {means.shape}, expected "
                f"({self.num_classes}, {self.input_dim})"
            )
        object.__setattr__(self, "class_means", means)
        if self.num_classes < 1 or self.input_dim < 1:
            raise ValueError("need at least one class and one input dimension")
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be nonnegative, got {self.noise_scale}")
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.seed < 0:
            raise ValueError(f"dataset seed must be non-negative, got {self.seed}")
        for a in range(self.num_classes):
            for b in range(a + 1, self.num_classes):
                dist = float(np.linalg.norm(means[a] - means[b]))
                if dist < 4.0 * self.noise_scale:
                    raise ValueError(
                        f"class means {a} and {b} are {dist:.3g} apart, "
                        f"below the separability floor {4.0 * self.noise_scale:.3g}"
                    )


def default_dataset_spec(
    seed: int = 0,
    num_classes: int = 3,
    input_dim: int = 2,
    mean_scale: float = 4.0,
    noise_scale: float = 0.5,
    samples_per_class: int = 500,
) -> SyntheticDataset:
    """Blobs whose means are spaced evenly on a circle of radius
    mean_scale in the first two input coordinates (on the first axis
    alone when input_dim is 1). The defaults give three blobs in the
    plane, 500 points each."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    circle = mean_scale * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    means = np.zeros((num_classes, input_dim))
    means[:, :2] = circle[:, :input_dim]
    return SyntheticDataset(
        num_classes=num_classes,
        input_dim=input_dim,
        class_means=means,
        noise_scale=noise_scale,
        samples_per_class=samples_per_class,
        seed=seed,
    )


def make_synthetic(spec: SyntheticDataset):
    """(inputs, hard labels) drawn deterministically from the spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.samples_per_class
    labels = np.repeat(np.arange(spec.num_classes), n)
    noise = rng.standard_normal((len(labels), spec.input_dim))
    inputs = spec.class_means[labels] + spec.noise_scale * noise
    return inputs, labels


@dataclass(frozen=True)
class TrainConfig:
    hidden_layers: int = 3
    width: int = 16
    activation: str = RELU
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-3
    mixup_alpha: float = 1.0  # 0 disables mixing
    loss_kind: str = CE_MIXUP
    classifier_mode: str = LEARNED
    etf_multiplier: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.hidden_layers < 1:
            raise ValueError("need at least one hidden layer")
        if self.width < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("width/batch_size must be positive, epochs nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0 or self.mixup_alpha < 0:
            raise ValueError("weight_decay and mixup_alpha must be nonnegative")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.classifier_mode not in CLASSIFIER_MODES:
            raise ValueError(f"unknown classifier mode {self.classifier_mode!r}")
        if self.classifier_mode == FIXED_ETF and self.etf_multiplier == 0:
            raise ValueError("etf_multiplier must be nonzero in fixed_etf mode")
        if self.seed < 0:
            raise ValueError(f"training seed must be non-negative, got {self.seed}")


@dataclass
class EpochStats:
    loss: float
    accuracy: float
    classifier_metrics: EtfMetrics


@dataclass
class TrainedModel:
    config: TrainConfig
    input_dim: int
    num_classes: int
    weights: list  # hidden-layer matrices, each (width, fan_in)
    biases: list  # hidden-layer bias vectors
    clf_w: np.ndarray  # C x width
    clf_b: np.ndarray  # C
    history: list  # EpochStats per epoch


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}")
        self.epoch = epoch


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == RELU else np.tanh(z)


def _act_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative at z, from its value a = _act(z, kind):
    z > 0 exactly where max(z, 0) > 0, and tanh' = 1 - tanh^2."""
    return a > 0.0 if kind == RELU else 1.0 - a * a


def forward_pass(weights, biases, clf_w, clf_b, activation, x):
    """(post-activations of each hidden layer, logits) for a batch x."""
    post = []
    a = np.asarray(x, dtype=float)
    for w, b in zip(weights, biases):
        a = _act(a @ w.T + b, activation)
        post.append(a)
    return post, a @ clf_w.T + clf_b


def _views(flat, weights, biases, clf_w, clf_b):
    """(weights, biases, clf_w, clf_b) as views of flat, a vector that
    holds clf_w and the weights, then the biases and clf_b (a new one
    when flat is None)."""
    arrays = [clf_w, *weights, *biases, clf_b]
    ends = np.cumsum([a.size for a in arrays])
    flat = np.empty(ends[-1]) if flat is None else flat
    v = [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]
    return v[1 : len(weights) + 1], v[len(weights) + 1 : -1], v[0], v[-1]


def loss_and_grads(
    weights, biases, clf_w, clf_b, activation, x, targets, loss_kind, out=None
):
    """Batch loss and gradients for every parameter, by backpropagation.

    CE losses score log-softmax of the logits against the (possibly
    soft) targets; the MSE loss scores the raw logits against the soft
    label vector. Decay terms are applied by the update rule, not here.
    The gradients are written into out, arrays shaped as (weights,
    biases, clf_w, clf_b), and returned; when out is None, into new
    views of one vector laid out by _views.
    """
    x = np.asarray(x, dtype=float)
    targets = np.asarray(targets, dtype=float)
    post, logits = forward_pass(weights, biases, clf_w, clf_b, activation, x)
    n = len(x)
    if loss_kind in (CE_MIXUP, CE_BASELINE):
        logp = _log_softmax(logits)
        loss = float(-(targets * logp).sum() / n)
        dlogits = (np.exp(logp) - targets) / n
    else:
        diff = logits - targets
        loss = float((diff * diff).sum() / n)
        dlogits = 2.0 * diff / n
    grads = out or _views(None, weights, biases, clf_w, clf_b)
    d_weights, d_biases, d_clf_w, d_clf_b = grads
    np.matmul(dlogits.T, post[-1], out=d_clf_w)
    dlogits.sum(axis=0, out=d_clf_b)
    delta = dlogits @ clf_w
    for layer in reversed(range(len(weights))):
        delta = delta * _act_deriv(post[layer], activation)
        below = post[layer - 1] if layer > 0 else x
        np.matmul(delta.T, below, out=d_weights[layer])
        delta.sum(axis=0, out=d_biases[layer])
        if layer > 0:
            delta = delta @ weights[layer]
    return loss, d_weights, d_biases, d_clf_w, d_clf_b


def _init_matrix(rng, out_dim, in_dim):
    bound = 1.0 / math.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def train(dataset, cfg: TrainConfig) -> TrainedModel:
    """Minibatch SGD with momentum and weight decay.

    dataset is the (inputs, hard labels) pair from make_synthetic. With
    mixup_alpha > 0 and a mixup loss kind, every step draws a fresh
    mixed batch; otherwise plain shuffled minibatches with one-hot
    targets are used. fixed_etf mode freezes the classifier at the
    constructed ETF with zero bias.
    """
    inputs, labels = dataset
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, input_dim = inputs.shape
    num_classes = int(labels.max()) + 1
    rng = np.random.default_rng(cfg.seed)

    weights = []
    biases = []
    fan_in = input_dim
    for _ in range(cfg.hidden_layers):
        weights.append(_init_matrix(rng, cfg.width, fan_in))
        biases.append(np.zeros(cfg.width))
        fan_in = cfg.width
    if cfg.classifier_mode == FIXED_ETF:
        frame = build_simplex_etf(num_classes, cfg.width, cfg.etf_multiplier, cfg.seed)
        clf_w = frame.rows
        clf_b = np.zeros(num_classes)
    else:
        clf_w = _init_matrix(rng, num_classes, cfg.width)
        clf_b = np.zeros(num_classes)

    # Every parameter, and its gradient, is a view of one vector laid out
    # by _views. SGD moves one run of it, [lo, hi): the hidden layers,
    # plus the classifier unless fixed_etf. The weight matrices in it,
    # [lo, split), decay; the biases, [split, hi), do not.
    params = np.concatenate([clf_w.ravel(), *map(np.ravel, weights), *biases, clf_b])
    weights, biases, clf_w, clf_b = net = _views(params, weights, biases, clf_w, clf_b)
    grad = np.empty_like(params)
    grads = _views(grad, *net)
    split = clf_w.size + sum(w.size for w in weights)
    lo, hi = 0, len(params)
    if cfg.classifier_mode == FIXED_ETF:
        lo, hi = clf_w.size, hi - num_classes
    p, p_w, g, g_w = params[lo:hi], params[lo:split], grad[lo:hi], grad[lo:split]
    velocity = np.zeros_like(p)

    _check_labels(labels, num_classes)
    onehot = np.eye(num_classes)[labels]
    spec = BetaSpec(cfg.mixup_alpha) if cfg.mixup_alpha > 0 else None
    use_mixup = spec is not None and cfg.loss_kind != CE_BASELINE
    steps = max(1, math.ceil(n / cfg.batch_size))
    history = []
    model = TrainedModel(
        config=cfg,
        input_dim=input_dim,
        num_classes=num_classes,
        weights=weights,
        biases=biases,
        clf_w=clf_w,
        clf_b=clf_b,
        history=history,
    )

    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        if not use_mixup:
            order = rng.permutation(n)
        for step in range(steps):
            if use_mixup:
                i, j, lam = _draw(n, spec, cfg.batch_size, rng)
                xb, tb = _mix_rows(lam, (inputs, i, j), (onehot, i, j))
            else:
                idx = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                if len(idx) == 0:
                    continue
                xb = inputs[idx]
                tb = onehot[idx]
            loss = loss_and_grads(*net, cfg.activation, xb, tb, cfg.loss_kind, out=grads)[0]
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            epoch_loss += loss
            # A weight gets its decay term even at weight_decay 0: adding
            # 0.0 * p turns a -0.0 gradient entry into +0.0.
            g_w += cfg.weight_decay * p_w
            velocity *= cfg.momentum
            velocity += g
            p -= cfg.learning_rate * velocity
        history.append(
            EpochStats(
                loss=epoch_loss / steps,
                accuracy=accuracy(model, inputs, labels),
                classifier_metrics=etf_deviation_metrics(clf_w),
            )
        )
    return model


def _forward(model: TrainedModel, x: np.ndarray):
    """forward_pass with the model's parameters."""
    params = (model.weights, model.biases, model.clf_w, model.clf_b)
    return forward_pass(*params, model.config.activation, x)


def predict_logits(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    return _forward(model, x)[1]


def predict_probs(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(predict_logits(model, x)))


def accuracy(model: TrainedModel, x: np.ndarray, labels: np.ndarray) -> float:
    pred = predict_logits(model, x).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


def extract_activations(model: TrainedModel, batch: MixupBatch) -> list[FeatureRecord]:
    """Penultimate post-activation vector of each mixed sample, tagged
    with its source classes, lambda, and kind; order preserved."""
    post, _ = _forward(model, batch.x)
    tags = (batch.class_i.tolist(), batch.class_ip.tolist(), batch.lam.tolist())
    return [
        FeatureRecord(i, ip, lam, h, kind)
        for i, ip, lam, h, kind in zip(*tags, post[-1], batch.kind.tolist())
    ]


def layer_trajectory(model: TrainedModel, x: np.ndarray) -> list:
    """Post-activation hidden vector at every depth for one input x; all
    entries share the hidden width, so one projection operator serves
    the whole trajectory."""
    post, _ = _forward(model, np.asarray(x, dtype=float)[None, :])
    return [layer[0] for layer in post]


def model_to_json(model: TrainedModel) -> str:
    return json.dumps(
        {
            "config": asdict(model.config),
            "input_dim": model.input_dim,
            "num_classes": model.num_classes,
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
            "clf_w": model.clf_w.tolist(),
            "clf_b": model.clf_b.tolist(),
            "history": [
                {
                    "loss": s.loss,
                    "accuracy": s.accuracy,
                    "norm_cv": s.classifier_metrics.norm_cv,
                    "cosine_std": s.classifier_metrics.cosine_std,
                }
                for s in model.history
            ],
        },
        indent=2,
    )


_MODEL_KEYS = "config input_dim num_classes weights biases clf_w clf_b history".split()


def model_from_json(text: str) -> TrainedModel:
    """Parse model_to_json output. A malformed model raises ValueError
    naming the missing key, the bad config or the layer whose shape does
    not chain from input_dim to num_classes."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model JSON: expected an object")
    for key in _MODEL_KEYS:
        if key not in doc:
            raise ValueError(f"model JSON: missing key {key!r}")
    try:
        cfg = TrainConfig(**doc["config"])
    except TypeError as exc:
        raise ValueError(f"model JSON: bad config: {exc}") from None
    try:
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        clf_w = np.array(doc["clf_w"], dtype=float)
        clf_b = np.array(doc["clf_b"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model JSON: weights are not numeric arrays: {exc}") from None
    if not len(weights) == len(biases) == cfg.hidden_layers:
        raise ValueError(
            f"model JSON: {len(weights)} weight matrices and {len(biases)} bias "
            f"vectors for {cfg.hidden_layers} hidden layers"
        )
    input_dim, num_classes = int(doc["input_dim"]), int(doc["num_classes"])
    fan_in = input_dim
    for k, (w, b) in enumerate(zip(weights + [clf_w], biases + [clf_b])):
        if b.ndim != 1 or w.shape != (len(b), fan_in):
            name = "classifier" if k == len(weights) else f"layer {k}"
            raise ValueError(
                f"model JSON: {name} weights {w.shape} and biases {b.shape} "
                f"do not chain from width {fan_in}"
            )
        fan_in = len(b)
    if fan_in != num_classes:
        raise ValueError(f"model JSON: {fan_in} classifier rows, {num_classes} classes")
    try:
        history = [
            EpochStats(
                loss=s["loss"],
                accuracy=s["accuracy"],
                classifier_metrics=EtfMetrics(s["norm_cv"], s["cosine_std"]),
            )
            for s in doc["history"]
        ]
    except KeyError as exc:
        raise ValueError(f"model JSON: history entry has no key {exc}") from None
    return TrainedModel(
        config=cfg,
        input_dim=input_dim,
        num_classes=num_classes,
        weights=weights,
        biases=biases,
        clf_w=clf_w,
        clf_b=clf_b,
        history=history,
    )


def dataset_to_csv(inputs: np.ndarray, labels: np.ndarray) -> str:
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    header = "label," + ",".join(f"x_{j}" for j in range(inputs.shape[1]))
    lines = [header]
    for y, row in zip(labels, inputs):
        lines.append(f"{y}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def dataset_from_csv(text: str, source: str = "<string>", num_classes: int | None = None):
    """Parse dataset_to_csv output into (inputs, labels). A row that does
    not parse, holds an input that is not finite, whose width differs
    from the header's or, given num_classes, whose label is not in
    [0, num_classes) raises ValueError naming source:line."""
    lines = text.split("\n")
    if not lines[0].startswith("label,"):
        raise _bad_header(source, "dataset", "label,x_0,...")
    width = lines[0].count(",")

    def parse(line):
        parts = line.split(",")
        if len(parts) - 1 != width:
            raise ValueError(f"{len(parts) - 1} input values, the header has {width}")
        label = int(parts[0])
        if num_classes is not None and not 0 <= label < num_classes:
            raise ValueError(
                f"label {label} is not a class of the {num_classes}-class model"
            )
        return label, _finite_floats(parts[1:])

    rows = _parse_rows(lines[1:], source, "dataset", parse, start=2)
    if not rows:
        raise ValueError(f"{source}: empty dataset file")
    return np.array([x for _, x in rows]), np.array([y for y, _ in rows], dtype=int)
