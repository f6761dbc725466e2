import json
import math

import numpy as np
import pytest

from mixupgeom.mixup import BetaSpec, make_mixup_batch, mix
from mixupgeom import trainer
from mixupgeom.etf import build_simplex_etf, etf_deviation_metrics
from mixupgeom.trainer import (
    SyntheticDataset,
    TrainConfig,
    dataset_from_csv,
    dataset_to_csv,
    default_dataset_spec,
    extract_activations,
    forward_pass,
    layer_trajectory,
    loss_and_grads,
    make_synthetic,
    model_from_json,
    model_to_json,
    train,
)


def small_config(**kw):
    base = dict(hidden_layers=2, width=8, epochs=5, seed=0, batch_size=32)
    base.update(kw)
    return TrainConfig(**base)


def small_data(seed=0, n=60):
    spec = default_dataset_spec(seed)
    spec = SyntheticDataset(
        num_classes=3,
        input_dim=2,
        class_means=spec.class_means,
        noise_scale=0.5,
        samples_per_class=n,
        seed=seed,
    )
    return make_synthetic(spec)


def test_zero_noise_points_equal_means():
    spec = default_dataset_spec(0)
    spec = SyntheticDataset(
        num_classes=3,
        input_dim=2,
        class_means=spec.class_means,
        noise_scale=0.0,
        samples_per_class=4,
        seed=0,
    )
    x, y = make_synthetic(spec)
    assert np.array_equal(x, spec.class_means[y])


def test_synthetic_means_concentrate():
    spec = default_dataset_spec(0)
    x, y = make_synthetic(spec)
    bound = 3.0 * spec.noise_scale / np.sqrt(spec.samples_per_class)
    for c in range(3):
        emp = x[y == c].mean(axis=0)
        assert np.linalg.norm(emp - spec.class_means[c]) < bound * np.sqrt(2)


def test_synthetic_deterministic():
    a = make_synthetic(default_dataset_spec(3))
    b = make_synthetic(default_dataset_spec(3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_separability_floor_enforced():
    with pytest.raises(ValueError, match="separability"):
        SyntheticDataset(
            num_classes=2,
            input_dim=2,
            class_means=np.array([[0.0, 0.0], [1.0, 0.0]]),
            noise_scale=0.5,
            samples_per_class=5,
            seed=0,
        )


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(hidden_layers=0)
    with pytest.raises(ValueError):
        TrainConfig(activation="sigmoid")
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="hinge")
    with pytest.raises(ValueError):
        TrainConfig(classifier_mode="frozen")
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="training seed must be non-negative, got -2"):
        TrainConfig(seed=-2)
    with pytest.raises(ValueError, match="dataset seed must be non-negative, got -2"):
        default_dataset_spec(seed=-2)


@pytest.mark.parametrize("loss_kind", ["ce_mixup", "mse_mixup"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backprop_matches_finite_differences(loss_kind, activation):
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=(5, 3)) * 0.5, rng.normal(size=(5, 5)) * 0.5]
    biases = [rng.normal(size=5) * 0.1, rng.normal(size=5) * 0.1]
    clf_w = rng.normal(size=(3, 5)) * 0.5
    clf_b = rng.normal(size=3) * 0.1
    x = rng.normal(size=(4, 3))
    targets = rng.dirichlet(np.ones(3), size=4)

    def value():
        return loss_and_grads(
            weights, biases, clf_w, clf_b, activation, x, targets, loss_kind
        )[0]

    _, dw, db, dcw, dcb = loss_and_grads(
        weights, biases, clf_w, clf_b, activation, x, targets, loss_kind
    )
    eps = 1e-5
    checked = 0
    params = [(weights[0], dw[0]), (weights[1], dw[1]), (biases[0], db[0]),
              (clf_w, dcw), (clf_b, dcb)]
    for arr, grad in params:
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 6)):
            orig = flat[k]
            flat[k] = orig + eps
            up = value()
            flat[k] = orig - eps
            down = value()
            flat[k] = orig
            fd = (up - down) / (2 * eps)
            assert gflat[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            checked += 1
    assert checked > 10


def test_untrained_accuracy_is_chance():
    # a single random init can score anywhere on separable blobs, so
    # chance level is asserted on the average over seeds
    from mixupgeom.trainer import accuracy

    x, y = small_data()
    accs = []
    for seed in range(25):
        model = train((x, y), small_config(epochs=0, seed=seed))
        accs.append(accuracy(model, x, y))
    assert model.history == []
    assert abs(np.mean(accs) - 1.0 / 3.0) <= 0.1


def test_training_deterministic():
    data = small_data()
    a = train(data, small_config())
    b = train(data, small_config())
    for sa, sb in zip(a.history, b.history):
        assert sa.loss == sb.loss and sa.accuracy == sb.accuracy
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def reference_loss_and_grads(weights, biases, clf_w, clf_b, activation, x, targets, loss_kind):
    """loss_and_grads with one new array per gradient and the activation's
    slope taken from the pre-activations: 0/1 floats for ReLU, 1 - tanh(z)^2
    for tanh."""
    pre, post, a = [], [], x
    for w, b in zip(weights, biases):
        pre.append(a @ w.T + b)
        a = np.maximum(pre[-1], 0.0) if activation == "relu" else np.tanh(pre[-1])
        post.append(a)
    logits = a @ clf_w.T + clf_b
    n = len(x)
    if loss_kind == "mse_mixup":
        diff = logits - targets
        loss, dlogits = float((diff * diff).sum() / n), 2.0 * diff / n
    else:
        logp = trainer._log_softmax(logits)
        loss, dlogits = float(-(targets * logp).sum() / n), (np.exp(logp) - targets) / n
    d_weights, d_biases = [None] * len(weights), [None] * len(weights)
    delta = dlogits @ clf_w
    for layer in reversed(range(len(weights))):
        if activation == "relu":
            delta = delta * (pre[layer] > 0.0).astype(float)
        else:
            t = np.tanh(pre[layer])
            delta = delta * (1.0 - t * t)
        d_weights[layer] = delta.T @ (post[layer - 1] if layer > 0 else x)
        d_biases[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer]
    return loss, d_weights, d_biases, dlogits.T @ post[-1], dlogits.sum(axis=0)


def reference_train(dataset, cfg):
    """train as a loop over parameters: a fresh make_mixup_batch, with
    its label checks, on every step, reference_loss_and_grads and one
    momentum update per weight matrix and bias vector."""
    inputs, labels = np.asarray(dataset[0], dtype=float), np.asarray(dataset[1])
    n, input_dim = inputs.shape
    num_classes = int(labels.max()) + 1
    rng = np.random.default_rng(cfg.seed)
    weights, biases, fan_in = [], [], input_dim
    for _ in range(cfg.hidden_layers):
        weights.append(trainer._init_matrix(rng, cfg.width, fan_in))
        biases.append(np.zeros(cfg.width))
        fan_in = cfg.width
    if cfg.classifier_mode == "fixed_etf":
        clf_w = build_simplex_etf(num_classes, cfg.width, cfg.etf_multiplier, cfg.seed).rows
    else:
        clf_w = trainer._init_matrix(rng, num_classes, cfg.width)
    clf_b = np.zeros(num_classes)
    learned = cfg.classifier_mode == "learned"
    moved = [(p, True) for p in weights] + [(p, False) for p in biases]
    if learned:
        moved += [(clf_w, True), (clf_b, False)]
    velocity = [np.zeros_like(p) for p, _ in moved]
    eye = np.eye(num_classes)
    spec = BetaSpec(cfg.mixup_alpha) if cfg.mixup_alpha > 0 else None
    use_mixup = spec is not None and cfg.loss_kind != "ce_baseline"
    steps = max(1, math.ceil(n / cfg.batch_size))
    model = trainer.TrainedModel(
        cfg, input_dim, num_classes, weights, biases, clf_w, clf_b, []
    )
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        if not use_mixup:
            order = rng.permutation(n)
        for step in range(steps):
            if use_mixup:
                batch = make_mixup_batch(inputs, labels, spec, cfg.batch_size, rng, num_classes)
                xb, tb = batch.x, batch.y
            else:
                idx = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                xb, tb = inputs[idx], eye[labels[idx]]
            loss, dw, db, dcw, dcb = reference_loss_and_grads(
                weights, biases, clf_w, clf_b, cfg.activation, xb, tb, cfg.loss_kind
            )
            epoch_loss += loss
            grads = dw + db + ([dcw, dcb] if learned else [])
            for (p, decays), v, g in zip(moved, velocity, grads):
                if decays:
                    g = g + cfg.weight_decay * p
                v *= cfg.momentum
                v += g
                p -= cfg.learning_rate * v
        model.history.append(
            trainer.EpochStats(
                epoch_loss / steps,
                trainer.accuracy(model, inputs, labels),
                etf_deviation_metrics(clf_w),
            )
        )
    return model


REFERENCE_CONFIGS = {
    "default": {},
    "fixed_etf": {"classifier_mode": "fixed_etf"},
    "ce_baseline": {"loss_kind": "ce_baseline"},
    "mse_mixup": {"loss_kind": "mse_mixup"},
    "tanh": {"activation": "tanh"},
    "alpha 0": {"mixup_alpha": 0.0},
    "alpha 0.05": {"mixup_alpha": 0.05},
    "no weight decay": {"weight_decay": 0.0},
    "one hidden layer of width 7": {"hidden_layers": 1, "width": 7},
    "batch 100": {"batch_size": 100},
    "batch 1000": {"batch_size": 1000},
}


@pytest.mark.parametrize("overrides", REFERENCE_CONFIGS.values(), ids=REFERENCE_CONFIGS)
def test_train_writes_the_bytes_of_the_per_parameter_loop(overrides):
    for seed in (0, 1):
        data = make_synthetic(default_dataset_spec(seed))
        cfg = TrainConfig(**{"epochs": 4, "seed": seed, **overrides})
        assert model_to_json(train(data, cfg)) == model_to_json(reference_train(data, cfg))


@pytest.mark.parametrize("loss_kind", ["ce_mixup", "ce_baseline"])
def test_train_rejects_a_negative_label(loss_kind):
    x, y = small_data()
    y = y.copy()
    y[7] = -1
    with pytest.raises(ValueError, match="^dataset line 9: label -1 is not in \\[0, 3\\)$"):
        train((x, y), small_config(loss_kind=loss_kind))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "loss_kind, epoch, loss",
    [("ce_mixup", 2, "nan"), ("mse_mixup", 0, "inf"), ("ce_baseline", 1, "nan")],
)
def test_a_diverging_run_names_its_epoch(loss_kind, epoch, loss):
    cfg = small_config(loss_kind=loss_kind, learning_rate=1000.0)
    with pytest.raises(trainer.TrainingDivergedError) as err:
        train(small_data(), cfg)
    assert err.value.epoch == epoch
    assert str(err.value) == f"non-finite loss {loss} at epoch {epoch}"


@pytest.mark.parametrize(
    "one_class, overrides, message",
    [
        (True, {}, "^training needs at least 2 classes, the dataset has 1$"),
        (
            False,
            {"classifier_mode": "fixed_etf", "width": 2},
            "^fixed_etf needs a width of at least the class count: width 2, 3 classes$",
        ),
    ],
    ids=["one class", "fixed_etf narrower than the classes"],
)
def test_training_rejects_too_few_classes_before_its_first_step(
    monkeypatch, one_class, overrides, message
):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(trainer, "loss_and_grads", no_step)
    x, y = small_data()
    with pytest.raises(ValueError, match=message):
        train((x, np.zeros_like(y) if one_class else y), small_config(**overrides))


def _flat(grads):
    d_weights, d_biases, d_clf_w, d_clf_b = grads
    return [*d_weights, *d_biases, d_clf_w, d_clf_b]


@pytest.mark.parametrize("loss_kind", ["ce_mixup", "mse_mixup", "ce_baseline"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_loss_and_grads_writes_only_into_out(loss_kind, activation):
    rng = np.random.default_rng(1)
    weights = [rng.normal(size=(6, 3)), rng.normal(size=(6, 6))]
    biases = [rng.normal(size=6), rng.normal(size=6)]
    clf_w, clf_b = rng.normal(size=(4, 6)), rng.normal(size=4)
    x = rng.normal(size=(9, 3))
    targets = rng.dirichlet(np.ones(4), size=9)
    net = (weights, biases, clf_w, clf_b)
    inputs = [*weights, *biases, clf_w, clf_b, x, targets]
    before = [a.tobytes() for a in inputs]
    fresh = loss_and_grads(*net, activation, x, targets, loss_kind)
    out = trainer._views(None, *net)
    got = loss_and_grads(*net, activation, x, targets, loss_kind, out=out)
    assert [a.tobytes() for a in inputs] == before
    assert got[0] == fresh[0]
    assert all(g is o for g, o in zip(_flat(got[1:]), _flat(out), strict=True))
    assert [g.tobytes() for g in _flat(got[1:])] == [f.tobytes() for f in _flat(fresh[1:])]


def test_fixed_etf_classifier_is_frozen():
    data = small_data()
    cfg = small_config(classifier_mode="fixed_etf", etf_multiplier=1.0)
    model = train(data, cfg)
    frame = build_simplex_etf(3, cfg.width, 1.0, cfg.seed)
    assert np.array_equal(model.clf_w, frame.rows)
    assert np.array_equal(model.clf_b, np.zeros(3))
    for stats in model.history:
        assert stats.classifier_metrics.norm_cv < 1e-12
        assert stats.classifier_metrics.cosine_std < 1e-12


def test_extract_preserves_order_and_tags():
    data = small_data()
    model = train(data, small_config())
    x, y = data
    rng = np.random.default_rng(5)
    batch = make_mixup_batch(x, y, BetaSpec(1.0), 12, rng, 3)
    records = extract_activations(model, batch)
    assert len(records) == 12
    for k, r in enumerate(records):
        assert r.lam == batch.lam[k] and r.kind == batch.kind[k]
        assert (r.class_i, r.class_ip) == (y[batch.src_i[k]], y[batch.src_j[k]])
        assert r.h.shape == (model.config.width,)


def test_batched_extraction_matches_per_row_forward_passes():
    data = small_data()
    model = train(data, small_config())
    x, y = data
    rng = np.random.default_rng(3)
    batch = make_mixup_batch(x, y, BetaSpec(1.0), 200, rng, 3)
    records = extract_activations(model, batch)
    for row, r in zip(batch.x, records):
        post, _ = forward_pass(
            model.weights, model.biases, model.clf_w, model.clf_b,
            model.config.activation, row[None, :],
        )
        ref = post[-1][0]
        # one matrix product per batch sums in another order than one per row
        assert np.linalg.norm(r.h - ref) <= 1e-12 * np.linalg.norm(ref)


def test_zero_weight_network_gives_constant_activation():
    model = train(small_data(), small_config(epochs=0))
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.25
    x, y = small_data()
    batch = make_mixup_batch(x, y, BetaSpec(1.0), 5, np.random.default_rng(0), 3)
    records = extract_activations(model, batch)
    for r in records[1:]:
        assert np.array_equal(r.h, records[0].h)


def test_trajectory_single_layer_matches_extract():
    data = small_data()
    model = train(data, small_config(hidden_layers=1, epochs=2))
    x, y = data
    batch = make_mixup_batch(x, y, BetaSpec(1.0), 1, np.random.default_rng(1), 3)
    traj = layer_trajectory(model, batch.x[0])
    assert len(traj) == 1
    rec = extract_activations(model, batch)[0]
    assert np.array_equal(traj[0], rec.h)


def test_trajectory_lambda_one_is_pure_source():
    data = small_data()
    model = train(data, small_config(epochs=2))
    x, y = data
    mixed = mix(x, y, [0], [10], [1.0], 3).x[0]
    pure = mix(x, y, [0], [0], [1.0], 3).x[0]
    for a, b in zip(layer_trajectory(model, mixed), layer_trajectory(model, pure)):
        assert np.array_equal(a, b)


def test_model_json_round_trip():
    model = train(small_data(), small_config())
    loaded = model_from_json(model_to_json(model))
    assert loaded.config == model.config
    for wa, wb in zip(model.weights, loaded.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(model.clf_w, loaded.clf_w)
    assert len(loaded.history) == len(model.history)
    assert loaded.history[-1].loss == model.history[-1].loss


def _model_doc():
    return json.loads(model_to_json(train(small_data(), small_config(epochs=1))))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("clf_b"), "missing key 'clf_b'"),
        (lambda d: d["weights"][1].pop(), "layer 1 weights \\(7, 8\\)"),
        (lambda d: d["weights"][0][2].pop(), "weights are not numeric arrays"),
        (lambda d: d["weights"].pop(), "1 weight matrices and 2 bias vectors"),
        (lambda d: d["clf_w"].pop(), "classifier weights \\(2, 8\\)"),
        (lambda d: d.update(num_classes=4), "3 classifier rows, 4 classes"),
        (lambda d: d["config"].update(optimizer="adam"), "bad config.*optimizer"),
        (lambda d: d["history"][0].pop("loss"), "history entry has no key 'loss'"),
    ],
)
def test_model_from_json_rejects_malformed_models(edit, message):
    doc = _model_doc()
    edit(doc)
    with pytest.raises(ValueError, match=message):
        model_from_json(json.dumps(doc))


def test_default_dataset_spec():
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    means = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert np.array_equal(default_dataset_spec(0).class_means, means)
    spec = default_dataset_spec(seed=2, num_classes=5, input_dim=3, mean_scale=2.0)
    assert spec.class_means.shape == (5, 3) and spec.seed == 2
    assert np.allclose(np.linalg.norm(spec.class_means, axis=1), 2.0)
    assert np.array_equal(spec.class_means[:, 2], np.zeros(5))
    with pytest.raises(ValueError, match="input dimension"):
        default_dataset_spec(input_dim=0)


def test_dataset_csv_round_trip():
    x, y = small_data(n=7)
    loaded_x, loaded_y = dataset_from_csv(dataset_to_csv(x, y))
    assert np.array_equal(x, loaded_x) and np.array_equal(y, loaded_y)


def test_dataset_csv_errors():
    with pytest.raises(ValueError, match="^<string>:1: expected dataset header 'label,x_0,...'$"):
        dataset_from_csv("x_0,label\n")
    with pytest.raises(ValueError, match="^data.csv:2: bad dataset row: invalid literal"):
        dataset_from_csv("label,x_0\nnope,1.0\n", "data.csv")
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"^data.csv:4: bad dataset row: value {value} is not"):
            dataset_from_csv(f"label,x_0\n0,1.0\n\n1,{value}\n", "data.csv")
    with pytest.raises(ValueError, match="^data.csv: empty dataset file$"):
        dataset_from_csv("label,x_0\n\n", "data.csv")


def test_dataset_csv_names_the_line_of_a_row_of_the_wrong_width():
    for row, count in (("1,0.5", 1), ("1,0.5,0.5,0.5", 3)):
        text = f"label,x_0,x_1\n0,1.0,2.0\n{row}\n2,3.0,4.0\n"
        with pytest.raises(
            ValueError, match=f"^data.csv:3: bad dataset row: {count} input values, the header has 2$"
        ):
            dataset_from_csv(text, "data.csv")
