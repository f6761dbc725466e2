import json

import numpy as np
import pytest

from mixupgeom.mixup import BetaSpec, make_mixup_batch, mix
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


def test_fixed_etf_classifier_is_frozen():
    from mixupgeom.etf import build_simplex_etf

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
        _, post, _ = forward_pass(
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
