"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import time

import numpy as np
import pytest

from mixupgeom import cli, theory, trainer, ufm
from mixupgeom.calibration import ece
from mixupgeom.etf import build_simplex_etf, etf_deviation_metrics
from mixupgeom.kernels import same_class_equation
from mixupgeom.mixup import BetaSpec, mix, sample_lambdas
from mixupgeom.projection import TRIANGLE, build_projection, project_vector
from mixupgeom.theory import TheoryParams, assemble_feature
from mixupgeom.ufm import UfmConfig, minimize_per_sample, per_sample_grad

TARGET_MEAN = 0.33457
TARGET_AMPLIFIED = 0.33465
FIG_PARAMS = TheoryParams(C=10, m=3.0, lambda_h=1e-6)

GRID = [
    (C, m, lh)
    for C in (3, 5, 10)
    for m in (1.0, 3.0)
    for lh in (1e-6, 1e-2)
]
LAMBDA_GRID = [round(0.1 * k, 1) for k in range(11)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def _mean_loss_for_seed(seed: int, amplified: bool = False) -> float:
    frame = build_simplex_etf(10, 100, 3.0, seed)
    rng = np.random.default_rng(seed)
    lams = sample_lambdas(BetaSpec(1.0), 5000, rng)
    records = theory.generate_configuration(
        FIG_PARAMS, frame, [0, 1, 2], lams, amplified=amplified
    )
    cfg = UfmConfig(lambda_h=1e-6)
    return ufm.total_objective(frame.rows, records, cfg).mean_per_sample


def test_criterion_1_mean_loss_reproduction(tmp_path, capsys):
    start = time.time()
    out = tmp_path / "features.csv"
    code = cli.main(
        [
            "theory-solve", "--C", "10", "--m", "3", "--d", "100",
            "--lambda-h", "1e-6", "--classes", "3", "--samples", "5000",
            "--alpha", "1", "--seed", "0", "--out", str(out),
        ]
    )
    elapsed = time.time() - start
    printed = float(capsys.readouterr().out.strip().split("\n")[-1])
    seed_means = [_mean_loss_for_seed(s) for s in range(10)]
    ten_seed = float(np.mean(seed_means))
    with capsys.disabled():
        _report(
            1,
            "mean per-sample loss at the reference configuration",
            code == 0
            and abs(printed - TARGET_MEAN) <= 3e-3
            and abs(ten_seed - TARGET_MEAN) <= 1e-3
            and elapsed <= 30.0,
            f"single-seed {printed:.5f}, 10-seed avg {ten_seed:.5f}, {elapsed:.1f}s",
        )


def test_criterion_2_amplified_loss(capsys):
    plain = _mean_loss_for_seed(0, amplified=False)
    amped = _mean_loss_for_seed(0, amplified=True)
    delta = amped - plain
    with capsys.disabled():
        _report(
            2,
            "amplified configuration raises the mean loss",
            abs(amped - TARGET_AMPLIFIED) <= 3e-3 and 0.0 < delta < 5e-4,
            f"amplified {amped:.5f}, delta {delta:.2e}",
        )


def test_criterion_3_stationarity_grid(capsys):
    worst_grad = 0.0
    worst_same = 0.0
    for C, m, lh in GRID:
        params = TheoryParams(C=C, m=m, lambda_h=lh)
        frame = build_simplex_etf(C, C, m, seed=0)
        cfg = UfmConfig(lambda_h=lh)
        same = theory.solve_same_class(params)
        worst_same = max(worst_same, abs(same_class_equation(same.k, C, m * m, lh)))
        for lam in LAMBDA_GRID:
            sol = theory.solve_different_class(params, lam)
            rec = assemble_feature(sol, frame, 0, 1)
            grad = per_sample_grad(frame.rows, rec.h, 0, 1, lam, cfg)
            worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
    with capsys.disabled():
        _report(
            3,
            "closed-form features are stationary points across the grid",
            worst_grad <= 1e-8 and worst_same <= 1e-10,
            f"worst gradient {worst_grad:.2e}, worst scalar residual {worst_same:.2e}",
        )


def test_criterion_4_oracle_equivalence(capsys):
    worst_rel = 0.0
    worst_uniq = 0.0
    rng = np.random.default_rng(99)
    for C, m, lh in GRID:
        params = TheoryParams(C=C, m=m, lambda_h=lh)
        frame = build_simplex_etf(C, C, m, seed=0)
        cfg = UfmConfig(lambda_h=lh)
        for lam in LAMBDA_GRID:
            sol = theory.solve_different_class(params, lam)
            rec = assemble_feature(sol, frame, 0, 1)
            scale = max(1.0, float(np.linalg.norm(rec.h)))
            h_zero = minimize_per_sample(frame.rows, 0, 1, lam, cfg)
            h_rand = minimize_per_sample(
                frame.rows, 0, 1, lam, cfg, init=rng.normal(size=C)
            )
            worst_rel = max(
                worst_rel,
                float(np.linalg.norm(h_zero - rec.h)) / scale,
                float(np.linalg.norm(h_rand - rec.h)) / scale,
            )
            worst_uniq = max(
                worst_uniq, float(np.linalg.norm(h_zero - h_rand)) / scale
            )
    with capsys.disabled():
        _report(
            4,
            "independent minimizer matches the closed form from any init",
            worst_rel <= 1e-4 and worst_uniq <= 1e-4,
            f"worst relative gap {worst_rel:.2e}, init gap {worst_uniq:.2e}",
        )


def test_criterion_5_boundary_and_symmetry(capsys):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    same = assemble_feature(theory.solve_same_class(FIG_PARAMS), frame, 0, 0)
    boundary = assemble_feature(
        theory.solve_different_class(FIG_PARAMS, 1.0), frame, 0, 1
    )
    boundary_gap = float(
        np.linalg.norm(boundary.h - same.h) / np.linalg.norm(same.h)
    )
    swap_gap = 0.0
    for lam in (0.1, 0.3, 0.45):
        a = assemble_feature(theory.solve_different_class(FIG_PARAMS, lam), frame, 2, 7)
        b = assemble_feature(
            theory.solve_different_class(FIG_PARAMS, 1.0 - lam), frame, 7, 2
        )
        swap_gap = max(swap_gap, float(np.linalg.norm(a.h - b.h)))
    again = assemble_feature(theory.solve_same_class(FIG_PARAMS), frame, 0, 0)
    bit_exact = np.array_equal(same.h, again.h)
    with capsys.disabled():
        _report(
            5,
            "boundary, swap, and same-class invariance identities",
            boundary_gap <= 1e-6 and swap_gap <= 1e-8 and bit_exact,
            f"boundary {boundary_gap:.2e}, swap {swap_gap:.2e}",
        )


def test_criterion_6_etf_suite(capsys):
    worst = 0.0
    for C in (2, 3, 10):
        for d in (C, C + 5, 100):
            m = 2.0
            frame = build_simplex_etf(C, d, m, seed=1)
            w = frame.rows
            norms = np.linalg.norm(w, axis=1)
            worst = max(worst, float(np.max(np.abs(norms - m))))
            gram_target = m * m * (C / (C - 1.0)) * (np.eye(C) - np.ones((C, C)) / C)
            worst = max(worst, float(np.max(np.abs(w @ w.T - gram_target))))
            worst = max(worst, float(np.max(np.abs(w.sum(axis=0)))))
            basis_gap = np.max(np.abs(frame.basis.T @ frame.basis - np.eye(C)))
            worst = max(worst, float(basis_gap))
    with capsys.disabled():
        _report(
            6,
            "simplex frame invariants across class counts and dimensions",
            worst <= 1e-10,
            f"worst deviation {worst:.2e}",
        )


def test_criterion_7_projection_suite(capsys):
    rng = np.random.default_rng(0)
    ok = True
    details = []
    # semi-orthogonality on a generic input
    op = build_projection(rng.normal(size=(3, 30)))
    ortho = float(np.max(np.abs(op.Q @ op.Q.T - np.eye(3))))
    ok &= ortho <= 1e-10
    details.append(f"orthogonality {ortho:.1e}")
    # exact frame rows to scaled vertices
    frame = build_simplex_etf(3, 12, 1.0, seed=3)
    op3 = build_projection(frame.rows)
    verts = np.stack([project_vector(op3, row) for row in frame.rows])
    vert_gap = float(np.max(np.abs(verts - np.sqrt(1.5) * TRIANGLE.T)))
    ok &= vert_gap <= 1e-8
    details.append(f"vertices {vert_gap:.1e}")
    # affine property
    h1, h2 = rng.normal(size=30), rng.normal(size=30)
    alpha = 0.37
    affine_gap = float(
        np.max(
            np.abs(
                project_vector(op, alpha * h1 + (1 - alpha) * h2)
                - alpha * project_vector(op, h1)
                - (1 - alpha) * project_vector(op, h2)
            )
        )
    )
    ok &= affine_gap <= 1e-12
    details.append(f"affine {affine_gap:.1e}")
    # null-direction invariance on the rank-2 frame
    null = np.linalg.svd(frame.rows)[2][2]
    null_gap = float(np.max(np.abs(project_vector(op3, 7.0 * null))))
    ok &= null_gap <= 1e-10
    details.append(f"null {null_gap:.1e}")
    with capsys.disabled():
        _report(7, "planar projection suite", ok, ", ".join(details))


def test_criterion_8_ece(capsys):
    hand = ece([0.9, 0.8, 0.6, 0.55], [0, 0, 0, 0], [0, 0, 1, 0], num_bins=2).ece
    perfect = ece([1.0] * 6, [1] * 6, [1] * 6, num_bins=15).ece
    rng = np.random.default_rng(1)
    conf = rng.uniform(size=80)
    pred = rng.integers(0, 3, size=80)
    lab = rng.integers(0, 3, size=80)
    collapse = ece(conf, pred, lab, num_bins=1).ece
    identity = abs(float((pred == lab).mean()) - float(conf.mean()))
    with capsys.disabled():
        _report(
            8,
            "expected calibration error formulas",
            abs(hand - 0.0375) <= 1e-12
            and perfect == 0.0
            and abs(collapse - identity) <= 1e-12,
            f"hand case {hand:.6f}",
        )


def test_criterion_9_backprop_gradients(capsys):
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=(5, 3)) * 0.5, rng.normal(size=(5, 5)) * 0.5]
    biases = [rng.normal(size=5) * 0.1, rng.normal(size=5) * 0.1]
    clf_w = rng.normal(size=(3, 5)) * 0.5
    clf_b = rng.normal(size=3) * 0.1
    x = rng.normal(size=(4, 3))
    targets = rng.dirichlet(np.ones(3), size=4)
    worst = 0.0
    for loss_kind in ("ce_mixup", "mse_mixup"):
        _, dw, db, dcw, dcb = trainer.loss_and_grads(
            weights, biases, clf_w, clf_b, "relu", x, targets, loss_kind
        )
        eps = 1e-5
        for arr, grad in [
            (weights[0], dw[0]), (weights[1], dw[1]),
            (biases[0], db[0]), (biases[1], db[1]),
            (clf_w, dcw), (clf_b, dcb),
        ]:
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                up = trainer.loss_and_grads(
                    weights, biases, clf_w, clf_b, "relu", x, targets, loss_kind
                )[0]
                flat[k] = orig - eps
                down = trainer.loss_and_grads(
                    weights, biases, clf_w, clf_b, "relu", x, targets, loss_kind
                )[0]
                flat[k] = orig
                fd = (up - down) / (2 * eps)
                scale = max(abs(fd), abs(gflat[k]), 1e-8)
                worst = max(worst, abs(gflat[k] - fd) / scale)
    with capsys.disabled():
        _report(
            9,
            "manual backpropagation matches finite differences",
            worst <= 1e-4,
            f"worst relative error {worst:.2e}",
        )


def test_criterion_10_desk_scale_phenomena(capsys):
    start = time.time()
    spec = trainer.default_dataset_spec(seed=0)
    x, y = data = trainer.make_synthetic(spec)

    model = trainer.train(data, trainer.TrainConfig())
    acc = model.history[-1].accuracy
    ok_a = acc >= 0.95

    # (b) alignment of same-class lam=0.5 activations with their row,
    # measured on centered activations (the global mean activation of
    # the clean training data is subtracted, as in the planar view)
    every10 = np.arange(0, len(x), 10)
    clean = mix(x, y, every10, every10, np.ones(len(every10)), 3)
    center = np.mean(trainer.extract_activations(model, clean)[1], axis=0)
    rng = np.random.default_rng(1)
    pairs = []
    for c in range(3):
        idx = np.flatnonzero(y == c)
        for _ in range(20):
            pairs.append(rng.choice(idx, 2, replace=False))
    i, j = np.array(pairs).T
    probes = mix(x, y, i, j, np.full(len(i), 0.5), 3)
    cosines = []
    for (class_i, _, _, _), row in zip(*trainer.extract_activations(model, probes)):
        h = row - center
        w = model.clf_w[class_i]
        cosines.append(float(h @ w / (np.linalg.norm(h) * np.linalg.norm(w))))
    mean_cos = float(np.mean(cosines))
    ok_b = mean_cos >= 0.9

    first = model.history[0].classifier_metrics
    last = model.history[-1].classifier_metrics
    ok_c = (
        last.norm_cv <= 0.5 * first.norm_cv
        and last.cosine_std <= 0.5 * first.cosine_std
    )

    fixed = trainer.train(data, trainer.TrainConfig(classifier_mode="fixed_etf"))
    ok_d = fixed.history[-1].accuracy >= 0.95 and all(
        s.classifier_metrics.norm_cv < 1e-12
        and s.classifier_metrics.cosine_std < 1e-12
        for s in fixed.history
    )

    mse = trainer.train(data, trainer.TrainConfig(loss_kind="mse_mixup"))
    mu = {}
    for c in range(3):
        idx = np.flatnonzero(y == c)[:100]
        clean = mix(x, y, idx, idx, np.ones(len(idx)), 3)
        mu[c] = np.mean(trainer.extract_activations(mse, clean)[1], axis=0)
    basis = np.stack([mu[0], mu[1]], axis=1)
    lams, i, j = [], [], []
    rng = np.random.default_rng(2)
    for lam in np.linspace(0.05, 0.95, 19):
        for _ in range(5):
            i.append(rng.choice(np.flatnonzero(y == 0)))
            j.append(rng.choice(np.flatnonzero(y == 1)))
            lams.append(lam)
    coefs = []
    for row in trainer.extract_activations(mse, mix(x, y, i, j, lams, 3))[1]:
        coef, *_ = np.linalg.lstsq(basis, row, rcond=None)
        coefs.append(coef[0])
    r = float(np.corrcoef(lams, coefs)[0, 1])
    ok_e = r >= 0.9
    elapsed = time.time() - start
    with capsys.disabled():
        _report(
            10,
            "desk-scale training phenomena",
            ok_a and ok_b and ok_c and ok_d and ok_e and elapsed <= 60.0,
            f"acc {acc:.3f}, cos {mean_cos:.3f}, metrics halved {ok_c}, "
            f"fixed-frame ok {ok_d}, lambda corr {r:.3f}, {elapsed:.0f}s",
        )


def test_criterion_11_cli_byte_determinism(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        feats = tmp_path / f"feats_{tag}.csv"
        cli.main(
            ["theory-solve", "--samples", "40", "--seed", "3", "--out", str(feats)]
        )
        cfg = tmp_path / f"cfg_{tag}.txt"
        cfg.write_text(
            "dataset.samples_per_class = 30\ntrain.epochs = 2\ntrain.seed = 5\n"
        )
        model = tmp_path / f"model_{tag}.json"
        dataset = tmp_path / f"data_{tag}.csv"
        cli.main(
            ["train", "--config", str(cfg), "--out", str(model),
             "--dataset-out", str(dataset)]
        )
        paths.append((feats, model, dataset))
    capsys.readouterr()
    (fa, ma, da), (fb, mb, db) = paths
    ok = (
        fa.read_bytes() == fb.read_bytes()
        and (tmp_path / "feats_a.csv.summary.json").read_bytes()
        == (tmp_path / "feats_b.csv.summary.json").read_bytes()
        and ma.read_bytes() == mb.read_bytes()
        and da.read_bytes() == db.read_bytes()
    )
    with capsys.disabled():
        _report(11, "repeated invocations are byte-identical", ok)
