"""Self-tests of the benchmark's checks and trace arithmetic.

Run from the repository root:

    python3 -m pytest -q e2ebench

Valid outputs are built here without the program (features by Newton's
method on the per-sample objective, projections through the inverse
square root of the Gram matrix, ECE by a plain loop); each check must
accept them and reject a perturbed copy.
"""

import json
import os
import sys
import types

import numpy as np
import pytest

import checks
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
C, D, M, LAMBDA_H = 4, 6, 1.5, 1e-2
LAMS = [0.15, 0.5, 0.8]
CLASSES = range(3)


def _newton_feature(w, i, ip, lam):
    """Minimiser of the per-sample soft-target CE plus (lambda_h/2)|h|^2."""
    y = np.zeros(len(w))
    y[i] += lam
    y[ip] += 1.0 - lam
    h = np.zeros(w.shape[1])
    for _ in range(100):
        z = w @ h
        p = np.exp(z - z.max())
        p /= p.sum()
        grad = w.T @ (p - y) + LAMBDA_H * h
        if np.linalg.norm(grad) < 1e-14:
            break
        hess = w.T @ (np.diag(p) - np.outer(p, p)) @ w + LAMBDA_H * np.eye(len(h))
        h = h - np.linalg.solve(hess, grad)
    return h


@pytest.fixture(scope="module")
def theory():
    w = checks.simplex_etf(C, D, M, seed=3)
    meta, rows = [], []
    for lam in LAMS:
        for i in CLASSES:
            for ip in CLASSES:
                kind = "same_class" if i == ip else "different_class"
                meta.append((i, ip, lam, kind))
                rows.append(_newton_feature(w, i, ip, lam))
    t = checks.Table(
        class_i=np.array([m[0] for m in meta]),
        class_ip=np.array([m[1] for m in meta]),
        lam=np.array([m[2] for m in meta]),
        kind=np.array([m[3] for m in meta]),
        amplified=np.zeros(len(meta), dtype=int),
        values=np.array(rows),
    )
    return t, w


def _copy(t, values=None):
    return checks.Table(
        t.class_i, t.class_ip, t.lam, t.kind, t.amplified,
        t.values.copy() if values is None else values,
    )


def test_simplex_etf_is_an_etf():
    w = checks.simplex_etf(C, D, M, seed=3)
    norms = np.linalg.norm(w, axis=1)
    cos = (w @ w.T) / np.outer(norms, norms)
    assert np.allclose(norms, M)
    assert np.allclose(cos[~np.eye(C, dtype=bool)], -1.0 / (C - 1))
    assert np.allclose(w.sum(axis=0), 0.0)


def test_theory_checks_accept_exact_features(theory):
    t, w = theory
    loss = checks.mean_loss(t, w, LAMBDA_H)
    assert checks.check_row_count(t, len(LAMS) * 9, "features") == []
    assert checks.check_stationarity(t, w, LAMBDA_H) == []
    assert checks.check_feature_geometry(t, w) == []
    assert checks.check_loss(t, w, LAMBDA_H, loss, round(loss, 6)) == []


@pytest.mark.parametrize("row", [0, 1, 4, 17])
@pytest.mark.parametrize("component", [0, 3])
def test_nudged_feature_component_is_rejected(theory, row, component):
    t, w = theory
    bad = _copy(t)
    bad.values[row, component] += 1e-6
    assert checks.check_feature_geometry(bad, w)


def test_stationarity_rejects_a_nudged_different_class_row(theory):
    t, w = theory
    bad = _copy(t)
    bad.values[1] += 1e-6
    assert checks.check_stationarity(bad, w, LAMBDA_H)


def test_wrong_loss_is_rejected(theory):
    t, w = theory
    loss = checks.mean_loss(t, w, LAMBDA_H)
    assert checks.check_loss(t, w, LAMBDA_H, loss * (1 + 1e-9), round(loss, 6))
    assert checks.check_loss(t, w, LAMBDA_H, loss, round(loss, 6) + 1e-5)


def test_row_count_mismatch_is_rejected(theory):
    t, _ = theory
    assert checks.check_row_count(t, len(t) + 1, "features")


def _points_by_gram(features, rows, center):
    """A Q (h - c) with Q = (U U^T)^(-1/2) U, U the unit rows."""
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    vals, vecs = np.linalg.eigh(unit @ unit.T)
    q = vecs @ np.diag(vals**-0.5) @ vecs.T @ unit
    a = np.array([[0.0, -np.sqrt(3) / 2, np.sqrt(3) / 2], [1.0, -0.5, -0.5]])
    return (features.values - center) @ q.T @ a.T


@pytest.mark.parametrize("center", [False, True])
def test_projection_accepts_exact_and_rejects_moved_point(theory, center):
    t, _ = theory
    rows = np.random.default_rng(0).standard_normal((3, D))
    c = t.values.mean(axis=0) if center else np.zeros(D)
    points = _copy(t, _points_by_gram(t, rows, c))
    assert checks.check_projection(t, points, rows, center) == []
    moved = _copy(points)
    moved.values[5, 1] += 1e-6
    assert checks.check_projection(t, moved, rows, center)
    assert checks.check_projection(t, points, rows, not center)


def _loop_ece(conf, pred, label, bins):
    total = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        members = [
            k for k, c in enumerate(conf)
            if lo <= c < hi or (b == bins - 1 and c == 1.0)
        ]
        if members:
            acc = np.mean([pred[k] == label[k] for k in members])
            mean_conf = np.mean([conf[k] for k in members])
            total += len(members) / len(conf) * abs(acc - mean_conf)
    return total


def test_ece_accepts_exact_and_rejects_wrong_value():
    rng = np.random.default_rng(1)
    conf = np.concatenate([rng.uniform(0.34, 1.0, 500), [1.0, 0.4]])
    pred = rng.integers(0, 3, conf.size)
    label = np.where(rng.uniform(size=conf.size) < conf, pred, (pred + 1) % 3)
    want = _loop_ece(conf, pred, label, 15)
    assert checks.check_ece(conf, pred, label, 15, {"ece": want}, round(want, 6)) == []
    assert checks.check_ece(conf, pred, label, 15, {"ece": want + 1e-6}, round(want, 6))
    assert checks.check_ece(conf, pred, label, 15, {"ece": want}, round(want, 6) + 1e-5)


def test_second_pass_differing_by_one_byte_is_rejected(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    data = bytearray(b"class_i,class_ip\n0,1\n" * 1000)
    first.write_bytes(bytes(data))
    data[1234] ^= 1
    second.write_bytes(bytes(data))
    same = {"features.csv": checks.file_digest(first)}
    other = {"features.csv": checks.file_digest(second)}
    assert checks.check_determinism([same, dict(same), dict(same)]) == []
    assert checks.check_determinism([same, dict(same), other]) == [(2, "features.csv")]
    assert checks.check_determinism([same, {}]) == [(1, "features.csv")]


def test_self_times_on_hand_made_tree():
    # 0 root [0, 10]
    #   1 [1, 4]      2 [3, 6] overlaps 1      3 [9, 12] ends after 0
    #     4 [2, 3] under 1
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracing.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6
    assert got.tolist() == [4.0, 2.0, 3.0, 3.0, 1.0]
    order = [3, 4, 0, 2, 1]  # same tree, recorded out of order
    remap = {old: new for new, old in enumerate(order)}
    shuffled = tracing.self_times(
        [start[k] for k in order],
        [end[k] for k in order],
        [remap[parent[k]] if parent[k] >= 0 else -1 for k in order],
    )
    assert shuffled.tolist() == [got[k] for k in order]


def test_pass_summary_counts_and_self_time():
    tracer = tracing.Tracer()
    with tracer.span("cli.run"):
        for _ in range(3):
            with tracer.span("layer.f"):
                pass
    s = tracing.PassSummary(tracer, 0, tracer.mark(), wall=1.0)
    assert s.calls_of("layer.f") == 3 and s.calls_of("cli.run") == 1
    assert s.time_of("missing.g") == 0.0
    assert abs(s.self_of("cli.run") + s.time_of("layer.f") - s.time_of("cli.run")) < 1e-12


def test_tracer_wraps_where_callers_look_up_and_restores(monkeypatch):
    def double(x):
        return 2 * x

    double.__module__ = "mixupgeom.fakelayer"
    home = types.ModuleType("mixupgeom.fakelayer")
    caller = types.ModuleType("mixupgeom.fakecaller")
    home.double = caller.double = double
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    tracer = tracing.Tracer()
    tracer.install()
    assert home.double(1) == 2 and caller.double(2) == 4
    tracer.uninstall()
    assert home.double is double and caller.double is double
    s = tracing.PassSummary(tracer, 0, tracer.mark(), wall=1.0)
    assert s.calls_of("fakelayer.double") == 2
    assert "fakelayer.double" in tracer.wrapped
    assert "fakelayer.triple" not in tracer.wrapped  # would be reported absent


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    code = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    code["trace.overhead_s"] = "s"
    assert per_layer == code
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "output_mb"
    }


def test_reference_speed_scales_by_the_loop_time_around_the_operation():
    # The loop ran at twice its reference time on average around a 3 s
    # operation: at reference speed the operation takes 1.5 s.
    ref = worker.CAL_REF_S
    assert worker.at_reference_speed(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)
    assert worker.at_reference_speed(3.0, ref, ref) == pytest.approx(3.0)
