import array
import math
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixupgeom import _floattext, kernels, theory
from mixupgeom.etf import SimplexEtf, _parse_rows, build_simplex_etf
from mixupgeom.mixup import BetaSpec, make_mixup_batch
from mixupgeom.theory import (
    DIFFERENT_CLASS,
    SAME_CLASS,
    TheoryParams,
    amplify,
    assemble_feature,
    epsilon_amplification,
    features_from_csv,
    features_to_csv,
    generate_configuration,
    solve_different_class,
    solve_grid,
    solve_same_class,
)
from mixupgeom.trainer import (
    TrainConfig,
    default_dataset_spec,
    extract_activations,
    make_synthetic,
    train,
)
from mixupgeom.ufm import UfmConfig, per_sample_grad, per_sample_loss, total_objective

PARAMS = TheoryParams(C=10, m=3.0, lambda_h=1e-6)
DATA = Path(__file__).parent / "data"


def test_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(C=1, m=1.0, lambda_h=1e-6)
    with pytest.raises(ValueError):
        TheoryParams(C=3, m=1.0, lambda_h=0.0)
    for m in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"got {m}"):
            TheoryParams(C=3, m=m, lambda_h=1e-6)
    with pytest.raises(ValueError, match="got inf"):
        TheoryParams(C=3, m=1.0, lambda_h=float("inf"))
    # m^2 overflows or underflows a float.
    for m in (1e200, -1e155, 1e-200):
        with pytest.raises(ValueError, match=re.escape(f"m={m} has no positive finite square")):
            TheoryParams(C=3, m=m, lambda_h=1e-6)


def test_same_class_solution_structure():
    sol = solve_same_class(PARAMS)
    assert sol.k < 0
    assert sol.residual <= 1e-12
    assert sol.inner_self == pytest.approx(-9.0 * sol.k)
    assert sol.coeff == pytest.approx(-9.0 * sol.k / 9.0)


def test_same_class_feature_on_ray_and_stationary():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    sol = solve_same_class(PARAMS)
    rec = assemble_feature(sol, frame, 4, 4)
    # on the ray through w_4
    w = frame.rows[4]
    off_ray = rec.h - (rec.h @ w / (w @ w)) * w
    assert np.linalg.norm(off_ray) < 1e-10
    cfg = UfmConfig(lambda_h=1e-6)
    grad = per_sample_grad(frame.rows, rec.h, 4, 4, 1.0, cfg)
    assert np.linalg.norm(grad) < 1e-8


def test_same_class_is_lambda_independent():
    sol_a = solve_same_class(PARAMS)
    sol_b = solve_same_class(PARAMS)
    assert sol_a.k == sol_b.k  # bit-exact


def test_diff_probability_bookkeeping():
    for lam in (0.1, 0.3, 0.5, 0.8):
        sol = solve_different_class(PARAMS, lam)
        C, m2, lh = PARAMS.C, PARAMS.m**2, PARAMS.lambda_h
        total = sol.p_i + sol.p_ip + (C - 2) * sol.p_tail
        assert total == pytest.approx(1.0, abs=1e-12)
        assert sol.p_i - lam == pytest.approx(
            (1 - C) * lh * sol.inner_i / (C * m2), abs=1e-14
        )
        assert sol.p_ip - (1 - lam) == pytest.approx(
            (1 - C) * lh * sol.inner_ip / (C * m2), abs=1e-14
        )


def test_diff_feature_in_span_and_stationary():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    cfg = UfmConfig(lambda_h=1e-6)
    for lam in (0.2, 0.5, 0.9):
        sol = solve_different_class(PARAMS, lam)
        rec = assemble_feature(sol, frame, 1, 7)
        basis = np.stack([frame.rows[1], frame.rows[7]])
        coef, *_ = np.linalg.lstsq(basis.T, rec.h, rcond=None)
        assert np.linalg.norm(rec.h - basis.T @ coef) < 1e-10
        grad = per_sample_grad(frame.rows, rec.h, 1, 7, lam, cfg)
        assert np.linalg.norm(grad) < 1e-8


def test_swap_symmetry():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    for lam in (0.15, 0.4):
        a = assemble_feature(solve_different_class(PARAMS, lam), frame, 2, 5)
        b = assemble_feature(solve_different_class(PARAMS, 1.0 - lam), frame, 5, 2)
        assert np.linalg.norm(a.h - b.h) < 1e-8


def test_boundary_lambda_one_matches_same_class():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    same = assemble_feature(solve_same_class(PARAMS), frame, 0, 0)
    diff = assemble_feature(solve_different_class(PARAMS, 1.0), frame, 0, 3)
    assert np.linalg.norm(diff.h - same.h) <= 1e-6 * np.linalg.norm(same.h)


def test_degenerate_lambdas_share_one_same_class_solve(monkeypatch):
    calls = []
    solve = kernels.solve_same_class_k
    monkeypatch.setattr(
        kernels, "solve_same_class_k", lambda *a: calls.append(a) or solve(*a)
    )
    lams = [0.0, 1.0, 0.5, 1.0, 0.0]
    ((_, sols),) = solve_grid([PARAMS], lams)
    assert len(calls) == 1
    assert [s.lam for s in sols] == lams
    assert sols[1] == sols[3] == solve_different_class(PARAMS, 1.0)
    assert sols[0] == sols[4] == solve_different_class(PARAMS, 0.0)


def test_grid_matches_cell_by_cell_solves():
    cells = [
        TheoryParams(C=C, m=m, lambda_h=lh)
        for C in (2, 3, 10)
        for m in (1.0, 3.0)
        for lh in (1e-6, 1e-2)
    ]
    lams = [0.0, 0.1, 0.5, 0.5, 0.9, 1.0]
    grid = solve_grid(cells, lams)
    assert len(grid) == len(cells)
    for params, (same, sols) in zip(cells, grid):
        assert same == solve_same_class(params)
        assert sols == [solve_different_class(params, lam) for lam in lams]


def test_p_i_monotone_in_lambda():
    values = [
        solve_different_class(PARAMS, lam).p_i for lam in np.linspace(0.05, 0.95, 19)
    ]
    assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))


def test_two_class_case():
    params = TheoryParams(C=2, m=1.0, lambda_h=1e-3)
    sol = solve_different_class(params, 0.3)
    assert sol.p_tail == 0.0
    assert sol.inner_i + sol.inner_ip == pytest.approx(0.0, abs=1e-12)
    frame = build_simplex_etf(2, 2, 1.0, seed=0)
    rec = assemble_feature(sol, frame, 0, 1)
    grad = per_sample_grad(frame.rows, rec.h, 0, 1, 0.3, UfmConfig(lambda_h=1e-3))
    assert np.linalg.norm(grad) < 1e-8


def test_amplification_profile():
    assert epsilon_amplification(0.5) == pytest.approx(0.4, abs=1e-15)
    assert epsilon_amplification(0.2) == pytest.approx(
        epsilon_amplification(0.8), abs=1e-15
    )
    assert epsilon_amplification(0.0) < 0
    assert epsilon_amplification(1.0) < 0


def test_amplify_shifts_along_row_sum():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    rec = assemble_feature(solve_different_class(PARAMS, 0.5), frame, 0, 1)
    amp = amplify(rec, frame)
    shift = amp.h - rec.h
    expected = 0.4 * (frame.rows[0] + frame.rows[1])
    assert np.allclose(shift, expected, atol=1e-12)
    assert amp.amplified and not rec.amplified
    same = assemble_feature(solve_same_class(PARAMS), frame, 2, 2)
    assert amplify(same, frame) is same


def test_generate_configuration_order_and_count():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    lams = [0.25, 0.75]
    config = generate_configuration(PARAMS, frame, [0, 1, 2], lams)
    records = _records(config)
    assert len(config) == len(records) == len(lams) * 9
    # lambda-major, then ordered pair in nested subset order
    assert records[0].lam == 0.25 and records[9].lam == 0.75
    kinds = [r.kind for r in records[:9]]
    assert kinds.count(SAME_CLASS) == 3 and kinds.count(DIFFERENT_CLASS) == 6


def test_amplified_configuration_increases_mean_loss():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    lams = list(np.linspace(0.1, 0.9, 9))
    cfg = UfmConfig(lambda_h=1e-6)

    def mean_loss(records):
        return np.mean(
            [
                per_sample_loss(frame.rows, r.h, r.class_i, r.class_ip, r.lam, cfg)
                for r in _records(records)
            ]
        )

    plain = generate_configuration(PARAMS, frame, [0, 1, 2], lams)
    amped = generate_configuration(PARAMS, frame, [0, 1, 2], lams, amplified=True)
    assert mean_loss(amped) > mean_loss(plain)


def test_configuration_matches_per_record_assembly():
    # generate_configuration builds each family with one broadcast; every
    # row must equal assemble_feature (and amplify) bit for bit.
    for params, d, subset, lams in [
        (PARAMS, 100, [0, 1, 2], [0.0, 0.25, 0.5, 0.25, 1.0]),
        (TheoryParams(C=2, m=1.5, lambda_h=1e-3), 4, [1, 0], [0.3, 1.0]),
        (PARAMS, 100, [4], [0.6]),
    ]:
        frame = build_simplex_etf(params.C, d, params.m, seed=1)
        ((same, diff),) = solve_grid([params], lams)
        for amplified in (False, True):
            records = generate_configuration(params, frame, subset, lams, amplified)
            expected = []
            for lam, sol in zip(lams, diff):
                for i in subset:
                    for ip in subset:
                        rec = assemble_feature(same if i == ip else sol, frame, i, ip)
                        rec.lam = lam
                        expected.append(amplify(rec, frame) if amplified else rec)
            assert len(records) == len(expected)
            for a, b in zip(_records(records), expected):
                assert (a.class_i, a.class_ip, a.lam, a.kind, a.amplified) == (
                    b.class_i, b.class_ip, b.lam, b.kind, b.amplified
                )
                assert a.h.tobytes() == b.h.tobytes()


TWO = TheoryParams(C=2, m=1.5, lambda_h=1e-3)


@pytest.mark.parametrize(
    "params, d, subset, amplified",
    [
        (PARAMS, 100, [0, 1, 2], False),
        (PARAMS, 100, [0, 1, 2], True),
        (TWO, 4, [0, 1], False),
        (TWO, 4, [1, 0], True),
        (PARAMS, 100, [4], False),
    ],
    ids=["plain", "amplified", "two-class", "subset-1-0", "subset-4"],
)
def test_objective_from_coefficients_agrees_with_the_stacked_records(
    params, d, subset, amplified
):
    # The logits and norms come from the rows' products and Gram matrix,
    # not from each h, so the sum rounds differently: a few ulps at most.
    frame = build_simplex_etf(params.C, d, params.m, seed=1)
    records = generate_configuration(params, frame, subset, [0.0, 0.3, 0.5, 1.0], amplified)
    stacked = _records(records)
    cfg = UfmConfig(lambda_h=params.lambda_h)
    assert total_objective(frame.rows, records, cfg).mean_per_sample == pytest.approx(
        total_objective(frame.rows, stacked, cfg).mean_per_sample, rel=1e-15, abs=0.0
    )


def test_a_configuration_makes_its_blocks_on_demand():
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5], amplified=True)
    (fronts, h), = records.blocks()
    again = _records(records)
    assert len(records) == len(fronts) == len(again) == 18
    # A block is made afresh: changing one, a same-class row (0) or not
    # (5), changes nothing held.
    for k in (0, 5):
        h[k] = 0.0
        fronts[k] = (*fronts[k][:2], 0.9, fronts[k][3])
    _records_equal(_records(records), again)


def test_same_class_records_share_one_row_that_is_formatted_once(tmp_path, monkeypatch):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    lams = [0.2, 0.5, 0.9]
    records = generate_configuration(PARAMS, frame, [0, 1, 2], lams)
    for c in (0, 1, 2):
        rows = [
            r.h.tobytes() for r in _records(records) if r.kind == SAME_CLASS and r.class_i == c
        ]
        assert len(rows) == len(lams) and all(h == rows[0] for h in rows)
    formatted = []

    cells = _floattext.cells

    def counting_cells(a, out=None):
        formatted.append(np.shape(a))
        return cells(a, out)

    monkeypatch.setattr(theory, "_process_count", lambda floats: 1)
    monkeypatch.setattr(_floattext, "cells", counting_cells)
    features_to_csv(records, tmp_path / "features.csv")
    # One row per class and one per lambda and ordered pair, d floats each,
    # and each lambda once.
    assert sum(n * d for n, d in formatted if d == 100) == (3 + len(lams) * 6) * 100
    assert sum(n * d for n, d in formatted if d == 1) == len(lams)
    assert (tmp_path / "features.csv").read_text() == reference_features_csv(records)


def test_configuration_and_objective_at_paper_scale_hold_no_matrix():
    # C = 10, d = 1000, all 10 classes and the paper's 5000 lambda:
    # 500 000 records, whose n x d matrix would take 4.0 GB. The bound
    # was fixed before the first run.
    params = TheoryParams(C=10, m=3.0, lambda_h=1e-6)
    frame = build_simplex_etf(10, 1000, 3.0, seed=0)
    lams = list(np.random.default_rng(0).uniform(size=5000))
    tracemalloc.start()
    try:
        records = generate_configuration(params, frame, range(10), lams)
        total_objective(frame.rows, records, UfmConfig(lambda_h=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 500_000
    assert peak < 8_000_000


def reference_features_csv(rows) -> str:
    """The per-element writer features_to_csv replaced: repr of every
    numpy scalar, one line per record of a Configuration or a (fronts, h)
    pair."""
    records = _records(rows)
    d = len(records[0].h)
    lines = ["class_i,class_ip,lambda,kind,amplified," + ",".join(
        f"h_{j}" for j in range(d)
    )]
    for r in records:
        front = f"{r.class_i},{r.class_ip},{repr(float(r.lam))},{r.kind},{int(r.amplified)}"
        lines.append(front + "," + ",".join(repr(float(v)) for v in r.h))
    return "\n".join(lines) + "\n"


def _extracted_rows():
    data = make_synthetic(default_dataset_spec(seed=0, samples_per_class=20))
    model = train(data, TrainConfig(hidden_layers=2, width=8, epochs=2, seed=0))
    batch = make_mixup_batch(*data, BetaSpec(0.05), 60, np.random.default_rng(0), 3)
    return extract_activations(model, batch)


def _edge_value_rows():
    """A pair whose h holds -0.0, values below 1e-4 and exponent forms, and
    whose lambdas are 0.0, 1.0 and 1e-05."""
    fronts, h = _pair(generate_configuration(
        PARAMS, build_simplex_etf(10, 100, 3.0, seed=0), [0, 1, 2], [0.0, 1e-05, 1.0, 0.5],
    ))
    h[:, 0] = -0.0
    h[:, 1] = 0.0
    h[:, 2] = np.linspace(-9e-5, 9e-5, len(h))
    h[:, 3] = 3e-300
    h[::2, 4] = 1e16
    return fronts, h


def _wide_rows():
    """A pair of rows wider than _floattext.CHUNK, each formatted in
    several passes."""
    rng = np.random.default_rng(5)
    fronts = [(12, 3, 0.25, True), (7, 7, 1e-05, False), (3, 12, 1.0, True)]
    return fronts, rng.normal(size=(3, _floattext.CHUNK + 900))


WRITER_CASES = pytest.mark.parametrize(
    "make",
    [
        lambda: generate_configuration(
            PARAMS, build_simplex_etf(10, 100, 3.0, seed=0), [0, 1, 2],
            [0.0, 0.2, 0.5, 0.5, 1.0],
        ),
        lambda: generate_configuration(
            PARAMS, build_simplex_etf(10, 100, 3.0, seed=0), [0, 1, 2],
            [0.0, 0.2, 0.5, 0.5, 1.0], amplified=True,
        ),
        lambda: generate_configuration(
            TheoryParams(C=2, m=1.0, lambda_h=1e-3),
            build_simplex_etf(2, 3, 1.0, seed=0), [0, 1], [0.0, 0.7, 1.0],
        ),
        _extracted_rows,
        lambda: generate_configuration(
            TheoryParams(C=12, m=2.0, lambda_h=1e-3), build_simplex_etf(12, 20, 2.0, seed=0),
            [11, 3, 10], [0.0, 1e-05, 0.4, 1.0], amplified=True,
        ),
        lambda: generate_configuration(
            PARAMS, build_simplex_etf(10, 100, 3.0, seed=0), [2, 0],
            [0.0, 1.0, 1e-05, 0.3],
        ),
        _edge_value_rows,
        _wide_rows,
    ],
    ids=["plain", "amplified", "two-class", "extracted", "class-ids-from-10",
         "exponent-lambdas", "edge-values", "wider-than-a-pass"],
)


@WRITER_CASES
def test_features_to_csv_matches_the_per_element_writer(tmp_path, make):
    records = make()
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    assert path.read_text() == reference_features_csv(records)


@pytest.mark.parametrize("processes", [2, 3])
@WRITER_CASES
def test_features_to_csv_on_forced_processes_matches_the_per_element_writer(
    tmp_path, monkeypatch, make, processes
):
    monkeypatch.setattr(theory, "_process_count", lambda floats: processes)
    records = make()
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    assert path.read_text() == reference_features_csv(records)
    assert os.listdir(tmp_path) == ["features.csv"]


def test_feature_csv_round_trip(tmp_path):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1], [0.3])
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    loaded = _read_records(path)
    assert len(loaded) == len(records)
    for a, b in zip(_records(records), loaded):
        assert (a.class_i, a.class_ip, a.lam, a.kind, a.amplified) == (
            b.class_i,
            b.class_ip,
            b.lam,
            b.kind,
            b.amplified,
        )
        assert np.array_equal(a.h, b.h)


def test_feature_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("class_i,class_ip,lambda,kind,amplified,h_0\n0,1,x,same_class,0,1.0\n")
    with pytest.raises(ValueError, match=":2:"):
        _read_records(bad)


def test_feature_csv_reader_rejects_malformed_rows(tmp_path):
    header = "class_i,class_ip,lambda,kind,amplified," + ",".join(
        f"h_{j}" for j in range(12)
    )
    good = "0,1,0.5,different_class,0," + ",".join(["1.5"] * 12)
    path = tmp_path / "features.csv"
    for bad, message in [
        ("0,1,0.5,different_class,0," + ",".join(["1.5"] * 9), "9 h values, the header has 12"),
        ("0,1,0.5,different_class,0," + ",".join(["1.5"] * 13), "13 h values"),
        (good.replace("different_class,0,", "different_class,7,"), "amplified must be 0 or 1"),
        (good.replace("different_class,0,", "different_class,True,"), "amplified"),
        (good.replace("different_class", "mixed"), "unknown kind 'mixed'"),
        (
            good.replace("different_class", "same_class"),
            "kind same_class does not match classes 0 and 1",
        ),
        (
            good.replace("0,1,0.5,different_class", "2,2,0.5,different_class"),
            "kind different_class does not match classes 2 and 2",
        ),
        (good.replace("0,1,0.5,", "0,1,nan,"), r"lambda nan is not in \[0, 1\]"),
        (good.replace("0,1,0.5,", "0,1,1.5,"), r"lambda 1.5 is not in \[0, 1\]"),
        (good.replace("0,1,0.5,", "0,1,-1e-300,"), r"lambda -1e-300 is not in \[0, 1\]"),
        (good.replace("0,1,0.5,", "-1,1,0.5,"), "class -1 is negative"),
        (good.replace("0,1,0.5,", "0,-2,0.5,"), "class -2 is negative"),
    ]:
        path.write_text("\n".join([header, good, good, bad, good]) + "\n")
        with pytest.raises(ValueError, match=f"features.csv:4: bad feature row: {message}"):
            _read_records(path)


@pytest.mark.parametrize(
    "rows, h, message",
    [
        (3, np.zeros(3), "h has shape (3,), 3 fronts need shape (3, d)"),
        (2, np.zeros((3, 4)), "h has shape (3, 4), 2 fronts need shape (2, d)"),
        (0, np.zeros((0, 4)), "no records to write"),
    ],
    ids=["1-d", "row-count", "empty"],
)
def test_feature_csv_writer_refuses_a_pair_of_the_wrong_shape(tmp_path, rows, h, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        features_to_csv(([(0, 1, 0.5, False)] * rows, h), tmp_path / "features.csv")
    assert os.listdir(tmp_path) == []


def _records_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.class_i, x.class_ip, x.lam, x.kind, x.amplified) == (
            y.class_i, y.class_ip, y.lam, y.kind, y.amplified
        )
        assert x.h.tobytes() == y.h.tobytes()


def _split_io(monkeypatch, n):
    """Feature-CSV I/O forced onto n processes, whatever the machine has,
    in blocks of about 4 floats (one row at d = 100) and text pieces of
    CHUNK * WINDOW = 96 bytes (about 2 rows at d = 3), so that each
    process makes, formats or reads several."""
    monkeypatch.setattr(theory, "_process_count", lambda floats: n)
    monkeypatch.setattr(_floattext, "CHUNK", 4)


@pytest.fixture(params=[2, 3], ids=["2-processes", "3-processes"])
def processes(request, monkeypatch):
    """_split_io on 2 or 3 processes."""
    _split_io(monkeypatch, request.param)
    return request.param


@WRITER_CASES
def test_features_to_csv_in_blocks_matches_the_per_element_writer(tmp_path, make, processes):
    records = make()
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    assert path.read_text() == reference_features_csv(records)
    assert os.listdir(tmp_path) == ["features.csv"]


def test_features_to_csv_in_blocks_keeps_the_callers_files(tmp_path, processes):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5])
    path = tmp_path / "features.csv"
    mine = {f"features.csv.part{j}": f"part {j}\n" for j in range(4)}
    mine[".part-x"] = "x\n"
    for name, text in mine.items():
        (tmp_path / name).write_text(text)
    features_to_csv(records, path)
    assert path.read_text() == reference_features_csv(records)
    assert sorted(os.listdir(tmp_path)) == sorted(["features.csv", *mine])
    for name, text in mine.items():
        assert (tmp_path / name).read_text() == text


def test_feature_csv_round_trip_in_blocks(tmp_path, processes):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5, 0.9], amplified=True)
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    _records_equal(_read_records(path), _records(records))
    # Every child was waited for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_each_gets_every_row_once_in_file_order_in_no_empty_block(
    tmp_path, monkeypatch, processes
):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5, 0.9], amplified=True)
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    # Blank lines, skipped by the reader: a range or a piece can hold
    # nothing else.
    lines = path.read_bytes().split(b"\n")
    for k in (1, 2, 9, 10, 11, 20):
        lines[k : k] = [b""]
    path.write_bytes(b"\n".join(lines))
    _split_io(monkeypatch, processes)
    blocks = []
    assert features_from_csv(path, lambda fronts, h: blocks.append((fronts, h))) is None
    assert blocks and all(fronts for fronts, _ in blocks)
    _records_equal(_block_records(blocks), _records(records))


def _block_records(blocks):
    """The records of (fronts, h) blocks, each block's rows checked
    against its fronts."""
    records = []
    for fronts, h in blocks:
        assert h.shape[0] == len(fronts)
        records += [theory.FeatureRecord(i, ip, lam, row, a) for (i, ip, lam, a), row in zip(fronts, h)]
    return records


def _records(rows):
    """The records of a Configuration or of a (fronts, h) pair."""
    return _block_records(rows.blocks() if isinstance(rows, theory.Configuration) else [rows])


def _read_records(path):
    """The records of the blocks features_from_csv hands on."""
    blocks = []
    features_from_csv(path, lambda fronts, h: blocks.append((fronts, h)))
    return _block_records(blocks)


def _pair(config):
    """The records of a Configuration as one (fronts, h) pair."""
    blocks = list(config.blocks())
    return [f for fronts, _ in blocks for f in fronts], np.concatenate([h for _, h in blocks])


def test_a_configuration_slice_is_its_records_bit_for_bit(monkeypatch):
    # Blocks of a few rows of 100 floats, so that a range spans several.
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    for amplified in (False, True):
        config = generate_configuration(
            PARAMS, frame, [2, 0, 1], [0.0, 0.3, 0.5, 1.0], amplified=amplified
        )
        listed = _records(config)
        for lo, hi, rows in [(0, len(config), 2), (3, 17, 2), (5, 6, 3), (29, 36, 4),
                             (10, 3, 1), (1, 30, 7), (0, len(config), len(config))]:
            monkeypatch.setattr(_floattext, "CHUNK", 100 * rows)
            blocks = list(config.blocks(lo, hi))
            assert all(0 < len(fronts) <= rows for fronts, _ in blocks)
            _records_equal(_block_records(blocks), listed[lo:hi])


def test_feature_csv_reader_names_the_file_line_of_a_bad_row_in_any_block(tmp_path, processes):
    header = "class_i,class_ip,lambda,kind,amplified," + ",".join(
        f"h_{j}" for j in range(12)
    )
    good = "0,1,0.5,different_class,0," + ",".join(["1.5"] * 12)
    path = tmp_path / "features.csv"
    for bad, message in [
        (good.replace("different_class,0,", "different_class,7,"), "amplified"),
        (good.replace("different_class", "same_class"), "kind same_class does not match"),
        (good.replace(",1.5,", ",nan,", 1), "value nan is not finite"),
        (good[:-3] + "-inf", "value -inf is not finite"),
        (good.replace(",1.5,", ",1e999,", 1), "value inf is not finite"),
        (good.replace("0,1,0.5,", "0,1,nan,"), r"lambda nan is not in \[0, 1\]"),
        (good.replace("0,1,0.5,", "-1,1,0.5,"), "class -1 is negative"),
    ]:
        # 30 rows and a blank line; file line n holds rows[n - 2].
        for bad_lines in ([29], [4], [15, 29], [4, 29]):
            rows = [good] * 30
            rows[10] = ""
            for n in bad_lines:
                rows[n - 2] = bad
            path.write_text("\n".join([header, *rows]) + "\n")
            with pytest.raises(
                ValueError, match=f"features.csv:{bad_lines[0]}: bad feature row: {message}"
            ):
                _read_records(path)
        # Blank lines in two blocks and no newline after the bad last row.
        rows = [good] * 29 + [bad]
        rows[1] = rows[27] = ""
        path.write_text("\n".join([header, *rows]))
        with pytest.raises(ValueError, match=f"features.csv:31: bad feature row: {message}"):
            _read_records(path)


@pytest.mark.parametrize("where", [0, -1], ids=["first-block", "last-block"])
def test_feature_csv_writer_error_leaves_no_part_file(tmp_path, processes, where):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    fronts, h = _pair(generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5]))
    i, ip, _, amplified = fronts[where]
    fronts[where] = (i, ip, "x", amplified)
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        features_to_csv((fronts, h), tmp_path / "features.csv")
    assert os.listdir(tmp_path) == ["features.csv"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_feature_csv_writer_names_the_first_record_that_is_not_finite(tmp_path, processes, value):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    fronts, h = _pair(generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5]))
    path = tmp_path / "features.csv"
    # One bad record in the first process's range, in the last one's, in
    # both, and a same-class record.
    for bad in ([1], [17], [5, 17], [4]):
        bad_h = h.copy()
        for k in bad:
            bad_h[k, k] = value
        with pytest.raises(ValueError, match=f"^feature record {min(bad)}: value {value} is not "):
            features_to_csv((fronts, bad_h), path)
        assert os.listdir(tmp_path) == ["features.csv"]
    # A configuration's same-class rows, formatted before any fork.
    config = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5])
    config = theory.Configuration(
        config.rows, config.classes, config.lams, value, config.coeff_i, config.coeff_ip
    )
    with pytest.raises(ValueError, match="^feature record 0: value (nan|-?inf) is not "):
        features_to_csv(config, path)


@pytest.mark.parametrize(
    "bad, message",
    [
        # A block is 40 records here: a later block's front problem comes
        # after an earlier block's h value, and within one block every
        # front comes before any h value.
        ({5: "h", 50: -1}, "feature record 5: value nan is not finite"),
        ({5: "h", 30: -1}, "feature record 30: class -1 is negative"),
        ({5: "h", 50: "x"}, "feature record 5: value nan is not finite"),
        ({50: "h", 30: "x"}, "could not convert string to float: 'x'"),
        ({45: "h", 30: 1.5}, r"feature record 30: lambda 1.5 is not in \[0, 1\]"),
    ],
    ids=["h-before-a-later-class", "class-in-the-same-block", "h-before-a-later-text",
         "text-before-a-later-h", "lambda-before-a-later-h"],
)
def test_feature_csv_writer_names_the_first_bad_block_fronts_before_h(
    tmp_path, monkeypatch, bad, message
):
    monkeypatch.setattr(theory, "_process_count", lambda floats: 1)
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    lams = [0.1 * k for k in range(10)]
    fronts, h = _pair(generate_configuration(PARAMS, frame, [0, 1, 2], lams))
    assert _floattext.block_rows(100) == 40 and len(fronts) == 90
    for k, what in bad.items():
        i, ip, lam, amplified = fronts[k]
        if what == "h":
            h[k, 7] = math.nan
        elif what == -1:
            fronts[k] = (what, ip, lam, amplified)
        else:
            fronts[k] = (i, ip, what, amplified)
    with pytest.raises(ValueError, match=f"^{message}$"):
        features_to_csv((fronts, h), tmp_path / "features.csv")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lam", math.nan, r"lambda nan is not in \[0, 1\]"),
        ("lam", -0.5, r"lambda -0.5 is not in \[0, 1\]"),
        ("class_i", -1, "class -1 is negative"),
        ("class_ip", -3, "class -3 is negative"),
    ],
)
def test_feature_csv_writer_refuses_a_row_start_the_reader_rejects(
    tmp_path, processes, field, value, message
):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    fronts, h = _pair(generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5]))
    front = list(fronts[13])
    front[["class_i", "class_ip", "lam"].index(field)] = value
    fronts[13] = tuple(front)
    with pytest.raises(ValueError, match=f"^feature record 13: {message}$"):
        features_to_csv((fronts, h), tmp_path / "features.csv")
    assert os.listdir(tmp_path) == ["features.csv"]


def reference_features_from_csv(path) -> list:
    """The per-line reader features_from_csv replaced: each line read with
    readline and parsed by theory._parse_row, numbered by etf._parse_rows."""
    with open(path, "rb") as fh:
        d = len(fh.readline().split(b",")) - 5
        values = array.array("d")
        fronts = _parse_rows(fh, path, "feature", lambda raw: theory._parse_row(raw, d, values), 2)
    h = np.frombuffer(values, dtype=float).reshape(len(fronts), d)
    return [theory.FeatureRecord(i, ip, lam, row, a) for (i, ip, lam, a), row in zip(fronts, h)]


def _outcome(read, path):
    """The records read, as their types, fields, lambda bits and h bytes,
    or the error text."""
    try:
        records = read(path)
    except ValueError as exc:
        return str(exc)
    return [
        (type(r.class_i), type(r.lam), type(r.amplified), r.class_i, r.class_ip,
         struct.pack("<d", r.lam), r.amplified, r.h.tobytes())
        for r in records
    ]


_GOOD_ROW = b"0,1,0.5,different_class,0,1.5,-2.25,0.125"


def _body(row=_GOOD_ROW, end=b"\n", sep=b"\n"):
    """The rows of a d = 3 feature CSV: six, the fourth of them row."""
    rows = [_GOOD_ROW] * 6
    rows[3] = row
    return sep.join(rows) + end


def _h0(text):
    return _body(_GOOD_ROW.replace(b",1.5,", b"," + text + b","))


PARITY_CASES = {
    "crlf": _body(end=b"\r\n", sep=b"\r\n"),
    "blank line": _body(b""),
    "no final newline": _body(end=b""),
    "space before": _h0(b" 1.5"),
    "space after": _h0(b"1.5 "),
    "plus": _h0(b"+1.5"),
    "underscore": _h0(b"1_0.5"),
    "no whole part": _h0(b".5"),
    "no fraction": _h0(b"5."),
    "exponent": _h0(b"1e-05"),
    "integral": _h0(b"3"),
    "20-digit fraction": _h0(b"0.12345678901234567890"),
    "non-ASCII digits": _h0("\u0661.\u0665".encode()),
    "non-ASCII byte": _h0(b"1.5\xff"),
    "bad text": _h0(b"1.5x"),
    "d + 1 fields": _body(_GOOD_ROW + b",1.0"),
    "leading zeros": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"00,01,00.50,")),
    "plus class": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"0,+1,0.5,")),
    "class 01": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"0,01,0.5,")),
    "class 1_0": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"0,1_0,0.5,")),
    "non-ASCII class": _body(_GOOD_ROW.replace(b"0,1,0.5,", "0,\u0661,0.5,".encode())),
    "space class": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"0, 1,0.5,")),
    "bad kind": _body(_GOOD_ROW.replace(b"different_class", b"mixed_class")),
    "flag 2": _body(_GOOD_ROW.replace(b"different_class,0,", b"different_class,2,")),
    "kind against classes": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"1,1,0.5,")),
    "negative zero lambda": _body(_GOOD_ROW.replace(b"0,1,0.5,", b"0,1,-0.0,")),
}
GOLDEN_FEATURES = [
    "practice_activations", "theory_c10_amplified", "theory_c2", "theory_c3_cell_log"
]


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("name", [*PARITY_CASES, *GOLDEN_FEATURES])
def test_feature_csv_reader_matches_the_per_line_reader(tmp_path, monkeypatch, name, processes):
    if name in PARITY_CASES:
        path = tmp_path / "features.csv"
        header = b"class_i,class_ip,lambda,kind,amplified,h_0,h_1,h_2\n"
        path.write_bytes(header + PARITY_CASES[name])
    else:
        path = DATA / f"{name}.csv"
    want = _outcome(reference_features_from_csv, path)
    if processes > 1:
        _split_io(monkeypatch, processes)
    assert _outcome(_read_records, path) == want


@pytest.mark.parametrize("processes", [1, 3])
def test_the_writers_layout_is_parsed_without_the_per_line_reader(
    tmp_path, monkeypatch, processes
):
    def per_line(*args):
        raise AssertionError("a row was parsed line by line")

    path = tmp_path / "features.csv"
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.0, 0.3, 1.0], amplified=True)
    features_to_csv(records, path)
    want = _outcome(reference_features_from_csv, path)
    if processes > 1:
        _split_io(monkeypatch, processes)
    monkeypatch.setattr(theory, "_parse_row", per_line)
    assert _outcome(_read_records, path) == want
    for name in GOLDEN_FEATURES:
        assert len(_read_records(DATA / f"{name}.csv")) > 0


def test_reading_a_thousand_by_thousand_file_holds_under_1_6_megabytes(tmp_path, monkeypatch):
    # One process, as on a single CPU. The bound was fixed before the
    # first run.
    monkeypatch.setattr(theory, "_process_count", lambda floats: 1)
    params = TheoryParams(C=10, m=3.0, lambda_h=1e-6)
    frame = build_simplex_etf(10, 1000, 3.0, seed=0)
    lams = np.random.default_rng(0).uniform(size=10)
    path = tmp_path / "features.csv"
    features_to_csv(generate_configuration(params, frame, range(10), lams), path)
    rows = []
    tracemalloc.start()
    try:
        features_from_csv(path, lambda fronts, h: rows.append(len(h)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rows) == 1000
    assert peak < 1_600_000


def test_one_cpu_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(theory, "FLOOR", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5])
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    assert path.read_text() == reference_features_csv(records)
    _records_equal(_read_records(path), _records(records))


def test_process_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    floor = theory.FLOOR
    assert [theory._process_count(n) for n in (0, floor - 1, 2 * floor, 10**9)] == [1, 1, 2, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert theory._process_count(10**9) == 5
    monkeypatch.delattr(os, "fork", raising=False)
    assert theory._process_count(10**9) == 1


def test_assemble_rejects_mismatched_frame():
    frame = build_simplex_etf(5, 8, 3.0, seed=0)
    sol = solve_same_class(PARAMS)  # C=10 solution
    with pytest.raises(ValueError):
        assemble_feature(sol, frame, 0, 0)


# The stated domain (see TheoryParams): C in [2, 2000], m in [0.05, 100],
# lambda_h in [1e-10, 10], lambda in [0, 1] with both ends drawn
# explicitly. The frame is built in d = C from the basis U = I, whose
# rows are exact and take no factorisation at C = 2000; stationarity
# does not depend on the basis. The bounds were fixed before the first
# run: the oracle-check tolerances are 1e-8 on |grad| and 1e-10 on the
# same-class residual.
GRAD_ABS = 1e-9  # |grad|
GRAD_REL = 1e-9  # |grad| / (m |h|)
SAME_RESIDUAL = 1e-10

domain_classes = st.integers(2, 2000)
domain_multipliers = st.floats(math.log(0.05), math.log(100.0)).map(math.exp)
domain_decays = st.floats(-10.0, 1.0).map(lambda e: 10.0**e)
domain_lambdas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _identity_frame(C, m):
    """The simplex ETF with basis I: rows m sqrt(C/(C-1)) (I - 11^T/C)."""
    rows = m * math.sqrt(C / (C - 1.0)) * (np.eye(C) - np.ones((C, C)) / C)
    return SimplexEtf(num_classes=C, multiplier=m, basis=np.eye(C), rows=rows)


def _assert_stationary(frame, rec, lam, lh):
    grad = per_sample_grad(frame.rows, rec.h, rec.class_i, rec.class_ip, lam, UfmConfig(lh))
    norm = float(np.linalg.norm(grad))
    assert norm <= GRAD_ABS
    assert norm <= GRAD_REL * frame.multiplier * float(np.linalg.norm(rec.h))


@settings(max_examples=100, deadline=None)
@given(C=domain_classes, m=domain_multipliers, lh=domain_decays, lam=domain_lambdas)
def test_same_class_solution_over_the_domain(C, m, lh, lam):
    sol = solve_same_class(TheoryParams(C=C, m=m, lambda_h=lh))
    assert sol.k < 0.0 and sol.coeff > 0.0
    assert sol.residual <= SAME_RESIDUAL
    frame = _identity_frame(C, m)
    # Both sources share a class, so every lambda has the one-hot target.
    _assert_stationary(frame, assemble_feature(sol, frame, C - 1, C - 1), lam, lh)


@settings(max_examples=100, deadline=None)
@given(m=domain_multipliers, lh=domain_decays, lam=domain_lambdas)
def test_two_class_solution_over_the_domain(m, lh, lam):
    sol = solve_different_class(TheoryParams(C=2, m=m, lambda_h=lh), lam)
    assert 0.0 < sol.p_i < 1.0 and 0.0 < sol.p_ip < 1.0
    if 0.0 < lam < 1.0:
        assert sol.inner_ip == -sol.inner_i
    frame = _identity_frame(2, m)
    _assert_stationary(frame, assemble_feature(sol, frame, 0, 1), lam, lh)


@settings(max_examples=100, deadline=None)
@given(C=domain_classes, m=domain_multipliers, lh=domain_decays, lam=domain_lambdas)
# Found by the search: x is 2e-4 beside u = log(-k) = -9.15, so
# x = k - u + t alone kept too few digits (|grad| 3.9e-13 against a
# bound of 2.3e-13) until solve_diff_k took its Newton step on x - k.
@example(C=4, m=math.exp(-2.875), lh=10.0, lam=0.75)
def test_different_class_feature_is_stationary_over_the_domain(C, m, lh, lam):
    sol = solve_different_class(TheoryParams(C=C, m=m, lambda_h=lh), lam)
    frame = _identity_frame(C, m)
    _assert_stationary(frame, assemble_feature(sol, frame, 0, C - 1), lam, lh)
