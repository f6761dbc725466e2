import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixupgeom import kernels, theory
from mixupgeom.etf import SimplexEtf, build_simplex_etf
from mixupgeom.mixup import DIFFERENT_CLASS, SAME_CLASS, BetaSpec, make_mixup_batch
from mixupgeom.theory import (
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
from mixupgeom.ufm import UfmConfig, per_sample_grad, per_sample_loss

PARAMS = TheoryParams(C=10, m=3.0, lambda_h=1e-6, d=100)


def test_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(C=1, m=1.0, lambda_h=1e-6, d=5)
    with pytest.raises(ValueError):
        TheoryParams(C=3, m=1.0, lambda_h=0.0, d=5)
    with pytest.raises(ValueError):
        TheoryParams(C=3, m=1.0, lambda_h=1e-6, d=2)
    for m in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"got {m}"):
            TheoryParams(C=3, m=m, lambda_h=1e-6, d=5)
    with pytest.raises(ValueError, match="got inf"):
        TheoryParams(C=3, m=1.0, lambda_h=float("inf"), d=5)
    # m^2 overflows or underflows a float.
    for m in (1e200, -1e155, 1e-200):
        with pytest.raises(ValueError, match=re.escape(f"m={m} has no positive finite square")):
            TheoryParams(C=3, m=m, lambda_h=1e-6, d=5)


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
        TheoryParams(C=C, m=m, lambda_h=lh, d=C)
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
    params = TheoryParams(C=2, m=1.0, lambda_h=1e-3, d=2)
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
    records = generate_configuration(PARAMS, frame, [0, 1, 2], lams)
    assert len(records) == len(lams) * 9
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
                for r in records
            ]
        )

    plain = generate_configuration(PARAMS, frame, [0, 1, 2], lams)
    amped = generate_configuration(PARAMS, frame, [0, 1, 2], lams, amplified=True)
    assert mean_loss(amped) > mean_loss(plain)


def test_configuration_matches_per_record_assembly():
    # generate_configuration builds each family with one broadcast; every
    # row must equal assemble_feature (and amplify) bit for bit.
    for params, subset, lams in [
        (PARAMS, [0, 1, 2], [0.0, 0.25, 0.5, 0.25, 1.0]),
        (TheoryParams(C=2, m=1.5, lambda_h=1e-3, d=4), [1, 0], [0.3, 1.0]),
        (PARAMS, [4], [0.6]),
    ]:
        frame = build_simplex_etf(params.C, params.d, params.m, seed=1)
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
            for a, b in zip(records, expected):
                assert (a.class_i, a.class_ip, a.lam, a.kind, a.amplified) == (
                    b.class_i, b.class_ip, b.lam, b.kind, b.amplified
                )
                assert a.h.tobytes() == b.h.tobytes()


def reference_features_csv(records) -> str:
    """The per-element writer features_to_csv replaced: repr of every
    numpy scalar, one line per record."""
    d = len(records[0].h)
    lines = ["class_i,class_ip,lambda,kind,amplified," + ",".join(
        f"h_{j}" for j in range(d)
    )]
    for r in records:
        front = f"{r.class_i},{r.class_ip},{repr(float(r.lam))},{r.kind},{int(r.amplified)}"
        lines.append(front + "," + ",".join(repr(float(v)) for v in r.h))
    return "\n".join(lines) + "\n"


def _extracted_records():
    data = make_synthetic(default_dataset_spec(seed=0, samples_per_class=20))
    model = train(data, TrainConfig(hidden_layers=2, width=8, epochs=2, seed=0))
    batch = make_mixup_batch(*data, BetaSpec(0.05), 60, np.random.default_rng(0), 3)
    return extract_activations(model, batch)


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
            TheoryParams(C=2, m=1.0, lambda_h=1e-3, d=3),
            build_simplex_etf(2, 3, 1.0, seed=0), [0, 1], [0.0, 0.7, 1.0],
        ),
        _extracted_records,
    ],
    ids=["plain", "amplified", "two-class", "extracted"],
)


@WRITER_CASES
def test_features_to_csv_matches_the_per_element_writer(tmp_path, make):
    records = make()
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    assert path.read_text() == reference_features_csv(records)


def test_feature_csv_round_trip(tmp_path):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1], [0.3])
    path = tmp_path / "features.csv"
    features_to_csv(records, path)
    loaded = features_from_csv(path)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
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
        features_from_csv(bad)


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
    ]:
        path.write_text("\n".join([header, good, good, bad, good]) + "\n")
        with pytest.raises(ValueError, match=f"features.csv:4: bad feature row: {message}"):
            features_from_csv(path)


def test_feature_csv_writer_rejects_mixed_widths(tmp_path):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1], [0.3])
    records[2].h = records[2].h[:50]
    with pytest.raises(ValueError, match="shape"):
        features_to_csv(records, tmp_path / "features.csv")


def _records_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.class_i, x.class_ip, x.lam, x.kind, x.amplified) == (
            y.class_i, y.class_ip, y.lam, y.kind, y.amplified
        )
        assert x.h.tobytes() == y.h.tobytes()


@pytest.fixture(params=[2, 3], ids=["2-processes", "3-processes"])
def processes(request, monkeypatch):
    """Feature-CSV I/O forced onto this many processes, whatever the
    machine has."""
    monkeypatch.setattr(theory, "_process_count", lambda floats: request.param)
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
    _records_equal(features_from_csv(path), records)
    # Every child was waited for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_feature_csv_reader_names_the_file_line_of_a_bad_row_in_any_block(tmp_path, processes):
    header = "class_i,class_ip,lambda,kind,amplified," + ",".join(
        f"h_{j}" for j in range(12)
    )
    good = "0,1,0.5,different_class,0," + ",".join(["1.5"] * 12)
    bad = good.replace("different_class,0,", "different_class,7,")
    path = tmp_path / "features.csv"
    # 30 rows and a blank line; file line n holds rows[n - 2].
    for bad_lines in ([29], [4], [15, 29], [4, 29]):
        rows = [good] * 30
        rows[10] = ""
        for n in bad_lines:
            rows[n - 2] = bad
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(
            ValueError, match=f"features.csv:{bad_lines[0]}: bad feature row: amplified"
        ):
            features_from_csv(path)
    # Blank lines in two blocks and no newline after the bad last row.
    rows = [good] * 29 + [bad]
    rows[1] = rows[27] = ""
    path.write_text("\n".join([header, *rows]))
    with pytest.raises(ValueError, match="features.csv:31: bad feature row: amplified"):
        features_from_csv(path)


@pytest.mark.parametrize("where", [0, -1], ids=["first-block", "last-block"])
def test_feature_csv_writer_error_leaves_no_part_file(tmp_path, processes, where):
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    records = generate_configuration(PARAMS, frame, [0, 1, 2], [0.3, 0.5])
    records[where].lam = "x"
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        features_to_csv(records, tmp_path / "features.csv")
    assert os.listdir(tmp_path) == ["features.csv"]


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
    _records_equal(features_from_csv(path), records)


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


# The stated domain (see TheoryParams): C in [2, 1000], m in [0.05, 100],
# lambda_h in [1e-10, 10], lambda in [0, 1] with both ends drawn
# explicitly. The frame is built in d = C from the basis U = I, so
# C = 1000 needs no Gram-Schmidt. The bounds were fixed before the first
# run: the oracle-check tolerances are 1e-8 on |grad| and 1e-10 on the
# same-class residual.
GRAD_ABS = 1e-9  # |grad|
GRAD_REL = 1e-9  # |grad| / (m |h|)
SAME_RESIDUAL = 1e-10

domain_classes = st.integers(2, 1000)
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
    sol = solve_same_class(TheoryParams(C=C, m=m, lambda_h=lh, d=C))
    assert sol.k < 0.0 and sol.coeff > 0.0
    assert sol.residual <= SAME_RESIDUAL
    frame = _identity_frame(C, m)
    # Both sources share a class, so every lambda has the one-hot target.
    _assert_stationary(frame, assemble_feature(sol, frame, C - 1, C - 1), lam, lh)


@settings(max_examples=100, deadline=None)
@given(m=domain_multipliers, lh=domain_decays, lam=domain_lambdas)
def test_two_class_solution_over_the_domain(m, lh, lam):
    sol = solve_different_class(TheoryParams(C=2, m=m, lambda_h=lh, d=2), lam)
    assert 0.0 < sol.p_i < 1.0 and 0.0 < sol.p_ip < 1.0
    if 0.0 < lam < 1.0:
        assert sol.inner_ip == -sol.inner_i
    frame = _identity_frame(2, m)
    _assert_stationary(frame, assemble_feature(sol, frame, 0, 1), lam, lh)


@settings(max_examples=100, deadline=None)
@given(C=domain_classes, m=domain_multipliers, lh=domain_decays, lam=domain_lambdas)
def test_different_class_feature_is_stationary_over_the_domain(C, m, lh, lam):
    sol = solve_different_class(TheoryParams(C=C, m=m, lambda_h=lh, d=C), lam)
    frame = _identity_frame(C, m)
    _assert_stationary(frame, assemble_feature(sol, frame, 0, C - 1), lam, lh)
