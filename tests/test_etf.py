import numpy as np
import pytest

from mixupgeom.etf import (
    build_simplex_etf,
    etf_deviation_metrics,
    read_classifier_csv,
)


def test_two_class_frame_is_antipodal():
    frame = build_simplex_etf(2, 2, 1.0, seed=0)
    w = frame.rows
    assert np.allclose(w[0], -w[1], atol=1e-12)
    assert np.linalg.norm(w[0]) == pytest.approx(1.0, abs=1e-12)
    cos = w[0] @ w[1] / (np.linalg.norm(w[0]) * np.linalg.norm(w[1]))
    assert cos == pytest.approx(-1.0, abs=1e-12)


def test_three_class_cosines_and_norms():
    w = build_simplex_etf(3, 5, 2.0, seed=7).rows
    norms = np.linalg.norm(w, axis=1)
    assert np.allclose(norms, 2.0, atol=1e-12)
    for a in range(3):
        for b in range(3):
            if a != b:
                cos = w[a] @ w[b] / (norms[a] * norms[b])
                assert cos == pytest.approx(-0.5, abs=1e-12)


def test_gram_identity_ten_classes():
    w = build_simplex_etf(10, 100, 3.0, seed=1).rows
    expected = 10.0 * np.eye(10) - np.ones((10, 10))
    assert np.max(np.abs(w @ w.T - expected)) < 1e-10


def test_rows_sum_to_zero_and_basis_orthonormal():
    frame = build_simplex_etf(7, 12, 1.5, seed=3)
    assert np.max(np.abs(frame.rows.sum(axis=0))) < 1e-12
    gram = frame.basis.T @ frame.basis
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


def test_build_is_deterministic():
    a = build_simplex_etf(5, 9, 1.0, seed=11)
    b = build_simplex_etf(5, 9, 1.0, seed=11)
    assert np.array_equal(a.rows, b.rows)


@pytest.mark.parametrize(
    "C,d,m", [(1, 5, 1.0), (3, 2, 1.0), (3, 5, 0.0)]
)
def test_build_rejects_bad_arguments(C, d, m):
    with pytest.raises(ValueError):
        build_simplex_etf(C, d, m, seed=0)


def test_metrics_hand_case():
    # rows (1,0) and (0,2): norms 1 and 2, orthogonal
    metrics = etf_deviation_metrics(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert metrics.norm_cv == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert metrics.cosine_std == pytest.approx(0.0, abs=1e-12)


def test_metrics_zero_for_exact_frame():
    w = build_simplex_etf(4, 6, 2.5, seed=2).rows
    metrics = etf_deviation_metrics(w)
    assert metrics.norm_cv < 1e-12
    assert metrics.cosine_std < 1e-12


def test_metrics_rejects_zero_row():
    with pytest.raises(ValueError):
        etf_deviation_metrics(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_classifier_csv_round_trip(tmp_path):
    w = build_simplex_etf(3, 4, 1.7, seed=5).rows
    path = tmp_path / "clf.csv"
    path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in w))
    assert np.array_equal(read_classifier_csv(path), w)


def test_classifier_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nx,3.0\n")
    with pytest.raises(ValueError, match=":2:"):
        read_classifier_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match=":2: bad classifier row: 1 values, the first row has 2"):
        read_classifier_csv(ragged)
    path = tmp_path / "clf.csv"
    for text, message in [
        ("1.0,2.0\n\n3.0,4.0\n5.0\n", "clf.csv:4: bad classifier row: 1 values, the first"),
        ("1.0,2.0\n3.0,4.0,5.0\n", "clf.csv:2: bad classifier row: 3 values"),
        ("1.0,2.0\nnan,4.0\n", "clf.csv:2: bad classifier row: value nan is not finite"),
        ("1.0,-inf\n3.0,4.0\n", "clf.csv:1: bad classifier row: value -inf is not finite"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"/{message}"):
            read_classifier_csv(path)
