import tracemalloc

import numpy as np
import pytest

from mixupgeom import projection
from mixupgeom.etf import build_simplex_etf
from mixupgeom.projection import (
    TRIANGLE,
    build_projection,
    project,
    project_vector,
)
from mixupgeom.theory import FeatureRecord, TheoryParams, generate_configuration


def test_triangle_columns_unit_and_zero_sum():
    assert np.allclose(np.linalg.norm(TRIANGLE, axis=0), 1.0, atol=1e-12)
    assert np.max(np.abs(TRIANGLE.sum(axis=1))) < 1e-12


def test_semi_orthogonality():
    rng = np.random.default_rng(0)
    op = build_projection(rng.normal(size=(3, 20)))
    assert np.max(np.abs(op.Q @ op.Q.T - np.eye(3))) < 1e-10


def test_exact_frame_rows_hit_scaled_vertices():
    frame = build_simplex_etf(3, 10, 1.0, seed=4)
    op = build_projection(frame.rows)
    projected = np.stack([project_vector(op, row) for row in frame.rows])
    expected = np.sqrt(1.5) * TRIANGLE.T
    assert np.max(np.abs(projected - expected)) < 1e-8


def test_scale_invariance_of_q():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 8))
    assert np.allclose(
        build_projection(w).Q, build_projection(3.7 * w).Q, atol=1e-12
    )


def test_affine_combination_property():
    rng = np.random.default_rng(6)
    op = build_projection(rng.normal(size=(3, 12)), rng.normal(size=12))
    h1, h2 = rng.normal(size=12), rng.normal(size=12)
    for alpha in (0.0, 0.3, 1.0):
        left = project_vector(op, alpha * h1 + (1 - alpha) * h2)
        right = alpha * project_vector(op, h1) + (1 - alpha) * project_vector(op, h2)
        assert np.max(np.abs(left - right)) < 1e-12


def test_center_maps_to_origin():
    rng = np.random.default_rng(7)
    center = rng.normal(size=9)
    op = build_projection(rng.normal(size=(3, 9)), center)
    assert np.max(np.abs(project_vector(op, center))) < 1e-12


def test_null_direction_is_annihilated():
    # an exact 3-class frame has rank 2; its null direction inside the
    # row space of Q must project to the origin
    frame = build_simplex_etf(3, 6, 1.0, seed=1)
    op = build_projection(frame.rows)
    null = np.linalg.svd(frame.rows)[2][2]  # right-singular vector, sigma ~ 0
    assert np.max(np.abs(project_vector(op, 5.0 * null))) < 1e-10


def test_build_is_deterministic():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(3, 15))
    a, b = build_projection(w), build_projection(w)
    assert np.array_equal(a.Q, b.Q)


def test_build_validation():
    with pytest.raises(ValueError):
        build_projection(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        build_projection(np.vstack([np.zeros(5), np.ones((2, 5))]))
    with pytest.raises(ValueError):
        build_projection(np.ones((3, 4)), np.zeros(7))


def test_projected_points_follow_the_span_structure():
    # same-class points sit on the ray through their vertex; a
    # different-class point is exactly the image of its row combination,
    # i.e. the same coefficients applied to the projected directions
    params = TheoryParams(C=10, m=3.0, lambda_h=1e-6, d=100)
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    subset = [0, 1, 2]
    records = generate_configuration(
        params, frame, subset, list(np.linspace(0.05, 0.95, 10))
    )
    op = build_projection(frame.rows[subset])
    points = project(op, records)
    verts = {c: project_vector(op, frame.rows[c]) for c in subset}
    for rec, p in zip(records, points):
        if rec.kind == "same_class":
            v = verts[rec.class_i]
            cross = p[0] * v[1] - p[1] * v[0]
            assert abs(cross) < 1e-6
            assert p @ v > 0  # same side of the origin
        else:
            basis = np.stack(
                [frame.rows[rec.class_i], frame.rows[rec.class_ip]]
            )
            coef, *_ = np.linalg.lstsq(basis.T, rec.h, rcond=None)
            expected = coef[0] * verts[rec.class_i] + coef[1] * verts[rec.class_ip]
            assert np.linalg.norm(p - expected) < 1e-6


def _random_records(rng, n, d):
    """n records whose features span six orders of magnitude and both signs."""
    scales = 10.0 ** rng.integers(-3, 3, size=n)
    return [FeatureRecord(0, 1, 0.5, rng.normal(size=d) * s, "different_class") for s in scales]


@pytest.mark.parametrize("d", [7, 16, 100, 1000])
def test_stacked_projection_is_per_row_project_vector_bit_for_bit(d):
    rng = np.random.default_rng(d)
    op = build_projection(rng.normal(size=(3, d)), rng.normal(size=d))
    rows = projection._BLOCK_FLOATS // d
    for n in (0, 1, rows - 1, 2 * rows + 3):
        records = _random_records(rng, n, d)
        points = project(op, records)
        expected = np.array([project_vector(op, r.h) for r in records]).reshape(n, 2)
        assert np.array_equal(points, expected)
        assert np.array_equal(np.signbit(points), np.signbit(expected))


def test_project_names_a_feature_of_the_wrong_width():
    op = build_projection(np.eye(3))
    records = _random_records(np.random.default_rng(0), 5, 3)
    records[3] = FeatureRecord(0, 1, 0.5, np.zeros(4), "different_class")
    with pytest.raises(ValueError, match=r"^feature has shape \(4,\), expected \(3,\)$"):
        project(op, records)


def test_projecting_a_thousand_wide_records_peaks_under_one_megabyte():
    d = 1000
    rng = np.random.default_rng(0)
    op = build_projection(rng.normal(size=(3, d)))
    records = _random_records(rng, 1000, d)
    tracemalloc.start()
    try:
        project(op, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
