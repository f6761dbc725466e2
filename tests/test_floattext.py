import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixupgeom import _floattext
from mixupgeom._floattext import rows_text


def reference(a) -> list[str]:
    return [",".join(map(repr, row)) for row in np.asarray(a, dtype=float).tolist()]


def assert_as_repr(values, d=1):
    a = np.asarray(values, dtype=float).reshape(-1, d)
    got, want = list(rows_text(a)), reference(a)
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:3]


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_as_repr(bits.view(np.float64), d=100)


def test_random_bit_patterns_around_the_fast_path_exponents():
    # Binary exponents -20 to 55, every mantissa and sign equally likely.
    rng = np.random.default_rng(18)
    n = 500_000
    biased = rng.integers(1003, 1079, size=n).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n).astype(np.uint64)
    bits = (sign << np.uint64(63)) | (biased << np.uint64(52)) | mantissa
    assert_as_repr(bits.view(np.float64), d=50)


def test_feature_like_values():
    rng = np.random.default_rng(19)
    for scale in (1e-3, 0.3, 1.0, 40.0, 1e6):
        assert_as_repr(rng.normal(scale=scale, size=(200, 100)), d=100)


def test_edge_families():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
    values += [1.7976931348623157e308, -1.7976931348623157e308, 1e-4, 9.999999999999999e-05]
    values += [1e16, 9999999999999998.0, 1234567890123456.8, 0.1, 0.3, -0.0001234567890123456]
    values += [2.0**k for k in range(-1074, 1024)] + [-(2.0**k) for k in range(-1074, 1024)]
    for k in range(-30, 31):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]
    for p in (1e-4, 9.999999999999999e-05, 1e16):
        values += [np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    rng = np.random.default_rng(20)
    values += list(range(-1000, 1001)) + [2**53 - 1, 2**53, -(2**53)]
    values += rng.integers(0, 2**53, size=2000).tolist()
    values += (rng.integers(0, 2**53, size=2000) + 0.5).tolist()
    assert_as_repr(values)
    assert_as_repr(values[: len(values) // 7 * 7], d=7)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(st.lists(st.floats(), min_size=d, max_size=d), min_size=1, max_size=20)
    )
)
def test_any_floats(rows):
    assert list(rows_text(np.array(rows))) == reference(rows)


def test_shapes_and_layouts(monkeypatch):
    rng = np.random.default_rng(21)
    a = rng.normal(size=(6, 10))
    assert list(rows_text(a[:, ::2])) == reference(a[:, ::2])
    assert list(rows_text(np.empty((3, 0)))) == ["", "", ""]
    assert list(rows_text(np.empty((0, 4)))) == []
    # Rows that span passes, and passes that end inside a row.
    monkeypatch.setattr(_floattext, "CHUNK", 7)
    for d in (1, 3, 7, 10, 23):
        b = rng.normal(size=(5, d))
        assert list(rows_text(b)) == reference(b)


def test_only_values_off_the_fast_path_go_through_repr(monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(_floattext, "repr", counting_repr, raising=False)
    rng = np.random.default_rng(22)
    a = rng.normal(size=(100, 100))
    a[0, :3] = [0.0, -0.0, 1234.5678]
    assert list(rows_text(a)) == reference(a)
    assert calls == []
    slow = [1e-5, 1e20, 3.0, np.nan, -np.inf, 0.5, 5e-324]
    assert list(rows_text(np.array([slow]))) == reference([slow])
    assert len(calls) == len(slow)


def test_one_pass_holds_about_half_a_megabyte():
    # The bound was fixed before the first run.
    a = np.random.default_rng(23).normal(size=(_floattext.CHUNK // 100, 100))
    list(rows_text(a))
    tracemalloc.start()
    try:
        list(rows_text(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768_000
