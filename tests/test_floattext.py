import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixupgeom import _floattext
from mixupgeom._floattext import rows_bytes


def rows_text(a) -> list[str]:
    """The text rows_bytes gives each row of the 2-D array a under an
    empty head, without its newline."""
    a = np.asarray(a, dtype=float)
    return rows_bytes(np.empty((len(a), 0), dtype=np.uint8), a).decode().split("\n")[:-1]


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


def _ryu_q(biased):
    """Ryu's q for a float below 2**52 with this biased exponent, whose e2
    = biased - 1077 is below -1: floor(log10(5**-e2)) - 1."""
    return len(str(5 ** (1077 - biased))) - 2


def test_each_fast_path_row_holds_its_power_of_five_in_one_word():
    rows = range(_floattext._LO, _floattext._HI + 1)
    assert len(rows) == len(_floattext._POW5) == len(_floattext._POINT)
    for row, biased in enumerate(rows):
        q = _ryu_q(biased)
        assert int(_floattext._POW5[row]) == 5 ** (1077 - biased - q) < 2**52
        assert int(_floattext._EXP2[row]) == q - 1 and 1 <= q - 1 <= 63
        assert int(_floattext._LOW[row]) == 2 ** (q - 1) - 1
        # The row's least value 2**e has its point at _POINT[row].
        point, least = int(_floattext._POINT[row]), Fraction(2) ** (biased - 1023)
        assert Fraction(10) ** (point - 1) <= least < Fraction(10) ** point
        assert _floattext._TEN[row] == float(Fraction(10) ** point)


def test_edge_mantissas_of_every_exponent_near_the_fast_path():
    bits = []
    for biased in range(1007, 1075):
        mantissas = [1, 2, 3, 2**51, 2**52 - 2, 2**52 - 1]
        q = _ryu_q(biased)
        if q >= 2:
            # Ryu's trailing-zeros case: 4 * (2**52 + m) a multiple of 2**q.
            step = 2 ** (q - 2)
            mantissas += [step, 3 * step, 2**52 - step, step - 1, step + 1]
        bits += [sign << 63 | biased << 52 | m for sign in (0, 1) for m in mantissas]
    assert_as_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def test_every_rows_point_threshold_and_its_neighbours():
    values = []
    for ten in _floattext._TEN.tolist():
        values += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, np.inf)]
    assert_as_repr(values + [-v for v in values])


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


def test_rows_bytes_puts_each_head_before_its_row_and_takes_picked_rows_from_a_table(
    monkeypatch,
):
    rng = np.random.default_rng(24)
    table_rows = [[-0.0, 1e-05, 3.0, np.nan, 0.5], rng.normal(size=5).tolist()]
    table = _floattext.cells(np.array(table_rows))
    heads = [b"", b"7,", b"-12,x,", b"abc", b"", b"1e-05,"]
    pick = np.array([-1, 1, 0, -1, 1, -1])
    for chunk in (_floattext.CHUNK, 3):
        monkeypatch.setattr(_floattext, "CHUNK", chunk)
        a = rng.normal(size=(6, 5))
        a[0, :2] = [-0.0, 2e-05]
        want = [head + ",".join(map(repr, row)).encode() + b"\n"
                for head, row in zip(heads, a.tolist())]
        assert rows_bytes(_floattext.padded(heads), a) == b"".join(want)
        for k in np.flatnonzero(pick >= 0).tolist():
            want[k] = heads[k] + ",".join(map(repr, table_rows[pick[k]])).encode() + b"\n"
        # A picked row's floats are not read.
        a[pick >= 0] = np.inf
        assert rows_bytes(_floattext.padded(heads), a, table, pick) == b"".join(want)


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


def read(strings):
    """_floattext.floats of the fields of one comma-separated text."""
    fields = [s.encode() for s in strings]
    text = np.frombuffer(b"\0" * _floattext.WINDOW + b",".join(fields) + b",", dtype=np.uint8)
    sizes = np.array([len(f) for f in fields], dtype=np.intp)
    return _floattext.floats(text, _floattext.WINDOW + np.cumsum(sizes + 1) - 1, sizes)


def assert_as_float(strings):
    got, want = read(strings), np.array([float(s) for s in strings])
    bad = [(s, g, w) for s, g, w in zip(strings, got.tolist(), want.tolist())
           if np.float64(g).tobytes() != np.float64(w).tobytes()]
    assert not bad, bad[:3]


def test_reads_reprs_and_decimals_as_float_does():
    rng = np.random.default_rng(24)
    draws = rng.uniform(-1.0, 1.0, 200_000) * 10.0 ** rng.integers(-6, 17, 200_000)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    assert_as_float([repr(v) for v in draws.tolist() + bits.tolist()])
    # -?D{1,12}.D{1,20}, leading zeros and all.
    pick = random.Random(24)
    assert_as_float([
        "-" * pick.randint(0, 1)
        + "".join(pick.choices("0123456789", k=pick.randint(1, 12)))
        + "."
        + "".join(pick.choices("0123456789", k=pick.randint(1, 20)))
        for _ in range(100_000)
    ])


def test_halfway_and_edge_decimals():
    # Exact halves between two floats (float() rounds them to even), and
    # their neighbours, at 10**-1 to 10**-4.
    rng = np.random.default_rng(25)
    m = rng.integers(2**51, 2**53, 5000).tolist()
    halves = [f"{a}.5" for a in m] + [f"{a // 2}.25" for a in m] + [f"{a // 2}.75" for a in m]
    halves += [f"{a // 4}.125" for a in m] + [f"{a // 8}.0625" for a in m]
    halves += [f"{a}.5000000001" for a in m[:500]] + [f"{a}.4999999999" for a in m[:500]]
    edges = ["9007199254740993.0", "9007199254740992.0", "9007199254740991.0",
             "0.000123456789012345678", "0.1", "-0.0", "0.0", "000.5", "1.0",
             "1234567890123456.8", "123456789012345678.9", "1234567890123456789.5",
             "0.1234567890123456789", "0.12345678901234567890123", "-9999999999999999999.0",
             "1.7976931348623157", "4.9406564584124654", "0.0000000000000000000001"]
    assert_as_float(halves + edges)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_repr_reads_as_float_does(values):
    assert_as_float([repr(v) for v in values])


DECIMALS = st.builds(
    "{}{}.{}".format,
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=1, max_size=16),
    st.text("0123456789", min_size=1, max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DECIMALS, min_size=1, max_size=40))
def test_any_decimal_reads_as_float_does(strings):
    assert_as_float(strings)


def test_only_fields_off_the_fast_path_go_through_float(monkeypatch):
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    monkeypatch.setattr(_floattext, "float", counting_float, raising=False)
    a = np.random.default_rng(26).normal(size=5000)
    positional = [r for r in map(repr, a.tolist()) if "e" not in r]
    assert_as_float(positional + ["0.5", "-0.0", "12.25", "00.5"])
    assert calls == []
    slow = ["1e-05", "+1.5", "1_0.5", ".5", "5.", "3", "nan", "-inf", " 1.5", "١.٥",
            "12345678901234567890.5", "0.1234567890123456789012345", "4503599627370496.5"]
    assert read(slow).tobytes() == np.array([float(s) for s in slow]).tobytes()
    assert calls == slow


def test_a_field_float_cannot_read_raises_its_error():
    with pytest.raises(ValueError, match=r"^could not convert string to float: '1\.5x'$"):
        read(["1.5", "1.5x", "2.5"])

