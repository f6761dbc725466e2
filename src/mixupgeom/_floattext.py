"""Shortest round-trip text of float64 arrays, byte for byte as repr, and
its inverse, decimal text read bit for bit as float() reads it.

rows_bytes writes CSV rows: for an n x w head array and an n x d float
array, the bytes of head + ",".join(map(repr, row)) + "\n" for each row.
A block of rows of about CHUNK floats is one uint8 buffer of rows [head |
cells | "\n"], each float in a cell of _WIDTH bytes, its repr
right-aligned after zero bytes; one bytes.translate per block drops the
zeros. A float whose repr is positional with a fractional part (1e-4 <=
|x| < 1e16, not integral), and +-0.0, is converted by the common path of
Ryu (Ulf Adams, "Ryu: fast float-to-string conversion", PLDI 2018) in
numpy integer arithmetic, with Ryu's power of five in one 64-bit word
(5^i < 2^52 there); the point comes from a table per binary exponent and
the integer part from trunc(|x|). Every other float goes through repr
one at a time: exponent form, integral values, subnormals, inf and nan,
powers of two and Ryu's rare trailing-zeros case. About 185 ns a float
against 670 for repr (4000 floats of theory-paper's features, 2-vCPU
Xeon guest). cells gives a row's cells before the zeros are dropped, for
text that is formatted once and gathered into many rows.

floats reads fields of text, about CHUNK at a time: -?D+.D+ in numpy
integer arithmetic (SWAR digit conversion, then Clinger's exact path or
Eisel-Lemire), every other field through float().

uint64 arrays meet only uint64 arrays and np.uint64 scalars, and intp
arrays only intp arrays and Python ints, which promote alike in numpy 1
and numpy 2.
"""

from __future__ import annotations

import numpy as np

# Floats per block of every step that streams h rows (block_rows), each
# pass about half a megabyte; the reader's pieces are CHUNK * WINDOW bytes.
CHUNK = 4096

# Biased exponents of the fast path: binary exponents -14 to 49. Below
# them every value is under 1e-4, where repr takes an exponent; above,
# and at 50 and 51 where Ryu's q <= 1, every value is integral or in
# Ryu's trailing-zeros case.
_LO, _HI = 1009, 1072

# A float's text is right-aligned in a row of _WIDTH bytes. A fast-path
# repr takes at most 22 columns and a sign ("-0.0001234567890123456"),
# any repr at most 24 columns.
_WIDTH = 28

_U = {
    k: np.uint64(k)
    for k in (0, 1, 3, 7, 8, 9, 10, 16, 32, 52, 53, 56, 63, 64, 0x1E, 0x1FF, 0x7FF, 1000)
    + (10**4, 10**8, 10**16, 2**32 - 1, 2**52 - 1, 2**52, 2**53)
}


def _tables():
    """For each fast-path exponent, indexed by biased exponent - _LO:
    Ryu's e10 = q + e2; 5^i, below 2^52, and q - 1, the power of two the
    product (2 m2 - 1) * 5^i is divided by, with the mask of its low
    q - 1 bits; the point of the row's least value 2^e, Ryu's
    log10Pow2(e) + 1; and the float nearest 10 to that power, from which
    on the row's values take their point one place further right."""
    e10, pow5, exp2, point = [], [], [], []
    for biased in range(_LO, _HI + 1):
        e2 = biased - 1023 - 52 - 2
        q = ((-e2 * 732923) >> 20) - 1
        e10.append(q + e2)
        pow5.append(5 ** (-e2 - q))
        exp2.append(q - 1)
        point.append(((biased - 1023) * 78913 >> 18) + 1)
    exp2 = np.array(exp2, dtype=np.uint64)
    return (
        np.array(e10, dtype=np.intp),
        np.array(pow5, dtype=np.uint64),
        exp2,
        (_U[1] << exp2) - _U[1],
        np.array(point, dtype=np.intp),
        np.array([float(f"1e{p}") for p in point]),
    )


_E10, _POW5, _EXP2, _LOW, _POINT, _TEN = _tables()
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# 5 * 10**(k - 1): the least k dropped digits that round up; none for k = 0.
_HALF = np.array([2**64 - 1] + [5 * 10**k for k in range(18)], dtype=np.uint64)
# 9 * 10**k (0 from 2**64 on): an integer part times 9 * 10**k, plus the
# number it leads with k digits after the point, is the two with a 0
# between them for the point; and the reader takes that 0 out again.
_NINES = np.array([9 * 10**k if k < 19 else 0 for k in range(_WIDTH)], dtype=np.uint64)


def _quads():
    """The four ASCII digits of each of 0 to 9999, as one native uint32."""
    rest = np.arange(10**4, dtype=np.intp)
    quads = np.empty((10**4, 4), dtype=np.uint8)
    for k in range(3, -1, -1):
        quads[:, k] = rest % 10 + ord("0")
        rest //= 10
    return quads.view(np.uint32).ravel()


_QUADS = _quads()
_ZEROS = _QUADS[0]
# Row s: the columns from s on.
_SUFFIX = np.arange(_WIDTH) >= np.arange(_WIDTH + 1)[:, None]


def _digits(bits, row):
    """(digits, exponent, fast) of float64 bit patterns in the fast-path
    exponents, row = biased exponent - _LO: where fast, the shortest
    digits of the common path of Ryu's d2d as an integer, with |x| =
    digits * 10**exponent; elsewhere garbage."""
    u = _U
    v = bits & u[2**52 - 1]
    # Not a power of two, whose interval is asymmetric, and not Ryu's
    # trailing-zeros case: mv = 4 m2 a multiple of 2^q, 2 m2 of 2^(q - 1).
    fast = v != u[0]
    v |= u[2**52]
    low_bits = _LOW.take(row)
    fast &= ((v << u[1]) & low_bits) != u[0]
    # vm, vr, vp = (v + {0, 1, 2}) * 5^i >> (q - 1) for v = 2 m2 - 1, as
    # Ryu's 125-bit 5^i gives them: the 54-bit v times 5^i in two words,
    # from four products of 32-bit halves; then vm's remainder plus 5^i
    # or 2 * 5^i, under 2^53, carries into vr and vp.
    v = (v << u[1]) - u[1]
    pow5 = _POW5.take(row)
    v_hi, a_hi, a_lo = v >> u[32], pow5 >> u[32], pow5 & u[2**32 - 1]
    v &= u[2**32 - 1]
    low = v * a_lo
    mid = v * a_hi
    a_lo *= v_hi
    mid += a_lo
    mid += low >> u[32]
    v_hi *= a_hi
    v_hi += mid >> u[32]
    low &= u[2**32 - 1]
    mid <<= u[32]
    low |= mid
    del v, a_hi, a_lo, mid
    exp2 = _EXP2.take(row)
    vm = low >> exp2
    v_hi <<= u[64] - exp2
    vm |= v_hi
    low &= low_bits
    low += pow5
    vr = low >> exp2
    vr += vm
    low += pow5
    vp = low >> exp2
    vp += vm
    del v_hi, low, low_bits, pow5, exp2
    # Ryu drops digits while vp and vm still differ above them, and
    # rounds half up on the last one dropped.
    vp[~fast] = u[0]
    vm[~fast] = u[0]
    drop = np.zeros(bits.size, dtype=np.intp)
    p, m = vp, vm
    while True:
        p, m = p // u[10], m // u[10]
        more = p > m
        if not more.any():
            break
        drop += more
    del p, m, vp, more
    scale = _POW10.take(drop)
    digits = vr // scale
    up = (vr - digits * scale) >= _HALF.take(drop)
    up |= digits == vm // scale
    digits += up
    return digits, _E10.take(row) + drop, fast


def _text(x, sep):
    """The text of repr(x[k]) for each k as row k of an x.size x _WIDTH
    uint8 array: the byte sep[k] (0 for none), then repr right-aligned,
    every byte between them 0."""
    u = _U
    bits = x.view(np.uint64)
    zero = (bits << u[1]) == u[0]
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):
        # trunc of a signalling nan, and the cast of nan, inf and values
        # of 2^64 on, whose integer parts are not used.
        whole = np.trunc(ax)
        maybe = ax != whole
        y = whole.astype(np.uint64)
    del whole
    row = ((bits >> u[52]) & u[0x7FF]).astype(np.intp) - _LO
    # Ryu runs on the floats that may take the fast path: +-0.0, and those
    # in its exponent range that are not integral.
    maybe &= (row >= 0) & (row <= _HI - _LO)
    maybe |= zero
    # +-0.0 falls in row 0, whose point, -4, is below 1.
    np.minimum(np.maximum(row, 0, out=row), _HI - _LO, out=row)
    if maybe.all():
        digits, exponent, fast = _digits(bits, row)
    else:
        some = np.flatnonzero(maybe)
        digits = np.zeros(x.size, dtype=np.uint64)
        exponent = np.zeros(x.size, dtype=np.intp)
        fast = np.zeros(x.size, dtype=bool)
        digits[some], exponent[some], fast[some] = _digits(bits[some], row[some])
    # repr is positional for point > -4, and a fast-path value is below
    # 2^50 and has a fraction.
    point = _POINT.take(row)
    point += ax >= _TEN.take(row)
    del maybe, row, ax
    fast &= point > -4
    # +-0.0 takes the fast path as 0 * 10**-1.
    fast |= zero
    digits[zero] = u[0]
    exponent[zero] = -1
    del zero
    frac = np.negative(exponent, out=exponent)
    np.minimum(np.maximum(frac, 0, out=frac), 20, out=frac)
    # The digits with a 0 inserted for the point after the integer part
    # y = trunc(|x|), exact below 2^52: y * 10**(frac + 1) + frac_digits.
    y *= _NINES.take(frac)
    y += digits
    del digits
    # Column 0 holds the separator, column 1 a minus sign, and the digits
    # and point run from column start to the last.
    start = np.maximum(point, 1, out=point)
    start += frac
    np.subtract(_WIDTH - 1, start, out=start)
    text = np.empty((x.size, _WIDTH), dtype=np.uint8)
    quads = text.view(np.uint32)
    quads[:, 1] = _ZEROS
    for k in range(6, 1, -1):
        rest = y // u[10**4]
        y -= rest * u[10**4]
        quads[:, k] = _QUADS.take(y.astype(np.intp))
        y = rest
    del y, rest
    text.reshape(-1)[np.arange(_WIDTH - 1, x.size * _WIDTH, _WIDTH) - frac] = ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        reprs = [repr(v).encode() for v in x[slow].tolist()]
        pad = b"".join(r.rjust(24, b"\0") for r in reprs)
        text[slow, _WIDTH - 24 :] = np.frombuffer(pad, dtype=np.uint8).reshape(-1, 24)
        start[slow] = [_WIDTH - len(r) for r in reprs]
    # Every byte but the text and its separator and sign is 0, and goes.
    text *= _SUFFIX.take(start, axis=0)
    text[:, 0] = sep
    text[:, 1] = (fast & (bits >> u[63] != u[0])).view(np.uint8) * np.uint8(ord("-"))
    return text


def block_rows(width: int) -> int:
    """Rows of width floats in a block of about CHUNK floats, at least 1."""
    return max(1, CHUNK // max(width, 1))


def cells(a, out=None):
    """The text of each row of the 2-D float array a as rows_bytes lays it
    out, in out (an n x d * _WIDTH uint8 array, new when None): d cells of
    _WIDTH bytes, each repr(value) right-aligned after a ',' (none in a
    row's first cell) and zero bytes. A block of whole rows of at most
    CHUNK floats (block_rows) is formatted in one pass, a row of more in
    passes of CHUNK."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    n, d = a.shape
    if out is None:
        out = np.empty((n, d * _WIDTH), dtype=np.uint8)
    if not d:
        return out
    rows = block_rows(d)
    if d <= CHUNK:
        sep = np.full(rows * d, ord(","), dtype=np.uint8)
        sep[::d] = 0
        for lo in range(0, n, rows):
            flat = a[lo : lo + rows].reshape(-1)
            out[lo : lo + rows] = _text(flat, sep[: flat.size]).reshape(-1, d * _WIDTH)
        return out
    sep = np.full(CHUNK, ord(","), dtype=np.uint8)
    for k in range(n):
        for at in range(0, d, CHUNK):
            x = a[k, at : at + CHUNK]
            sep[0] = ord(",") if at else 0
            out[k, at * _WIDTH : (at + x.size) * _WIDTH] = _text(x, sep[: x.size]).reshape(-1)
    return out


def padded(texts) -> np.ndarray:
    """The byte strings texts as the rows of a uint8 array, each after as
    many zero bytes as the longest needs: a table of heads for rows_bytes."""
    width = max(map(len, texts), default=0)
    joined = b"".join(text.rjust(width, b"\0") for text in texts)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(texts), width)


def rows_bytes(head, a, table=None, pick=None) -> bytes:
    """The bytes of head[k] + ",".join(map(repr, a[k])) + "\n" for each
    row k of the n x d float array a, with head an n x w uint8 array whose
    zero bytes are dropped. Where pick (an n-array) is given, a row k with
    pick[k] >= 0 takes its text from row pick[k] of table, an earlier
    cells result of width d, and a[k] is not read.

    The rows are laid out as one uint8 buffer of rows [head | cells |
    "\n"], and one bytes.translate drops its zero bytes: no Python step
    runs per row. The caller sizes the block; its floats are formatted in
    passes of about CHUNK (cells)."""
    a = np.asarray(a)
    n, d = a.shape
    w = head.shape[1]
    out = np.empty((n, w + d * _WIDTH + 1), dtype=np.uint8)
    out[:, :w] = head
    out[:, -1] = ord("\n")
    text = out[:, w:-1]
    if pick is None:
        cells(a, text)
    else:
        have = pick >= 0
        text[have] = table[pick[have]]
        text[~have] = cells(a[~have])
    return out.tobytes().translate(None, b"\0")


# Reading. A field is read from the WINDOW bytes that end at its end, as
# three little-endian words whose first byte is the least significant:
# its digits and point (-?D+.D+, the sign apart) fill the window's last
# bytes, and the bytes before them count as '0'.
WINDOW = 24

# Every byte b.
_BYTES = {b: np.uint64(b * 0x0101010101010101) for b in (0x01, 0x1E, 0x30, 0x76, 0x7F, 0x80)}
# _KEEP_LOW[n] clears the first n bytes of a word; _KEEP[p, j] clears
# the bytes of word j among the first p of a window.
_KEEP_LOW = np.array([2**64 - 2 ** (8 * n) for n in range(9)], dtype=np.uint64)
_KEEP = _KEEP_LOW[np.clip(np.arange(WINDOW + 2)[:, None] - 8 * np.arange(3), 0, 8)]
# A lone byte 1 at byte k of word j, times _AT[j], puts 8 j + k in the top
# byte.
_AT = [np.uint64(sum((8 * j + 7 - k) << 8 * k for k in range(8))) for j in range(3)]
# Clinger's powers of ten, exact in float64.
_POW10F = np.array([float(10**k) for k in range(WINDOW)])


def _eisel_lemire_tables():
    """For each lf: the high and low words of 5**-lf in 128 bits (rounded
    up, as fast_float's table for -27 <= q < 0), and the biased binary
    exponent fast_float's power(q) + 1023 gives for q = -lf."""
    high, low, exponent = [], [], []
    for lf in range(WINDOW):
        p = 5**lf
        t = 1 << 127 if not lf else (1 << p.bit_length() + 127) // p + 1
        high.append(t >> 64)
        low.append(t & 2**64 - 1)
        exponent.append((-217706 * lf >> 16) + 63 + 1023)
    return tuple(np.array(t, dtype=np.uint64) for t in (high, low, exponent))


_EL_HIGH, _EL_LOW, _EL_EXPONENT = _eisel_lemire_tables()


def _eight_digits(v):
    """v, words of eight digit values 0-9 with the first byte the most
    significant digit, turned into their values in place."""
    u = _U
    for mul, shift, mask in (
        (10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
        (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
    ):
        v *= np.uint64(mul)
        v >>= u[shift]
        v &= np.uint64(mask)
    v *= np.uint64(10**4 << 32 | 1)
    v >>= u[32]
    return v


def _mul128(a, b):
    """(high, low) words of the 128-bit products a * b, from 32-bit limbs."""
    u = _U
    a_lo, a_hi = a & u[2**32 - 1], a >> u[32]
    b_lo, b_hi = b & u[2**32 - 1], b >> u[32]
    ll, hl = a_lo * b_lo, a_hi * b_lo
    # At most 2**64 - 1.
    cross = a_lo * b_hi
    cross += ll >> u[32]
    cross += hl & u[2**32 - 1]
    high = a_hi * b_hi
    high += hl >> u[32]
    high += cross >> u[32]
    low = cross << u[32]
    low |= ll & u[2**32 - 1]
    return high, low


def _eisel_lemire(w, lf):
    """(bits, fail): the float64 bits of w * 10**-lf for 2**53 < w < 10**19
    and lf <= 22, by Lemire's algorithm ("Number parsing at a gigabyte per
    second", Software: Practice and Experience 2021) as fast_float runs
    it; fail where the value may lie halfway between two floats, and the
    bits are then garbage. Such w and lf give values from 9e-7 to 1e19,
    inside the normal range."""
    u = _U
    # floor(log2(w)); float(w) may have rounded up to a power of 2.
    top = w.astype(np.float64).view(np.uint64) >> u[52]
    top -= np.uint64(1023)
    top -= ((w >> top) == u[0]).astype(np.uint64)
    lz = u[63] - top
    w = w << lz
    high, low = _mul128(w, _EL_HIGH.take(lf))
    # The wider approximation, where the first leaves the low 9 bits open.
    again = np.flatnonzero((high & u[0x1FF]) == u[0x1FF])
    if again.size:
        more = _mul128(w[again], _EL_LOW.take(lf[again]))[0]
        more += low[again]
        high[again] += (more < low[again]).astype(np.uint64)
        low[again] = more
    up = high >> u[63]
    shift = up + u[9]
    mantissa = high >> shift
    # An exact half, which float() rounds to even, needs 10**-lf >= 10**-4
    # and nothing but zeros below the mantissa.
    fail = np.zeros(w.size, dtype=bool)
    near = np.flatnonzero(low <= u[1])
    if near.size:
        m = mantissa[near]
        fail[near] = (lf[near] <= 4) & ((m & u[3]) == u[1]) & ((m << shift[near]) == high[near])
    mantissa += mantissa & u[1]
    mantissa >>= u[1]
    carry = mantissa >> u[53]
    mantissa >>= carry
    exponent = _EL_EXPONENT.take(lf)
    exponent += up
    exponent += carry
    exponent -= lz
    mantissa &= u[2**52 - 1]
    mantissa |= exponent << u[52]
    return mantissa, fail


def _decimals(text, windows, end, size):
    """(values, slow) of the fields text[e - s : e]: where not slow, the
    float of the field bit for bit. windows[i] is text[i : i + WINDOW]."""
    u, b = _U, _BYTES
    neg = text[end - np.maximum(size, 1)] == ord("-")
    body = size - neg
    ok = (body >= 3) & (body <= WINDOW)
    pad = WINDOW - np.minimum(body, WINDOW)
    del body
    # A row of three words per field: digits to their values and the
    # point to 0x1E, the bytes before the field to 0.
    v = windows[end - WINDOW].view("<u8").reshape(-1, 3)
    v ^= b[0x30]
    v &= _KEEP.take(pad, axis=0)
    # A byte 1 at each point, a zero byte of v ^ 0x1E: below 0x80 a byte
    # + 0x7F has bit 7 set unless it is 0. A byte at or above 0x80 is not
    # a digit, which rejects the field below.
    point = v ^ b[0x1E]
    point += b[0x7F]
    np.invert(point, out=point)
    point >>= u[7]
    point &= b[0x01]
    # One point, at byte `at` of the window, with a digit on each side.
    count = point[:, 0] + point[:, 1]
    count += point[:, 2]
    count *= b[0x01]
    ok &= (count >> u[56]) == u[1]
    np.multiply(point[:, 0], _AT[0], out=count)
    for j in (1, 2):
        count += point[:, j] * _AT[j]
    count >>= u[56]
    at = count.astype(np.intp)
    del count
    ok &= (at > pad) & (at < WINDOW - 1)
    del pad
    lf = np.minimum(at, WINDOW - 1, out=at)
    np.subtract(WINDOW - 1, lf, out=lf)
    point *= u[0x1E]
    v ^= point
    del point
    # Bit 7 set in each byte of v that is not a digit value 0-9.
    bad = v + b[0x76]
    bad |= v
    ok &= ((bad[:, 0] | bad[:, 1] | bad[:, 2]) & b[0x80]) == u[0]
    del bad
    # With the point's 0 the digits make n = whole * 10**(lf + 1) + fraction,
    # below 10**19 where the first word's digits are below 1000.
    _eight_digits(v)
    ok &= v[:, 0] < u[1000]
    n = v[:, 0] * u[10**16]
    n += v[:, 1] * u[10**8]
    n += v[:, 2]
    del v
    whole = n // _POW10.take(np.minimum(lf + 1, 19))
    whole *= _NINES.take(lf)
    n -= whole
    del whole
    values = n.astype(np.float64)
    values /= _POW10F.take(lf)
    slow = ~ok
    hard = np.flatnonzero(ok & (n > u[2**53]))
    if hard.size:
        bits, fail = _eisel_lemire(n[hard], lf[hard])
        values[hard] = bits.view(np.float64)
        slow[hard[fail]] = True
    values.view(np.uint64)[...] |= neg.astype(np.uint64) << u[63]
    return values, slow


def floats(text, ends, sizes):
    """float(text[e - s : e].decode()) for each end e and size s of the
    intp arrays ends and sizes, bit for bit, as a float64 array. text is a
    1-D uint8 array and every e is at least WINDOW.

    A field -?D+.D+ of at most WINDOW bytes after the sign and at most 18
    digits after its leading zeros (19 without an integer part) is read
    in numpy, about CHUNK fields a pass: by Clinger's exact path ("How to
    read floating point numbers accurately", PLDI 1990), float(w) /
    10**lf, where its digits w <= 2**53, and by Eisel-Lemire otherwise.
    Every other field goes through float() one at a time in the same
    call, which raises float()'s ValueError: exponent forms, '+', '_',
    whitespace, '.5', '5.', nan, inf, non-ASCII text, and the values
    Eisel-Lemire finds too close to halfway between two floats."""
    out = np.empty(ends.size)
    # The WINDOW bytes from each byte of text on, as a view.
    windows = np.ndarray(
        (max(text.size - WINDOW + 1, 0),), dtype=f"V{WINDOW}", buffer=text, strides=(1,)
    )
    for lo in range(0, ends.size, CHUNK):
        end, size = ends[lo : lo + CHUNK], sizes[lo : lo + CHUNK]
        values, slow = _decimals(text, windows, end, size)
        for k in np.flatnonzero(slow).tolist():
            values[k] = float(text[end[k] - size[k] : end[k]].tobytes().decode())
        out[lo : lo + CHUNK] = values
    return out

