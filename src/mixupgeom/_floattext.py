"""Shortest round-trip text of float64 arrays, byte for byte as repr.

rows_text formats each row of a 2-D float64 array as
",".join(map(repr, row)), about CHUNK floats at a time. A float whose
repr is positional with a fractional part (1e-4 <= |x| < 1e16, not
integral), and +-0.0, is converted by the common path of Ryu (Ulf Adams,
"Ryu: fast float-to-string conversion", PLDI 2018) in numpy integer
arithmetic, and repr's layout is applied to its digits. Every other
float goes through repr one at a time: exponent form, integral values,
subnormals, inf and nan, powers of two and Ryu's rare trailing-zeros
case.

uint64 arrays meet only uint64 arrays and np.uint64 scalars, and intp
arrays only intp arrays and Python ints, which promote alike in numpy 1
and numpy 2.
"""

from __future__ import annotations

import numpy as np

# Floats formatted per pass; a pass holds about half a megabyte.
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
    for k in (0, 1, 2, 9, 10, 32, 52, 63, 0x7FF, 10**4, 2**32 - 1, 2**52 - 1, 2**52)
}


def _tables():
    """Ryu's quantities for each fast-path exponent, indexed by biased
    exponent - _LO: e10 = q + e2; the mask of mv's low q bits; the shift
    that takes the 179-bit product (2 m2 - 1) * 5^i, less its low 96
    bits, to vm, and 32 less that shift; and the four 32-bit limbs of
    5^i scaled to 125 bits (Ryu's DOUBLE_POW5_SPLIT[i])."""
    e10, low_q, shift, limbs = [], [], [], []
    for biased in range(_LO, _HI + 1):
        e2 = biased - 1023 - 52 - 2
        q = ((-e2 * 732923) >> 20) - 1
        i = -e2 - q
        pow5bits = ((i * 1217359) >> 19) + 1
        split = 5**i << (125 - pow5bits)
        e10.append(q + e2)
        low_q.append((1 << q) - 1)
        # Ryu shifts (4 m2 - 2) * 5^i right by j = q - pow5bits + 125.
        shift.append(q - pow5bits + 125 - 1 - 96)
        limbs.append([(split >> (32 * k)) & 0xFFFFFFFF for k in range(4)])
    u64 = np.uint64
    shift = np.array(shift, dtype=u64)
    return (
        np.array(e10, dtype=np.intp),
        np.array(low_q, dtype=u64),
        shift,
        u64(32) - shift,
        np.array(limbs, dtype=u64).T.copy(),
    )


_E10, _LOW_Q, _SHIFT, _UNSHIFT, _LIMBS = _tables()
_POW10 = np.array([10**k for k in range(19)], dtype=np.uint64)
# 5 * 10**(k - 1): the least k dropped digits that round up; none for k = 0.
_HALF = np.array([2**64 - 1] + [5 * 10**k for k in range(18)], dtype=np.uint64)


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


def _digits(bits):
    """(digits, exponent, fast) of float64 bit patterns: where fast, the
    shortest digits of the common path of Ryu's d2d as an integer, with
    |x| = digits * 10**exponent; elsewhere garbage."""
    u = _U
    biased = (bits >> u[52]) & u[0x7FF]
    fast = (biased >= np.uint64(_LO)) & (biased <= np.uint64(_HI))
    row = np.clip(biased.astype(np.intp) - _LO, 0, _HI - _LO)
    del biased
    v = bits & u[2**52 - 1]
    # Not a power of two, whose interval is asymmetric, and not Ryu's
    # trailing-zeros case: mv = 4 m2 a multiple of 2^q.
    fast &= v != u[0]
    v |= u[2**52]
    fast &= ((v << u[2]) & _LOW_Q.take(row)) != u[0]
    # vm, vr, vp = (v + {0, 1, 2}) * 5^i >> (j - 1) for v = 2 m2 - 1: the
    # 54-bit v times the 125-bit 5^i in 32-bit limbs, in five columns of
    # 2^32 that each hold under 2^56.
    v <<= u[1]
    v -= u[1]
    v_hi = v >> u[32]
    v &= u[2**32 - 1]
    a = [limb.take(row) for limb in _LIMBS]
    cols = [np.zeros_like(v) for _ in range(5)]
    for k in range(4):
        low = v * a[k]
        cols[k + 1] += low >> u[32]
        low &= u[2**32 - 1]
        cols[k] += low
        low = np.multiply(v_hi, a[k], out=low)
        cols[k + 1] += low
    del v, v_hi, low
    shift = _SHIFT.take(row)
    cols[4] <<= _UNSHIFT.take(row)
    vm, vr, vp = (cols[0].copy() for _ in range(3))
    for k in range(4):
        if k:
            vm >>= u[32]
            vr >>= u[32]
            vp >>= u[32]
            vm += cols[k]
            vr += cols[k]
            vp += cols[k]
        vr += a[k]
        vp += a[k]
        vp += a[k]
    del cols[:4], a
    for v in (vm, vr, vp):
        v >>= shift
        v += cols[0]
    del cols, shift
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
    """The bytes of repr(x[k]) for each k, each after the byte sep[k] (0
    for none)."""
    u = _U
    bits = x.view(np.uint64)
    digits, exponent, fast = _digits(bits)
    # +-0.0 takes the fast path as 0 * 10**-1.
    zero = (bits << u[1]) == u[0]
    fast |= zero
    digits[zero] = u[0]
    exponent[zero] = -1
    del zero
    point = np.searchsorted(_POW10, digits, side="right")
    point += exponent
    # repr is positional for -4 < point <= 16; exponent < 0 is a fraction.
    fast &= (exponent < 0) & (point > -4) & (point <= 16)
    frac = np.clip(np.negative(exponent, out=exponent), 0, 20, out=exponent)
    # The digits with a 0 inserted for the point after the integer part:
    # y = int * 10**(frac + 1) + frac_digits.
    scale = _POW10.take(np.minimum(frac, 18))
    y = digits // scale
    y *= scale
    y *= u[9]
    y += digits
    del digits, scale
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
    text[np.arange(x.size), _WIDTH - 1 - frac] = ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        reprs = [repr(v).encode() for v in x[slow].tolist()]
        pad = b"".join(r.rjust(24) for r in reprs)
        text[slow, _WIDTH - 24 :] = np.frombuffer(pad, dtype=np.uint8).reshape(-1, 24)
        start[slow] = [_WIDTH - len(r) for r in reprs]
    text[:, 0] = sep
    text[:, 1] = ord("-")
    keep = _SUFFIX.take(start, axis=0)
    keep[:, 0] = sep != 0
    keep[:, 1] = fast & (bits >> u[63] != u[0])
    return text[keep].tobytes()


def rows_text(a):
    """Yield ",".join(map(repr, row)) for each row of the 2-D float array
    a, byte for byte; whole rows of about CHUNK floats are formatted at a
    time, and a row of more in passes of CHUNK."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    n, d = a.shape
    if not d:
        yield from [""] * n
        return
    sep = np.full(CHUNK, ord(","), dtype=np.uint8)
    rows = max(1, CHUNK // d)
    for lo in range(0, n, rows):
        flat = a[lo : lo + rows].reshape(-1)
        parts = []
        for at in range(0, flat.size, CHUNK):
            x = flat[at : at + CHUNK]
            sep[: x.size] = ord(",")
            sep[-at % d : x.size : d] = ord("\n")
            if not at:
                sep[0] = 0
            parts.append(_text(x, sep[: x.size]))
        yield from b"".join(parts).decode("ascii").split("\n")
