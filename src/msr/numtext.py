"""Numbers as JSON text, a whole array at a time: each float64 as `repr`
writes it and each integer as `str` does, by numpy's integer arithmetic
alone, so the text does not depend on the CPU.

A float's digits are Schubfach's (Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal that reads back as the same float,
and of those the closest, ties to an even last digit, which is the choice
`repr` makes. Java's form of the algorithm keeps two digits where one would
do (its `s >= 100` test and its rule for tiny subnormals); `repr` does not,
so both are left out and a subnormal takes the same steps as a normal float.

Each value's text is one row of a uint8 matrix of fixed width, whose slots
hold a character or 0, hidden; the text is the row's nonzero bytes. So a
caller lays whole columns of text side by side and drops every 0 at once.
Rows are whole uint32 words, and the first three slots of a row are always
0, free for a separator. A row is the fixed characters of its layout (sign,
point, zeros, exponent mark), taken from a table indexed by the layout, over
the row's digits, masked by a second table of the same index. A float's
digits appear twice, before and after the point, and each copy's mask shows
its part, so the point needs no shift of the digits.
"""

import functools

import numpy as np

_U = np.uint64
# float64 fields: the least exponent and the hidden bit
_Q_MIN = -1074
_C_MIN = 1 << 52
# the decimal exponents that Schubfach's scale factors cover
_K_MIN, _K_MAX = -324, 292
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)

# a float's row, in slots: the sign in slot 3; in words 1-5 a significand's
# 17 digits, zero-padded to 20, to show those before the point, with "0" of
# "0." on the 16th digit and the point on the 17th, as the point follows the
# 16th digit at most; in words 6-10 the digits again, to show those after it,
# their three leading zeros those of "0.000"; "e" in slot 44; the
# exponent's sign in slot 48, over the leading zero of its four digits
_SIGN, _INT, _FRAC, _EXP = 3, 4, 24, 48
FLOAT_WIDTH = 52
# an integer's row: the sign in slot 3, then 20 digits
INT_WIDTH = 24
# decimal exponents of positional text: [-4, 16), as in `repr`
_POS_LO, _POS_HI = -4, 16
# layout classes of the exponent: positional ones, then an exponent below
# 0 of two digits, of three, then above 0 of two, of three
_N_EXP = _POS_HI - _POS_LO + 4


@functools.cache
def _groups() -> np.ndarray:
    """The four ASCII digits of each number below 10,000 as one uint32, so
    that a uint8 view of the word reads as the digits."""
    i = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    for j, power in enumerate((1000, 100, 10, 1)):
        digits[:, j] = i // power % 10 + ord("0")
    return digits.view(np.uint32).reshape(-1)


@functools.cache
def _scales() -> tuple:
    """g1 and g0 of Schubfach's scale factor g = g1 * 2**63 + g0 for each
    decimal exponent k in [_K_MIN, _K_MAX]: g = floor(10**-k / 2**r) + 1
    for the r that puts 10**-k / 2**r in [2**125, 2**126)."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            n = 10 ** -k
            shift = n.bit_length() - 126
            g.append((n >> shift if shift >= 0 else n << -shift) + 1)
        else:
            d = 10 ** k
            g.append((1 << (125 + d.bit_length())) // d + 1)
    return (np.array([v >> 63 for v in g], dtype=np.uint64),
            np.array([v & ((1 << 63) - 1) for v in g], dtype=np.uint64))


def _product(a, b):
    """(high, low) 64-bit words of each 128-bit product a * b of uint64
    arrays, from 32-bit limbs."""
    a_lo, a_hi = a & _M32, a >> _U(32)
    b_lo, b_hi = b & _M32, b >> _U(32)
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U(32)) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32)), a * b


def _add(x, y):
    """x + y of 128-bit (high, low) pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]), low


def _sub(x, y):
    """x - y of 128-bit (high, low) pairs."""
    low = x[1] - y[1]
    return x[0] - y[0] - (low > x[1]), low


def _shifted(g, shift):
    """g << shift as a 128-bit (high, low) pair, for g < 2**63 and shifts
    in [1, 63]."""
    return g >> (_U(64) - shift), g << shift


def _rop(p1, p0):
    """Schubfach's g * cp / 2**127 rounded to odd, from the 128-bit products
    p1 = g1 * cp and p0 = g0 * cp."""
    z = (p1[1] >> _U(1)) + p0[0]
    return (p1[0] + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(d, k, subnormal) for the bits of each nonzero finite float64 of sign
    0: its shortest closest decimal d * 10**k, ties to an even d."""
    biased = bits >> _U(52)
    c = (bits & _U(_C_MIN - 1)) | (np.minimum(biased, _U(1)) << _U(52))
    q = np.maximum(biased, _U(1)).astype(np.int64) - 1075
    # a power of two above the least normal has its lower neighbour half as far
    narrow = (c == _C_MIN) & (q > _Q_MIN)
    k = (q * 661_971_961_083 - narrow * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = (np.take(table, k - _K_MIN) for table in _scales())
    # g * (4c << h) and g times the steps to the rounding interval's ends,
    # (2 << h) above and (2 << h) or (1 << h) below
    cp = c << (h + _U(2))
    p1, p0 = _product(g1, cp), _product(g0, cp)
    up, down = h + _U(1), h + _U(1) - narrow
    vb = _rop(p1, p0)
    vbl = _rop(_sub(p1, _shifted(g1, down)), _sub(p0, _shifted(g0, down)))
    vbr = _rop(_add(p1, _shifted(g1, up)), _add(p0, _shifted(g0, up)))
    # an end of the interval is in it when c is even
    odd = c & _U(1)
    vbl += odd
    vbr -= odd

    s = vb >> _U(2)
    s4 = vb & ~_U(3)
    # a multiple of ten in the interval is the shortest; there is at most one
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    uin = vbl <= s4
    win = s4 + _U(4) <= vbr
    # s + 1 when only it is in, or when both are and it is closer, or as
    # close and s is odd
    tie = (vb & _U(3)) + (s & _U(1)) > 2
    step = (win & ~uin) | ((uin == win) & tie)
    d = np.where(upin != wpin, sp10 + wpin * _U(10), s + step)
    return d, k, biased == 0


def _digit_words(u) -> np.ndarray:
    """(len(u), 5) uint32: the 20 ASCII digits of each uint64 below 10**20,
    zero-padded on the left, four to a word."""
    top = u // _U(10 ** 16)
    rest = u - top * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    low = (rest - high * _U(10 ** 8)).astype(np.uint32)
    groups = np.empty((5, len(u)), dtype=np.uint32)
    groups[0], groups[2] = top, high
    for j, half in ((1, groups[2]), (3, low)):
        np.floor_divide(half, np.uint32(10_000), out=groups[j])
        np.subtract(half, groups[j] * np.uint32(10_000), out=groups[j + 1])
    return np.take(_groups(), groups).T


def _text(tables, layout, placed) -> np.ndarray:
    """Rows of text as uint8: each row's fixed characters from `tables`,
    and over them each (words, values) of `placed`, values masked by the
    row's digit mask from `tables`, for each row's `layout`."""
    fixed, masks = tables
    text = np.take(fixed, layout, axis=0)
    mask = np.take(masks, layout, axis=0)
    for words, values in placed:
        mask[:, words] &= values
    text |= mask
    return text.view(np.uint8)


@functools.cache
def _float_layouts() -> np.ndarray:
    """Two (2 * _N_EXP * 17, FLOAT_WIDTH / 4) uint32 tables, rows numbered
    (negative * _N_EXP + exponent class) * 17 + significant digits - 1:
    each layout's fixed characters, and a mask of its slots that show a
    digit."""
    table = np.zeros((2, _N_EXP, 17, 2, FLOAT_WIDTH), dtype=np.uint8)
    first = _INT + 3  # slot of a significand's first digit before the point
    point = _INT + 19
    after = _FRAC + 3  # ...and after it
    for e_class in range(_N_EXP):
        for n in range(1, 18):
            fixed, mask = table[1, e_class, n - 1]
            e = e_class + _POS_LO
            if e < _POS_HI:
                # digits 0..e, the point, the rest, or "0" when there is none;
                # below 1, "0." and -e - 1 zeros before the digits
                fixed[point] = ord(".")
                if e < 0:
                    fixed[point - 1] = ord("0")
                    mask[after + e + 1:after + n] = 0xFF
                else:
                    mask[first:first + e + 1] = 0xFF
                    mask[after + e + 1:after + max(n, e + 2)] = 0xFF
            else:
                # d[.ddd]e<sign><digits>, two digits at least
                above, three = divmod(e_class - (_POS_HI - _POS_LO), 2)
                mask[first] = 0xFF
                if n > 1:
                    fixed[point] = ord(".")
                    mask[after + 1:after + n] = 0xFF
                fixed[_EXP - 4] = ord("e")
                fixed[_EXP] = ord("+" if above else "-")
                mask[_EXP + 2 - three:_EXP + 4] = 0xFF
    table[0] = table[1]
    table[1, ..., 0, _SIGN] = ord("-")
    table = table.reshape(-1, 2, FLOAT_WIDTH).view(np.uint32)
    return np.ascontiguousarray(table[:, 0]), np.ascontiguousarray(table[:, 1])


@functools.cache
def _exponent_classes() -> np.ndarray:
    """The layout class of each decimal exponent e, at index e + 400."""
    e = np.arange(-400, 400)
    exp_class = (_POS_HI - _POS_LO) + 2 * (e > 0) + (np.abs(e) >= 100)
    return np.where((e >= _POS_LO) & (e < _POS_HI), e - _POS_LO, exp_class)


_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)


def float_text(values) -> np.ndarray:
    """(n, FLOAT_WIDTH) uint8: row i holds repr(float(values[i])) in its
    nonzero bytes. Every value must be finite."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    negative = (bits >> _U(63)).astype(np.intp)
    magnitude = bits & _M63
    zero = magnitude == 0
    # zero as the least subnormal, whose digits are then cleared
    d, k, subnormal = _shortest(magnitude | zero)
    # d has 16 or 17 digits for a normal float
    n = (d >= _U(10 ** 16)) + 16
    if subnormal.any():
        n[subnormal] = np.searchsorted(_POW10, d[subnormal], side="right")
    # trailing zeros
    zeros = np.zeros(len(d), dtype=np.intp)
    tenth = d // _U(10)
    rows = np.flatnonzero(tenth * _U(10) == d)
    tenth = tenth[rows]
    while rows.size:
        zeros[rows] += 1
        more = tenth // _U(10)
        keep = more * _U(10) == tenth
        rows, tenth = rows[keep], more[keep]
    e = k + n - 1
    significant = n - zeros
    d[zero], e[zero], significant[zero] = 0, 0, 1
    layout = ((negative * _N_EXP + np.take(_exponent_classes(), e + 400)) * 17
              + significant - 1)
    digits = _digit_words(d * np.take(_POW10, 17 - n))
    return _text(_float_layouts(), layout, ((slice(1, 6), digits), (slice(6, 11), digits),
                                            (12, np.take(_groups(), np.abs(e)))))


@functools.cache
def _int_layouts() -> np.ndarray:
    """Two (2 * 20, INT_WIDTH / 4) uint32 tables, rows numbered negative *
    20 + digits - 1: each layout's sign, and a mask of its digits."""
    fixed = np.zeros((2, 20, INT_WIDTH), dtype=np.uint8)
    fixed[1, :, _SIGN] = ord("-")
    masks = np.zeros((2, 20, INT_WIDTH), dtype=np.uint8)
    for n in range(1, 21):
        masks[:, n - 1, INT_WIDTH - n:] = 0xFF
    return fixed.reshape(40, -1).view(np.uint32), masks.reshape(40, -1).view(np.uint32)


def int_text(values) -> np.ndarray:
    """(n, INT_WIDTH) uint8: row i holds str(int(values[i])) in its nonzero
    bytes. values are uint64 or int64."""
    x = np.asarray(values).reshape(-1)
    negative = x < 0
    magnitude = x.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    n = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    return _text(_int_layouts(), negative * 20 + n - 1,
                 ((slice(1, 6), _digit_words(magnitude)),))
