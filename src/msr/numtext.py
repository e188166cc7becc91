"""Numbers as JSON text and back, a whole array at a time: each float64 as
`repr` writes it and each integer as `str` does, and each such text read
back as `float` and `int` read it, by numpy's integer arithmetic alone, so
neither direction depends on the CPU.

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

The reader takes each text right-aligned in a row of NUMBER_WIDTH bytes,
whatever bytes come before it, and finds its sign, point and exponent as
bit masks of the row's columns. It reads eight digits from each uint64
word of a row at once (SWAR) and turns a decimal w * 10**q with w below
10**19 into the nearest float64, ties to even, by Eisel-Lemire: w times a
128-bit truncated power of five, rounded from the product's top bits
(Lemire, "Number Parsing at a Gigabyte per Second", 2021). For w below
2**64 that product always decides the rounding, so no slower fallback is
needed (Mushtak and Lemire, "Fast Number Parsing Without Fallback", 2023).
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


def text_table(texts) -> np.ndarray:
    """The ASCII texts as the rows of a uint8 matrix, padded with 0."""
    return np.array([t.encode("ascii") for t in texts])[:, None].view(np.uint8)


def joined(n: int, parts) -> np.ndarray:
    """(n, width) uint8 rows of text: the parts side by side, each (n, ...) or a shared (1, w)."""
    ends = np.cumsum([0] + [part[0].size for part in parts])
    text = np.empty((n, ends[-1]), dtype=np.uint8)
    for part, at, end in zip(parts, ends, ends[1:]):
        text[:, at:end].reshape(-1, *part.shape[1:])[...] = part
    return text


# a number's text as `read_numbers` takes it: right-aligned in a row of
# this many bytes, which holds every text `repr` writes, sign included
NUMBER_WIDTH = 24
# what `read_numbers` made of a text: a float it read, an integer it read,
# or neither (0)
FLOAT, INTEGER = 1, 2
# the decimal exponents that the powers of five cover
_Q_LO, _Q_HI = -342, 308
# gathers the low bit of each byte of a word, byte j to bit j, into its top byte
_GATHER = _U(0x0102040810204080)
# a row's columns as the bits of a uint32, the first the lowest
_B = np.uint32
_TOP = 1 << NUMBER_WIDTH


@functools.cache
def _powers_of_five() -> tuple:
    """High and low words of the 128 bits, top bit set, of 5**q for each q
    in [_Q_LO, _Q_HI]: truncated for q >= 0, and for q < 0 the reciprocal
    2**b / 5**-q rounded up, then truncated."""
    hi, lo = [], []
    for q in range(_Q_LO, _Q_HI + 1):
        p = 5 ** abs(q)
        z = p.bit_length()
        if q < 0:
            p = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
            z = p.bit_length()
        p = p << (128 - z) if z < 128 else p >> (z - 128)
        hi.append(p >> 64)
        lo.append(p & ((1 << 64) - 1))
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


@functools.cache
def _tails() -> np.ndarray:
    """(NUMBER_WIDTH + 1, 3) uint64: row n masks a row's last n bytes."""
    masks = np.zeros((NUMBER_WIDTH + 1, NUMBER_WIDTH), dtype=np.uint8)
    for n in range(1, NUMBER_WIDTH + 1):
        masks[n, NUMBER_WIDTH - n:] = 0xFF
    return masks.view(np.uint64)


def _bits(mask) -> np.ndarray:
    """(n,) uint32 with bit c set where mask[:, c] is, for an (n, 24) bool
    array: the top byte of each of its words times _GATHER."""
    packed = np.zeros((len(mask), 4), dtype=np.uint8)
    packed[:, :3] = (mask.view(np.uint64) * _GATHER).view(np.uint8)[:, 7::8]
    return packed.view(np.uint32).reshape(-1)


def _moved(words, shift):
    """Each row of (n, 3) uint64 words, 24 bytes, moved `shift` bits, a
    multiple of 8 below 64, towards its last byte; bytes moved past it go."""
    low = _U(64) - shift
    return np.column_stack((words[:, 0] << shift, (words[:, 1] << shift) | (words[:, 0] >> low),
                            (words[:, 2] << shift) | (words[:, 1] >> low)))


def _eight_digits(words):
    """The value of each word's eight digits 0-9, one a byte, the first
    byte the most significant (Lemire's SWAR); overwrites words."""
    high = words >> _U(8)
    words *= _U(10)
    words += high
    high = words >> _U(16)
    high &= _U(0x000000FF000000FF)
    high *= _U(1 + (10000 << 32))
    words &= _U(0x000000FF000000FF)
    words *= _U(100 + (1000000 << 32))
    words += high
    words >>= _U(32)
    return words


def _decimal_bits(w, q):
    """The bits of the float64 nearest w * 10**q, ties to even, for uint64
    w below 10**19 and int64 q (Eisel-Lemire)."""
    zero = (w == 0) | (q < _Q_LO)
    huge = q > _Q_HI
    q = np.clip(q, _Q_LO, _Q_HI)
    # the bit length of w: a float's exponent, less one where rounding
    # carried it to the next power of two
    length = np.frexp(w.astype(np.float64))[1].astype(np.uint64)
    length -= (w >> (length - _U(1))) == 0
    lz = _U(64) - length
    w = w << lz
    hi5, lo5 = _powers_of_five()
    high, low = _product(w, np.take(hi5, q - _Q_LO))
    # where the 9 bits below the 55 kept are all ones, the carry of w times
    # the power's low word decides them
    rows = np.flatnonzero((high & _U(0x1FF)) == _U(0x1FF))
    if rows.size:
        carry, _ = _product(w[rows], np.take(lo5, q[rows] - _Q_LO))
        low_rows = low[rows] + carry
        high[rows] += low_rows < carry
        low[rows] = low_rows
    upper = high >> _U(63)
    mantissa = high >> (upper + _U(9))
    power2 = ((217_706 * q) >> 16) + (63 + 1023) + (upper.view(np.int64) - lz.view(np.int64))
    # subnormal: shift to the least exponent and round half up; a carry to
    # 2**52 makes it the least normal
    subnormal = np.flatnonzero(power2 <= 0)
    sub = mantissa[subnormal] >> np.minimum(1 - power2[subnormal], 64).astype(np.uint64)
    sub = (sub + (sub & _U(1))) >> _U(1)
    # normal: round half up, but to even where the bits dropped were exactly
    # a half, which needs a product of one word: 5**q for q in [-4, 23]
    rows = np.flatnonzero(low <= _U(1))
    near = mantissa[rows]
    half = ((q[rows] >= -4) & (q[rows] <= 23) & ((near & _U(3)) == _U(1))
            & ((near << (upper[rows] + _U(9))) == high[rows]))
    mantissa[rows[half]] &= ~_U(1)
    mantissa = (mantissa + (mantissa & _U(1))) >> _U(1)
    carried = mantissa >> _U(53)
    mantissa >>= carried
    power2 += carried.view(np.int64)
    bits = (np.clip(power2, 0, 0x7FF).astype(np.uint64) << _U(52)) | (mantissa & _U(_C_MIN - 1))
    bits[subnormal] = sub
    bits[(power2 >= 0x7FF) | huge] = _U(0x7FF << 52)
    bits[zero] = 0
    return bits


def read_numbers(rows, lengths) -> tuple:
    """(floats, integers, form) for JSON numbers given as text: row i of
    the (n, NUMBER_WIDTH) uint8 array `rows` ends in the lengths[i] bytes
    of a text, and its bytes before are ignored. form[i] is FLOAT where the
    text has a point or an exponent mark `e`, at most 19 digits from its
    first nonzero one and at most 6 characters after the mark, with
    floats[i] = float(text); INTEGER where it is a nonnegative integer of
    at most 19 digits, with integers[i] = int(text) and floats[i] 0; and
    0 for anything else, JSON number or not, where floats[i] and
    integers[i] mean nothing. Each text `float_text` writes is read, and
    each that `int_text` writes for an integer in [0, 10**19)."""
    n = len(rows)
    rows = np.ascontiguousarray(rows, dtype=np.uint8).reshape(n, NUMBER_WIDTH)
    lengths = np.asarray(lengths, dtype=np.int64)
    start = NUMBER_WIDTH - np.clip(lengths, 1, NUMBER_WIDTH)
    digits = rows - np.uint8(ord("0"))
    nondigit = digits > 9
    # a bit per column, of the text's columns only
    first = _B(1) << start.astype(_B)
    text = _B(_TOP) - first
    other = _bits(nondigit) & text
    point = _bits(rows == ord(".")) & text
    mark = _bits(rows == ord("e")) & text
    flat = rows.reshape(-1)
    row_at = np.arange(0, n * NUMBER_WIDTH, NUMBER_WIDTH)
    negative = flat[row_at + start] == ord("-")
    lead_at = start + negative
    lead = first << negative.astype(_B)
    after = mark << _B(1)
    # what is neither a digit, the point nor the mark must be a sign
    sign = other & ~(point | mark)
    bad = ((point & (point - _B(1))) | (mark & (mark - _B(1)))
           # a sign only first, as "-", and right after the mark
           | (sign & ~(first | after)) | (sign & first & (negative.astype(_B) - _B(1)))
           # a digit first and last, on both sides of the point, before the
           # mark and after its sign; the point before the mark
           | (other & (lead | _B(_TOP >> 1))) | (point & ((other << _B(1)) | (other >> _B(1))))
           | (mark & (other << _B(1))) | (((sign & after) << _B(1)) & other)
           | (point & ~(mark - _B(1))))
    ok = ((bad == 0) & (lengths >= 1) & (lengths <= NUMBER_WIDTH)
          # no zero before another digit
          & ((flat[row_at + lead_at] != ord("0")) | (((lead << _B(1)) & text & ~other) == 0)))
    # columns of the mark (NUMBER_WIDTH when there is none) and the point
    # (the mark's when there is none)
    mark_at = np.minimum(np.bitwise_count(mark - _B(1)), NUMBER_WIDTH).astype(np.int64)
    point_at = np.minimum(np.bitwise_count(point - _B(1)), mark_at).astype(np.int64)
    has_point = point != 0
    fraction = mark_at - point_at - has_point
    # the digits alone, as 0-9, others 0
    digits &= nondigit.view(np.uint8) - np.uint8(1)
    words = digits.view(np.uint64)
    exponent = np.zeros(n, dtype=np.int64)
    marked = np.flatnonzero(mark)
    if marked.size:
        # the exponent: a sign or not, then digits, at most 6 characters
        # after the mark; then the significand moved right over them
        at = mark_at[marked]
        chars = NUMBER_WIDTH - 1 - at
        signed = (sign[marked] & after[marked]) != 0
        follows = flat[row_at[marked] + np.minimum(at + 1, NUMBER_WIDTH - 1)]
        ok[marked] &= (chars <= 6) & (~signed | (follows == ord("+")) | (follows == ord("-")))
        value = _eight_digits(words[marked, 2] & _tails()[np.minimum(chars - signed, 8), 2])
        value = value.astype(np.int64)
        exponent[marked] = np.where(follows == ord("-"), -value, value)
        words[marked] = _moved(words[marked], (np.minimum(chars + 1, 7) << 3).astype(np.uint64))
    # the significand's digits side by side, right-aligned: those before
    # the point moved one column right, over it
    tails = _tails()
    words &= np.take(tails, mark_at - start, axis=0)
    after_point = words & np.take(tails, fraction, axis=0)
    words ^= after_point
    after_point |= _moved(words, has_point.astype(np.uint64) << _U(3))
    value = _eight_digits(after_point)
    w = value[:, 0] * _U(10 ** 16) + value[:, 1] * _U(10 ** 8) + value[:, 2]
    # at most 19 digits from the first nonzero one: below 10**19
    ok &= value[:, 0] < _U(1000)
    # float bits only for a text with a point or a mark: no integer's is read
    integral = (point | mark) == 0
    floats, decimal = np.zeros(n, dtype=np.uint64), np.flatnonzero(~integral)
    floats[decimal] = (_decimal_bits(w[decimal], exponent[decimal] - fraction[decimal])
                       | (negative[decimal].astype(np.uint64) << _U(63)))
    form = np.where(ok, np.where(integral, np.where(negative, 0, INTEGER), FLOAT), 0).astype(np.int8)
    return floats.view(np.float64), w, form
