"""The normal quantile and CDF and the logistic sigmoid, equal to scipy.special's
`ndtri`, `ndtr` and `expit` bit for bit, with numpy alone.

scipy computes `ndtri`, `ndtr` and its `erf`/`erfc` with the rational
approximations of the Cephes library (S. L. Moshier, *Methods and Programs
for Mathematical Functions*, 1989), and `expit` as 1 / (1 + exp(-x)). The
ports below do the same IEEE operations in the same order. One Horner
routine, `_polevl`/`_p1evl`, evaluates every rational: the `ndtri` paths
pass their arrays and `ndtr` a 0-d array of its one value, whose float64
`multiply` and `add` round as Python's float operations do.
Every operation but `exp` and `log` rounds correctly, so only those two
need care: scipy calls the C library's, and numpy's float64 ufuncs may use
their own SIMD kernels, which differ from it in the last bit. `exp` and the
logs of the `ndtri` tail give the C library's results for whole arrays: the
real part of numpy's complex128 `exp`/`log`, which call the C library's
`cexp`/`clog`, equals the real `exp`/`log` of a real argument, except where
glibc's `cexp`/`clog` rescale; those few elements take `math.exp`/`math.log`.
"""

import math

import numpy as np

_DBL_MIN = 2.2250738585072014e-308
_NONE = np.empty(0, dtype=np.intp)


def _polevl(x, coef, out=None):
    """Cephes' polevl: Horner's rule, coef[0] * x**n + ... + coef[n], at each
    element of the float64 array x (0-d for one value), into `out` or a new
    array."""
    out = np.empty(np.shape(x)) if out is None else out
    np.multiply(x, coef[0], out=out)
    np.add(out, coef[1], out=out)
    for c in coef[2:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _p1evl(x, coef, out=None):
    """Cephes' p1evl: `_polevl` with an implied leading coefficient of 1."""
    out = np.empty(np.shape(x)) if out is None else out
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _libm(ufunc, scalar, x, slow):
    """scalar(v) for each element v of the C-contiguous float64 array x: the
    real part of ufunc on a complex128 copy, except at the flat indices
    `slow`, which take scalar itself. Those enter the complex ufunc as 1.0,
    so it warns of nothing."""
    z = x.astype(np.complex128)
    if slow.size:
        z.reshape(-1)[slow] = 1.0
    ufunc(z, out=z)
    out = z.real.copy()
    if slow.size:
        out.reshape(-1)[slow] = [scalar(v) for v in x.reshape(-1)[slow].tolist()]
    return out


def _exp1(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def exp(x) -> np.ndarray:
    """math.exp of each element of a float64 array, inf where it overflows.
    glibc's cexp takes the real exp for |x| <= 708: above 709 it rescales,
    and below -708 its result can underflow and make numpy warn."""
    x = np.asarray(x, dtype=np.float64, order="C")
    return _libm(np.exp, _exp1, x, np.flatnonzero(~(np.abs(x) <= 708.0)))


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of each element, as scipy's."""
    e = exp(np.negative(x, dtype=np.float64))
    e += 1.0
    return np.divide(1.0, e, out=e)


# ndtri: central rational on |y - 0.5| <= 0.5 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tail, for x = sqrt(-2 log w) in [2, 8): w between exp(-32) and exp(-2)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# tail, for x >= 8: w below exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0
_EXPM2 = 0.13533528323661269189  # exp(-2)
# values per block of the central rational: 120 KiB per buffer, under
# glibc's 128 KiB mmap threshold, so the buffers come from the heap
_BLOCK = 15 << 10


def _ndtri_central(y, out):
    """The central rational at each y in (exp(-2), 1 - exp(-2)], into `out`,
    which may be y. It runs in blocks of _BLOCK values through three scratch
    buffers, small enough to stay in cache and to come from the heap."""
    size = min(y.size, _BLOCK)
    t, y2, p = np.empty(size), np.empty(size), np.empty(size)
    for lo in range(0, y.size, _BLOCK):
        n = min(_BLOCK, y.size - lo)
        t_, y2_, p_, q = t[:n], y2[:n], p[:n], out[lo:lo + n]
        np.subtract(y[lo:lo + n], 0.5, out=t_)
        np.multiply(t_, t_, out=y2_)
        _polevl(y2_, _P0, p_)
        _p1evl(y2_, _Q0, q)
        np.multiply(y2_, p_, out=p_)
        np.divide(p_, q, out=p_)
        np.multiply(t_, p_, out=p_)
        np.add(t_, p_, out=p_)
        np.multiply(p_, _S2PI, out=q)
    return out


def _ndtri_tail(w):
    """-ndtri(w) for w in (0, exp(-2)]: with x = sqrt(-2 log w),
    x - log(x) / x - z * P(z) / Q(z) at z = 1 / x, where P/Q is the
    rational for x < 8 or the one for x >= 8. Both logs are clog's, which
    takes the real log on w < 0.5 and x >= 2, but for a subnormal w, where
    clog rescales and math.log is used."""
    x = np.sqrt(-2.0 * _libm(np.log, math.log, w, np.flatnonzero(w < _DBL_MIN)))
    x0 = x - _libm(np.log, math.log, x, _NONE) / x
    z = 1.0 / x
    p, q = _polevl(z, _P1), _p1evl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        p[far], q[far] = _polevl(z[far], _P2), _p1evl(z[far], _Q2)
    np.multiply(z, p, out=p)
    np.divide(p, q, out=p)
    return np.subtract(x0, p, out=p)


def ndtri(y, out=None) -> np.ndarray:
    """The standard normal quantile of each element of a float64 array:
    -inf at 0, inf at 1, nan outside [0, 1] and at nan, as scipy's. `out`,
    if given, is a C-contiguous float64 array of y's shape, and may be y."""
    y = np.asarray(y, dtype=np.float64)
    if out is None:
        out = np.empty(y.shape)
    flat, result = y.reshape(-1), out.reshape(-1)
    # Cephes takes 1 - y above 1 - exp(-2) and then the central rational
    # above exp(-2); that is this mask, and the rational sees y itself
    central = (flat > _EXPM2) & (flat <= 1.0 - _EXPM2)
    if central.all():
        _ndtri_central(flat, result)
        return out
    mid = np.flatnonzero(central)
    v = flat[mid]
    result[mid] = _ndtri_central(v, v)
    rest = np.flatnonzero(~central)
    v = flat[rest]
    inside = (v > 0.0) & (v < 1.0)
    if not inside.all():
        edge = rest[~inside]
        result[edge] = np.where(flat[edge] == 0.0, -np.inf,
                                np.where(flat[edge] == 1.0, np.inf, np.nan))
        rest, v = rest[inside], v[inside]
    upper = v > 0.5
    # the distance to the nearer end of [0, 1]; 1 - v is exact above 0.5
    x = _ndtri_tail(np.where(upper, 1.0 - v, v))
    result[rest] = np.where(upper, x, -x)
    return out


# erfc on [1, 8)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc on [8, inf)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# erf on [0, 1]
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)


def _erf(x: float) -> float:
    """erf for |x| <= 1; Cephes' -erf(-x) for x < 0 has the same bits."""
    z = np.array(x * x)
    return float(x * _polevl(z, _T) / _p1evl(z, _U))


def _erfc(x: float) -> float:
    """erfc for x >= sqrt(1/2), or nan; 0 where exp(-x * x) underflows."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    num, den = (_P, _Q) if x < 8.0 else (_R, _S)
    x = np.array(x)
    return float((math.exp(z) * _polevl(x, num)) / _p1evl(x, den))


def ndtr(a: float) -> float:
    """The standard normal CDF of one float, as scipy's; nan at nan."""
    x = float(a) * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y
