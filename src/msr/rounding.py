"""Decimal rounding with ties away from zero."""

import decimal


def round_half_away(x: float, digits: int) -> float:
    """Round to `digits` decimal places, ties away from zero.

    Works on the shortest decimal representation of the float, so values like
    -0.005 round to -0.01 instead of falling victim to binary representation.
    """
    if digits >= 0 and abs(x) >= 2.0 ** 52:  # no fractional digits; quantize fails past 28
        return float(x)
    q = decimal.Decimal(1).scaleb(-digits)
    d = decimal.Decimal(repr(float(x))).quantize(q, rounding=decimal.ROUND_HALF_UP)
    return float(d)
