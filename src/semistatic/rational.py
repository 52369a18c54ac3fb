"""Exact rational parsing and formatting.

All market data travel as `fractions.Fraction`; text form is "p/q" (or a bare
integer string).  Floats are rejected everywhere so that file round-trips stay
bit-exact.  Measures, claims and processes are computed on as integers over one
denominator (`over_lcm`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping


class RationalError(TypeError):
    """A value that is not an int, a Fraction or a "p/q" string."""


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            pass
    floats = " (floats are not accepted)" if isinstance(value, float) else ""
    raise RationalError(f"not a rational: {value!r}{floats}")


def rat_str(x: Fraction) -> str:
    """Canonical text form: "p/q", or "n" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def over_lcm(values: Mapping[str, Fraction]) -> tuple[int, dict[str, int]]:
    """The values as integers over one denominator, the lcm of theirs: a
    canonical form, since the lcm of reduced denominators is unique."""
    den = lcm(*[x.denominator for x in values.values()])
    return den, {k: x.numerator * (den // x.denominator) for k, x in values.items()}
