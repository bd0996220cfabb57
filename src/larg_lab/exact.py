"""Exact scalars, and the one rule that says which field a value lives in.

Coordinates are ``int``, ``fractions.Fraction``, ``SqrtExt`` (an element
a + b*sqrt(d) of a real quadratic field) or floats, the separate fast mode.
Every kernel reads one field tag, computed here by ``field_of``: 0 for Q,
d for Q(sqrt(d)), and ``FLOAT`` once any value is a float (floats absorb
rationals).  ``join_fields`` combines two tags and refuses the inputs that
have no common field: a float beside a SqrtExt, or two radicands.
``PointSet`` and each shape carry their tag, so a kernel joins tags instead
of reading coordinates.

Kernels that work in integers read a + b*sqrt(d) as (A + B*sqrt(d))/D with
int A, B and D > 0; ``surd_ints``, ``surd_value``, ``surd_float``,
``_floor_surd`` and ``_surd_nonneg`` are that format's only encoder,
decoders, floor and sign.

The numeric policy (README, the ``exact`` layer): ``FLOAT_INTEGER_GUARD`` is
the one float tolerance and ``close`` the one equality test for floats.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from fractions import Fraction

__all__ = [
    "FLOAT_INTEGER_GUARD",
    "BoundaryAmbiguityError",
    "SqrtExt",
    "close",
    "exact_div",
    "format_scalar",
    "fractional_part",
    "guarded_floor",
    "is_exact",
    "parse_scalar",
]

# the one float tolerance: a float this near an integer has no trusted floor
# (guarded_floor), and floats this near each other, times a scale, are close
FLOAT_INTEGER_GUARD = 1e-9

# the field tag of float data; 0 tags Q and d > 0 tags Q(sqrt(d))
FLOAT = -1


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _floor_surd(A: int, B: int, d: int, D: int) -> int:
    """floor((A + B*sqrt(d)) / D) for ints A, B, D > 0 and non-square d.

    B*sqrt(d) is irrational when B != 0, so its floor is isqrt(B*B*d) for
    B > 0 and -isqrt(B*B*d) - 1 for B < 0.
    """
    if B == 0:
        return A // D
    f = math.isqrt(B * B * d)
    return (A + (f if B > 0 else -f - 1)) // D


def _surd_nonneg(a: int, b: int, d: int) -> bool:
    """a + b*sqrt(d) >= 0 for ints a, b and a non-square d (any d if b == 0)."""
    if b == 0:
        return a >= 0
    if a >= 0 and b > 0:
        return True
    if a <= 0 and b < 0:
        return False
    # opposite signs; a*a == b*b*d cannot hold for a non-square d
    return (a * a > b * b * d) == (a > 0)


def _on_parts(method):
    """A binary SqrtExt method on the other operand's parts (`_coerce`)."""

    def wrapped(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        return method(self, *parts)

    return wrapped


def _order(test):
    """A SqrtExt order method: test(sign of self - other), or NotImplemented."""

    def wrapped(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return test(c)

    return wrapped


def _inverse(a, b, d: int):
    """1 / (a + b*sqrt(d)): the conjugate a - b*sqrt(d) over the norm."""
    nrm = a * a - b * b * d
    if nrm == 0:
        raise ZeroDivisionError("division by zero")
    return SqrtExt.make(a / nrm, -b / nrm, d)


class SqrtExt:
    """a + b*sqrt(d) with a, b rational, b != 0, d a positive non-square int.

    Arithmetic collapses back to Fraction whenever the irrational part
    cancels, so set/dict members stay comparable across the two types.
    Comparisons are exact (integer sign tests, no floats).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if d <= 0 or _is_square(d):
            raise ValueError(f"radicand must be a positive non-square integer, got {d}")
        b = Fraction(b)
        if b == 0:
            raise ValueError("irrational part is zero; use Fraction instead")
        self.a = Fraction(a)
        self.b = b
        self.d = d

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def make(a, b, d: int):
        """a + b*sqrt(d), collapsed to Fraction when b == 0."""
        b = Fraction(b)
        if b == 0:
            return Fraction(a)
        return SqrtExt(a, b, d)

    def _coerce(self, other):
        """Return (a, b) parts of other in this value's field, or None."""
        if isinstance(other, SqrtExt):
            if other.d != self.d:
                return None
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    # -- ring operations ------------------------------------------------------

    @_on_parts
    def __add__(self, oa, ob):
        return SqrtExt.make(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    @_on_parts
    def __sub__(self, oa, ob):
        return SqrtExt.make(self.a - oa, self.b - ob, self.d)

    @_on_parts
    def __rsub__(self, oa, ob):
        return SqrtExt.make(oa - self.a, ob - self.b, self.d)

    @_on_parts
    def __mul__(self, oa, ob):
        return SqrtExt.make(
            self.a * oa + self.b * ob * self.d, self.a * ob + self.b * oa, self.d
        )

    __rmul__ = __mul__

    @_on_parts
    def __truediv__(self, oa, ob):
        return self * _inverse(oa, ob, self.d)

    @_on_parts
    def __rtruediv__(self, oa, ob):
        return _inverse(self.a, self.b, self.d) * SqrtExt.make(oa, ob, self.d)

    def __neg__(self):
        return SqrtExt(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- order ----------------------------------------------------------------

    def _sign(self) -> int:
        a, b = self.a, self.b
        # both parts times the positive a.denominator * b.denominator
        return 1 if _surd_nonneg(a.numerator * b.denominator, b.numerator * a.denominator, self.d) else -1

    def _cmp(self, other) -> int | None:
        parts = self._coerce(other)
        if parts is None:
            return None
        diff = self - other
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff._sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return False if c is None else c == 0

    __lt__ = _order(lambda c: c < 0)
    __le__ = _order(lambda c: c <= 0)
    __gt__ = _order(lambda c: c > 0)
    __ge__ = _order(lambda c: c >= 0)

    def __hash__(self):
        return hash(("SqrtExt", self.a, self.b, self.d))

    # -- conversions ----------------------------------------------------------

    def __float__(self):
        x = float(self.a)
        y = float(self.b) * math.sqrt(self.d)
        if abs(x) + abs(y) > 1024 * abs(x + y):
            # the parts cancel; a - b*sqrt(d) does not, and its product with
            # this value is the rational a^2 - b^2 d, so the quotient keeps
            # float accuracy relative to the value, not to its parts
            return float(self.a * self.a - self.b * self.b * self.d) / (x - y)
        return x + y

    def __floor__(self) -> int:
        D = math.lcm(self.a.denominator, self.b.denominator)
        return _floor_surd(int(self.a * D), int(self.b * D), self.d, D)

    def __repr__(self):
        return f"SqrtExt({self.a}, {self.b}, {self.d})"

    def __str__(self):
        return f"{self.a}+{self.b}*sqrt({self.d})"


def join_fields(a: int, b: int, error: type[Exception]) -> int:
    """The field of values from fields a and b (FLOAT absorbs Q).

    A float beside a SqrtExt, or two radicands, have no common field: raise
    error.
    """
    if a == b or b == 0:
        return a
    if a == 0:
        return b
    if FLOAT in (a, b):
        raise error("a float and a SqrtExt have no common field")
    raise error(f"radicands {sorted((a, b))} have no common field")


def field_of(values, error: type[Exception]) -> int:
    """The field tag of scalars, in one pass: 0 for Q, d for Q(sqrt(d)),
    FLOAT when any value is a float.  Values with no common field raise
    error (``join_fields``)."""
    field = 0
    for x in values:
        if isinstance(x, float):
            if field != FLOAT:
                field = join_fields(field, FLOAT, error)
        elif isinstance(x, SqrtExt) and x.d != field:
            field = join_fields(field, x.d, error)
    return field


def surd_ints(values) -> tuple[int, list[tuple[int, int]]]:
    """One denominator D and int pairs (A, B) with value = (A + B*sqrt(d))/D,
    for int, Fraction or SqrtExt values over one radicand d."""
    parts = [(c.a, c.b) if isinstance(c, SqrtExt) else (c, 0) for c in values]
    D = math.lcm(*(q.denominator for ab in parts for q in ab))
    return D, [(a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)) for a, b in parts]


def surd_value(A: int, B: int, D: int, d: int):
    """(A + B*sqrt(d))/D as a Fraction, or as a SqrtExt when B != 0."""
    if B == 0:
        return Fraction(A, D)
    return SqrtExt(Fraction(A, D), Fraction(B, D), d)


def surd_float(A: int, B: int, D: int, d: int) -> float:
    """float((A + B*sqrt(d))/D), correctly rounded when B == 0."""
    return A / D if B == 0 else float(surd_value(A, B, D, d))


def is_exact(x) -> bool:
    """True for scalars of the exact mode (int, Fraction, SqrtExt)."""
    return isinstance(x, (int, Fraction, SqrtExt))


def close(a, b, scale=1) -> bool:
    """a == b for exact scalars; once either is a float, |a - b| within
    FLOAT_INTEGER_GUARD * scale, compared in float."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_INTEGER_GUARD * scale


def exact_div(n, d):
    """n / d that keeps int/int exact instead of degrading to float."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n / d


def guarded_floor(x, *, what: str = "value"):
    """Floor with boundary refusal for floats.

    Exact scalars floor exactly.  A float within FLOAT_INTEGER_GUARD of an
    integer cannot be trusted to sit on either side, so raise instead of
    silently picking one.
    """
    if isinstance(x, float):
        nearest = round(x)
        if abs(x - nearest) < FLOAT_INTEGER_GUARD:
            raise BoundaryAmbiguityError(
                f"{what} = {x!r} is within {FLOAT_INTEGER_GUARD} of integer {nearest}; "
                "use rational mode or perturb the input"
            )
    return math.floor(x)


class BoundaryAmbiguityError(ValueError):
    """A float sits too close to an integer for truncation to be meaningful."""


def fractional_part(x):
    """x - floor(x), preserving the scalar type (exact stays exact)."""
    return x - math.floor(x)


# the JSON form of a + b*sqrt(d), as format_scalar writes it
_SURD_FORM = re.compile(r"(.+)\+(.+)\*sqrt\((\d+)\)")


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def format_scalar(x) -> str | float:
    """JSON form: exact rationals as 'num/den' strings, a + b*sqrt(d) as
    'num/den+num/den*sqrt(d)', floats as numbers."""
    if isinstance(x, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(x, (int, Fraction)):
        return _ratio(Fraction(x))
    if isinstance(x, SqrtExt):
        return f"{_ratio(x.a)}+{_ratio(x.b)}*sqrt({x.d})"
    if isinstance(x, float):
        return x
    raise TypeError(f"cannot serialize scalar {x!r}")


def parse_scalar(v):
    """Inverse of format_scalar: 'num/den' -> Fraction,
    'num/den+num/den*sqrt(d)' -> SqrtExt, number -> float.  A malformed
    string raises ValueError."""
    if isinstance(v, str):
        m = _SURD_FORM.fullmatch(v)
        try:
            return Fraction(v) if m is None else SqrtExt(Fraction(m[1]), Fraction(m[2]), int(m[3]))
        except ZeroDivisionError:
            raise ValueError(f"scalar {v!r} has a zero denominator") from None
    if isinstance(v, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(v, (int, float)):
        return float(v)
    raise TypeError(f"cannot parse scalar {v!r}")


def _require_int(value, what: str, error: type[Exception]) -> int:
    """value if it is an int (a bool is not one); else raise error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def _require_number(value, what: str, error: type[Exception]):
    """value if it is an int or a float (a bool is neither); else raise error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, got {value!r}")
    return value


@contextmanager
def _malformed_json(what: str, error: type[Exception]):
    """Raise error for a missing key, a wrongly shaped value or a malformed
    scalar string (a plain ValueError) in a what JSON."""
    try:
        yield
    except KeyError as exc:
        raise error(f"{what} JSON has no key {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        if isinstance(exc, ValueError) and type(exc) is not ValueError:
            raise  # the package's own errors and JSONDecodeError subclass it
        raise error(f"malformed {what} JSON: {exc}") from None
