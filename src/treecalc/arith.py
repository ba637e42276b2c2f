"""Exact coefficient rings: rationals, dense polynomials in q or alpha,
and q-combinatorial primitives.

There is no floating point anywhere in this package.  Scalars are
``int`` or ``fractions.Fraction`` (re-exported as ``Rational``);
polynomials are dense coefficient tuples in a canonical form: a
coefficient is a plain ``int`` when it is integral and a reduced
``Fraction`` only when its denominator is not 1, so integer polynomials
such as [n]_q! and Gaussian binomials never touch Fraction arithmetic.
``QPoly`` and ``AlphaPoly`` share one implementation but are distinct
types, so a q-expression can never be added to an alpha-expression by
accident.

The kernels keep their results canonical by construction: + copies the
longer operand and adds in only the nonzero slots of the shorter one,
normalizing just the slots it touched and stripping zeros from the top,
a product reduces each slot once, and negation, exact quotients, integer
monomials and q-integer products are canonical as built.  None of them
scans its result again: the public ``Poly`` constructor checks, bringing
outside coefficients to canonical form and refusing anything else.

``_EXACT`` states once what is exact: int, Fraction and the polynomials,
subclasses included.  Anything else, a float of any kind, a Decimal or a
numpy integer, raises TypeError and is never converted.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, count, repeat
from math import lcm
from operator import neg, sub
from typing import Sequence, Union

from .errors import NonExactDivision

# Arbitrary-precision rational numbers, always reduced, denominator > 0.
# str() already yields the wire format "p/q" (or "p" when q == 1) and the
# constructor parses it back.
Rational = Fraction

Scalar = Union[int, Fraction]


def exact_scalar(value) -> Scalar:
    """The canonical form of an exact scalar.

    An int stays as it is, a bool becomes the int it stands for, a
    Fraction with denominator 1 becomes its numerator and any other
    Fraction is kept.  Anything else, floats included, raises TypeError.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not a rational scalar: {value!r}")


def _nonnegative(n: int) -> int:
    """n as an index or order; a negative one would read a tuple from its far end."""
    if n < 0:
        raise ValueError(f"indices and orders are nonnegative, got {n}")
    return n


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial is the empty tuple and its degree is None (never
    an integer sentinel).  Each coefficient is in the canonical form of
    ``exact_scalar``: an int, or a Fraction whose denominator is not 1.
    Since ints and Fractions of equal value compare and hash equal and
    print the same, the form changes no result, only its speed.  A product
    with one side a single term c x^k scales the other side by c and
    shifts it by k; any other product is one integer convolution over each
    side's common denominator, reduced once per slot.  Arithmetic accepts
    plain ints and Fractions and coerces them to constants; a float
    coefficient, operand or evaluation point raises TypeError.
    """

    __slots__ = ("coeffs",)
    variable = "x"

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if type(c) is int else exact_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _canonical(cls, coeffs: tuple):
        """The polynomial on a tuple that is canonical already (each entry
        an int or a Fraction whose denominator is not 1, no trailing zero),
        taken as it is.  Only kernels whose results are canonical by
        construction call it; outside input goes through the constructor."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient=1):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if type(coefficient) is int and coefficient:
            return cls._canonical((0,) * exponent + (coefficient,))
        return cls((0,) * exponent + (coefficient,))

    @classmethod
    def gen(cls):
        """The variable itself."""
        return cls((0, 1))

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def truncated(self, max_degree: int) -> "Poly":
        return type(self)(self.coeffs[: _nonnegative(max_degree) + 1])

    def _coerce(self, other):
        """Return other as this polynomial type, or None if impossible.

        Mixing two distinct polynomial types is a programming error and
        raises immediately rather than silently producing nonsense.
        """
        if isinstance(other, Poly):
            if type(other) is type(self):
                return other
            raise TypeError(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        if isinstance(other, (int, Fraction)):
            return type(self)((other,))
        return None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return type(self) is type(other) and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == type(self)((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Copy the longer side and add in the nonzero slots of the shorter:
        # only a touched slot can leave canonical form, and only the top
        # slots can cancel to zero.
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i in compress(count(), b):
            c = out[i] + b[i]
            out[i] = c if type(c) is int else exact_scalar(c)
        while out and not out[-1]:
            out.pop()
        return self._canonical(tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return self._canonical(tuple(map(neg, self.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)()
        if any(b[:-1]):
            if any(a[:-1]):
                # each slot in canonical form; the top one, a product of two leads, is nonzero
                reduced = lambda s, d: Fraction(s, d) if s % d else s // d
                out = _convolve(_terms(a), _terms(b), len(a) + len(b) - 1, reduced)
                return self._canonical(tuple(out))
            a, b = b, a
        # b is one term, c x^k (a scalar when k = 0): a scaled by c and shifted by k
        c = b[-1]
        scaled = [x * c for x in a]
        out = [y if type(y) is int else exact_scalar(y) for y in scaled]
        return self._canonical((0,) * (len(b) - 1) + tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Scalar division only; polynomial division goes through
        # exact_poly_div so inexactness can never be silent.
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / other
            return type(self)(tuple(c * inv for c in self.coeffs))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = type(self).one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, point):
        """Evaluate by Horner's rule at an int, a Fraction or a polynomial;
        a float point raises TypeError."""
        if not isinstance(point, Poly):
            point = exact_scalar(point)
        result = 0
        for c in reversed(self.coeffs):
            result = result * point + c
        return result

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        var = self.variable
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = var if k == 1 else f"{var}^{k}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c!s}{power}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def _terms(coeffs: Sequence) -> list:
    """The (index, entry) pairs of the nonzero entries of coeffs."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def _convolve(xs: list, ys: list, size: int, slot=Fraction) -> list:
    """The first size slots of the product of two sequences given by their
    nonzero (index, int or Fraction) pairs in index order, by Knuth's rule
    (TAOCP vol. 2, 4.5.1): each side over the lcm of its denominators, one
    integer convolution, slot(numerator, denominator) where a pair lands."""
    da, db = lcm(*[c.denominator for _, c in xs]), lcm(*[c.denominator for _, c in ys])
    ys = [(j, c.numerator * (db // c.denominator)) for j, c in ys]
    out = [None] * size
    for i, c in xs:
        x = c.numerator * (da // c.denominator)
        for j, y in ys:
            k = i + j
            if k >= size:
                break
            s = out[k]
            out[k] = x * y if s is None else s + x * y
    den = da * db
    return [0 if s is None else slot(s, den) for s in out]


class QPoly(Poly):
    """Polynomial in the formal variable q."""

    __slots__ = ()
    variable = "q"


class AlphaPoly(Poly):
    """Polynomial in the formal parameter alpha."""

    __slots__ = ()
    variable = "α"


# The exact types, stated once; subclasses (bool among them) count.
_EXACT = (int, Fraction, Poly)


def _check_exact(value, ring: tuple = _EXACT):
    """value, or TypeError unless it is in ring (by default every exact
    type): how series, BinomialPoly and the elements keep inexact values out."""
    if not isinstance(value, ring):
        raise TypeError(f"not an exact value: {value!r}")
    return value


def q_integer(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1); the empty sum [0]_q is 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return QPoly((1,) * n)


def _q_integer_product(factors) -> QPoly:
    """The product of [k]_q over the factors k >= 0.  Since
    [k]_q = (1 - q^k) / (1 - q), each factor is one running-window sum:
    subtract the coefficients shifted up by k, then take running sums.
    That is O(degree) per factor, where the dense product is
    O(degree * k)."""
    coeffs = [1]
    for k in factors:
        shifted = chain(repeat(0, k), coeffs)
        coeffs = list(accumulate(map(sub, chain(coeffs, repeat(0, k - 1)), shifted)))
    # Integers throughout, and the product is monic unless a factor is [0]_q.
    return QPoly._canonical(tuple(coeffs)) if coeffs[-1] else QPoly.zero()


def _q_integer_quotient(shift: int, numerator, denominator) -> QPoly:
    """q^shift times the product of [k]_q over the multiset numerator,
    divided by the product of [h]_q over the multiset denominator.  The
    q-integers both multisets hold are cancelled first, so only the
    leftover factors are multiplied out, and the one exact_poly_div by the
    leftover denominator still raises NonExactDivision on a remainder."""
    top, bottom = [], [h for h in denominator if h != 1]
    for k in numerator:
        if k in bottom:
            bottom.remove(k)
        elif k != 1:
            top.append(k)
    coeffs = _q_integer_product(top).coeffs
    # times q^shift: a shift, not a product
    shifted = QPoly._canonical((0,) * shift + coeffs) if coeffs else QPoly.zero()
    return exact_poly_div(shifted, _q_integer_product(bottom))


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1; a loop, so a large
    n meets no recursion limit."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    return _q_integer_product(range(2, n + 1))


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial via the division-free Pascal recurrence
    qbin(n, k) = qbin(n-1, k-1) + q^k * qbin(n-1, k), row by row up to n."""
    if n < 0:
        raise ValueError("q_binomial needs n >= 0")
    if k < 0 or k > n:
        return QPoly.zero()
    row = [QPoly.one()] + [QPoly.zero()] * k  # qbin(0, 0..k)
    for _ in range(n):
        row = [row[0]] + [row[i - 1] + QPoly.monomial(i) * row[i] for i in range(1, k + 1)]
    return row[k]


def exact_poly_div(num: Poly, den: Poly):
    """Quotient num/den when den divides num exactly.

    Long division over the rationals; a nonzero remainder means some
    upstream computation is wrong, so it raises NonExactDivision rather
    than truncating.  A monic divisor, such as any product of [h]_q,
    needs no coefficient division at all; any other leading coefficient
    divides through Fraction, never through int / int (a float).
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    cls = type(num)
    if type(den) is not cls:
        den = num._coerce(den)
    rem = list(num.coeffs)
    dc = den.coeffs
    dd = len(dc) - 1
    lead = dc[-1]
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c if lead == 1 else Fraction(c, lead)
        quot[i - dd] = q = q if type(q) is int else exact_scalar(q)  # a Fraction can be integral
        for j, d in enumerate(dc):
            rem[i - dd + j] -= q * d
    if any(rem):
        raise NonExactDivision(f"{num} is not divisible by {den}")
    return cls._canonical(tuple(quot))  # its top entry is num's lead over den's


def binomial_coefficient(beta, k: int):
    """Generalized binomial C(beta, k) = beta (beta-1) ... (beta-k+1) / k!

    beta may be a polynomial (an AlphaPoly for the alpha-parameterized
    identities), and the result lives in the same ring, or else an exact
    scalar, and the result is a Fraction; a float raises TypeError.
    """
    if k < 0:
        raise ValueError("binomial_coefficient needs k >= 0")
    if isinstance(beta, Poly):
        result = beta - beta + 1
    else:
        beta, result = exact_scalar(beta), Fraction(1)
    for i in range(k):
        result = result * (beta - i)
        result = result / (i + 1)
    return result
