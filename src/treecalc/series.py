"""Truncated power series over generic exact rings, q-series in the
q-divided-power basis, binomial-basis polynomials with their
finite-difference calculus, and the engines that solve fixed-point
equations as sums over trees.

Both series bases, the monomial TruncatedSeries and QDividedSeries,
share one container: a series of order N stores exactly N+1
coefficients and never reads beyond them, and binary operations truncate
to the smaller order.  Mixing follows Poly._coerce: a scalar becomes a
constant series, a series of the other basis raises TypeError in +, -
and * in either operand order, and == between the two bases is False.
Each basis names its ring from arith's exact types (QDividedSeries: int,
Fraction and QPoly only); any other coefficient or scalar operand raises
TypeError.  Zero padding uses plain int 0, which every coefficient ring
absorbs, and the padding costs no ring operation: + hands over the other
side of an int 0 slot, and * skips zero factors, so a slot no pair
reaches stays the int 0 (Fraction series of two terms or more multiply
as one integer convolution, arith._convolve).  A negative index or
order raises ValueError.

A BinomialPoly is a polynomial in the basis C(t, k); sums, products
and the discrete integral all stay in that basis, the product through
the integer rule C(t,i) C(t,j) = sum_k C(k,i) C(i,k-j) C(t,k)
(Graham-Knuth-Patashnik, Concrete Mathematics, ch. 5).

One engine expands a solution of x = a + B(x, x) (or its m-ary and
plane-tree analogues) as a sum of per-tree terms, checking beforehand on
monomial probes that the operator raises valuation by at least one,
which is what makes the expansion converge order by order.  It counts
the trees of each distinct term, walking them on each read of the
per-tree terms and keeping the listing nowhere, and runs the operator
once per distinct tuple of child terms (Postnikov's equation at order
9: 6,918 shapes, 169 terms, 364 tuples).  For binary and m-ary trees
it also counts the trees of each (term, hook multiset) class, on the
first read of that table and with no operator call, so a per-tree
identity is checked once per class (at order 9, 188 classes, the empty
one included).  The independent
cross-check is graded Picard iteration, a separate code path that calls
only the raw operator and series +: pass k fixes t^k and runs at order k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product
from math import comb, prod
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .arith import (
    QPoly,
    _EXACT,
    _check_exact,
    _convolve,
    _nonnegative,
    _terms,
    binomial_coefficient,
    exact_scalar,
    q_binomial,
    q_factorial,
)
from .combinat import PlaneTree, _splits, binary_trees, mary_trees, plane_trees
from .errors import ValuationViolation


class _Series:
    """The container both series bases share, coefficients known exactly
    up to and including t^order; each basis adds its coefficient ring
    (_ring), its series-by-series product and its own operations."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self._check(coeffs)
        self.coeffs = coeffs

    @classmethod
    def _check(cls, coeffs: tuple) -> None:
        # One C-speed pass collects the coefficient types, and each
        # distinct type is tested once against the basis' ring.
        for kind in set(map(type, coeffs)):
            if not issubclass(kind, cls._ring):
                for c in coeffs:
                    _check_exact(c, cls._ring)

    @classmethod
    def _unchecked(cls, coeffs: Sequence):
        """The series on at least one coefficient that is exact already,
        with no scan: the series operations build their results from
        checked series and checked scalars through it, while outside
        coefficients go through the constructor."""
        series = object.__new__(cls)
        series.coeffs = tuple(coeffs)
        return series

    @classmethod
    def _scalar(cls, value):
        """value, checked as a scalar of this basis."""
        if isinstance(value, _Series):
            raise TypeError(f"cannot mix {cls.__name__} with {type(value).__name__}")
        return _check_exact(value, cls._ring)

    @classmethod
    def constant(cls, value, order: int):
        return cls._unchecked((cls._scalar(value),) + (0,) * _nonnegative(order))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        return self.coeffs[_nonnegative(n)]

    def valuation(self) -> int | None:
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def truncated(self, order: int):
        if order > self.order:
            raise ValueError("cannot truncate upward; use with_order")
        return self._unchecked(self.coeffs[: _nonnegative(order) + 1])

    def with_order(self, order: int):
        """Truncate or zero-pad to the requested order."""
        if order <= self.order:
            return self.truncated(order)
        return self._unchecked(self.coeffs + (0,) * (order - self.order))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        # Equality as truncated objects: orders must agree.  Tuple equality
        # compares mixed rings (int 0 vs QPoly zero) through ==.
        if not isinstance(other, _Series):
            return NotImplemented
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            other = self.constant(other, self.order)
        # zip stops at the smaller order.  Only the padding's int 0 is handed
        # over; a ring's own zero adds as usual and keeps the slot in its ring.
        return self._unchecked([
            b if type(a) is int and not a
            else a if type(b) is int and not b else a + b
            for a, b in zip(self.coeffs, other.coeffs)
        ])

    __radd__ = __add__

    def __neg__(self):
        return self._unchecked([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def _scaled(self, scalar):
        """Multiply slot by slot by a scalar; zero slots stay the int 0."""
        scalar = self._scalar(scalar)
        return self._unchecked([c * scalar if c else 0 for c in self.coeffs])

    def _shifted(self):
        """Move each coefficient up one slot; the top one falls off the
        truncation."""
        return self._unchecked((0,) + self.coeffs[:-1])

    def map_coefficients(self, fn: Callable):
        return type(self)([fn(c) for c in self.coeffs])

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"


class TruncatedSeries(_Series):
    """Power series in t known exactly up to and including t^order.

    The product of two monomials does one ring operation; the other slots
    stay the int 0:

    >>> x = TruncatedSeries.monomial(1, 3, Fraction(1, 2))
    >>> (x * TruncatedSeries.monomial(2, 3, 3)).coeffs
    (0, 0, 0, Fraction(3, 2))
    """

    __slots__ = ()
    _ring = _EXACT

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient=1) -> "TruncatedSeries":
        _check_exact(coefficient)
        coeffs = [0] * (order + 1)
        if _nonnegative(exponent) <= order:
            coeffs[exponent] = coefficient
        return cls(coeffs)

    # __mul__ stays in this class body: bench/tracing.py wraps it through
    # the class __dict__.
    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scaled(other)
        n = min(self.order, other.order)
        xs, ys = _terms(self.coeffs[: n + 1]), _terms(other.coeffs[: n + 1])
        # a monomial's products share no slot; Poly coefficients multiply by _convolve
        if len(xs) > 1 < len(ys) and {type(c) for _, c in chain(xs, ys)} == {Fraction}:
            return TruncatedSeries._unchecked(_convolve(xs, ys, n + 1))
        out = [0] * (n + 1)
        for i, a in xs:
            for j, b in ys:
                k = i + j
                if k > n:
                    break
                c = out[k]
                out[k] = a * b if type(c) is int and not c else c + a * b
        return TruncatedSeries._unchecked(out)

    __rmul__ = __mul__  # every coefficient ring here is commutative

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a truncated series")
        result = TruncatedSeries.constant(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def times_t(self) -> "TruncatedSeries":
        """Multiply by t; the top coefficient falls off the truncation."""
        return self._shifted()

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            term = str(c) if n == 0 else f"({c!s})*t^{n}"
            parts.append(term)
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"


def integrate(f: TruncatedSeries, factors: Sequence | None = None) -> TruncatedSeries:
    """Antiderivative with zero constant term: the coefficient of t^n moves
    to t^(n+1) times factors[n], by default 1/(n+1), so a table of f.order
    exact factors gives any map that shifts and scales, in the same pass.
    The top input coefficient has no slot at this order and is dropped."""
    out = [0] * (f.order + 1)
    for n, (c, factor) in enumerate(zip(f.coeffs, factors or _reciprocals(f.order))):
        if c:
            out[n + 1] = c * factor
    return TruncatedSeries._unchecked(out)


@lru_cache(maxsize=None)
def _reciprocals(n: int) -> tuple[Fraction, ...]:
    """1/1, 1/2, ..., 1/n, built once for each series order n."""
    return tuple(Fraction(1, k) for k in range(1, n + 1))


def exp_series(f: TruncatedSeries) -> TruncatedSeries:
    """exp(f) = sum f^k / k! to f's order, for f with zero constant term."""
    if f.coeffs[0]:
        raise ValueError("exp_series needs a zero constant term")
    result = TruncatedSeries.constant(Fraction(1), f.order)
    term = TruncatedSeries.constant(Fraction(1), f.order)
    for k in range(1, f.order + 1):
        term = term * f * Fraction(1, k)
        result = result + term
    return result


def binomial_series(beta, u: TruncatedSeries) -> TruncatedSeries:
    """(1 + u)^beta = sum_k C(beta, k) u^k for u with zero constant term,
    to u's own order.

    beta may be a Fraction or a linear AlphaPoly; the generalized binomial
    coefficients C(beta, k) then live in the same ring.
    """
    if u.coeffs[0]:
        raise ValueError("binomial_series needs u with zero constant term")
    result = TruncatedSeries.constant(1, u.order)
    power = TruncatedSeries.constant(1, u.order)
    for k in range(1, u.order + 1):
        power = power * u
        result = result + power * binomial_coefficient(beta, k)
    return result


# ---------------------------------------------------------------------------
# q-series in the q-divided-power basis t^n / [n]_q!.
# ---------------------------------------------------------------------------


class QDividedSeries(_Series):
    """The series sum a_n t^n / [n]_q! known exactly up to t^order, stored
    as its numerators a_n: exact scalars or QPolys, anything else raising
    TypeError.  Since t^i / [i]_q! times t^j / [j]_q! is
    qbin(i+j, i) t^(i+j) / [i+j]_q!, the product is the Gaussian-binomial
    convolution c_n = sum_i qbin(n, i) a_i b_(n-i) and divides nothing.

    >>> t = QDividedSeries([0, 1, 0])
    >>> (t * t).coeffs  # t^2 = [2]_q! t^2 / [2]_q!
    (0, 0, QPoly('1+q'))
    """

    __slots__ = ()
    _ring = (int, Fraction, QPoly)

    def __mul__(self, other):
        if not isinstance(other, QDividedSeries):
            return self._scaled(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * (min(self.order, other.order) + 1)
        for n in range(len(out)):
            for i in range(n + 1):
                if a[i] and b[n - i]:
                    out[n] = out[n] + q_binomial(n, i) * a[i] * b[n - i]
        return QDividedSeries._unchecked(out)

    __rmul__ = __mul__

    def evaluate(self, point) -> TruncatedSeries:
        """The series sum a_n(point) t^n / [n]_point! at an int or Fraction
        point; a float point raises TypeError."""
        point = exact_scalar(point)
        values = [c.evaluate(point) if isinstance(c, QPoly) else c for c in self.coeffs]
        return TruncatedSeries(
            [Fraction(c) / q_factorial(n).evaluate(point) for n, c in enumerate(values)]
        )


def q_integrate(f: QDividedSeries) -> QDividedSeries:
    """The q-antiderivative with zero constant term: t^n / [n]_q! maps to
    t^(n+1) / [n+1]_q!, so each numerator moves up one slot and the top
    one falls off the truncation."""
    return f._shifted()


def substitute_qt(f: QDividedSeries) -> QDividedSeries:
    """f(qt): multiply the numerator of t^n by q^n."""
    return QDividedSeries(
        [c * QPoly.monomial(n) if c else 0 for n, c in enumerate(f.coeffs)]
    )


# ---------------------------------------------------------------------------
# Binomial-basis polynomials and the finite-difference calculus.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _product_rule(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, C(k, i) C(i, k - j)), max(i, j) <= k <= i + j, of
    C(t,i) C(t,j) = sum_k C(k, i) C(i, k - j) C(t, k): an i-set and a
    j-set of t letters are their k-element union, the i-set inside it,
    and the i + j - k letters of the i-set that the j-set shares.

    Bounded: small trees reuse a few pairs many times, while a tree with
    hundreds of leaves meets each pair at few nodes and spends its time on
    big-integer products; unbounded, the cache held 86 MiB at 256 leaves.
    """
    return tuple(
        (k, comb(k, i) * comb(i, k - j)) for k in range(max(i, j), i + j + 1)
    )


class BinomialPoly:
    """Polynomial in t written in the basis of binomial coefficients C(t, k).

    The natural home of the discrete integral, which shifts the basis
    index up.  The product never leaves the basis and divides nothing, so int
    coefficients stay int.  Coefficients follow the same generic-ring
    convention as series; a float coefficient raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        data = {}
        for k, c in items:
            if k < 0:
                raise ValueError("binomial basis indices are nonnegative")
            _check_exact(c)
            if k in data:
                c = data[k] + c
            if c:
                data[k] = c
            elif k in data:
                del data[k]
        self.coeffs = data

    @classmethod
    def one(cls) -> "BinomialPoly":
        return cls({0: 1})

    def coefficient(self, k: int):
        return self.coeffs.get(k, 0)

    def valuation(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinomialPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, BinomialPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return BinomialPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinomialPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        """The product stays in the binomial basis, by the integer rule
        C(t,i) C(t,j) = sum_k C(k,i) C(i,k-j) C(t,k), k = max(i,j)..i+j:

        >>> c1 = BinomialPoly({1: 1})
        >>> c1 * c1 == c1 + BinomialPoly({2: 2})
        True
        >>> print(c1 * c1)
        C(t,1) + (2)*C(t,2)
        """
        if not isinstance(other, BinomialPoly):
            _check_exact(other)
            return BinomialPoly({k: c * other for k, c in self.coeffs.items()})
        out: dict = {}
        get = out.get
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                ab = a * b
                for k, n in _product_rule(i, j):
                    c = get(k)
                    out[k] = ab * n if c is None else c + ab * n
        return BinomialPoly(out)

    __rmul__ = __mul__

    def map_coefficients(self, fn: Callable) -> "BinomialPoly":
        return BinomialPoly({k: fn(c) for k, c in self.coeffs.items()})

    def evaluate(self, point):
        """Evaluate at an int or Fraction point via C(point, k); a float
        point raises TypeError rather than being converted."""
        point = exact_scalar(point)
        total = 0
        for k, c in self.coeffs.items():
            total = total + c * binomial_coefficient(point, k)
        return total

    def to_json(self) -> dict[str, str]:
        return {str(k): str(c) for k, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in sorted(self.coeffs.items()):
            basis = "1" if k == 0 else f"C(t,{k})"
            parts.append(f"({c!s})*{basis}" if not (c == 1 and k) else basis)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BinomialPoly({self.coeffs!r})"


def discrete_sum(p: BinomialPoly) -> BinomialPoly:
    """The discrete integral: summing C(s, k) for s = 0..t-1 gives C(t, k+1)."""
    return BinomialPoly({k + 1: c for k, c in p.coeffs.items()})


# ---------------------------------------------------------------------------
# Tree-indexed fixed-point expansions.
# ---------------------------------------------------------------------------


class _TreeTerms:
    """The (shape, term) pairs of a tree expansion, walked by walk() on
    each iteration and kept nowhere; len() is the count of shapes and
    lists none.  For binary and m-ary shapes, hook_classes is the table
    classes() builds on its first read: per size n, (id(term), hook
    multiset) -> [term, hooks, number of shapes].  Plane trees pass no
    classes()."""

    def __init__(
        self, count: int, walk: Callable[[], Iterator], classes: Callable[[], list] | None
    ):
        self._count, self._walk, self._classes = count, walk, classes

    @cached_property
    def hook_classes(self) -> list:
        return self._classes()

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator:
        return self._walk()


class TreeExpansion:
    """Per-tree terms of a fixed-point solution, in (node count, canonical
    encoding) order, plus their sum; the engine's terms walk the trees on
    each read and keep none, and their len() lists nothing."""

    def __init__(self, terms: Sequence | None = None, total: object = None):
        self.terms = [] if terms is None else terms
        self.total = total


def _probe_valuations(op, arity: int, order: int) -> None:
    """Check on monomial probes that an n-linear operator raises valuation
    by at least one; the expansions do not converge otherwise."""
    probe_order = max(order, 4)
    for exponents in ((0,) * arity, (1,) + (0,) * (arity - 1), (1,) * arity):
        args = [TruncatedSeries.monomial(e, probe_order) for e in exponents]
        result = op(*args)
        val = result.valuation()
        needed = sum(exponents) + 1
        if val is not None and val < needed:
            raise ValuationViolation(
                f"operator maps valuations {exponents} to {val}; "
                f"needs at least {needed}"
            )


_children = attrgetter("children")


def _expand(op, a, order: int, trees, children, arity=None, name=None) -> TreeExpansion:
    """The one tree engine: the terms of the shapes trees(0..order), in
    enumeration order, and their sum.  A shape without children carries a;
    any other applies op to its children's terms.  Given an arity, the sum
    is re-checked against x = a + op(x, ..., x).  trees(order) is called
    first: it checks the family's size guard and builds no shape.

    Shapes are counted, not listed (Flajolet-Sedgewick, Analytic
    Combinatorics, ch. I): level n maps each term to its number of shapes
    of size n, each split of n (combinat._splits) and tuple of child terms
    adding their counts' product to the tuple's term, and the total adds
    count * term for each.  Terms are interned by repr, which keeps apart
    terms that compare equal but print or add differently (an int 0 and a
    ring's zero); op runs once per distinct tuple of interned terms, keyed
    by their ids.  Each read of expansion.terms walks the shapes again,
    yielding each (shape, term) as it goes and keeping the listing
    nowhere: a term is looked up by its children's, cached by id of shape
    for the sizes below the top (a parent holds the very shapes of the
    smaller sizes, and a top-size shape is no one's child); the walk
    never calls op.

    Given an arity (binary and m-ary shapes), expansion.terms.hook_classes
    marks the hook multiset on each class (Flajolet-Sedgewick, ch. III): a
    table built on its first read, whose level n maps (id(term), hooks) to
    [term, hooks, number of shapes], the empty shape being the class
    (a, ()).  It runs over the same splits as the levels, looking each
    term up in the memo of op's results, so it never calls op, and a
    split's multiset is its children's merged, plus n, as a descending
    tuple like combinat.HookData's.  A total-only caller never builds it.

    >>> one = TruncatedSeries.constant(Fraction(1), 3)
    >>> calls = []
    >>> def op(x, y):
    ...     calls.append(None)
    ...     return integrate(x * y)
    >>> expansion = fixed_point_binary(op, one, 3)
    >>> len(expansion.terms), len(calls) - 4  # the probes and the residual take 4
    (9, 6)
    """
    trees(order)
    interned = {repr(a): a}  # repr -> the one term object with that repr
    applied: dict = {}  # ids of the children's terms -> op of them
    levels = [{id(a): [a, 1]}]  # per size: id(term) -> [term, number of shapes]
    for n in range(1, order + 1):
        level: dict = {}
        for sizes in _splits(arity, n):
            for classes in product(*[levels[s].values() for s in sizes]):
                key = tuple([id(term) for term, _ in classes])
                term = applied.get(key)
                if term is None:
                    term = op(*[term for term, _ in classes])
                    term = applied[key] = interned.setdefault(repr(term), term)
                level.setdefault(id(term), [term, 0])[1] += prod([c for _, c in classes])
        levels.append(level)
    counted = [pair for level in levels[1:] for pair in level.values()]
    total = sum([term if count == 1 else term * count for term, count in counted], a)
    if arity and total - (a + op(*[total] * arity)):
        raise ArithmeticError(f"{name} expansion does not satisfy its equation")

    def walk() -> Iterator:
        cache = {}  # id(shape) -> its interned term, for the sizes below order
        for n in range(order + 1):
            for tree in trees(n):
                kids = children(tree)
                term = applied[tuple([id(cache[id(kid)]) for kid in kids])] if kids else a
                if n < order:
                    cache[id(tree)] = term
                yield tree, term

    def hook_classes() -> list:
        table = [{(id(a), ()): [a, (), 1]}]  # per size: (id(term), hooks) -> [term, hooks, count]
        for n in range(1, order + 1):
            level: dict = {}
            for sizes in _splits(arity, n):
                for classes in product(*[table[s].values() for s in sizes]):
                    term = applied[tuple([id(term) for term, _, _ in classes])]
                    hooks = (n, *sorted(chain.from_iterable([h for _, h, _ in classes]), reverse=True))
                    count = prod([c for _, _, c in classes])
                    level.setdefault((id(term), hooks), [term, hooks, 0])[2] += count
            table.append(level)
        return table

    count = 1 + sum(count for _, count in counted)
    return TreeExpansion(_TreeTerms(count, walk, hook_classes if arity else None), total)


def fixed_point_binary(
    B: Callable[[TruncatedSeries, TruncatedSeries], TruncatedSeries],
    a: TruncatedSeries,
    order: int,
) -> TreeExpansion:
    """Expand the solution of x = a + B(x, x) over binary tree shapes.

    The empty shape carries the term a; a node applies B to the terms of
    its subtrees.  Terms have valuation at least their node count, so
    shapes with up to `order` nodes give the solution exactly to that
    order.  The aggregated sum is re-checked against the equation before
    returning.
    """
    _probe_valuations(B, 2, order)
    children = lambda tree: () if tree.is_empty else (tree.left, tree.right)
    return _expand(B, a.with_order(order), order, binary_trees, children, 2, "binary")


def _picard(op, arity: int, a: TruncatedSeries, order: int) -> TruncatedSeries:
    """Graded Picard iteration from x = a at order 0: pass k = 1..order sets
    x = a + op(x, ..., x) at order k, x zero-padded.  op raises valuation, so
    slot k reads only the slots below k, which the passes before fixed."""
    a = a.with_order(order)
    x = a.truncated(0)
    for k in range(1, order + 1):
        x = a.truncated(k) + op(*[x.with_order(k)] * arity)
    return x


def picard_binary(
    B: Callable[[TruncatedSeries, TruncatedSeries], TruncatedSeries],
    a: TruncatedSeries,
    order: int,
) -> TruncatedSeries:
    """Independent solver for x = a + B(x, x) by graded Picard passes."""
    return _picard(B, 2, a, order)


def fixed_point_mary(F: Callable[..., TruncatedSeries], arity: int, order: int) -> TreeExpansion:
    """Expand the solution of x = 1 + F(x, ..., x) with an (arity+1)-linear
    operator over (arity+1)-ary tree shapes."""
    _probe_valuations(F, arity + 1, order)
    trees = lambda n: mary_trees(arity, n)
    one = TruncatedSeries.constant(Fraction(1), order)
    return _expand(F, one, order, trees, _children, arity + 1, "m-ary")


def picard_mary(F: Callable[..., TruncatedSeries], arity: int, order: int) -> TruncatedSeries:
    """Independent solver for x = 1 + F(x, ..., x) by graded Picard passes."""
    return _picard(F, arity + 1, TruncatedSeries.constant(Fraction(1), order), order)


def evaluate_plane_tree(tree: PlaneTree, family: Callable[[int], Callable], a):
    """Evaluate one plane-tree term: leaves carry a, an internal node with
    k children applies the k-linear operation family(k).

    The nodes are listed breadth first, so the children of a node sit side
    by side after it, and evaluated in reverse; depth meets no recursion
    limit.
    """
    nodes, first = [tree], []  # first[i]: the index of node i's first child
    for node in nodes:
        first.append(len(nodes))
        nodes.extend(node.children)
    values = [a] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        k = len(nodes[i].children)
        if k:
            values[i] = family(k)(*values[first[i] : first[i] + k])
    return values[0]


def fixed_point_plane(family: Callable[[int], Callable], order: int, a) -> TreeExpansion:
    """Expand the solution of x = a + sum_{n>=2} F_n(x, ..., x) over plane
    trees with internal arity >= 2.

    Trees are enumerated by leaf count: a tree with n+1 leaves is the
    shape of words of length n, which is the natural truncation index for
    these equations.  The values may be series or binomial-basis
    polynomials; residual checking is left to the caller because the
    notion of truncation depends on the coefficient ring.
    """
    if hasattr(a, "valuation") and a.valuation() == 0:
        for n in (2, 3):
            val = family(n)(*([a] * n)).valuation()
            if val is not None and val < 1:
                raise ValuationViolation(f"plane family F_{n} does not raise valuation")
    apply = lambda *xs: family(len(xs))(*xs)
    return _expand(apply, a, order, plane_trees, _children)
