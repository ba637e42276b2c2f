"""References that only the tests use: the key checks of permutations and
packed words as they were first written, the node and leaf counts that
plane trees once stored, the polynomial and series products
as loops over pairs of coefficients, the plain and q-derivatives, the
monomial-basis conversions and forward difference of the binomial basis,
the tree engine that listed every shape, the per-tree check that walked
every shape, the per-tree JSON of a tree expansion, the FQSym basis
change, specialization, alphabet scaling and pairing, and two checks of
the source paper that no CLI command runs.

The tests compare the package against these, or state an identity of the
paper with them; src/treecalc calls none of them.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from treecalc.arith import AlphaPoly, Poly, QPoly
from treecalc.combinat import Permutation, hook_data, packed_words
from treecalc.elements import FQSymElement, WQSymElement
from treecalc.errors import BasisMismatch
from treecalc.identities import IdentityReport, _duliu_tree_sum, _report, plane_q_expansion
from treecalc.series import BinomialPoly, QDividedSeries, TreeExpansion, TruncatedSeries
from treecalc.wqsym import psi

# ---------------------------------------------------------------------------
# combinat
# ---------------------------------------------------------------------------


def word_key_error(key_type: type, word: tuple):
    """The public constructor's error for a word that is no key of
    key_type, or None for a key, by the checks as first written: the
    sorted word of a permutation is 1..n, and the letters of a packed word
    with m distinct letters are the set {1..m}."""
    if key_type is Permutation:
        if sorted(word) != list(range(1, len(word) + 1)):
            return f"not a permutation of 1..{len(word)}: {word}"
    elif set(word) != set(range(1, len(set(word)) + 1)):
        return f"not a packed word: {word}"
    return None


def plane_tree_counts(tree) -> tuple[int, int]:
    """(internal nodes, leaves) of a plane tree, summed over the children
    bottom up as the nodes once stored them: one breadth-first list, read
    in reverse, so a deep tree meets no recursion limit."""
    nodes = [tree]
    for node in nodes:
        nodes.extend(node.children)
    counts: dict = {}  # id(node) -> its counts; equal subtrees may be one object
    for node in reversed(nodes):
        if node.is_leaf:
            counts[id(node)] = (0, 1)
        else:
            below = [counts[id(child)] for child in node.children]
            counts[id(node)] = (1 + sum(i for i, _ in below), sum(k for _, k in below))
    return counts[id(tree)]


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------


def poly_mul_loop(self: Poly, other) -> Poly:
    """Poly.__mul__ as it was before the integer convolution: one Fraction
    or int product per pair of nonzero coefficients, the result brought to
    canonical form by the public constructor.  The product's reference."""
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    if not self.coeffs or not other.coeffs:
        return type(self)()
    out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        if not a:
            continue
        for k, b in enumerate(other.coeffs, i):
            if b:
                c = out[k]
                out[k] = c + a * b if c else a * b
    return type(self)(out)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def series_mul_loop(self: TruncatedSeries, other) -> TruncatedSeries:
    """TruncatedSeries.__mul__ as it was before rational operands went
    through one integer convolution: one ring product per pair of nonzero
    coefficients, zero factors skipped and a slot's first product written
    as it is.  The product's reference, slot by slot in value and type."""
    if not isinstance(other, TruncatedSeries):
        return self._scaled(other)
    n = min(self.order, other.order)
    nonzero = [(j, b) for j, b in enumerate(other.coeffs[: n + 1]) if b]
    out = [0] * (n + 1)
    for i, a in enumerate(self.coeffs[: n + 1]):
        if not a:
            continue
        for j, b in nonzero:
            k = i + j
            if k > n:
                break
            c = out[k]
            out[k] = a * b if type(c) is int and not c else c + a * b
    return TruncatedSeries._unchecked(out)


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """d/dt; the result is one order shorter than the input."""
    if f.order == 0:
        return TruncatedSeries._unchecked((0,))
    return TruncatedSeries._unchecked(
        [f.coeffs[n] * n for n in range(1, f.order + 1)]
    )


def q_derivative(f: QDividedSeries) -> QDividedSeries:
    """D_q f = (f(qt) - f(t)) / (qt - t): t^n / [n]_q! maps to
    t^(n-1) / [n-1]_q!, so each numerator moves down one slot; the result
    is one order shorter than the input."""
    return QDividedSeries._unchecked(f.coeffs[1:] or (0,))


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _binomial_basis_monomials(k: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of C(t, k) = t (t-1) ... (t-k+1) / k!."""
    coeffs = [Fraction(1)]
    for i in range(k):
        shifted = [Fraction(0)] + coeffs
        coeffs = [shifted[j] - (coeffs[j] * i if j < len(coeffs) else 0)
                  for j in range(len(shifted))]
        coeffs = [c / (i + 1) for c in coeffs]
    return tuple(coeffs)


def monomial_to_binomial(coeffs: Sequence) -> BinomialPoly:
    """Rewrite sum c_n t^n in the binomial basis via t^n =
    sum_k S(n, k) k! C(t, k) (Stirling numbers of the second kind)."""
    out: dict = {}
    for n, c in enumerate(coeffs):
        if not c:
            continue
        kfact = 1
        for k in range(n + 1):
            if k:
                kfact *= k
            s = _stirling2(n, k)
            if s:
                out[k] = out.get(k, 0) + c * (s * kfact)
    return BinomialPoly(out)


def binomial_to_monomial(p: BinomialPoly) -> list:
    """Expand into monomial coefficients, lowest degree first; exact."""
    if not p.coeffs:
        return []
    top = max(p.coeffs)
    out: list = [0] * (top + 1)
    for k, c in p.coeffs.items():
        for n, b in enumerate(_binomial_basis_monomials(k)):
            if b:
                out[n] = out[n] + c * b
    return out


def finite_difference(p: BinomialPoly) -> BinomialPoly:
    """The forward difference f(t+1) - f(t): sends C(t, k) to C(t, k-1)."""
    return BinomialPoly({k - 1: c for k, c in p.coeffs.items() if k >= 1})


def listing_expand(op, a, order: int, trees, children, arity=None, name=None) -> TreeExpansion:
    """The tree engine as it was before it counted shapes by term class,
    kept as the listing reference: the terms of the shapes
    trees(0..order), in enumeration order, and their sum.  A shape without
    children carries a; any other applies op to its children's terms,
    smaller shapes cached before it, so no recursion is needed.  Given an
    arity, the sum is re-checked against x = a + op(x, ..., x).

    Each result of op is interned by repr, and op runs once per distinct
    tuple of its children's interned terms, keyed by their ids.  Shapes
    are cached by id.  The sum adds count * term once per distinct term,
    in order of first appearance."""
    interned = {repr(a): a}  # repr -> the one term object with that repr
    applied: dict = {}  # ids of the children's terms -> op of them
    counts: dict = {}  # id(term) -> [term, number of shapes carrying it]
    cache: dict = {}  # id(shape) -> its interned term
    expansion = TreeExpansion()
    next(trees(order))
    for n in range(order + 1):
        for tree in trees(n):
            kids = children(tree)
            if kids:
                args = [cache[id(kid)] for kid in kids]
                key = tuple(map(id, args))
                term = applied.get(key)
                if term is None:
                    term = op(*args)
                    term = applied[key] = interned.setdefault(repr(term), term)
            else:
                term = a
            cache[id(tree)] = term
            expansion.terms.append((tree, term))
            seen = counts.get(id(term))
            if seen is None:
                counts[id(term)] = [term, 1]
            else:
                seen[1] += 1
    total = None
    for term, count in counts.values():
        term = term if count == 1 else term * count
        total = term if total is None else total + term
    expansion.total = total
    if arity and total - (a + op(*[total] * arity)):
        raise ArithmeticError(f"{name} expansion does not satisfy its equation")
    return expansion


def per_tree_walk(expansion: TreeExpansion, order: int, closed) -> tuple[bool, list]:
    """The per-tree check as it was before it ran over hook classes, kept
    as the shape-walk reference: match every (tree, term) pair of an
    expansion, which may be a hand-built list, against t^k closed(hooks),
    k the node count and hooks its hook multiset (empty for the empty
    shape).  The closed form and its expected monomial are built once per
    multiset, and a term is compared with it once per distinct (term
    object, multiset) pair, so each tree is still checked against its own
    multiset's form.  Returns whether all terms match, and each tree's
    closed form, printed, in the expansion's order."""
    forms: dict = {}  # hooks -> (printed closed value, expected term)
    compared: set = set()  # (id(term), hooks); the expansion keeps every term alive
    equal, texts = True, []
    for tree, term in expansion.terms:
        hooks = hook_data(tree).hooks if tree.node_count else ()
        form = forms.get(hooks)
        if form is None:
            value = closed(hooks)
            form = forms[hooks] = (str(value), TruncatedSeries.monomial(len(hooks), order, value))
        pair = (id(term), hooks)
        if pair not in compared:
            compared.add(pair)
            equal &= term == form[1]
        texts.append(form[0])
    return equal, texts


def expansion_to_json(expansion: TreeExpansion) -> list[dict]:
    """Each (tree, term) of an expansion as {"tree": text, "term": the
    term's to_json(), or its str}."""
    out = []
    for tree, value in expansion.terms:
        dumped = value.to_json() if hasattr(value, "to_json") else str(value)
        out.append({"tree": tree.text, "term": dumped})
    return out


# ---------------------------------------------------------------------------
# fqsym
# ---------------------------------------------------------------------------


def to_basis(x: FQSymElement, basis: str) -> FQSymElement:
    """Convert between the G and F bases via F_s = G_{s^-1}."""
    if x.basis == basis:
        return x
    return FQSymElement(
        {key.inverse(): c for key, c in x.terms.items()}, basis=basis
    )


def phi(x: FQSymElement, order: int) -> TruncatedSeries:
    """The exponential specialization G_s -> t^n / n! (an algebra
    homomorphism into rational power series)."""
    x.require_basis("G")
    coeffs = [Fraction(0)] * (order + 1)
    for w, c in x._words.items():
        n = len(w)
        if n <= order:
            coeffs[n] += c
    return TruncatedSeries(
        [coeffs[n] / factorial(n) for n in range(order + 1)]
    )


def scale_alphabet(x: FQSymElement) -> FQSymElement:
    """Rescale the alphabet by q: multiply the degree-n component by q^n.

    This is the unique grading-compatible reading of "evaluate at qA":
    the q-specialization sends degree-n elements to t^n multiples, so
    substituting qt for t is exactly this scaling.
    """
    return x._with({w: QPoly.monomial(len(w)) * c for w, c in x._words.items()})


def pairing(x: FQSymElement, y: FQSymElement):
    """Kronecker pairing <F_s, G_t> = delta_{s,t}, extended bilinearly.

    The two arguments must be in opposite bases (either order).
    """
    if x.basis == y.basis:
        raise BasisMismatch(f"pairing needs opposite bases, got {x.basis} twice")
    total = 0
    small, big = (x, y) if len(x) <= len(y) else (y, x)
    for w, c in small._words.items():
        other = big._words.get(w)
        if other is not None:
            total = total + c * other
    return total


# ---------------------------------------------------------------------------
# wqsym
# ---------------------------------------------------------------------------


def graded_word_sum(max_length: int, weight=None) -> WQSymElement:
    """Sum of all M_u with |u| <= max_length, each scaled by
    weight(|u|) when a weight function is given."""
    out: dict = {}
    for n in range(max_length + 1):
        for word in packed_words(n):
            out[word] = weight(n) if weight is not None else 1
    return WQSymElement(out)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def duliu_cross_check(n: int) -> bool:
    """las2 is las1 after the substitution alpha -> (alpha-1)/(alpha+1)
    with denominators cleared: each factor (beta + 1/h) times (alpha+1)/2
    becomes ((h+1)alpha + 1 - h)/(2h).  Verified here at the level of the
    aggregated polynomials."""
    las1 = _duliu_tree_sum("las1", 1, n)
    las2 = _duliu_tree_sum("las2", 1, n)
    plus = AlphaPoly((1, 1))
    minus = AlphaPoly((-1, 1))
    substituted = AlphaPoly.zero()
    for k, c in enumerate(las1.coeffs):
        if c:
            substituted = substituted + (minus**k) * (plus ** (n - k)) * c
    return substituted / 2**n == las2


def _truncate_q(p: BinomialPoly, max_degree: int) -> BinomialPoly:
    return p.map_coefficients(lambda c: c.truncated(max_degree) if isinstance(c, QPoly) else c)


def plane_q_check(order: int) -> IdentityReport:
    """The image of the word equation under the binomial evaluation:
    the expansion total must equal the generating sum of C(t, max u) over
    packed words weighted by q^|u|, and its forward difference must equal
    sum_{n>=2} q^(n-1) x^n up to q-degree `order`."""
    start = time.perf_counter()
    expansion = plane_q_expansion(order)
    total = expansion.total

    direct = psi(graded_word_sum(order, weight=lambda n: QPoly.monomial(n)))
    lhs = finite_difference(total)
    rhs = BinomialPoly()
    power = total * total
    for n in range(2, order + 2):
        rhs = rhs + power * QPoly.monomial(n - 1)
        power = power * total
    lhs, rhs = _truncate_q(lhs, order), _truncate_q(rhs, order)
    paths = {"word-sum": (direct, total), "difference": (lhs, rhs)}
    return _report("plane-q", {"order": order}, start, lhs, rhs, paths)
