"""End-to-end verification of the hook-length-type identities.

Every check computes its sides by disjoint code paths (closed form with
exact polynomial division versus enumeration of fibers, or explicit
coefficients versus tree expansion versus Picard iteration), names each
path, and reports two sides in serialized exact form.  _report alone
decides equality and names in IdentityReport.disagree each path whose
value differs from its reference.  All comparisons are exact; nothing is
tolerance-based.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .arith import (
    AlphaPoly,
    QPoly,
    _q_integer_quotient,
    binomial_coefficient,
)
from .combinat import (
    BinaryTree,
    Permutation,
    PlaneTree,
    _internal_nodes,
    binary_trees,
    decreasing_tree,
    hook_data,
    mary_trees,
    permutations,
)
from .errors import NonIntegerResult, SizeGuardError, VariantArityMismatch, refuse_large
from .series import (
    BinomialPoly,
    TreeExpansion,
    TruncatedSeries,
    binomial_series,
    discrete_sum,
    evaluate_plane_tree,
    exp_series,
    finite_difference,
    fixed_point_binary,
    fixed_point_mary,
    fixed_point_plane,
    integrate,
    picard_binary,
    picard_mary,
)
from .wqsym import graded_word_sum, psi, tree_fiber_element

POSTNIKOV_GUARD = 12
EISENSTEIN_GUARD = 10
LAGRANGE_ORDER_GUARD = 8
LAGRANGE_ARITY_GUARD = 3
DULIU_GUARDS = {1: 7, 2: 5, 3: 5}
# Leaves of an ft_coefficients tree.  The balanced binary plane tree is the
# costliest shape measured: 0.08 s at 128 leaves and 1.6 s at 256 on a
# 2-core Xeon host with Python 3.11, growing about 16-fold per doubling.
FT_LEAF_GUARD = 256

# Nodes of a q-hook tree.  With the shared q-integers cancelled, the comb
# takes 0.1 ms at 60 and 80 nodes (best of 3, 2-core Xeon, Python 3.11), a
# balanced shape 0.03 s and 0.09 s, seeded random shapes 0.02-0.03 s and
# 0.04-0.10 s.  Set when dense products made the comb the dear case (0.56 s
# at 60 nodes); kept, since it decides which hook --q inputs exit 3.
QHOOK_GUARD = 60

# Tree expansions with alpha-polynomial coefficients get expensive fast for
# higher arities; Picard carries the full order, trees cross-check to here.
MARY_EXPANSION_ORDER = {1: 8, 2: 6, 3: 5}


@dataclass
class IdentityReport:
    """Outcome of one identity check, with both sides kept verbatim."""

    name: str
    parameters: dict
    lhs: str
    rhs: str
    equal: bool
    per_tree: list | None = None
    elapsed_ms: float = 0.0
    disagree: tuple[str, ...] = ()  # the paths that differ; not serialized

    def to_json(self, *, include_per_tree: bool = False) -> dict:
        data = {
            "identity": self.name,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "equal": self.equal,
            "elapsed_ms": self.elapsed_ms,
        }
        if include_per_tree and self.per_tree is not None:
            data["per_tree"] = self.per_tree
        return data


def _report(name, parameters, start, lhs, rhs, paths, per_tree=None) -> IdentityReport:
    """The report begun at start: equal when no path's value differs from its reference."""
    disagree = tuple(path for path, (value, reference) in paths.items() if value != reference)
    elapsed = (time.perf_counter() - start) * 1000
    sides = str(lhs), str(rhs)
    return IdentityReport(name, parameters, *sides, not disagree, per_tree, elapsed, disagree)


# ---------------------------------------------------------------------------
# Hook length formulas for binary trees.
# ---------------------------------------------------------------------------


def hook_count(tree: BinaryTree) -> Fraction:
    """n! over the product of the hook lengths: the number of permutations
    whose decreasing tree has this shape.  The product needs no multiset,
    so it runs over the one unsorted hook walk, with no sort and no
    HookData per shape."""
    numerator = factorial(tree.node_count)
    denominator = 1
    for node in _internal_nodes(tree):
        denominator *= node.node_count
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegerResult(
            f"hook count of {tree} came out as {Fraction(numerator, denominator)}"
        )
    return Fraction(value)


def _qhook(tree: BinaryTree) -> QPoly:
    """q^delta [n]_q! / prod_v [h_v]_q, delta the sum of the right sizes."""
    data = hook_data(tree)
    return _q_integer_quotient(sum(data.right_sizes), range(2, tree.node_count + 1), data.hooks)


def qhook_imaj(tree: BinaryTree) -> QPoly:
    """[n]_q! prod_v q^(delta_v) / [h_v]_q, the generating polynomial of the
    inverse major index over the fiber of the decreasing-tree map."""
    return _qhook(tree)


def qhook_inv(tree: BinaryTree) -> QPoly:
    """The same closed form also generates the inversion statistic over the
    fiber; the content is that the two statistics are equidistributed there,
    which the oracle tests check word by word."""
    return _qhook(tree)


def hook_fiber(tree: BinaryTree, *, unsafe_large: bool = False) -> list[Permutation]:
    """Brute-force fiber of the decreasing-tree map over a shape."""
    return [
        p
        for p in permutations(tree.node_count, unsafe_large=unsafe_large)
        if decreasing_tree(p) == tree
    ]


# Each hook statistic: its closed form on a shape, and the statistic of one
# permutation of the fiber (None: the plain count).  The entries look the
# functions up when called, so a rebound function is the one that runs.
HOOK_STATISTICS = {
    "imaj": (lambda tree: qhook_imaj(tree), lambda p: p.imaj()),
    "inv": (lambda tree: qhook_inv(tree), lambda p: p.inversions()),
    "none": (lambda tree: hook_count(tree), None),
}


def hook_oracle(tree: BinaryTree, statistic: str):
    """Brute-force side of the hook formulas: the size of the fiber of the
    decreasing-tree map over the shape (statistic "none"), or the sum of
    q^imaj or q^inv over it; any other statistic raises KeyError.  It
    enumerates all of S_n unguarded; the caller bounds n."""
    _, stat = HOOK_STATISTICS[statistic]
    fiber = hook_fiber(tree, unsafe_large=True)
    if stat is None:
        return Fraction(len(fiber))
    return sum((QPoly.monomial(stat(p)) for p in fiber), QPoly.zero())


def decreasing_tree_fibers(
    n: int, *, unsafe_large: bool = False
) -> dict[BinaryTree, list[Permutation]]:
    """All of S_n grouped by the shape of the decreasing tree."""
    fibers: dict[BinaryTree, list[Permutation]] = {}
    for p in permutations(n, unsafe_large=unsafe_large):
        fibers.setdefault(decreasing_tree(p), []).append(p)
    return fibers


# ---------------------------------------------------------------------------
# The binomial-coefficient expansion of plane-tree terms.
# ---------------------------------------------------------------------------


def _discrete_product_family(k: int):
    return lambda *args: discrete_sum(prod(args[1:], start=args[0]))


def ft_coefficients(tree: PlaneTree, *, unsafe_large: bool = False) -> dict[int, int]:
    """Expand the plane-tree term in the binomial basis.

    The coefficient of C(t, k) counts the packed words with maximal letter
    k whose plane tree is the given shape, so everything must come out a
    nonnegative integer.  Trees with more than FT_LEAF_GUARD leaves are
    refused unless unsafe_large is set.
    """
    if tree.is_leaf:
        raise ValueError("ft_coefficients needs a nonempty plane tree")
    what = f"ft_coefficients on {tree.leaf_count} leaves"
    refuse_large(what, tree.leaf_count, FT_LEAF_GUARD, unsafe_large)
    value = evaluate_plane_tree(tree, _discrete_product_family, BinomialPoly.one())
    out: dict[int, int] = {}
    for k, c in sorted(value.coeffs.items()):
        c = Fraction(c)
        if c.denominator != 1 or c < 0:
            raise NonIntegerResult(f"coefficient of C(t,{k}) is {c}")
        out[k] = int(c)
    return out


def ft_brute_force(tree: PlaneTree, *, unsafe_large: bool = False) -> dict[int, int]:
    """Oracle for ft_coefficients: the packed words of the tree's fiber,
    counted by maximal letter (psi sends M_u to C(t, max u))."""
    fiber = tree_fiber_element(tree, tree.leaf_count - 1, unsafe_large=unsafe_large)
    return dict(sorted(psi(fiber).coeffs.items()))


def ft_check(tree: PlaneTree, *, unsafe_large: bool = False) -> IdentityReport:
    """Theorem FT on one plane tree: ft_coefficients against its oracle
    ft_brute_force.  The oracle runs first, so its packed_words guard is
    met before the formula's leaf guard."""
    start = time.perf_counter()
    oracle = ft_brute_force(tree, unsafe_large=unsafe_large)
    formula = ft_coefficients(tree, unsafe_large=unsafe_large)
    lhs, rhs = (json.dumps({str(k): v for k, v in side.items()}) for side in (formula, oracle))
    return _report("ft", {"tree": tree.text}, start, lhs, rhs, {"oracle": (formula, oracle)})


# ---------------------------------------------------------------------------
# Postnikov's identity and Eisenstein's exponential.
# ---------------------------------------------------------------------------


def postnikov_operator(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """B(x, y) = t*x*y/2 + (1/2) * integral of x*y."""
    xy = x * y
    return (xy.times_t() + integrate(xy)) * Fraction(1, 2)


def _postnikov_sum(n: int) -> Fraction:
    """Sum over binary shapes with n nodes of prod_v (1 + 1/h_v).

    Every shape is visited.  A shape T with k nodes and left subtree L
    carries the integer c(T) = k! prod_v (1 + 1/h_v), which satisfies
    c(T) = (k+1) C(k-1, |L|) c(L) c(R) with c(empty) = 1.  A table of c
    by text is filled bottom up over the shapes with 1..n-1 nodes, which
    are all the subtrees below a root with n nodes; level n is summed
    straight from it, unstored, and the sum is sum_T c(T) / n!.
    """
    table = {"_": 1}
    total = 1  # n = 0: the empty shape alone
    for k in range(1, n + 1):
        weights = [(k + 1) * comb(k - 1, i) for i in range(k)]  # by |L|
        last, total = k == n, 0
        for tree in binary_trees(k):
            left = tree.left
            c = weights[left.node_count] * table[left.text] * table[tree.right.text]
            if last:
                total += c
            else:
                table[tree.text] = c
    return Fraction(total, factorial(n))


def eisenstein_coefficients(order: int) -> TruncatedSeries:
    """The generalized exponential: coefficient of t^n is (n+1)^(n-1)/n!."""
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(Fraction((n + 1) ** (n - 1), factorial(n)))
    return TruncatedSeries(coeffs)


def _per_tree(expansion: TreeExpansion, order: int, closed) -> tuple[bool, list]:
    """Match every per-tree term of an expansion against t^k closed(hooks),
    k the node count and hooks its hook multiset (empty for the empty
    shape).  The closed form and its expected monomial are built once per
    multiset, and a term is compared with it once per distinct (term
    object, multiset) pair: the engine shares equal terms between trees,
    so each tree is still checked against its own multiset's form.
    Returns whether all terms match, and each tree's closed form in the
    expansion's order."""
    forms: dict = {}  # hooks -> (closed value, expected term)
    compared: set = set()  # (id(term), hooks); the expansion keeps every term alive
    equal, values = True, []
    for tree, term in expansion.terms:
        hooks = hook_data(tree).hooks if tree.node_count else ()
        form = forms.get(hooks)
        if form is None:
            value = closed(hooks)
            form = forms[hooks] = (value, TruncatedSeries.monomial(len(hooks), order, value))
        pair = (id(term), hooks)
        if pair not in compared:
            compared.add(pair)
            equal &= term == form[1]
        values.append(form[0])
    return equal, values


def _postnikov_paths(order: int) -> tuple[TreeExpansion, TruncatedSeries]:
    """The binary-tree expansion and the Picard solution of x = 1 + B(x, x)."""
    one = TruncatedSeries.constant(Fraction(1), order)
    return (
        fixed_point_binary(postnikov_operator, one, order),
        picard_binary(postnikov_operator, one, order),
    )


def postnikov_check(n: int) -> IdentityReport:
    """(n+1)^(n-1) = n!/2^n * sum over binary shapes of prod (1 + 1/h_v).

    The left side is an integer power; the right side is summed exactly
    over all shapes with n nodes.  The same operator is also run through
    the series engine (to order min(n, 8)) and every per-tree term is
    matched against the closed form prod(1+1/h_v) t^k / 2^k.
    """
    if not 1 <= n <= POSTNIKOV_GUARD:
        raise SizeGuardError(f"postnikov_check needs 1 <= n <= {POSTNIKOV_GUARD}")
    start = time.perf_counter()
    lhs = Fraction((n + 1) ** (n - 1))
    rhs = Fraction(factorial(n), 2**n) * _postnikov_sum(n)

    order = min(n, 8)
    expansion, picard = _postnikov_paths(order)
    closed = lambda hooks: Fraction(prod(h + 1 for h in hooks), 2 ** len(hooks) * prod(hooks))
    trees_equal, values = _per_tree(expansion, order, closed)
    printed: dict = {}  # id(value) -> str(value): one closed value per hook multiset
    per_tree = []
    for (tree, _), value in zip(expansion.terms, values):
        text = printed.get(id(value))
        if text is None:
            text = printed[id(value)] = str(value)
        per_tree.append({"tree": tree.text, "coefficient": text})
    explicit = eisenstein_coefficients(order)
    paths = {
        "shape-sum": (rhs, lhs),
        "per-tree": (trees_equal, True),
        "tree-expansion": (expansion.total, explicit),
        "picard": (picard, explicit),
    }
    return _report("postnikov", {"n": n, "series_order": order}, start, lhs, rhs, paths, per_tree)


def eisenstein_check(order: int) -> IdentityReport:
    """Four-way agreement for g(t) = sum (n+1)^(n-1) t^n / n!:

    the explicit coefficients, exp(t g) computed from them, and the
    binary-tree expansion and Picard solution of x = 1 + t x^2/2 + (1/2)
    int x^2 must all coincide to the requested order.
    """
    if order > EISENSTEIN_GUARD:
        raise SizeGuardError(f"eisenstein_check needs order <= {EISENSTEIN_GUARD}")
    start = time.perf_counter()
    explicit = eisenstein_coefficients(order)
    exponential = exp_series(explicit.times_t())
    expansion, picard = _postnikov_paths(order)
    paths = {
        "exp(t g)": (exponential, explicit),
        "tree-expansion": (expansion.total, explicit),
        "picard": (picard, explicit),
    }
    return _report("eisenstein", {"order": order}, start, explicit, expansion.total, paths)


# ---------------------------------------------------------------------------
# Du-Liu identities and the Lagrange fixed point.
# ---------------------------------------------------------------------------

ALPHA = AlphaPoly.gen()


def duliu_node_factor(variant: str, m: int, h: int) -> AlphaPoly:
    if variant == "las1":
        return AlphaPoly((Fraction(1, h), 1))
    if variant == "las2":
        return AlphaPoly((Fraction(1 - h, 2 * h), Fraction(h + 1, 2 * h)))
    if variant == "las3":
        return AlphaPoly(
            (Fraction(1 - h, (m + 1) * h), Fraction(m * h + 1, (m + 1) * h))
        )
    raise ValueError(f"unknown Du-Liu variant {variant!r}")


def _duliu_product(variant: str, m: int, hooks: tuple[int, ...]) -> AlphaPoly:
    """The product of the per-node factors over a hook multiset."""
    return prod((duliu_node_factor(variant, m, h) for h in hooks), start=AlphaPoly.one())


def _duliu_tree_sum(variant: str, m: int, n: int) -> AlphaPoly:
    if n == 0:
        return AlphaPoly.one()
    trees = binary_trees(n) if m == 1 else mary_trees(m, n)
    # the summand depends on the hook multiset only: one product per multiset
    multisets = Counter(hook_data(tree).hooks for tree in trees)
    total = AlphaPoly.zero()
    for hooks, count in multisets.items():
        total = total + _duliu_product(variant, m, hooks) * count
    return total


def duliu_rhs(variant: str, m: int, n: int) -> AlphaPoly:
    if variant == "las1":
        value = AlphaPoly.one()
        for i in range(n):
            value = value * AlphaPoly((n + 1 - i, n + 1 + i))
        return value / factorial(n + 1)
    if variant == "las2":
        return binomial_coefficient(AlphaPoly((0, n + 1)), n) / (n + 1)
    if variant == "las3":
        return binomial_coefficient(AlphaPoly((0, m * n + 1)), n) / (m * n + 1)
    raise ValueError(f"unknown Du-Liu variant {variant!r}")


def duliu_check(variant: str, n: int, m: int = 1) -> IdentityReport:
    """The hook-parameter identities: sum over trees of the per-node
    factors equals the stated product/binomial closed form, as an exact
    polynomial identity in alpha.

    las1 and las2 are statements about binary trees (m = 1); las3 runs
    over (m+1)-ary trees and degenerates to las2 at m = 1.
    """
    if variant in ("las1", "las2") and m != 1:
        raise VariantArityMismatch(f"{variant} requires m=1, got m={m}")
    if m not in DULIU_GUARDS:
        raise SizeGuardError(f"duliu_check supports m in {sorted(DULIU_GUARDS)}")
    if n > DULIU_GUARDS[m]:
        raise SizeGuardError(f"duliu_check(m={m}) needs n <= {DULIU_GUARDS[m]}")
    start = time.perf_counter()
    lhs = _duliu_tree_sum(variant, m, n)
    rhs = duliu_rhs(variant, m, n)
    parameters = {"variant": variant, "n": n, "m": m}
    return _report(f"duliu-{variant}", parameters, start, lhs, rhs, {"closed-form": (lhs, rhs)})


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


def lagrange_series(m: int, order: int) -> TruncatedSeries:
    """f(t) = sum_n C((mn+1) alpha, n) t^n / (mn+1): the coefficient of t^n
    is the las3 closed form of the (m+1)-ary trees with n nodes."""
    return TruncatedSeries([duliu_rhs("las3", m, n) for n in range(order + 1)])


def lagrange_operator(m: int):
    """The (m+1)-linear operator of the integro-algebraic fixed point:
    F(x_1..x_{m+1}) = (alpha m - 1)/(m+1) t prod x + (alpha+1)/(m+1) int prod x."""
    c_algebraic = AlphaPoly((-1, m)) / (m + 1)
    c_integral = AlphaPoly((1, 1)) / (m + 1)

    def operator(*args: TruncatedSeries) -> TruncatedSeries:
        product = prod(args[1:], start=args[0])
        return product.times_t() * c_algebraic + integrate(product) * c_integral

    return operator


def lagrange_fixed_point_check(m: int, order: int) -> IdentityReport:
    """Two routes to f(t) = sum C((mn+1) alpha, n) t^n/(mn+1):

    (i) the binomial fixed point x = (1 + t x^m)^alpha has residual
    exactly zero at the full order; (ii) the integro-algebraic fixed
    point is solved independently by Picard iteration at the full order
    and by the (m+1)-ary tree expansion at a capped order, where every
    per-tree term must match the per-node closed form.
    """
    if m > LAGRANGE_ARITY_GUARD or m < 1:
        raise SizeGuardError(f"lagrange check needs 1 <= m <= {LAGRANGE_ARITY_GUARD}")
    if order > LAGRANGE_ORDER_GUARD:
        raise SizeGuardError(f"lagrange check needs order <= {LAGRANGE_ORDER_GUARD}")
    start = time.perf_counter()
    f = lagrange_series(m, order)
    rhs = binomial_series(ALPHA, (f**m).times_t())
    operator = lagrange_operator(m)
    picard = picard_mary(operator, m, order)
    tree_order = min(order, MARY_EXPANSION_ORDER[m])
    expansion = fixed_point_mary(operator, m, tree_order)
    closed = lambda hooks: _duliu_product("las3", m, hooks)
    paths = {
        "binomial": (rhs, f),
        "picard": (picard, f),
        "tree-expansion": (expansion.total, f.truncated(tree_order)),
        "per-tree": (_per_tree(expansion, tree_order, closed)[0], True),
    }
    parameters = {"m": m, "order": order, "tree_order": tree_order}
    return _report("lagrange", parameters, start, f, rhs, paths)


# ---------------------------------------------------------------------------
# The plane-tree equation in the discrete calculus picture.
# ---------------------------------------------------------------------------


def plane_q_family(k: int):
    """F_k(x_1..x_k) = q^(k-1) * discrete integral of the product."""
    discrete_product = _discrete_product_family(k)
    return lambda *args: discrete_product(*args) * QPoly.monomial(k - 1)


def plane_q_expansion(order: int) -> TreeExpansion:
    """Expand x = 1 + sum_{n>=2} q^(n-1) F_n(x..x) over plane trees.

    A tree with n+1 leaves contributes q^n times its binomial-basis term,
    so the expansion to `order` covers words of length up to `order`
    exactly.
    """
    one = BinomialPoly({0: QPoly.one()})
    return fixed_point_plane(plane_q_family, order, one)


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
