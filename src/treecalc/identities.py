"""End-to-end verification of the hook-length-type identities.

Every check computes its sides by disjoint code paths (closed form with
exact polynomial division versus enumeration of fibers, or explicit
coefficients versus tree expansion versus Picard iteration), names each
path, and reports two sides in serialized exact form.  _report alone
decides equality and names in IdentityReport.disagree each path whose
value differs from its reference.  All comparisons are exact; nothing is
tolerance-based.  Each check meets its size guards, all through
errors.refuse_large, before any path runs; unsafe_large passes them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, prod
from typing import Callable, Iterator, NamedTuple

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
    _hook_product,
    binary_trees,
    child_slots,
    decreasing_tree,
    hook_data,
    mary_trees,
    permutations,
)
from .errors import NonIntegerResult, VariantArityMismatch, refuse_large
from .series import (
    BinomialPoly,
    TreeExpansion,
    TruncatedSeries,
    binomial_series,
    discrete_sum,
    evaluate_plane_tree,
    exp_series,
    fixed_point_binary,
    fixed_point_mary,
    fixed_point_plane,
    integrate,
    picard_binary,
    picard_mary,
)
from .wqsym import psi, tree_fiber_element

# Nodes n of the Postnikov shape sum: 0.56-0.61 s and 81 MiB at 12, 2.4-2.9 s
# and 246-252 MiB at 13 (the CLI in a child, 3-6 runs, 2-core Xeon, Python 3.11).
POSTNIKOV_GUARD = 12

# Child slots (m+1)*FussCatalan(m, n) of the Du-Liu tree sum: las1 n = 11 takes
# 0.5-0.7 s and 32 MiB, n = 12 1.6-2.4 s and 76 MiB; las3 m = 3, n = 8 3.9-5.1 s.
DULIU_SLOT_GUARD = 250_000

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


class IdentityReport(NamedTuple):
    """Outcome of one identity check, with both sides kept verbatim."""

    name: str
    parameters: dict
    lhs: str
    rhs: str
    equal: bool
    per_tree_rows: Callable[[], Iterator[dict]] | None = None  # yields the per-tree rows
    elapsed_ms: float = 0.0
    disagree: tuple[str, ...] = ()  # the paths that differ; not serialized

    def to_json(self, *, include_per_tree: bool = False) -> dict:
        """The report as a JSON object; with include_per_tree, the rows
        per_tree_rows yields, if the check has any, as a list under
        "per_tree"."""
        data = {
            "identity": self.name,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "equal": self.equal,
            "elapsed_ms": self.elapsed_ms,
        }
        if include_per_tree and self.per_tree_rows is not None:
            data["per_tree"] = list(self.per_tree_rows())
        return data


def _report(name, parameters, start, lhs, rhs, paths, per_tree_rows=None) -> IdentityReport:
    """The report begun at start: equal when no path's value differs from its reference."""
    disagree = tuple(path for path, (value, reference) in paths.items() if value != reference)
    elapsed = (time.perf_counter() - start) * 1000
    sides = str(lhs), str(rhs)
    return IdentityReport(name, parameters, *sides, not disagree, per_tree_rows, elapsed, disagree)


# ---------------------------------------------------------------------------
# Hook length formulas for binary trees.
# ---------------------------------------------------------------------------


def hook_count(tree: BinaryTree) -> Fraction:
    """n! over the product of the hook lengths: the number of permutations
    whose decreasing tree has this shape.  The product needs no multiset:
    each binary node keeps its own (combinat._hook_product), so a binary
    shape whose subtrees were asked before costs one multiply."""
    numerator = factorial(tree.node_count)
    denominator = _hook_product(tree)
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
    """Brute-force fiber of the decreasing-tree map over a shape: every
    permutation of S_n is built into its tree and compared with the shape.
    The scan passes one table to decreasing_tree as ``shared``, so the
    permutations build their equal subtrees once."""
    shared: dict = {}
    return [
        p
        for p in permutations(tree.node_count, unsafe_large=unsafe_large)
        if decreasing_tree(p, shared) == tree
    ]


# Each hook statistic: its closed form on a shape, and the statistic of one
# permutation of the fiber (None: the plain count).  The entries look the
# functions up when called, so a rebound function is the one that runs.
HOOK_STATISTICS = {
    "imaj": (lambda tree: qhook_imaj(tree), lambda p: p.imaj()),
    "inv": (lambda tree: qhook_inv(tree), lambda p: p.inversions()),
    "none": (lambda tree: hook_count(tree), None),
}


def hook_oracle(tree: BinaryTree, statistic: str, *, unsafe_large: bool = False):
    """Brute-force side of the hook formulas: the size of the fiber of the
    decreasing-tree map over the shape (statistic "none"), or the sum of
    q^imaj or q^inv over it; any other statistic raises KeyError.  It
    enumerates all of S_n, under the permutations guard unless unsafe_large."""
    _, stat = HOOK_STATISTICS[statistic]
    fiber = hook_fiber(tree, unsafe_large=unsafe_large)
    if stat is None:
        return Fraction(len(fiber))
    return sum((QPoly.monomial(stat(p)) for p in fiber), QPoly.zero())


def decreasing_tree_fibers(
    n: int, *, unsafe_large: bool = False
) -> dict[BinaryTree, list[Permutation]]:
    """All of S_n grouped by the shape of the decreasing tree, in the order
    of permutations(n).  The scan passes one table to decreasing_tree as
    ``shared``, so equal shapes are one object, built once."""
    fibers: dict[BinaryTree, list[Permutation]] = {}
    shared: dict = {}
    for p in permutations(n, unsafe_large=unsafe_large):
        fibers.setdefault(decreasing_tree(p, shared), []).append(p)
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
    """B(x, y) = t*x*y/2 + (1/2) * integral of x*y, in one pass of
    integrate: t^n of x*y moves to t^(n+1) times (n+2)/(2(n+1))."""
    xy = x * y
    return integrate(xy, _postnikov_factors(xy.order))


@lru_cache(maxsize=None)
def _postnikov_factors(order: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n + 2, 2 * n + 2) for n in range(order))


def _postnikov_sum(n: int, unsafe_large: bool = False) -> Fraction:
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
        for tree in binary_trees(k, unsafe_large=unsafe_large):
            left = tree.left
            c = weights[left.node_count] * table[left.text] * table[tree.right.text]
            if last:
                total += c
            else:
                table[tree.text] = c
    return Fraction(total, factorial(n))


def eisenstein_coefficients(order: int) -> TruncatedSeries:
    """The generalized exponential: coefficient of t^n is (n+1)^(n-1)/n!."""
    tail = [Fraction((n + 1) ** (n - 1), factorial(n)) for n in range(1, order + 1)]
    return TruncatedSeries([Fraction(1), *tail])


def _hook_classes_check(expansion: TreeExpansion, order: int, closed) -> bool:
    """Match every (term, hook multiset) class of a binary or m-ary
    expansion against t^k closed(hooks), k the node count (the empty
    shape is the class (a, ())).  Every shape lies in exactly one class,
    so every tree is checked, each class once and with no shape listed."""
    return all(
        term == TruncatedSeries.monomial(len(hooks), order, closed(hooks))
        for level in expansion.terms.hook_classes
        for term, hooks, _ in level.values()
    )


def _postnikov_paths(order: int, unsafe_large=False) -> tuple[TreeExpansion, TruncatedSeries]:
    """The binary-tree expansion, guard first, and the Picard solution of x = 1 + B(x, x)."""
    one = TruncatedSeries.constant(Fraction(1), 0)  # both paths pad it to the order
    return (
        fixed_point_binary(postnikov_operator, one, order, unsafe_large=unsafe_large),
        picard_binary(postnikov_operator, one, order),
    )


def postnikov_check(n: int, *, unsafe_large: bool = False) -> IdentityReport:
    """(n+1)^(n-1) = n!/2^n * sum over binary shapes of prod (1 + 1/h_v).

    The left side is an integer power; the right side is summed exactly
    over all shapes with n nodes.  The same operator is also run through
    the series engine (to order min(n, 8)), and each (term, hook
    multiset) class of its trees is matched against the closed form
    prod(1+1/h_v) t^k / 2^k.  The per-tree rows, each shape with its
    closed form printed, are yielded by a walk over the shapes each time
    per_tree_rows is called, and kept nowhere.  An n below 1 lies outside
    the identity and raises ValueError; an n above POSTNIKOV_GUARD is
    refused unless unsafe_large.
    """
    if n < 1:  # at n = 0, (n+1)^(n-1) would be the float 1.0
        raise ValueError(f"postnikov_check needs n >= 1, got {n}")
    refuse_large(f"postnikov_check(n={n})", n, POSTNIKOV_GUARD, unsafe_large)
    start = time.perf_counter()
    lhs = Fraction((n + 1) ** (n - 1))
    rhs = Fraction(factorial(n), 2**n) * _postnikov_sum(n, unsafe_large)

    # A cost cap, not a guard, printed as series_order: at n = 11 the engine
    # paths take 0.023 s at order 11 and 0.003 s at order 8 (in-process).
    order = min(n, 8)
    expansion, picard = _postnikov_paths(order, unsafe_large)
    closed = lambda hooks: Fraction(prod(h + 1 for h in hooks), 2 ** len(hooks) * prod(hooks))

    def per_tree_rows() -> Iterator[dict]:
        printed: dict = {}  # hooks -> the closed form, printed
        for k in range(order + 1):
            for tree in binary_trees(k, unsafe_large=unsafe_large):
                hooks = hook_data(tree).hooks if k else ()
                text = printed.get(hooks)
                if text is None:
                    text = printed[hooks] = str(closed(hooks))
                yield {"tree": tree.text, "coefficient": text}

    explicit = eisenstein_coefficients(order)
    paths = {
        "shape-sum": (rhs, lhs),
        "per-tree": (_hook_classes_check(expansion, order, closed), True),
        "tree-expansion": (expansion.total, explicit),
        "picard": (picard, explicit),
    }
    parameters = {"n": n, "series_order": order}
    return _report("postnikov", parameters, start, lhs, rhs, paths, per_tree_rows)


def eisenstein_check(order: int, *, unsafe_large: bool = False) -> IdentityReport:
    """Four-way agreement for g(t) = sum (n+1)^(n-1) t^n / n!:

    the explicit coefficients, exp(t g) computed from them, and the
    binary-tree expansion and Picard solution of x = 1 + t x^2/2 + (1/2)
    int x^2 must all coincide to the requested order.  The one guard is
    the expansion's binary_trees(order), met before any path runs.
    """
    start = time.perf_counter()
    expansion, picard = _postnikov_paths(order, unsafe_large)
    explicit = eisenstein_coefficients(order)
    exponential = exp_series(explicit.times_t())
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
        return AlphaPoly((Fraction(1 - h, (m + 1) * h), Fraction(m * h + 1, (m + 1) * h)))
    raise ValueError(f"unknown Du-Liu variant {variant!r}")


def _duliu_product(variant: str, m: int, hooks: tuple[int, ...]) -> AlphaPoly:
    """The product of the per-node factors over a hook multiset."""
    return prod((duliu_node_factor(variant, m, h) for h in hooks), start=AlphaPoly.one())


def _duliu_tree_sum(variant: str, m: int, n: int, unsafe_large: bool = False) -> AlphaPoly:
    trees = (binary_trees if m == 1 else partial(mary_trees, m))(n, unsafe_large=unsafe_large)
    slots = child_slots(m, n)
    what = f"duliu_check(m={m}, n={n}) on {slots} child slots"
    refuse_large(what, slots, DULIU_SLOT_GUARD, unsafe_large)
    if n == 0:
        return AlphaPoly.one()
    # the summand depends on the hook multiset only: one product per multiset
    multisets = Counter(hook_data(tree).hooks for tree in trees)
    total = AlphaPoly.zero()
    for hooks, count in multisets.items():
        total = total + _duliu_product(variant, m, hooks) * count
    return total


def duliu_rhs(variant: str, m: int, n: int) -> AlphaPoly:
    if variant == "las1":
        value = prod((AlphaPoly((n + 1 - i, n + 1 + i)) for i in range(n)), start=AlphaPoly.one())
        return value / factorial(n + 1)
    if variant == "las2":
        return binomial_coefficient(AlphaPoly((0, n + 1)), n) / (n + 1)
    if variant == "las3":
        return binomial_coefficient(AlphaPoly((0, m * n + 1)), n) / (m * n + 1)
    raise ValueError(f"unknown Du-Liu variant {variant!r}")


def duliu_check(variant: str, n: int, m: int = 1, *, unsafe_large: bool = False) -> IdentityReport:
    """The hook-parameter identities: sum over trees of the per-node
    factors equals the stated product/binomial closed form, as an exact
    polynomial identity in alpha.

    las1 and las2 are statements about binary trees (m = 1); las3 runs
    over (m+1)-ary trees and degenerates to las2 at m = 1.  An m below 1
    raises ValueError; the tree sum meets its guards before any path runs.
    """
    if variant in ("las1", "las2") and m != 1:
        raise VariantArityMismatch(f"{variant} requires m=1, got m={m}")
    if m < 1:
        raise ValueError(f"duliu_check needs m >= 1, got {m}")
    start = time.perf_counter()
    lhs = _duliu_tree_sum(variant, m, n, unsafe_large)
    rhs = duliu_rhs(variant, m, n)
    parameters = {"variant": variant, "n": n, "m": m}
    return _report(f"duliu-{variant}", parameters, start, lhs, rhs, {"closed-form": (lhs, rhs)})


def lagrange_series(m: int, order: int) -> TruncatedSeries:
    """f(t) = sum_n C((mn+1) alpha, n) t^n / (mn+1): the coefficient of t^n
    is the las3 closed form of the (m+1)-ary trees with n nodes."""
    return TruncatedSeries([duliu_rhs("las3", m, n) for n in range(order + 1)])


def lagrange_operator(m: int):
    """The (m+1)-linear operator of the integro-algebraic fixed point:
    F(x_1..x_{m+1}) = (alpha m - 1)/(m+1) t prod x + (alpha+1)/(m+1) int prod x,
    in one pass of integrate: t^n of prod x moves to t^(n+1) times
    (alpha m - 1)/(m+1) + (alpha+1)/((m+1)(n+1)) = (alpha (mn+m+1) - n)/((m+1)(n+1))."""

    def operator(*args: TruncatedSeries) -> TruncatedSeries:
        product = prod(args[1:], start=args[0])
        return integrate(product, _lagrange_factors(m, product.order))

    return operator


@lru_cache(maxsize=None)
def _lagrange_factors(m: int, order: int) -> tuple[AlphaPoly, ...]:
    return tuple(AlphaPoly((-n, m * n + m + 1)) / ((m + 1) * (n + 1)) for n in range(order))


def lagrange_fixed_point_check(m: int, order: int, *, unsafe_large: bool = False) -> IdentityReport:
    """Two routes to f(t) = sum C((mn+1) alpha, n) t^n/(mn+1):

    (i) the binomial fixed point x = (1 + t x^m)^alpha has residual
    exactly zero; (ii) the integro-algebraic fixed point is solved
    independently by Picard iteration and by the (m+1)-ary tree
    expansion, where each (term, hook multiset) class of its trees must
    match the per-node closed form, so every tree is checked with no
    shape listed, all at the full order (printed also as tree_order).  An
    m below 1 raises ValueError; the expansion's bound on its operator
    calls, the one guard, is met before any path runs.
    """
    if m < 1:
        raise ValueError(f"lagrange_fixed_point_check needs m >= 1, got {m}")
    start = time.perf_counter()
    operator = lagrange_operator(m)
    expansion = fixed_point_mary(operator, m, order, unsafe_large=unsafe_large)
    f = lagrange_series(m, order)
    rhs = binomial_series(ALPHA, (f**m).times_t())
    picard = picard_mary(operator, m, order)
    closed = lambda hooks: _duliu_product("las3", m, hooks)
    paths = {
        "binomial": (rhs, f),
        "picard": (picard, f),
        "tree-expansion": (expansion.total, f),
        "per-tree": (_hook_classes_check(expansion, order, closed), True),
    }
    parameters = {"m": m, "order": order, "tree_order": order}
    return _report("lagrange", parameters, start, f, rhs, paths)


# ---------------------------------------------------------------------------
# The plane-tree equation in the discrete calculus picture.
# ---------------------------------------------------------------------------


def plane_q_family(k: int):
    """F_k(x_1..x_k) = q^(k-1) * discrete integral of the product."""
    discrete_product = _discrete_product_family(k)
    return lambda *args: discrete_product(*args) * QPoly.monomial(k - 1)


def plane_q_expansion(order: int, *, unsafe_large: bool = False) -> TreeExpansion:
    """Expand x = 1 + sum_{n>=2} q^(n-1) F_n(x..x) over plane trees.

    A tree with n+1 leaves contributes q^n times its binomial-basis term,
    so the expansion to `order` covers words of length up to `order`
    exactly.  unsafe_large passes the plane_trees guard.
    """
    one = BinomialPoly({0: QPoly.one()})
    return fixed_point_plane(plane_q_family, order, one, unsafe_large=unsafe_large)
