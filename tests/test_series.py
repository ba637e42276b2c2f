import hashlib
import json
from fractions import Fraction
from math import factorial, prod
from operator import add, attrgetter, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from treecalc.arith import (
    AlphaPoly,
    Poly,
    QPoly,
    binomial_coefficient,
    q_binomial,
    q_factorial,
    q_integer,
)
from treecalc.combinat import binary_trees, hook_data, mary_trees, plane_trees
from treecalc.errors import ValuationViolation
from treecalc.series import (
    BinomialPoly,
    QDividedSeries,
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
    q_integrate,
    substitute_qt,
)

from references import (
    binomial_to_monomial,
    derivative,
    expansion_to_json,
    finite_difference,
    listing_expand,
    monomial_to_binomial,
    q_derivative,
    series_mul_loop,
)


def series(*coeffs) -> TruncatedSeries:
    return TruncatedSeries([Fraction(c) for c in coeffs])


def inverse_linear(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    return integrate(x * y)


# ---------------------------------------------------------------------------
# series basics
# ---------------------------------------------------------------------------


def test_series_equality_is_order_strict():
    assert series(1, 1) == series(1, 1)
    assert series(1, 1) != series(1, 1, 0)
    assert series(1, 1).with_order(2) == series(1, 1, 0)
    assert series(1, 2, 3).truncated(1) == series(1, 2)


def test_series_arithmetic():
    f = series(1, 2, 3)
    g = series(0, 1, 0)
    assert f + g == series(1, 3, 3)
    assert f * g == series(0, 1, 2)
    assert f.times_t() == series(0, 1, 2)
    assert (f - f) == series(0, 0, 0)
    assert f * Fraction(1, 2) == series(Fraction(1, 2), 1, Fraction(3, 2))
    assert f.valuation() == 0
    assert g.valuation() == 1
    assert series(0, 0).valuation() is None


series_scalars = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)
poly_lists = st.lists(series_scalars, max_size=3)
SERIES_RINGS = {
    # every nonzero coefficient a Fraction, int 0 padding included: the
    # integer convolution unless an operand has one term
    "fractions": series_scalars.map(lambda c: c if type(c) is int and not c else Fraction(c)),
    "ints and fractions": series_scalars,
    "QPoly": st.one_of(st.just(0), poly_lists.map(QPoly)),
    "AlphaPoly": st.one_of(st.just(0), poly_lists.map(AlphaPoly)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_series_product_matches_the_pairwise_loop(data):
    # the integer convolution against the loop it replaced, slot by slot in
    # value and type, on operands of two orders (the product truncates to
    # the smaller): a slot no pair reached stays the int 0 and a slot whose
    # pairs cancel is Fraction(0), which _expand's interning by repr tells apart
    ring = SERIES_RINGS[data.draw(st.sampled_from(sorted(SERIES_RINGS)))]
    operands = []
    for _ in range(2):
        order = data.draw(st.integers(min_value=0, max_value=8))
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(ring, min_size=order + 1, max_size=order + 1))
        else:  # one term or none
            coeffs = [0] * (order + 1)
            coeffs[data.draw(st.integers(min_value=0, max_value=order))] = data.draw(ring)
        operands.append(TruncatedSeries(coeffs))
    x, y = operands
    for left, right in ((x, y), (y, x), (x, x)):
        got, want = left * right, series_mul_loop(left, right)
        assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]


def test_a_rational_product_keeps_each_slot_type():
    x = TruncatedSeries([Fraction(1), 0, Fraction(2), 0])
    y = TruncatedSeries([Fraction(1), Fraction(0), Fraction(-2), Fraction(3), Fraction(5)])
    # slot 1: no pair; slot 2: 1·(-2) + 2·1 cancels; the top of y is truncated
    assert (x * y).coeffs == (Fraction(1), 0, Fraction(0), Fraction(3))
    assert [type(c) for c in (x * y).coeffs] == [Fraction, int, Fraction, Fraction]
    assert [repr(c) for c in (y * x).coeffs] == [repr(c) for c in (x * y).coeffs]


def test_picard_at_order_sixty_is_eisenstein():
    from treecalc.identities import eisenstein_coefficients, postnikov_operator
    one = TruncatedSeries.constant(Fraction(1), 60)
    solution = picard_binary(postnikov_operator, one, 60)
    assert solution == eisenstein_coefficients(60)
    assert {type(c) for c in solution.coeffs} == {Fraction}


NEGATIVE_INDEX_CALLS = {
    "monomial": lambda: TruncatedSeries.monomial(-1, 3),
    "coefficient": lambda: TruncatedSeries([1, 2, 3]).coefficient(-1),
    "truncated": lambda: TruncatedSeries([1, 2, 3]).truncated(-2),
    "with_order": lambda: TruncatedSeries([1, 2, 3]).with_order(-2),
    "constant": lambda: TruncatedSeries.constant(1, -1),
    "picard_binary": lambda: picard_binary(inverse_linear, series(1, 0, 0), -2),
    "q-divided coefficient": lambda: QDividedSeries([1, 2, 3]).coefficient(-1),
    "q-divided with_order": lambda: QDividedSeries([1, 2, 3]).with_order(-2),
    "q-divided constant": lambda: QDividedSeries.constant(1, -1),
    "negative power": lambda: TruncatedSeries([1, 2, 3]) ** -1,
    "binomial basis index": lambda: BinomialPoly({-1: 1}),
    "poly monomial": lambda: Poly.monomial(-1),
    "poly negative power": lambda: QPoly((1,)) ** -1,
    "q_integer": lambda: q_integer(-1),
    "q_factorial": lambda: q_factorial(-1),
    "q_binomial": lambda: q_binomial(-1, 0),
    "binomial_coefficient": lambda: binomial_coefficient(2, -1),
    "binary_trees": lambda: binary_trees(-1),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_INDEX_CALLS))
def test_a_negative_index_or_order_raises(name):
    # each would read from the far end: monomial(-1, 3) was t^3, and
    # truncated(-2) an order-1 series
    with pytest.raises(ValueError):
        NEGATIVE_INDEX_CALLS[name]()


MALFORMED_SERIES_CALLS = {
    "no constant term": lambda: TruncatedSeries([]),
    "truncate upward": lambda: TruncatedSeries([1, 2, 3]).truncated(3),  # known to order 2
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SERIES_CALLS))
def test_a_malformed_series_call_raises(name):
    with pytest.raises(ValueError):
        MALFORMED_SERIES_CALLS[name]()


def test_the_two_bases_do_not_mix():
    # as Poly._coerce has it for QPoly and AlphaPoly; a sum, difference or
    # product of the two bases was a TruncatedSeries of QDividedSeries
    t, q = TruncatedSeries([1, 2]), QDividedSeries([1, 2])
    for combine in (add, sub, mul):
        for left, right in ((t, q), (q, t)):
            with pytest.raises(TypeError):
                combine(left, right)
    assert not t == q and not q == t


def test_q_divided_series_has_the_container_operations():
    assert not QDividedSeries([0, 0])
    assert QDividedSeries([0, QPoly((0, 1))])
    assert QDividedSeries([0, 0, 1]).valuation() == 2
    x = QDividedSeries([3, QPoly((1, 1)), Fraction(1, 2)])
    assert 1 - x == -(x - 1)
    assert 2 * x == x * 2 == x + x


def test_one_container_holds_the_shared_operations():
    # bench/tracing.py wraps TruncatedSeries.__mul__ through the class
    # __dict__, which lacks an inherited method
    assert "__mul__" in TruncatedSeries.__dict__
    shared = {"constant", "order", "coefficient", "valuation", "truncated", "with_order",
              "__bool__", "__eq__", "__add__", "__neg__", "__sub__", "__rsub__",
              "map_coefficients", "to_json", "__repr__"}
    for cls in (TruncatedSeries, QDividedSeries):
        assert not shared & set(cls.__dict__)


# ---------------------------------------------------------------------------
# the integral operators
# ---------------------------------------------------------------------------


def test_integrate_examples():
    assert integrate(series(1, 0, 0)) == series(0, 1, 0)
    assert integrate(series(0, 1, 0)) == series(0, 0, Fraction(1, 2))


def test_integrate_nested_tree_values():
    # evaluating the worked 3-node expression: a node integrates the
    # product of its children, leaves are 1
    one = TruncatedSeries.constant(Fraction(1), 4)
    t = integrate(one * one)
    t2_half = integrate(one * t)
    root = integrate(t * t2_half)
    assert t == series(0, 1, 0, 0, 0)
    assert t2_half == series(0, 0, Fraction(1, 2), 0, 0)
    assert root == series(0, 0, 0, 0, Fraction(1, 8))


def test_q_integrate_examples():
    # numerators of t^n / [n]_q!: the q-integral moves each up one slot
    f = q_integrate(QDividedSeries([1, 0, 0]))
    assert f == QDividedSeries([0, 1, 0])
    g = q_integrate(QDividedSeries([0, 1, 0]))  # t^2 / [2]_q
    assert g.coefficient(2) == 1


def test_q_derivative_examples():
    f = QDividedSeries([0, 0, QPoly((1, 1))])  # t^2 = [2]_q! t^2 / [2]_q!
    assert q_derivative(f) == QDividedSeries([0, QPoly((1, 1))])  # [2]_q t
    assert q_derivative(QDividedSeries([5])) == QDividedSeries([0])


def test_q_derivative_at_one_is_derivative():
    X = QDividedSeries([3, 1, QPoly((4, 1)), 1, 5, QPoly((0, 9)), 2, 6, 5, 3, 5])
    assert q_derivative(X).evaluate(1) == derivative(X.evaluate(1))


def test_substitute_qt():
    f = QDividedSeries([1, 1, 1])
    g = substitute_qt(f)
    assert g.coefficient(0) == 1
    assert g.coefficient(1) == QPoly.gen()
    assert g.coefficient(2) == QPoly.monomial(2)


def test_q_functional_equation():
    # x = 1 + B_q(x, x) with B_q(f, g) = q-integral of f(s) g(qs); the
    # solution's numerators are [n]_q!, so it projects to sum t^n, and
    # D_q x = x(t) x(qt)
    order = 10

    def b_q(f, g):
        return q_integrate(f * substitute_qt(g))

    one = QDividedSeries.constant(1, order)
    x = picard_binary(b_q, one, order)
    assert x == QDividedSeries([q_factorial(n) for n in range(order + 1)])
    assert x.evaluate(2) == TruncatedSeries([1] * (order + 1))
    lhs = q_derivative(x)
    rhs = (x * substitute_qt(x)).with_order(order - 1)
    assert lhs == rhs


q_numerators = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(QPoly),
)


@st.composite
def q_divided_pairs(draw):
    def one_series():
        order = draw(st.integers(min_value=0, max_value=5))
        return QDividedSeries(draw(st.lists(q_numerators, min_size=order + 1, max_size=order + 1)))

    return one_series(), one_series(), draw(q_numerators)


@settings(max_examples=100, deadline=None)
@given(q_divided_pairs())
def test_q_divided_series_evaluates_as_a_ring_homomorphism(case):
    x, y, scalar = case
    for q in (2, 3):
        at = lambda s: s.evaluate(q)
        c = scalar.evaluate(q) if isinstance(scalar, QPoly) else scalar
        assert at(x + y) == at(x) + at(y)
        assert at(x - y) == at(x) - at(y)
        assert at(x * y) == at(x) * at(y)
        assert at(x * scalar) == at(x) * c == at(scalar * x)
    with pytest.raises(TypeError):
        QDividedSeries(list(x.coeffs) + [0.5])
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        x.evaluate(0.5)


# ---------------------------------------------------------------------------
# binomial basis and the discrete calculus
# ---------------------------------------------------------------------------


def test_monomial_to_binomial_examples():
    assert monomial_to_binomial([0, 1]) == BinomialPoly({1: 1})
    assert monomial_to_binomial([0, 0, 1]) == BinomialPoly({1: 1, 2: 2})
    assert monomial_to_binomial([0, 0, 0, 1]) == BinomialPoly({1: 1, 2: 6, 3: 6})


def test_basis_conversion_round_trip():
    for degree in range(13):
        coeffs = [Fraction(i * i - 3 * i + 1, 2) for i in range(degree + 1)]
        if not any(coeffs):
            coeffs[-1] = Fraction(1)
        assert binomial_to_monomial(monomial_to_binomial(coeffs)) == coeffs


def test_discrete_sum_examples():
    cubes = monomial_to_binomial([0, 0, 0, 1])
    assert discrete_sum(cubes) == BinomialPoly({2: 1, 3: 6, 4: 6})
    assert discrete_sum(BinomialPoly({0: 1})) == BinomialPoly({1: 1})
    assert finite_difference(BinomialPoly({2: 1})) == BinomialPoly({1: 1})


def test_discrete_sum_against_definition():
    # the defining property: (sum_0^t f)(t) = f(0) + ... + f(t-1)
    polys = [
        BinomialPoly({0: 1}),
        monomial_to_binomial([0, 0, 0, 1]),
        BinomialPoly({1: Fraction(1, 2), 3: 2}),
    ]
    for p in polys:
        summed = discrete_sum(p)
        for t in range(9):
            expected = sum((p.evaluate(i) for i in range(t)), Fraction(0))
            assert summed.evaluate(t) == expected


def test_difference_inverts_sum():
    for degree in range(11):
        p = monomial_to_binomial([Fraction(1)] * (degree + 1))
        assert finite_difference(discrete_sum(p)) == p


def test_binomial_poly_product_is_exact():
    a = BinomialPoly({1: 1})
    b = BinomialPoly({2: 1})
    assert a * b == BinomialPoly({2: 2, 3: 3})
    for t in range(7):
        assert (a * b).evaluate(t) == a.evaluate(t) * b.evaluate(t)


def test_binomial_poly_evaluate_rejects_float_point():
    p = BinomialPoly({1: 1})
    with pytest.raises(TypeError):
        p.evaluate(0.1)
    assert p.evaluate(Fraction(1, 10)) == Fraction(1, 10)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedSeries.constant(0.5, 2),
        lambda: TruncatedSeries.monomial(1, 2, 0.5),
        lambda: TruncatedSeries([1]) * 0.5,
        lambda: 0.5 * TruncatedSeries([1]),
        lambda: TruncatedSeries([1]) + 0.5,
        lambda: BinomialPoly({0: 0.5}),
        lambda: BinomialPoly({0: 1}) * 0.5,
        lambda: 0.5 * BinomialPoly({0: 1}),
        lambda: TruncatedSeries([0.5]),
        lambda: TruncatedSeries([1, 0.5]) + TruncatedSeries([1, 1]),
        lambda: TruncatedSeries([1, 2j]),
        lambda: TruncatedSeries([2, 1]).map_coefficients(lambda c: c / 2),
    ],
    ids=[
        "series constant", "series monomial", "series times float", "float times series",
        "series plus float", "binomial poly", "binomial poly times float",
        "float times binomial poly", "series constructor", "sum of a float series",
        "complex series coefficient", "series mapped to floats",
    ],
)
def test_a_float_gets_into_no_series(build):
    with pytest.raises(TypeError):
        build()


# ---------------------------------------------------------------------------
# exponential and binomial series
# ---------------------------------------------------------------------------


def test_exp_series_examples():
    zero = TruncatedSeries.constant(Fraction(0), 5)
    assert exp_series(zero) == TruncatedSeries.constant(Fraction(1), 5)
    t = TruncatedSeries.monomial(1, 6, Fraction(1))
    e = exp_series(t)
    for n in range(7):
        assert e.coefficient(n) == Fraction(1, factorial(n))
    with pytest.raises(ValueError):
        exp_series(TruncatedSeries.constant(Fraction(1), 3))


def test_eisenstein_residual():
    # g(t) = sum (n+1)^(n-1) t^n/n! satisfies g = exp(t g); the
    # coefficients 1, 1, 3, 16, 125, 1296, ... are computed directly
    order = 7
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(Fraction((n + 1) ** (n - 1), factorial(n)))
    g = TruncatedSeries(coeffs)
    assert coeffs[2] == Fraction(3, 2)
    assert coeffs[4] == Fraction(125, 24)
    assert g == exp_series(g.times_t())


def test_binomial_series_examples():
    alpha = AlphaPoly.gen()
    t = TruncatedSeries.monomial(1, 2, 1)
    expansion = binomial_series(alpha, t)
    assert expansion.coefficient(0) == AlphaPoly.one()
    assert expansion.coefficient(1) == alpha
    assert expansion.coefficient(2) == AlphaPoly(
        (0, Fraction(-1, 2), Fraction(1, 2))
    )
    with pytest.raises(ValueError):
        binomial_series(alpha, TruncatedSeries.constant(1, 2))


def test_binomial_series_rational_exponent():
    # (1+t)^(1/2) * (1+t)^(1/2) = 1 + t
    t = TruncatedSeries.monomial(1, 8, Fraction(1))
    root = binomial_series(Fraction(1, 2), t)
    assert (root * root) == (1 + t)


# ---------------------------------------------------------------------------
# the fixed-point engines
# ---------------------------------------------------------------------------


def test_fixed_point_binary_inverse_linear():
    order = 6
    one = TruncatedSeries.constant(Fraction(1), order)
    expansion = fixed_point_binary(inverse_linear, one, order)
    assert expansion.total == TruncatedSeries([Fraction(1)] * (order + 1))
    # each per-tree term is (fiber size) t^n / n!
    from treecalc.identities import hook_count

    for tree, term in expansion.terms:
        n = tree.node_count
        if n == 0:
            assert term == one
        else:
            expected = TruncatedSeries.monomial(
                n, order, hook_count(tree) / factorial(n)
            )
            assert term == expected


def test_fixed_point_binary_order_zero():
    a = TruncatedSeries.constant(Fraction(1), 0)
    expansion = fixed_point_binary(inverse_linear, a, 0)
    assert expansion.total == a
    assert len(expansion.terms) == 1


def test_tree_terms_raise_valuation_with_node_count():
    from treecalc.identities import postnikov_operator

    order = 6
    one = TruncatedSeries.constant(Fraction(1), order)
    for operator in (inverse_linear, postnikov_operator):
        expansion = fixed_point_binary(operator, one, order)
        for tree, term in expansion.terms:
            val = term.valuation()
            assert val is None or val >= tree.node_count


def test_fixed_point_binary_matches_picard():
    order = 8
    one = TruncatedSeries.constant(Fraction(1), order)
    expansion = fixed_point_binary(inverse_linear, one, order)
    assert expansion.total == picard_binary(inverse_linear, one, order)


def test_fixed_point_valuation_probe():
    bad = lambda x, y: x * y  # valuation i+j, not raised
    one = TruncatedSeries.constant(Fraction(1), 4)
    with pytest.raises(ValuationViolation):
        fixed_point_binary(bad, one, 4)


def test_fixed_point_mary_matches_binary_at_m_one():
    from treecalc.identities import postnikov_operator

    order = 6
    one = TruncatedSeries.constant(Fraction(1), order)
    binary = fixed_point_binary(postnikov_operator, one, order)
    mary = fixed_point_mary(lambda x, y: postnikov_operator(x, y), 1, order)
    assert mary.total == binary.total
    assert mary.total == picard_mary(
        lambda x, y: postnikov_operator(x, y), 1, order
    )


def test_fixed_point_mary_du_liu_per_tree():
    # per-tree closed form: prod over nodes of
    # ((m h + 1) alpha + 1 - h) / ((m+1) h) times t^n, at m = 2
    from treecalc.identities import duliu_node_factor, lagrange_operator

    m, order = 2, 4
    expansion = fixed_point_mary(lagrange_operator(m), m, order)
    count = 0
    for tree, term in expansion.terms:
        n = tree.node_count
        if n == 0:
            continue
        closed = AlphaPoly.one()
        for h in hook_data(tree).hooks:
            closed = closed * duliu_node_factor("las3", m, h)
        assert term == TruncatedSeries.monomial(n, order, closed)
        count += 1
    assert count == sum(1 for n in range(1, order + 1) for _ in mary_trees(m, n))


def test_fixed_point_plane_probe():
    bad_family = lambda k: (lambda *args: args[0])
    one = BinomialPoly({0: Fraction(1)})
    with pytest.raises(ValuationViolation):
        from treecalc.series import fixed_point_plane

        fixed_point_plane(bad_family, 3, one)


def test_evaluate_plane_tree_discrete_example():
    # the three-child tree over two 2-leaf and one 3-leaf subtrees gives
    # the discrete integral of s^3
    from treecalc.combinat import PlaneTree
    from treecalc.identities import _discrete_product_family

    tree = PlaneTree.from_text("((**)(**)(***))")
    value = evaluate_plane_tree(
        tree, _discrete_product_family, BinomialPoly.one()
    )
    assert value == BinomialPoly({2: 1, 3: 6, 4: 6})


def test_expansion_terms_sorted_and_json():
    order = 3
    one = TruncatedSeries.constant(Fraction(1), order)
    expansion = fixed_point_binary(inverse_linear, one, order)
    keys = [(t.node_count, t.text) for t, _ in expansion.terms]
    assert keys == sorted(keys)
    dump = expansion_to_json(expansion)
    assert dump[0]["tree"] == "_"
    assert dump[0]["term"] == ["1", "0", "0", "0"]


# ---------------------------------------------------------------------------
# the zero-skipping kernel against dense references
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
RINGS = {
    "int": st.integers(min_value=-9, max_value=9),
    "Fraction": small_fractions,
    "QPoly": st.lists(small_fractions, max_size=3).map(QPoly),
    "AlphaPoly": st.lists(small_fractions, max_size=3).map(AlphaPoly),
}
# explicit zeros of each ring, beside the plain int 0 of the padding
ZEROS = {"int": 0, "Fraction": Fraction(0), "QPoly": QPoly(), "AlphaPoly": AlphaPoly()}


@st.composite
def series_pairs(draw):
    ring = draw(st.sampled_from(sorted(RINGS)))
    slot = st.one_of(st.just(0), st.just(ZEROS[ring]), RINGS[ring])

    def one_series():
        order = draw(st.integers(min_value=0, max_value=5))
        return TruncatedSeries(draw(st.lists(slot, min_size=order + 1, max_size=order + 1)))

    return one_series(), one_series(), draw(RINGS[ring])


def dense_add(x, y):
    n = min(x.order, y.order)
    return TruncatedSeries([x.coeffs[i] + y.coeffs[i] for i in range(n + 1)])


def dense_sub(x, y):
    n = min(x.order, y.order)
    return TruncatedSeries([x.coeffs[i] - y.coeffs[i] for i in range(n + 1)])


def dense_mul(x, y):
    # a product with a zero factor is zero in every ring and is left out,
    # as the kernel leaves it out
    n = min(x.order, y.order)
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if x.coeffs[i] and y.coeffs[j]:
                out[i + j] = out[i + j] + x.coeffs[i] * y.coeffs[j]
    return TruncatedSeries(out)


def dense_integrate(x):
    return TruncatedSeries(
        [0] + [x.coeffs[n] * Fraction(1, n + 1) for n in range(x.order)]
    )


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_kernel_matches_dense_reference(case):
    x, y, scalar = case
    assert_same(x + y, dense_add(x, y))
    assert_same(x - y, dense_sub(x, y))
    assert_same(x * y, dense_mul(x, y))
    assert_same(x * scalar, TruncatedSeries([c * scalar for c in x.coeffs]))
    assert_same(scalar * x, TruncatedSeries([scalar * c for c in x.coeffs]))
    assert_same(integrate(x), dense_integrate(x))


# ---------------------------------------------------------------------------
# graded Picard passes and one-pass operators against their references
# ---------------------------------------------------------------------------


def full_order_picard(op, arity, a, order):
    """Picard iteration with every pass at the full order: x = a, then
    order+1 passes of x = a + op(x, ..., x); the reference for the graded
    solver."""
    a = a.with_order(order)
    x = a
    for _ in range(order + 1):
        x = a + op(*[x] * arity)
    return x


def unfolded_postnikov(x, y):
    xy = x * y
    return (xy.times_t() + integrate(xy)) * Fraction(1, 2)


def unfolded_lagrange(m):
    c_algebraic = AlphaPoly((-1, m)) / (m + 1)
    c_integral = AlphaPoly((1, 1)) / (m + 1)

    def operator(*args):
        product = prod(args[1:], start=args[0])
        return product.times_t() * c_algebraic + integrate(product) * c_integral

    return operator


@pytest.mark.parametrize("case", ["postnikov", "inverse-linear"])
def test_graded_picard_binary_matches_full_order_reference(case):
    from treecalc.identities import postnikov_operator

    op = postnikov_operator if case == "postnikov" else inverse_linear
    for order in range(21):
        one = TruncatedSeries.constant(Fraction(1), order)
        want = full_order_picard(op, 2, one, order)
        assert repr(picard_binary(op, one, order)) == repr(want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graded_picard_mary_matches_full_order_reference(m):
    from treecalc.identities import lagrange_operator

    op = lagrange_operator(m)
    for order in range(9):
        one = TruncatedSeries.constant(Fraction(1), order)
        assert repr(picard_mary(op, m, order)) == repr(full_order_picard(op, m + 1, one, order))


@pytest.mark.parametrize("solver", ["binary", "mary"])
def test_picard_pass_k_runs_at_order_k(solver):
    from treecalc.identities import postnikov_operator

    order, orders = 7, []

    def recorded(x, y):
        assert x.order == y.order
        orders.append(x.order)
        return postnikov_operator(x, y)

    if solver == "binary":
        picard_binary(recorded, TruncatedSeries.constant(Fraction(1), order), order)
    else:
        picard_mary(recorded, 1, order)
    assert orders == list(range(1, order + 1))


# Exact series whose products cancel to a ring's own zero at t^1 (a
# Fraction(0) and a zero AlphaPoly); both operators leave the int 0 there.
CANCELLING = [
    TruncatedSeries([Fraction(1), Fraction(1), Fraction(0), Fraction(1, 3), 0, 2]),
    TruncatedSeries([Fraction(1), Fraction(-1), Fraction(2), 0, Fraction(0), Fraction(5, 2)]),
    TruncatedSeries([AlphaPoly((1, 1)), AlphaPoly((1, 1)), AlphaPoly(), 0, Fraction(3), 1]),
    TruncatedSeries([AlphaPoly((1, 1)), AlphaPoly((-1, -1)), Fraction(1, 2), AlphaPoly((0, 2)), 0, 1]),
]


def test_postnikov_operator_matches_its_unfolded_form():
    from treecalc.identities import postnikov_operator

    for x in CANCELLING:
        for y in CANCELLING:
            assert repr(postnikov_operator(x, y)) == repr(unfolded_postnikov(x, y))
    for x, y in (CANCELLING[:2], CANCELLING[2:]):
        assert not (x * y).coeffs[1] and type((x * y).coeffs[1]) is not int
        assert type(postnikov_operator(x, y).coeffs[2]) is int


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lagrange_operator_matches_its_unfolded_form(m):
    from treecalc.identities import lagrange_operator

    op, unfolded = lagrange_operator(m), unfolded_lagrange(m)
    for x in CANCELLING:
        for y in CANCELLING:
            for args in ([x] * m + [y], [y, x] + [x] * (m - 1)):
                assert repr(op(*args)) == repr(unfolded(*args))
    # the last factor of the product meets y, so its t^1 slot is the zero
    ones = [TruncatedSeries.constant(Fraction(1), 5)] * (m - 1)
    for x, y in (CANCELLING[:2], CANCELLING[2:]):
        assert type(op(*ones, x, y).coeffs[2]) is int


# ---------------------------------------------------------------------------
# the one tree engine
# ---------------------------------------------------------------------------


def recursive_terms(op, arity, order):
    """Per-tree terms evaluated by recursion over each tree, as a reference
    for the cached engine."""
    a = TruncatedSeries.constant(Fraction(1), order)

    def evaluate(tree):
        if tree.is_empty:
            return a
        return op(*[evaluate(child) for child in tree.children])

    return [(tree, evaluate(tree)) for n in range(order + 1) for tree in mary_trees(arity, n)]


# SHA-256 of json.dumps(expansion_to_json(expansion)) for the Lagrange operator,
# recorded from the per-tree engines that preceded the shared one
MARY_TERMS_SHA256 = {
    (1, 6): "11f28d3da94441b25d1d6af6ba8c69a9121a6089e9fb6a984d4268af2d6e6b2f",
    (2, 5): "a1dee9dbd273bc46d00c765941d1b6cdfc48885125cecff9af6f1b9421773c64",
    (3, 4): "716785adf672c0397ec45e42bf6200c5a5fe98b26dabb1bbb2700a940aaf9853",
}


@pytest.mark.parametrize("m, order", list(MARY_TERMS_SHA256))
def test_tree_engine_terms_are_unchanged(m, order):
    from treecalc.identities import lagrange_operator

    operator = lagrange_operator(m)
    expansion = fixed_point_mary(operator, m, order)
    dump = json.dumps(expansion_to_json(expansion)).encode()
    assert hashlib.sha256(dump).hexdigest() == MARY_TERMS_SHA256[m, order]
    assert list(expansion.terms) == recursive_terms(operator, m, order)
    total = TruncatedSeries.constant(0, order)
    for _, term in expansion.terms:
        total = total + term
    assert expansion.total == total
    assert str(expansion.total) == str(picard_mary(operator, m, order))


def test_evaluate_plane_tree_meets_no_recursion_limit():
    from treecalc.combinat import PlaneTree

    # a family that writes its arguments out in order rebuilds the text
    spell = lambda k: lambda *xs: "(" + "".join(xs) + ")"
    for text in ("(*(**)(*(***)*))", "((**)*)"):
        assert evaluate_plane_tree(PlaneTree.from_text(text), spell, "*") == text
    tree = PlaneTree()
    for _ in range(2000):
        tree = PlaneTree([PlaneTree(), tree, PlaneTree(), PlaneTree()])
    assert evaluate_plane_tree(tree, spell, "*") == tree.text


# ---------------------------------------------------------------------------
# the engine's memo: one operator call per distinct child-term tuple
# ---------------------------------------------------------------------------


def binary_children(tree):
    return () if tree.is_empty else (tree.left, tree.right)


def per_tree_reference(op, a, order, trees, children):
    """The engine without its memo: op once per tree, terms cached by
    tree, the total summed tree by tree.  Returns the (tree, term) list,
    the total and the cache."""
    cache, terms, total = {}, [], None
    for n in range(order + 1):
        for tree in trees(n):
            kids = children(tree)
            term = op(*[cache[kid] for kid in kids]) if kids else a
            cache[tree] = term
            terms.append((tree, term))
            total = term if total is None else total + term
    return terms, total, cache


def printed_terms(pairs):
    return [(tree.text, str(term), repr(term)) for tree, term in pairs]


def test_operator_runs_once_per_child_term_tuple():
    from treecalc.identities import postnikov_operator

    calls = []

    def counted(x, y):
        calls.append(None)
        return postnikov_operator(x, y)

    order = 9
    one = TruncatedSeries.constant(Fraction(1), order)
    expansion = fixed_point_binary(counted, one, order)
    terms, _, cache = per_tree_reference(
        postnikov_operator, one, order, binary_trees, binary_children
    )
    tuples = {(repr(cache[t.left]), repr(cache[t.right])) for t, _ in terms if t.node_count}
    # every tree is still listed, but op runs once per distinct tuple of its
    # children's terms, besides the three valuation probes and the residual
    assert len(expansion.terms) == len(terms) == 6918
    assert len(calls) == len(tuples) + 3 + 1 < 400


@pytest.mark.parametrize("case, order", [
    ("inverse-linear", 8), ("postnikov", 7), ("m=1", 7), ("m=2", 5), ("m=3", 4), ("plane-q", 4),
])
def test_memoized_engine_matches_per_tree_reference(case, order):
    from treecalc.identities import (
        lagrange_operator,
        plane_q_expansion,
        plane_q_family,
        postnikov_operator,
    )

    one = TruncatedSeries.constant(Fraction(1), order)
    if case == "plane-q":
        expansion = plane_q_expansion(order)
        apply = lambda *xs: plane_q_family(len(xs))(*xs)
        reference = (apply, BinomialPoly({0: QPoly.one()}), order, plane_trees, attrgetter("children"))
    elif case.startswith("m="):
        m = int(case[2:])
        op = lagrange_operator(m)
        expansion = fixed_point_mary(op, m, order)
        reference = (op, one, order, lambda n: mary_trees(m, n), attrgetter("children"))
    else:
        op = inverse_linear if case == "inverse-linear" else postnikov_operator
        expansion = fixed_point_binary(op, one, order)
        reference = (op, one, order, binary_trees, binary_children)
    terms, total, _ = per_tree_reference(*reference)
    assert printed_terms(expansion.terms) == printed_terms(terms)
    assert str(expansion.total) == str(total)
    assert repr(expansion.total) == repr(total)


class Marked(Fraction):
    """A rational that prints with a mark and marks every sum or product
    it enters: its zero is falsy and equals 0 like the int 0, but unlike
    the int 0 it is not handed over by +."""

    def __add__(self, other):
        return Marked(Fraction(self) + other)

    def __mul__(self, other):
        return Marked(Fraction(self) * other)

    __radd__, __rmul__ = __add__, __mul__

    def __str__(self):
        return f"{Fraction.__str__(self)}'"

    def __repr__(self):
        return f"Marked({self})"


def test_memo_keeps_apart_terms_that_print_alike():
    # P and R compare equal and print alike, but P's zero is a Marked 0:
    # P + t prints (1')*t^1 where R + t prints (1)*t^1.  A memo keyed by
    # str or == would hand R's sums to P's parents.
    a = TruncatedSeries([0, 1])
    P = TruncatedSeries([1, Marked(0)])
    R = TruncatedSeries([1, 0])
    assert P == R and str(P) == str(R) and str(P + a) != str(R + a)

    def family(k):
        def op(*xs):
            if all(x == a for x in xs):  # a node whose children are leaves
                return P if k == 3 else R
            return sum(xs[1:], xs[0])
        return op

    order = 3
    expansion = fixed_point_plane(family, order, a)
    apply = lambda *xs: family(len(xs))(*xs)
    terms, total, _ = per_tree_reference(apply, a, order, plane_trees, attrgetter("children"))
    assert printed_terms(expansion.terms) == printed_terms(terms)
    assert "((***)*): 1 + (1')*t^1 + O(t^2)" in [
        f"{tree.text}: {term}" for tree, term in expansion.terms
    ]
    assert str(expansion.total) == str(total)


# ---------------------------------------------------------------------------
# the engine counts shapes by term class; the listing engine is the reference
# ---------------------------------------------------------------------------


def _engine_case(case, order):
    """The arguments of series._expand for one family at one order, op
    counting its calls in calls."""
    from treecalc.cli import _inverse_linear_operator
    from treecalc.identities import lagrange_operator, plane_q_family, postnikov_operator

    calls = []

    def counted(op):
        def call(*xs):
            calls.append(None)
            return op(*xs)
        return call

    one = TruncatedSeries.constant(Fraction(1), order)
    if case == "plane-q":
        apply = counted(lambda *xs: plane_q_family(len(xs))(*xs))
        args = (apply, BinomialPoly({0: QPoly.one()}), order, plane_trees, attrgetter("children"))
    elif case.startswith("lagrange"):  # expand duliu --m 2 is lagrange m=2
        m = int(case[-1])
        op = counted(lagrange_operator(m))
        args = (op, one, order, lambda n: mary_trees(m, n), attrgetter("children"), m + 1, "m-ary")
    else:
        op = postnikov_operator if case == "postnikov" else _inverse_linear_operator
        args = (counted(op), one, order, binary_trees, binary_children, 2, "binary")
    return args, calls


# The Lagrange tree orders the identity check once capped the expansion at.
MARY_ORDERS = {1: 8, 2: 6, 3: 5}

ENGINE_CASES = (
    [(case, order) for case in ("postnikov", "inverse-linear") for order in range(11)]
    + [(f"lagrange m={m}", order) for m in (1, 2, 3)
       for order in range(MARY_ORDERS[m] + 1)]
    + [("plane-q", order) for order in range(7)]
)


@pytest.mark.parametrize("case, order", ENGINE_CASES)
def test_counting_engine_matches_listing_reference(case, order):
    from treecalc.series import _expand

    args, calls = _engine_case(case, order)
    want = listing_expand(*args)
    reference_calls = len(calls)
    calls.clear()
    got = _expand(*args)
    assert len(calls) == reference_calls  # one op call per distinct child-term tuple
    assert len(got.terms) == len(want.terms)
    assert repr(got.total) == repr(want.total)
    calls.clear()
    listed = [(tree.text, repr(term)) for tree, term in got.terms]
    assert not calls  # the listing looks every term up and never calls op
    assert listed == [(tree.text, repr(term)) for tree, term in want.terms]


# ---------------------------------------------------------------------------
# the engine's hook classes group the listing by (term, hook multiset)
# ---------------------------------------------------------------------------

HOOK_CLASS_CASES = (
    [(case, order) for case in ("postnikov", "inverse-linear") for order in range(9)]
    + [(f"lagrange m={m}", order) for m in (1, 2, 3)
       for order in range(MARY_ORDERS[m] + 1)]
)


@pytest.mark.parametrize("case, order", HOOK_CLASS_CASES)
def test_hook_classes_group_the_listing_reference(case, order):
    from treecalc.series import TreeExpansion, _expand

    args, calls = _engine_case(case, order)
    want = listing_expand(*args)
    reference_calls = len(calls)
    calls.clear()
    got = _expand(*args)
    assert len(calls) == reference_calls  # the table adds no op call
    calls.clear()
    table = got.terms.hook_classes
    assert not calls  # reading the table never calls op
    classes = {}
    for n, level in enumerate(table):
        for (term_id, hooks), (term, same_hooks, count) in level.items():
            assert term_id == id(term) and hooks == same_hooks and len(hooks) == n
            assert (repr(term), hooks) not in classes
            classes[repr(term), hooks] = count
    grouped: dict = {}
    for tree, term in want.terms:
        key = repr(term), hook_data(tree).hooks if tree.node_count else ()
        grouped[key] = grouped.get(key, 0) + 1
    assert classes == grouped
    assert sum(classes.values()) == len(got.terms)
    assert TreeExpansion(terms=got.terms, total=None).terms.hook_classes is table


def test_an_expansion_read_only_for_its_total_builds_no_shape():
    from treecalc import combinat
    from treecalc.cli import main
    from treecalc.identities import eisenstein_check, lagrange_fixed_point_check, postnikov_operator

    combinat._shapes.cache_clear()
    one = TruncatedSeries.constant(Fraction(1), 9)
    expansion = fixed_point_binary(postnikov_operator, one, 9)
    assert len(expansion.terms) == 6918
    assert eisenstein_check(9).equal
    assert lagrange_fixed_point_check(3, 8).equal  # its per-tree check reads the hook classes
    assert expansion.terms.hook_classes[9]
    assert main(["expand", "inverse-linear", "--order", "9"]) == 0
    assert main(["expand", "plane-q", "--order", "5"]) == 0
    assert main(["expand", "duliu", "--m", "2", "--order", "5"]) == 0
    assert combinat._shapes.cache_info().currsize == 0
    assert next(iter(expansion.terms))[0].text == "_"  # a read builds the sizes it reaches
    assert combinat._shapes.cache_info().currsize == 1


def test_expansion_terms_are_walked_on_each_read(monkeypatch):
    from treecalc import series
    from treecalc.identities import postnikov_operator

    asked = []
    real = series.binary_trees
    monkeypatch.setattr(series, "binary_trees", lambda n, **kw: asked.append(n) or real(n, **kw))
    one = TruncatedSeries.constant(Fraction(1), 4)
    expansion = fixed_point_binary(postnikov_operator, one, 4)
    assert asked == [4]  # the guard call
    assert len(expansion.terms) == 1 + 1 + 2 + 5 + 14 and asked == [4]  # len lists no shape
    pairs = list(expansion.terms)
    assert len(pairs) == len(expansion.terms) and asked == [4, 0, 1, 2, 3, 4]
    assert list(expansion.terms) == pairs and asked == [4] + [0, 1, 2, 3, 4] * 2
    # the same shapes and interned terms on each walk
    assert all(s is t and x is y for (s, x), (t, y) in zip(expansion.terms, pairs))
    assert not hasattr(expansion.terms, "__getitem__")  # a walk, not a list


def test_an_expansion_above_the_guard_builds_no_shape():
    from treecalc import combinat
    from treecalc.errors import SizeGuardError

    combinat._shapes.cache_clear()
    one = TruncatedSeries.constant(Fraction(1), 15)
    with pytest.raises(SizeGuardError, match="binary_trees"):
        fixed_point_binary(inverse_linear, one, 15)
    with pytest.raises(SizeGuardError, match="plane_trees"):
        fixed_point_plane(lambda k: lambda *xs: xs[0].times_t(), 10, one)
    assert combinat._shapes.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the binomial-basis product against the monomial-basis reference
# ---------------------------------------------------------------------------


def monomial_reference_product(x, y):
    """x * y through the monomial basis: expand both, multiply, convert back."""
    a, b = binomial_to_monomial(x), binomial_to_monomial(y)
    if not a or not b:
        return BinomialPoly()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if ca and cb:
                prod[i + j] = prod[i + j] + ca * cb
    return monomial_to_binomial(prod)


@st.composite
def binomial_poly_pairs(draw):
    # small coefficients over few indices, so that terms often cancel
    ring = st.sampled_from([
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(QPoly),
    ])
    coefficient = draw(ring)
    index = st.integers(min_value=0, max_value=5)

    def one_poly():
        return BinomialPoly(draw(st.lists(st.tuples(index, coefficient), max_size=4)))

    return one_poly(), one_poly()


@settings(max_examples=300, deadline=None)
@given(binomial_poly_pairs())
def test_binomial_product_matches_monomial_reference(case):
    x, y = case
    got, want = x * y, monomial_reference_product(x, y)
    assert got == want
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()
    assert all(got.coeffs.values())


def test_binomial_product_drops_cancelled_terms():
    # C(t,1)^2 = C(t,1) + 2 C(t,2) and C(t,1) C(t,2) = 2 C(t,2) + 3 C(t,3)
    x, y = BinomialPoly({1: 1}), BinomialPoly({1: 1, 2: -1})
    assert (x * y).coeffs == {1: 1, 3: -3}
    assert x * (y - y) == BinomialPoly() and not (x * BinomialPoly()).coeffs
