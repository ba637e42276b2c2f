from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from treecalc.arith import (
    AlphaPoly,
    QPoly,
    _q_integer_product,
    binomial_coefficient,
    exact_poly_div,
    q_binomial,
    q_factorial,
    q_integer,
)
from treecalc.combinat import BinaryTree
from treecalc.errors import NonExactDivision
from treecalc.identities import hook_count, qhook_imaj

from references import poly_mul_loop

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


def test_q_integer_values():
    assert q_integer(0) == QPoly.zero()
    assert q_integer(1) == QPoly.one()
    assert q_integer(3) == QPoly((1, 1, 1))


def test_q_factorial_values():
    assert q_factorial(0) == QPoly.one()
    assert q_factorial(2) == QPoly((1, 1))
    # (1+q)(1+q+q^2), multiplied out by hand
    assert q_factorial(3) == QPoly((1, 2, 2, 1))


def test_q_factorial_matches_the_dense_product():
    dense = QPoly.one()
    for n in range(41):
        if n:
            dense = dense * q_integer(n)
        assert q_factorial(n) == dense
        assert all(type(c) is int for c in q_factorial(n).coeffs)


@pytest.mark.parametrize("factors", [(), (0,), (1, 1), (3, 0, 2), (5, 2, 2, 1), (7, 1, 4)])
def test_q_integer_product_matches_the_dense_product(factors):
    dense = QPoly.one()
    for k in factors:
        dense = dense * q_integer(k)
    assert _q_integer_product(factors) == dense


def test_q_factorial_of_a_large_n():
    # about 0.3 s by running-window sums; the dense product took about a minute
    value = q_factorial(200)
    assert value.degree == 200 * 199 // 2
    assert value.evaluate(1) == factorial(200)
    assert value.coeffs == value.coeffs[::-1]


def test_q_binomial_values():
    for n in range(6):
        assert q_binomial(n, 0) == QPoly.one()
    assert q_binomial(2, 1) == QPoly((1, 1))
    assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
    assert q_binomial(3, -1) == QPoly.zero()
    assert q_binomial(3, 4) == QPoly.zero()


def test_q_binomial_by_exact_division():
    # qbin(4,2) = [4]_q! / ([2]_q!)^2
    denominator = q_factorial(2) * q_factorial(2)
    assert exact_poly_div(q_factorial(4), denominator) == q_binomial(4, 2)


def test_q_binomial_at_one_is_binomial():
    for n in range(11):
        for k in range(n + 1):
            assert q_binomial(n, k).evaluate(Fraction(1)) == comb(n, k)


def test_q_binomial_factorial_identity():
    for n in range(11):
        for k in range(n + 1):
            product = q_binomial(n, k) * q_factorial(k) * q_factorial(n - k)
            assert product == q_factorial(n)


def test_exact_poly_div_examples():
    assert exact_poly_div(QPoly((1, 2, 1)), QPoly((1, 1))) == QPoly((1, 1))
    assert exact_poly_div(q_factorial(3), q_integer(2)) == QPoly((1, 1, 1))
    with pytest.raises(NonExactDivision):
        exact_poly_div(QPoly((1, 1)), QPoly((0, 1)))


def test_exact_poly_div_zero_numerator():
    assert exact_poly_div(QPoly.zero(), QPoly((1, 1))) == QPoly.zero()
    with pytest.raises(ZeroDivisionError):
        exact_poly_div(QPoly((1, 1)), QPoly.zero())


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    # results come out reduced
    s = a * b + c
    assert s.denominator > 0
    from math import gcd

    assert gcd(s.numerator, s.denominator) == 1


poly_coeffs = st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=20),
    min_size=0,
    max_size=9,
)


@given(poly_coeffs, poly_coeffs)
def test_exact_division_round_trip(a_coeffs, b_coeffs):
    a, b = QPoly(a_coeffs), QPoly(b_coeffs)
    if not b:
        return
    assert exact_poly_div(a * b, b) == a


def test_poly_degree_conventions():
    assert QPoly.zero().degree is None
    assert QPoly((0, 0, 1)).degree == 2
    assert QPoly((1, 0, 0)).degree == 0  # trailing zeros trimmed


def test_poly_type_mixing_rejected():
    with pytest.raises(TypeError):
        QPoly((1,)) + AlphaPoly((1,))
    with pytest.raises(TypeError):
        QPoly((1,)) * AlphaPoly((1,))
    assert not QPoly((0, 1)) == AlphaPoly((0, 1))


def test_poly_scalar_interop():
    p = QPoly((1, 2))
    assert p + 1 == QPoly((2, 2))
    assert 1 + p == QPoly((2, 2))
    assert p * Fraction(1, 2) == QPoly((Fraction(1, 2), 1))
    assert Fraction(1, 2) * p == p / 2
    assert p - p == 0


def test_poly_str_and_json():
    p = QPoly((0, 0, 1, 1, 1))
    assert str(p) == "q^2+q^3+q^4"
    assert str(AlphaPoly((0, 1))) == "α"
    assert str(QPoly.zero()) == "0"
    assert p.to_json() == ["0", "0", "1", "1", "1"]


def test_rational_serialization():
    assert str(Fraction(3, 1)) == "3"
    assert str(Fraction(-7, 2)) == "-7/2"
    assert Fraction("-7/2") == Fraction(-7, 2)


def test_generalized_binomial():
    alpha = AlphaPoly.gen()
    assert binomial_coefficient(alpha, 0) == AlphaPoly.one()
    assert binomial_coefficient(alpha, 1) == alpha
    assert binomial_coefficient(2 * alpha, 1) / 2 == alpha
    assert binomial_coefficient(Fraction(5), 2) == Fraction(10)
    two = binomial_coefficient(alpha, 2)
    assert two == AlphaPoly((0, Fraction(-1, 2), Fraction(1, 2)))


# ---------------------------------------------------------------------------
# The int-or-Fraction canonical form of coefficients.
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.booleans(),
)
scalar_lists = st.lists(scalars, min_size=0, max_size=7)
binary_tree_shapes = st.recursive(
    st.just(BinaryTree()),
    lambda children: st.builds(BinaryTree, children, children),
    max_leaves=8,
)


def _all_fraction_form(poly):
    """The same polynomial with every coefficient stored as a Fraction,
    built without the constructor that would normalise it."""
    twin = object.__new__(type(poly))
    twin.coeffs = tuple(Fraction(c) for c in poly.coeffs)
    return twin


def _fraction_coeffs(values):
    """Reference coefficients in plain Fraction arithmetic, trimmed."""
    cs = [Fraction(v) for v in values]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def assert_canonical(poly):
    for c in poly.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    assert not poly.coeffs or poly.coeffs[-1] != 0
    twin = _all_fraction_form(poly)
    assert poly == twin
    assert hash(poly) == hash(twin)
    assert str(poly) == str(twin)
    assert poly.to_json() == twin.to_json()


@given(scalar_lists, scalar_lists, scalars)
def test_ring_results_are_canonical(a_values, b_values, scalar):
    a, b = QPoly(a_values), QPoly(b_values)
    fa, fb = _fraction_coeffs(a_values), _fraction_coeffs(b_values)
    assert list(a.coeffs) == fa and list(b.coeffs) == fb
    width = max(len(fa), len(fb))
    pad_a = fa + [Fraction(0)] * (width - len(fa))
    pad_b = fb + [Fraction(0)] * (width - len(fb))
    product = [Fraction(0)] * max(len(fa) + len(fb) - 1, 0)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            product[i + j] += x * y
    expected = {
        "sum": _fraction_coeffs(x + y for x, y in zip(pad_a, pad_b)),
        "difference": _fraction_coeffs(x - y for x, y in zip(pad_a, pad_b)),
        "product": _fraction_coeffs(product),
    }
    results = {"sum": a + b, "difference": a - b, "product": a * b}
    if scalar:
        expected["quotient"] = _fraction_coeffs(x / Fraction(scalar) for x in fa)
        results["quotient"] = a / scalar
    for name, poly in results.items():
        assert list(poly.coeffs) == expected[name], name
        assert_canonical(poly)
    for poly in (a, b, a * scalar, scalar - a):
        assert_canonical(poly)
    if b:
        quotient = exact_poly_div(a * b, b)
        assert quotient == a
        assert_canonical(quotient)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=-1, max_value=13))
def test_q_binomial_is_canonical(n, k):
    value = q_binomial(n, k)
    assert all(type(c) is int for c in value.coeffs)
    assert_canonical(value)


@given(binary_tree_shapes)
def test_qhook_imaj_is_canonical(tree):
    if tree.is_empty:
        return
    value = qhook_imaj(tree)
    assert all(type(c) is int for c in value.coeffs)
    assert_canonical(value)
    assert value.evaluate(1) == hook_count(tree)
    assert type(hook_count(tree)) is Fraction


def test_exact_poly_div_non_monic():
    # (1+q)(1+2q) / (2+4q) = (1+q)/2 needs Fraction quotients
    quotient = exact_poly_div(QPoly((1, 3, 2)), QPoly((2, 4)))
    assert quotient.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in quotient.coeffs)
    # (1+q)(1+2q) / (1+2q) divides evenly and stays int
    quotient = exact_poly_div(QPoly((1, 3, 2)), QPoly((1, 2)))
    assert quotient.coeffs == (1, 1)
    assert all(type(c) is int for c in quotient.coeffs)
    with pytest.raises(NonExactDivision):
        exact_poly_div(QPoly((1, 0, 2)), QPoly((1, 2)))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        QPoly((1, 0.5))
    with pytest.raises(TypeError):
        QPoly((1, 2)) * 0.5


def test_binomial_coefficient_rejects_a_float_beta():
    with pytest.raises(TypeError):
        binomial_coefficient(0.5, 2)
    assert binomial_coefficient(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_poly_evaluate_rejects_float_point():
    with pytest.raises(TypeError):
        QPoly((1, 2)).evaluate(0.5)
    assert QPoly((1, 2)).evaluate(Fraction(1, 2)) == 2


def test_poly_truncated_refuses_a_negative_degree():
    # a negative degree would slice from the far end: 1+2q at -2
    assert QPoly((1, 2, 3)).truncated(1) == QPoly((1, 2))
    with pytest.raises(ValueError):
        QPoly((1, 2, 3)).truncated(-2)


def test_q_factorial_and_binomial_need_no_recursion_on_n():
    import inspect
    import sys
    from math import comb, factorial

    q_factorial.cache_clear()
    q_binomial.cache_clear()
    limit = sys.getrecursionlimit()
    # far below the 60 nested calls a recursion on n would take
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        qf, qb = q_factorial(60), q_binomial(60, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert qf.evaluate(1) == factorial(60)
    assert qb.evaluate(1) == comb(60, 3)
    assert qb * q_factorial(3) * q_factorial(57) == qf


# ---------------------------------------------------------------------------
# The add, negate and monomial kernels against a dense Fraction reference.
# ---------------------------------------------------------------------------

kernel_scalars = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
kernel_lists = st.lists(kernel_scalars, min_size=0, max_size=8)


def _dense(values, width):
    """Reference coefficients as Fractions, zero-padded to width."""
    return [Fraction(v) for v in values] + [Fraction(0)] * (width - len(values))


@given(st.data())
def test_poly_kernels_match_a_dense_reference(data):
    a_values = data.draw(kernel_lists)
    mode = data.draw(st.sampled_from(["free", "cancel top", "sum to integers"]))
    if mode == "free":
        b_values = data.draw(kernel_lists)
    elif mode == "cancel top":
        # b ends in the negated top of a, so a + b loses its top slots
        keep = data.draw(st.integers(min_value=0, max_value=len(a_values)))
        b_values = data.draw(st.lists(kernel_scalars, min_size=keep, max_size=keep))
        b_values += [-v for v in a_values[keep:]]
    else:
        # every slot of a + b is an integer, the Fraction slots included
        b_values = [data.draw(st.integers(min_value=-3, max_value=3)) - v for v in a_values]
    a, b = QPoly(a_values), QPoly(b_values)
    width = max(len(a_values), len(b_values))
    da, db = _dense(a_values, width), _dense(b_values, width)
    sums = [x + y for x, y in zip(da, db)]
    expected = {"a + b": sums, "b + a": sums, "a - b": [x - y for x, y in zip(da, db)], "-a": [-x for x in da]}
    results = {"a + b": a + b, "b + a": b + a, "a - b": a - b, "-a": -a}
    for name, poly in results.items():
        assert list(poly.coeffs) == _fraction_coeffs(expected[name]), name
        assert_canonical(poly)
    terms = data.draw(st.lists(st.tuples(st.integers(min_value=0, max_value=9), kernel_scalars), max_size=12))
    dense = [Fraction(0)] * 10
    for exponent, coefficient in terms:
        dense[exponent] += coefficient
        monomial = QPoly.monomial(exponent, coefficient)
        assert list(monomial.coeffs) == _fraction_coeffs([0] * exponent + [coefficient])
        assert_canonical(monomial)
    total = sum((QPoly.monomial(e, c) for e, c in terms), QPoly.zero())
    assert list(total.coeffs) == _fraction_coeffs(dense)
    assert_canonical(total)


@given(kernel_lists, kernel_lists, st.sampled_from([QPoly, AlphaPoly]), kernel_scalars)
def test_poly_product_matches_the_pairwise_loop(a_values, b_values, cls, scalar):
    # the integer convolution against the loop it replaced, slot by slot in
    # value and type: repr tells the int 2 from Fraction(2, 1)
    a, b = cls(a_values), cls(b_values)
    for x, y in ((a, b), (b, a), (a, a), (a, cls((scalar,))), (a, cls.one())):
        got = x * y
        assert [repr(c) for c in got.coeffs] == [repr(c) for c in poly_mul_loop(x, y).coeffs]
        assert type(got) is cls
        assert_canonical(got)
    assert a * scalar == scalar * a == poly_mul_loop(a, scalar)


@given(kernel_lists, st.integers(min_value=0, max_value=4), kernel_scalars, st.sampled_from([QPoly, AlphaPoly]))
def test_a_one_term_product_matches_the_pairwise_loop(values, exponent, scalar, cls):
    # a monomial c x^k on either side scales and shifts the other operand,
    # slot by slot in value and type as the loop gives it
    a, monomial = cls(values), cls.monomial(exponent, scalar)
    for x, y in ((a, monomial), (monomial, a), (monomial, monomial), (a, scalar), (scalar, a)):
        got = x * y
        want = poly_mul_loop(x, y) if isinstance(x, cls) else poly_mul_loop(y, x)
        assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]
        assert type(got) is cls
        assert_canonical(got)


def test_poly_product_of_fractions_can_be_integral():
    half = AlphaPoly((Fraction(1, 2), Fraction(1, 2)))
    product = half * AlphaPoly((2, -2))  # (1 + α)(1 - α)
    assert product.coeffs == (1, 0, -1)
    assert_canonical(product)
    # a product's inner slots can cancel; its top slot never does
    assert (AlphaPoly((1, 1)) * AlphaPoly((1, -1))).coeffs == (1, 0, -1)


def test_a_fraction_quotient_that_is_integral_is_stored_as_an_int():
    # (1 + 3q/2 + q^2/2)(1 + q): the remainder's q coefficient reaches Fraction(1, 1)
    num = QPoly((1, Fraction(5, 2), 2, Fraction(1, 2)))
    quotient = exact_poly_div(num, QPoly((1, 1)))
    assert [repr(c) for c in quotient.coeffs] == ["1", "Fraction(3, 2)", "Fraction(1, 2)"]
    assert_canonical(quotient)
    # a leading coefficient other than 1 divides through Fraction
    quotient = exact_poly_div(QPoly((2, 4, 6)), QPoly((2,)))
    assert [repr(c) for c in quotient.coeffs] == ["1", "2", "3"]
    assert_canonical(quotient)


def test_integer_monomials_and_q_integer_products_are_canonical():
    assert QPoly.monomial(3, Fraction(4, 2)).coeffs == (0, 0, 0, 2)
    assert QPoly.monomial(2, True).coeffs == (0, 0, 1)
    assert QPoly.monomial(2, 0) == QPoly.zero() and not QPoly.monomial(2, 0).coeffs
    for factors in ((), (0,), (1,), (3, 0, 2), (5, 2, 2, 1)):
        assert_canonical(_q_integer_product(factors))
    assert _q_integer_product((3, 0, 2)).coeffs == ()


@pytest.mark.parametrize(
    "build",
    [
        lambda: QPoly((1, 0.5)),
        lambda: QPoly((1, 2)) + 0.5,
        lambda: 0.5 + QPoly((1, 2)),
        lambda: QPoly((1, 2)) - 0.5,
        lambda: 0.5 - QPoly((1, 2)),
        lambda: QPoly.monomial(2, 0.5),
        lambda: QPoly.monomial(2, 1.0),
        lambda: QPoly.monomial(2, 1j),
        lambda: sum([QPoly.monomial(1), 0.5], QPoly.zero()),
    ],
    ids=[
        "constructor", "plus float", "float plus", "minus float", "float minus",
        "float monomial", "integral float monomial", "complex monomial", "sum with a float",
    ],
)
def test_the_poly_kernels_refuse_floats(build):
    with pytest.raises(TypeError):
        build()
