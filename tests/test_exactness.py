"""One exactness rule for every door a value can enter by: each container's
constructor, its scalar operands in either order, map_coefficients, the
evaluation points and binomial_coefficient's beta all refuse what is not
int, Fraction or a polynomial, and accept every subclass of those."""

from decimal import Decimal
from fractions import Fraction

import pytest

from treecalc.arith import AlphaPoly, QPoly, binomial_coefficient
from treecalc.combinat import PackedWord, Permutation
from treecalc.elements import FQSymElement, WQSymElement
from treecalc.series import BinomialPoly, QDividedSeries, TruncatedSeries


def _containers():
    return {
        "TruncatedSeries": TruncatedSeries([1, 2]),
        "QDividedSeries": QDividedSeries([1, QPoly((1, 1))]),
        "BinomialPoly": BinomialPoly({0: 1, 2: 3}),
        "FQSymElement": FQSymElement({Permutation((2, 1)): 3}),
        "WQSymElement": WQSymElement({PackedWord((1, 1)): 2}),
    }


def _doors() -> dict:
    """{door name: a call that passes the value in there}."""
    doors = {
        "TruncatedSeries(...)": lambda x: TruncatedSeries([1, x]),
        "TruncatedSeries.constant": lambda x: TruncatedSeries.constant(x, 2),
        "TruncatedSeries.monomial": lambda x: TruncatedSeries.monomial(1, 2, x),
        "QDividedSeries(...)": lambda x: QDividedSeries([1, x]),
        "BinomialPoly(...)": lambda x: BinomialPoly({0: x}),
        "FQSymElement(...)": lambda x: FQSymElement({Permutation((1,)): x}),
        "WQSymElement(...)": lambda x: WQSymElement({PackedWord((1,)): x}),
        "QPoly(...)": lambda x: QPoly([1, x]),
        "QDividedSeries.evaluate": lambda x: QDividedSeries([1, QPoly((0, 1))]).evaluate(x),
        "BinomialPoly.evaluate": lambda x: BinomialPoly({1: 1}).evaluate(x),
        "QPoly.evaluate": lambda x: QPoly((1, 1)).evaluate(x),
        "binomial_coefficient": lambda x: binomial_coefficient(x, 2),
    }
    for name, container in _containers().items():
        doors.update({
            f"{name} * x": lambda x, c=container: c * x,
            f"x * {name}": lambda x, c=container: x * c,
            f"{name} + x": lambda x, c=container: c + x,
            f"x + {name}": lambda x, c=container: x + c,
            f"{name} - x": lambda x, c=container: c - x,
            f"x - {name}": lambda x, c=container: x - c,
            f"{name}.map_coefficients": lambda x, c=container: c.map_coefficients(lambda _: x),
        })
    return doors


def _leaks(value) -> list[str]:
    """The doors that let value in without a TypeError."""
    leaked = []
    for name, door in _doors().items():
        try:
            door(value)
        except TypeError:
            continue
        leaked.append(name)
    return leaked


@pytest.mark.parametrize(
    "value", [0.5, 2.0, Decimal("0.5")], ids=["float", "integral float", "Decimal"]
)
def test_no_inexact_value_gets_in_at_any_door(value):
    # map_coefficients on both elements let a plain float in; Decimal got
    # past every door that refused only float and complex
    assert _leaks(value) == []


@pytest.mark.parametrize("kind", ["float32", "float16", "float64"])
def test_no_numpy_float_gets_in_at_any_door(kind):
    # float32 and float16 are no float subclasses
    numpy = pytest.importorskip("numpy")
    assert _leaks(getattr(numpy, kind)(0.5)) == []


def test_numpy_integers_are_refused_wherever_they_arrive():
    # fixed-width, they wrap on overflow.  In x * c, x + c and x - c numpy
    # hands over a Python int of the same value instead, which is exact.
    numpy = pytest.importorskip("numpy")
    assert [name for name in _leaks(numpy.int64(3)) if not name.startswith("x ")] == []


class Tagged(Fraction):
    """A Fraction subclass, as a caller's own rational type would be."""


# Doors that take a rational scalar only, never a polynomial.
SCALAR_DOORS = (
    "QPoly(...)", "QDividedSeries.evaluate", "BinomialPoly.evaluate", "QPoly.evaluate",
    "binomial_coefficient",
)


def _accepting_doors(value) -> dict:
    """The doors that must let value in: all but the sums and differences
    with a scalar on BinomialPoly and the elements, which add only their
    own kind, and for a polynomial value the scalar-only doors."""
    doors = _doors()
    for name in ("BinomialPoly", "FQSymElement", "WQSymElement"):
        for shape in ("{} + x", "x + {}", "{} - x", "x - {}"):
            del doors[shape.format(name)]
    if isinstance(value, QPoly):
        for name in SCALAR_DOORS:
            del doors[name]
    return doors


@pytest.mark.parametrize(
    "value", [True, Tagged(1, 2), QPoly((1, 1))], ids=["bool", "Fraction subclass", "QPoly"]
)
def test_every_exact_value_still_gets_in(value):
    for name, door in _accepting_doors(value).items():
        assert door(value) is not None, name


def test_alpha_polynomials_go_where_their_ring_does():
    alpha = AlphaPoly((0, 1))
    series = TruncatedSeries([1, alpha])
    assert series * alpha == alpha * series
    assert BinomialPoly({0: alpha}).coefficient(0) == alpha
    assert FQSymElement({Permutation((1,)): alpha}).map_coefficients(lambda c: c * alpha)
    # QDividedSeries holds q-series only
    for door in (
        lambda: QDividedSeries([1, alpha]),
        lambda: QDividedSeries([1, 2]) * alpha,
        lambda: QDividedSeries([1, 2]).map_coefficients(lambda c: alpha),
    ):
        with pytest.raises(TypeError):
            door()
