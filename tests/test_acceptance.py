"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible with pytest -s); the
assertions behind the line are all exact identities or exhaustive
oracle-equivalence checks at the stated sizes.
"""

from fractions import Fraction
from math import factorial

import pytest

from treecalc.arith import QPoly, q_binomial
from treecalc.combinat import (
    BinaryTree,
    PlaneTree,
    binary_trees,
    packed_words,
    permutations,
    plane_tree_of_word,
)
from treecalc.elements import FQSymElement, WQSymElement
from treecalc.identities import (
    decreasing_tree_fibers,
    duliu_check,
    eisenstein_check,
    ft_coefficients,
    hook_count,
    lagrange_fixed_point_check,
    postnikov_check,
    qhook_imaj,
    qhook_inv,
)

from references import duliu_cross_check, plane_q_check

FOUR_NODE_TREE = BinaryTree.from_text("((_,_),((_,_),_))")


class criterion:
    """Prints one ACCEPTANCE line per criterion, PASS or FAIL."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"ACCEPTANCE {self.number:>2} {status}  {self.description}")
        return False


@pytest.fixture(scope="module")
def fibers_to_seven():
    return {n: decreasing_tree_fibers(n) for n in range(1, 8)}


def test_criterion_01_hook_formula(fibers_to_seven):
    with criterion(1, "hook formula matches fibers for n <= 8, sums to n!"):
        assert hook_count(FOUR_NODE_TREE) == 3  # 4!/(4*2*1*1)
        for n in range(1, 9):
            fibers = fibers_to_seven[n] if n <= 7 else decreasing_tree_fibers(8)
            assert set(fibers) == set(binary_trees(n))
            total = 0
            for tree, fiber in fibers.items():
                assert hook_count(tree) == len(fiber)
                total += len(fiber)
            assert total == factorial(n)


def _statistic_polynomial(fiber, statistic) -> QPoly:
    poly = QPoly.zero()
    for p in fiber:
        poly = poly + QPoly.monomial(statistic(p))
    return poly


def test_criterion_02_qhook_imaj(fibers_to_seven):
    with criterion(2, "q-hook formula for imaj, exhaustive n <= 7"):
        for n in range(1, 8):
            for tree, fiber in fibers_to_seven[n].items():
                oracle = _statistic_polynomial(fiber, lambda p: p.imaj())
                assert qhook_imaj(tree) == oracle


def test_criterion_03_qhook_inversions(fibers_to_seven):
    with criterion(3, "q-hook for inversions; imaj and inv equidistributed, n <= 7"):
        for n in range(1, 8):
            for tree, fiber in fibers_to_seven[n].items():
                oracle = _statistic_polynomial(fiber, lambda p: p.inversions())
                assert qhook_inv(tree) == oracle
                assert oracle == qhook_imaj(tree)


def test_criterion_04_half_product_lemma():
    from treecalc.fqsym import half_products

    with criterion(4, "both half-product q-binomial formulas, k+l <= 7"):
        for k in range(1, 7):
            for l in range(1, 8 - k):
                for a in permutations(k):
                    for b in permutations(l):
                        prec, succ = half_products(a, b)
                        base = QPoly.monomial(a.imaj() + b.imaj())
                        succ_poly = _statistic_polynomial(succ, lambda p: p.imaj())
                        assert succ_poly == base * q_binomial(k + l - 1, l - 1)
                        prec_poly = _statistic_polynomial(prec, lambda p: p.imaj())
                        assert prec_poly == base * QPoly.monomial(l) * q_binomial(
                            k + l - 1, l
                        )


def test_criterion_05_fqsym_structure():
    from treecalc.fqsym import (
        b_product,
        derive,
        f_basis,
        g_basis,
        prec_product,
        product,
        succ_product,
    )
    from references import pairing, to_basis

    with criterion(5, "FQSym: Leibniz, dendriform splits, lifted product, dX=X^2, adjointness"):
        def all_perms(n):
            return FQSymElement({p: 1 for p in permutations(n)}, basis="G")

        for k in range(1, 6):
            for l in range(1, 7 - k):
                for a in permutations(k):
                    for b in permutations(l):
                        x, y = g_basis(a), g_basis(b)
                        full = product(x, y)
                        dx, dy = derive(x), derive(y)
                        # Leibniz
                        assert derive(full) == product(dx, y) + product(x, dy)
                        # the halves partition the product
                        prec = prec_product(x, y)
                        succ = succ_product(x, y)
                        assert prec + succ == full
                        # each half carries one Leibniz term
                        assert derive(prec) == product(dx, y)
                        assert derive(succ) == product(x, dy)
                        # the lift undoes the derivation
                        assert derive(b_product(x, y)) == full

        # dX = X^2 in degrees <= 5 with the truncation at 6
        for d in range(6):
            lhs = derive(all_perms(d + 1))
            rhs = FQSymElement({}, basis="G")
            for i in range(d + 1):
                rhs = rhs + product(all_perms(i), all_perms(d - i))
            assert lhs == rhs

        # pairing adjointness on S_3 x S_4
        one = g_basis(next(iter(permutations(1))))
        for s in permutations(4):
            ds = derive(g_basis(s))
            for t in permutations(3):
                t_one = to_basis(product(to_basis(f_basis(t), "G"), one), "F")
                assert pairing(f_basis(t), ds) == pairing(t_one, g_basis(s))


def test_criterion_06_wqsym_structure(packed_by_length):
    from treecalc.combinat import PackedWord
    from treecalc.wqsym import (
        circ_product,
        delta,
        f_k,
        m_basis,
        packed_convolve,
        prec_product,
        product,
        succ_product,
    )
    from references import graded_word_sum

    with criterion(6, "WQSym: five-term products, trilinear Leibniz, tridendriform, delta X"):
        # the two five-term products, letter for letter
        assert [w.to_text() for w in packed_convolve(
            PackedWord((1, 1)), PackedWord((2, 1))
        )] == ["1121", "1132", "2221", "2231", "3321"]
        lifted = f_k([m_basis(PackedWord((1, 1))), m_basis(PackedWord((2, 1)))])
        assert sorted(w.to_text() for w in lifted.terms) == [
            "11321", "11432", "22321", "22431", "33421",
        ]

        for k in range(1, 5):
            for l in range(1, 6 - k):
                for a in packed_by_length[k]:
                    for b in packed_by_length[l]:
                        x, y = m_basis(a), m_basis(b)
                        dx, dy = delta(x), delta(y)
                        full = product(x, y)
                        assert delta(full) == (
                            product(dx, y) + product(dx, dy) + product(x, dy)
                        )
                        assert delta(prec_product(x, y)) == product(dx, y)
                        assert delta(circ_product(x, y)) == product(dx, dy)
                        assert delta(succ_product(x, y)) == product(x, dy)

        # delta X = q X^2 (1-qX)^(-1), on words of length <= 4
        N = 5
        max_len, max_q = N - 1, N

        def cut(element, length, degree):
            return WQSymElement({
                key: c.truncated(degree) if isinstance(c, QPoly) else c
                for key, c in element.terms.items()
                if len(key) <= length
            })

        X = graded_word_sum(N, weight=lambda n: QPoly.monomial(n))
        lhs = cut(delta(X), max_len, max_q)
        X_t = cut(X, max_len, max_q)
        rhs = WQSymElement({})
        power = cut(product(X_t, X_t, max_length=max_len), max_len, max_q)
        for n in range(2, max_q + 2):
            rhs = rhs + power * QPoly.monomial(n - 1)
            power = cut(product(power, X_t, max_length=max_len), max_len, max_q)
        assert lhs == cut(rhs, max_len, max_q)


def test_criterion_07_theorem_ft():
    from treecalc.series import BinomialPoly, discrete_sum
    from references import monomial_to_binomial

    with criterion(7, "plane-tree coefficients match word grouping for length <= 7"):
        assert ft_coefficients(
            PlaneTree.from_text("((**)(**)(***))")
        ) == {2: 1, 3: 6, 4: 6}
        assert discrete_sum(monomial_to_binomial([0, 0, 0, 1])) == BinomialPoly(
            {2: 1, 3: 6, 4: 6}
        )
        for n in range(1, 8):
            grouped: dict = {}
            for word in packed_words(n):
                tree = plane_tree_of_word(word.letters)
                counts = grouped.setdefault(tree, {})
                k = word.max_letter
                counts[k] = counts.get(k, 0) + 1
            for tree, counts in grouped.items():
                assert ft_coefficients(tree) == dict(sorted(counts.items()))


def test_criterion_08_postnikov():
    with criterion(8, "Postnikov identity exact for 1 <= n <= 12"):
        for n in range(1, 13):
            report = postnikov_check(n)
            assert report.equal, f"n={n}: {report.lhs} != {report.rhs}"
        assert postnikov_check(12).lhs == str(13**11)


def test_criterion_09_eisenstein():
    with criterion(9, "Eisenstein three-way agreement to order 8"):
        report = eisenstein_check(8)
        assert report.equal


def test_criterion_10_du_liu():
    with criterion(10, "Du-Liu: las1=las2 (n<=6), las2 (n<=7), las3 m=2,3 (n<=5)"):
        for n in range(7):
            assert duliu_cross_check(n)
            assert duliu_check("las1", n).equal
        for n in range(8):
            assert duliu_check("las2", n).equal
        for m in (2, 3):
            for n in range(6):
                assert duliu_check("las3", n, m).equal


def test_criterion_11_lagrange():
    with criterion(11, "Lagrange fixed point exact to order 8 for m <= 3"):
        for m in (1, 2, 3):
            report = lagrange_fixed_point_check(m, 8)
            assert report.equal, f"m={m}"


def test_criterion_12_series_self_consistency():
    from treecalc.identities import lagrange_operator, postnikov_operator
    from treecalc.series import (
        TruncatedSeries,
        fixed_point_binary,
        fixed_point_mary,
        integrate,
        picard_binary,
        picard_mary,
    )
    from references import binomial_to_monomial, monomial_to_binomial

    with criterion(12, "tree expansions match Picard; basis conversions round-trip"):
        order = 8
        one = TruncatedSeries.constant(Fraction(1), order)
        inverse_linear = lambda x, y: integrate(x * y)
        for operator in (inverse_linear, postnikov_operator):
            expansion = fixed_point_binary(operator, one, order)
            assert expansion.total == picard_binary(operator, one, order)
        for m, tree_order in ((1, 8), (2, 6), (3, 5)):
            operator = lagrange_operator(m)
            expansion = fixed_point_mary(operator, m, tree_order)
            assert expansion.total == picard_mary(operator, m, tree_order)
        # the plane-tree expansion is checked against the direct word sum
        # and its own difference equation
        assert plane_q_check(4).equal
        for degree in range(13):
            coeffs = [Fraction(n + 1, degree + 1) for n in range(degree + 1)]
            assert binomial_to_monomial(monomial_to_binomial(coeffs)) == coeffs
