from fractions import Fraction
from math import comb

import pytest

from treecalc.arith import QPoly, q_binomial
from treecalc.combinat import (
    BinaryTree,
    Permutation,
    binary_trees,
    decreasing_tree,
    permutations,
)
from treecalc.elements import FQSymElement
from treecalc.errors import BasisMismatch, EmptyOperand
from treecalc.fqsym import (
    EMPTY_PERM,
    b_product,
    bilinear_B,
    convolve,
    derive,
    f_basis,
    g_basis,
    half_products,
    phi_q,
    prec_product,
    product,
    q_shuffle_product,
    q_shuffle_words,
    succ_product,
    tree_term,
    unit,
)
from treecalc.identities import qhook_imaj
from treecalc.series import TruncatedSeries

from references import pairing, phi, scale_alphabet, to_basis


def perm(*letters) -> Permutation:
    return Permutation(letters)


def words(ps) -> list[tuple[int, ...]]:
    return [p.word for p in ps]


def all_perms_element(n: int) -> FQSymElement:
    return FQSymElement({p: 1 for p in permutations(n)}, basis="G")


# ---------------------------------------------------------------------------
# convolution product
# ---------------------------------------------------------------------------


def test_convolve_examples():
    assert words(convolve(perm(1), perm(1))) == [(1, 2), (2, 1)]
    sigma = perm(2, 1, 3)
    assert convolve(EMPTY_PERM, sigma) == [sigma]
    assert convolve(sigma, EMPTY_PERM) == [sigma]
    assert words(convolve(perm(1, 2), perm(1))) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]


def test_convolve_term_count_and_standardization():
    from treecalc.combinat import standardize

    for k, l in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 2), (6, 1)]:
        for a in permutations(k):
            for b in permutations(l):
                result = convolve(a, b)
                assert len(result) == comb(k + l, k)
                assert len(set(result)) == len(result)
                for gamma in result:
                    assert standardize(gamma.word[:k]) == a
                    assert standardize(gamma.word[k:]) == b


def test_product_examples():
    x = g_basis(perm(1))
    assert product(x, x) == FQSymElement({perm(1, 2): 1, perm(2, 1): 1})
    assert product(unit(), x) == x
    assert product(x, unit()) == x
    cube = product(product(x, x), x)
    assert cube == product(x, product(x, x))
    assert cube == all_perms_element(3)


def test_product_requires_g_basis():
    with pytest.raises(BasisMismatch):
        product(f_basis(perm(1)), f_basis(perm(1)))


# ---------------------------------------------------------------------------
# dendriform halves
# ---------------------------------------------------------------------------


def test_half_products_examples():
    prec, succ = half_products(perm(1), perm(1))
    assert words(prec) == [(2, 1)]
    assert words(succ) == [(1, 2)]


def test_half_products_follow_max_side():
    # the factor holding the maximal letter decides the side
    prec, succ = half_products(perm(1, 2), perm(1))
    for gamma in prec:
        assert max(gamma.word[:2]) > max(gamma.word[2:])
    for gamma in succ:
        assert max(gamma.word[:2]) <= max(gamma.word[2:])
    assert words(succ) == [(1, 2, 3)]
    assert sorted(words(prec)) == [(1, 3, 2), (2, 3, 1)]


def test_half_products_partition_convolution():
    for k, l in [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (1, 5), (5, 1)]:
        for a in permutations(k):
            for b in permutations(l):
                prec, succ = half_products(a, b)
                assert sorted(prec + succ) == sorted(convolve(a, b))
                assert not set(prec) & set(succ)


def test_half_products_empty_operand():
    with pytest.raises(EmptyOperand):
        half_products(EMPTY_PERM, perm(1))


def test_half_product_statistic_lemma():
    # sum over succ of q^imaj is q^(imaj a + imaj b) qbin(k+l-1, l-1);
    # prec gets an extra factor q^l and qbin(k+l-1, l)
    for k, l in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]:
        for a in permutations(k):
            for b in permutations(l):
                prec, succ = half_products(a, b)
                base = QPoly.monomial(a.imaj() + b.imaj())
                succ_poly = QPoly.zero()
                for gamma in succ:
                    succ_poly = succ_poly + QPoly.monomial(gamma.imaj())
                assert succ_poly == base * q_binomial(k + l - 1, l - 1)
                prec_poly = QPoly.zero()
                for gamma in prec:
                    prec_poly = prec_poly + QPoly.monomial(gamma.imaj())
                assert prec_poly == base * QPoly.monomial(l) * q_binomial(k + l - 1, l)


# ---------------------------------------------------------------------------
# the derivation
# ---------------------------------------------------------------------------


def test_derive_examples():
    assert derive(g_basis(perm(2, 3, 1))) == g_basis(perm(2, 1))
    assert derive(g_basis(perm(1))) == unit()
    assert derive(unit()) == FQSymElement({}, basis="G")
    x = g_basis(perm(1))
    assert derive(product(x, x)) == 2 * x


def test_derive_is_a_derivation():
    for k, l in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (1, 4)]:
        for a in permutations(k):
            for b in permutations(l):
                x, y = g_basis(a), g_basis(b)
                lhs = derive(product(x, y))
                rhs = product(derive(x), y) + product(x, derive(y))
                assert lhs == rhs


def test_derive_half_product_compatibility():
    # The derivation erases the maximal letter, which always sits on one
    # known side of a half product, so each half carries exactly one term
    # of the Leibniz rule: d(x prec y) = (dx) y and d(x succ y) = x (dy).
    for k, l in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3)]:
        for a in permutations(k):
            for b in permutations(l):
                x, y = g_basis(a), g_basis(b)
                assert derive(prec_product(x, y)) == product(derive(x), y)
                assert derive(succ_product(x, y)) == product(x, derive(y))


def test_derive_x_squared():
    # with X = sum of all permutations, dX agrees with X^2 degree by degree
    for d in range(5):
        lhs = derive(all_perms_element(d + 1))
        rhs = FQSymElement({}, basis="G")
        for i in range(d + 1):
            rhs = rhs + product(all_perms_element(i), all_perms_element(d - i))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the bilinear lift and tree terms
# ---------------------------------------------------------------------------


def test_bilinear_b_examples():
    assert words(bilinear_B(EMPTY_PERM, EMPTY_PERM)) == [(1,)]
    assert words(bilinear_B(perm(1), EMPTY_PERM)) == [(1, 2)]
    assert words(bilinear_B(perm(1), perm(1))) == [(1, 3, 2), (2, 3, 1)]


def test_derive_of_b_is_product():
    for k, l in [(0, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
        for a in permutations(k):
            for b in permutations(l):
                x, y = g_basis(a), g_basis(b)
                assert derive(b_product(x, y)) == product(x, y)


def test_tree_term_examples():
    assert tree_term(BinaryTree.from_text("(_,_)")) == g_basis(perm(1))
    shape = BinaryTree.from_text("((_,_),((_,_),_))")
    element = tree_term(shape)
    assert element == FQSymElement(
        {perm(1, 4, 2, 3): 1, perm(2, 4, 1, 3): 1, perm(3, 4, 1, 2): 1}
    )


def test_tree_term_is_decreasing_tree_fiber():
    for n in range(1, 8):
        fibers: dict = {}
        for p in permutations(n):
            fibers.setdefault(decreasing_tree(p), set()).add(p)
        for tree in binary_trees(n):
            element = tree_term(tree)
            assert all(c == 1 for c in element.terms.values())
            assert set(element.terms) == fibers[tree]


def test_tree_term_of_a_shape_built_bottom_up():
    # 145 nodes: a left comb over a three-node subtree, and a root whose
    # right child is one node; its fiber has 288 permutations
    text = "((_,_),(_,_))"
    for _ in range(140):
        text = f"({text},_)"
    shape = BinaryTree.from_text(f"({text},(_,_))")

    def lift(tree):  # the plain recursion, shallow enough here
        return unit("G") if tree.is_empty else b_product(lift(tree.left), lift(tree.right))

    element = tree_term(shape)
    assert element == lift(shape)
    assert len(element) == 288
    assert all(decreasing_tree(p) == shape for p in element.terms)


def test_tree_terms_sum_to_full_degree():
    for n in range(8):
        total = FQSymElement({}, basis="G")
        for tree in binary_trees(n):
            total = total + tree_term(tree)
        assert total == all_perms_element(n)


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------


def test_phi_examples():
    assert phi(g_basis(perm(2, 1)), 3) == TruncatedSeries(
        [0, 0, Fraction(1, 2), 0]
    )
    assert phi(unit(), 2) == TruncatedSeries.constant(Fraction(1), 2)


def test_phi_is_multiplicative():
    pairs = [
        (perm(1), perm(1)),
        (perm(2, 1), perm(1)),
        (perm(1, 2), perm(2, 1)),
        (perm(2, 1, 3), perm(1, 2)),
        (perm(3, 1, 2), perm(2, 1, 3)),
    ]
    for a, b in pairs:
        x, y = g_basis(a), g_basis(b)
        assert phi(product(x, y), 6) == phi(x, 6) * phi(y, 6)


def test_phi_q_example():
    # G_21 -> q t^2 / [2]_q!: the numerator is q^imaj(21) = q
    series = phi_q(g_basis(perm(2, 1)), 2)
    assert series.coefficient(2) == QPoly.monomial(1)
    assert series.coefficient(1) == 0


def test_phi_q_is_multiplicative():
    pairs = [
        (perm(1), perm(1)),
        (perm(2, 1), perm(1, 2)),
        (perm(1, 3, 2), perm(2, 1)),
        (perm(2, 3, 1), perm(1, 2)),
    ]
    for a, b in pairs:
        x, y = g_basis(a), g_basis(b)
        assert phi_q(product(x, y), 6) == phi_q(x, 6) * phi_q(y, 6)


def test_phi_q_of_lift_is_q_integral():
    # the q-specialization turns the max-inserting lift into the
    # q-integral of f(s) g(qs)
    from treecalc.series import q_integrate, substitute_qt

    pairs = [
        (EMPTY_PERM, EMPTY_PERM),
        (perm(1), perm(1)),
        (perm(2, 1), perm(1)),
        (perm(1, 2), perm(2, 1)),
        (perm(2, 1, 3), perm(2, 1)),
    ]
    for a, b in pairs:
        x, y = g_basis(a), g_basis(b)
        lhs = phi_q(b_product(x, y), 5)
        rhs = q_integrate(phi_q(x, 5) * substitute_qt(phi_q(y, 5)))
        assert lhs == rhs


def test_phi_q_at_one_is_phi():
    element = all_perms_element(3) + all_perms_element(2)
    assert phi_q(element, 4).evaluate(1) == phi(element, 4)


def test_phi_q_of_tree_term_is_the_q_hook():
    # the paper's route to the q-hook formula: the q-specialization of a
    # tree's fiber has numerator qhook_imaj at t^n
    for n in range(1, 8):
        for tree in binary_trees(n):
            series = phi_q(tree_term(tree), n)
            assert series.coefficient(n) == qhook_imaj(tree)
            assert all(series.coefficient(k) == 0 for k in range(n))


# ---------------------------------------------------------------------------
# the q-deformation
# ---------------------------------------------------------------------------


def test_q_shuffle_examples():
    x = f_basis(perm(1))
    assert q_shuffle_product(x, x) == FQSymElement(
        {perm(1, 2): QPoly.one(), perm(2, 1): QPoly.gen()}, basis="F"
    )
    sigma = f_basis(perm(2, 1, 3))
    assert q_shuffle_product(f_basis(EMPTY_PERM), sigma) == sigma
    assert q_shuffle_product(sigma, f_basis(EMPTY_PERM)) == sigma


def test_q_shuffle_at_one_matches_product():
    for k in range(1, 5):
        for l in range(1, 6 - k):
            for a in permutations(k):
                for b in permutations(l):
                    deformed = q_shuffle_product(f_basis(a), f_basis(b))
                    at_one = deformed.map_coefficients(
                        lambda c: c.evaluate(Fraction(1))
                    )
                    ordinary = to_basis(
                        product(
                            to_basis(f_basis(a), "G"), to_basis(f_basis(b), "G")
                        ),
                        "F",
                    )
                    assert at_one == ordinary.map_coefficients(Fraction)


def test_q_shuffle_weight_is_the_inversions_the_shuffle_creates():
    # the definition, inv(c) - inv(a) - inv(b), counted on each interleaving c
    for k in range(4):
        for l in range(4):
            for a in permutations(k):
                for b in permutations(l):
                    pairs = q_shuffle_words(a, b)
                    assert len({gamma for gamma, _ in pairs}) == len(pairs) == comb(k + l, k)
                    for gamma, weight in pairs:
                        created = gamma.inversions() - a.inversions() - b.inversions()
                        assert weight == QPoly.monomial(created)


def test_q_shuffle_requires_f_basis():
    with pytest.raises(BasisMismatch):
        q_shuffle_product(g_basis(perm(1)), g_basis(perm(1)))


def derive_f(x: FQSymElement) -> FQSymElement:
    return to_basis(derive(to_basis(x, "G")), "F")


def test_scale_alphabet_examples():
    assert scale_alphabet(g_basis(perm(1))) == FQSymElement(
        {perm(1): QPoly.gen()}
    )
    assert scale_alphabet(unit()) == unit()


def test_modified_leibniz_in_deformed_algebra():
    # d(FG) = dF * G(qA) + F * dG with the q-shuffle product
    for k, l in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1)]:
        for a in permutations(k):
            for b in permutations(l):
                x, y = f_basis(a), f_basis(b)
                lhs = derive_f(q_shuffle_product(x, y))
                rhs = q_shuffle_product(derive_f(x), scale_alphabet(y)) + (
                    q_shuffle_product(x, derive_f(y))
                )
                assert lhs == rhs


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def test_pairing_examples():
    assert pairing(f_basis(perm(2, 1)), g_basis(perm(2, 1))) == 1
    assert pairing(f_basis(perm(1, 2)), g_basis(perm(2, 1))) == 0
    with pytest.raises(BasisMismatch):
        pairing(f_basis(perm(1)), f_basis(perm(1)))


def test_pairing_adjointness():
    # <dG_s, F_t> = <G_s, F_t F_1> for s in S_4, t in S_3
    one = perm(1)
    for s in permutations(4):
        ds = derive(g_basis(s))
        for t in permutations(3):
            lhs = pairing(f_basis(t), ds)
            t_times_one = to_basis(
                product(to_basis(f_basis(t), "G"), g_basis(one)), "F"
            )
            rhs = pairing(t_times_one, g_basis(s))
            assert lhs == rhs
