"""The word-keyed bilinear kernel against naive per-pair sums.

Every element product is checked against a sum, built here, of the
per-pair reference functions (convolve, half_products, bilinear_B,
packed_convolve, tridendriform_split), one pair of terms at a time, on
elements with int, Fraction, QPoly and cancelling coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecalc import fqsym, wqsym
from treecalc.arith import QPoly
from treecalc.combinat import PackedWord, Permutation, packed_words, permutations
from treecalc.elements import FQSymElement, WQSymElement, keyed
from treecalc.errors import EmptyOperand

PERMS = [p for n in range(4) for p in permutations(n)]
WORDS = [w for n in range(4) for w in packed_words(n)]

coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(QPoly),
)


@st.composite
def elements(draw, make, keys):
    """A sum of drawn terms plus pairs c*v - c*w, whose images under the
    products and the derivations often cancel."""
    key = st.sampled_from(keys)
    terms = draw(st.lists(st.tuples(key, coefficients), max_size=4))
    for v, w, c in draw(st.lists(st.tuples(key, key, coefficients), max_size=2)):
        terms += [(v, c), (w, -c)]
    return make(terms)


def g_element(terms):
    return FQSymElement(terms, basis="G")


g_elements = elements(g_element, PERMS)
g_nonempty = elements(g_element, PERMS[1:])
m_elements = elements(WQSymElement, WORDS)
m_nonempty = elements(WQSymElement, WORDS[1:])


def naive(x, y, pieces):
    """Sum ca*cb over every word of pieces(a, b), one term at a time."""
    total = x._like({})
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for w in pieces(a, b):
                total = total + x._like({w: ca * cb})
    return total


def stored_nonzero(element) -> bool:
    return all(c != 0 for c in element.terms.values())


@settings(deadline=None)
@given(g_elements, g_elements)
def test_fqsym_product_and_lift(x, y):
    for got, want in (
        (fqsym.product(x, y), naive(x, y, fqsym.convolve)),
        (fqsym.b_product(x, y), naive(x, y, fqsym.bilinear_B)),
    ):
        assert got == want
        assert stored_nonzero(got)


@settings(deadline=None)
@given(g_nonempty, g_nonempty)
def test_fqsym_half_products(x, y):
    for side, half in enumerate((fqsym.prec_product, fqsym.succ_product)):
        got = half(x, y)
        assert got == naive(x, y, lambda a, b: fqsym.half_products(a, b)[side])
        assert stored_nonzero(got)


@settings(deadline=None)
@given(m_elements, m_elements, st.integers(min_value=0, max_value=6))
def test_wqsym_product(x, y, max_length):
    got = wqsym.product(x, y)
    assert got == naive(x, y, wqsym.packed_convolve)
    assert stored_nonzero(got)

    def short(a, b):
        return wqsym.packed_convolve(a, b) if len(a) + len(b) <= max_length else []

    truncated = wqsym.product(x, y, max_length=max_length)
    assert truncated == naive(x, y, short)
    assert stored_nonzero(truncated)


@settings(deadline=None)
@given(m_nonempty, m_nonempty)
def test_wqsym_tridendriform_products(x, y):
    parts = (wqsym.prec_product, wqsym.circ_product, wqsym.succ_product)
    for part, split_product in enumerate(parts):
        got = split_product(x, y)
        assert got == naive(x, y, lambda a, b: wqsym.tridendriform_split(a, b)[part])
        assert stored_nonzero(got)


@settings(deadline=None)
@given(g_elements, m_elements)
def test_derivations(x, w):
    want = FQSymElement(basis="G")
    for perm, c in x.terms.items():
        if perm.size:
            shorter = Permutation([v for v in perm.word if v != perm.size])
            want = want + FQSymElement({shorter: c}, basis="G")
    assert fqsym.derive(x) == want
    assert stored_nonzero(fqsym.derive(x))

    want = WQSymElement()
    for word, c in w.terms.items():
        if len(word):
            shorter = PackedWord([v for v in word.letters if v != word.max_letter])
            want = want + WQSymElement({shorter: c})
    assert wqsym.delta(w) == want
    assert stored_nonzero(wqsym.delta(w))


def test_cancelling_terms_leave_no_zero():
    one, empty = Permutation((1,)), Permutation(())
    half = Fraction(1, 2)
    x = FQSymElement({one: half, empty: half}, basis="G")
    y = FQSymElement({one: 1, empty: -1}, basis="G")
    got = fqsym.product(x, y)
    assert one not in got.terms  # G_1 G_() and G_() G_1 cancel
    assert got == naive(x, y, fqsym.convolve)
    assert fqsym.derive(g_element([(Permutation((1, 2)), 3), (Permutation((2, 1)), -3)])) == (
        FQSymElement(basis="G")
    )


def test_tridendriform_parts_compare_block_maxima(packed_by_length):
    for k in range(1, 4):
        for l in range(1, 6 - k):
            for a in packed_by_length[k]:
                for b in packed_by_length[l]:
                    prec, circ, succ = wqsym.tridendriform_split(a, b)
                    for words, compare in ((prec, int.__gt__), (circ, int.__eq__), (succ, int.__lt__)):
                        for w in words:
                            assert compare(max(w.letters[:k]), max(w.letters[k:]))


def test_half_products_reject_the_unit_term():
    one = Permutation((1,))
    with_unit = FQSymElement({one: 1, fqsym.EMPTY_PERM: 2}, basis="G")
    plain = fqsym.g_basis(one)
    for half in (fqsym.prec_product, fqsym.succ_product):
        with pytest.raises(EmptyOperand):
            half(with_unit, plain)
        with pytest.raises(EmptyOperand):
            half(plain, with_unit)


def test_tridendriform_products_reject_the_unit_term():
    one = PackedWord((1,))
    with_unit = WQSymElement({one: 1, wqsym.EMPTY_WORD: 2})
    plain = wqsym.m_basis(one)
    for split_product in (wqsym.prec_product, wqsym.circ_product, wqsym.succ_product):
        with pytest.raises(EmptyOperand):
            split_product(with_unit, plain)
        with pytest.raises(EmptyOperand):
            split_product(plain, with_unit)


# ---------------------------------------------------------------------------
# the keys the kernel builds
# ---------------------------------------------------------------------------


def assert_public_keys(element, key_type, attr):
    """Every key equals, and hashes like, the key the public constructor
    builds from its word, and holds its word as a tuple."""
    for key in element.terms:
        word = getattr(key, attr)
        public = key_type(list(word))
        assert type(key) is key_type and type(word) is tuple
        assert key == public and hash(key) == hash(public)


@settings(deadline=None)
@given(g_elements, g_elements, m_elements, m_elements, st.sampled_from(WORDS[:2]))
def test_kernel_keys_equal_public_keys(x, y, v, w, middle):
    for got in (fqsym.product(x, y), fqsym.b_product(x, y), fqsym.derive(x)):
        assert_public_keys(got, Permutation, "word")
    sandwich = wqsym.f_k([v, wqsym.m_basis(middle), w])
    for got in (wqsym.product(v, w), wqsym.delta(v), wqsym.f_k([v, w]), sandwich):
        assert_public_keys(got, PackedWord, "letters")


@pytest.mark.parametrize(
    "key_type, bad", [(Permutation, (1, 1)), (Permutation, (2, 3)), (PackedWord, (1, 3))]
)
def test_bulk_keys_raise_the_public_error(key_type, bad):
    like = FQSymElement() if key_type is Permutation else WQSymElement()
    with pytest.raises(ValueError) as public:
        key_type(bad)
    with pytest.raises(ValueError) as bulk:
        keyed(like, {(1,): 1, bad: 2})
    assert str(bulk.value) == str(public.value)
    # a word whose sum cancelled is never checked and builds no key
    assert keyed(like, {(1,): 1, bad: 0}).terms == {key_type((1,)): 1}
