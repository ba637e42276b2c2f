"""Elements keyed by letter tuples: the terms view, the key type each
element class fixes, and the batch check of the products' words.

The products keep their terms as bare letter tuples and build no key
object; these tests hold them to the elements the public constructor
builds from keys.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecalc import fqsym, wqsym
from treecalc.combinat import PackedWord, Permutation, packed_words, permutations
from treecalc.elements import FQSymElement, WQSymElement, bilinear, keyed
from treecalc.errors import BasisMismatch

PERMS = [p for n in range(4) for p in permutations(n)]
WORDS = [w for n in range(4) for w in packed_words(n)]


def perm(*letters) -> Permutation:
    return Permutation(letters)


def pw(*letters) -> PackedWord:
    return PackedWord(letters)


# ---------------------------------------------------------------------------
# the key type of each element class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, bad, expected",
    [
        (lambda terms: FQSymElement(terms, basis="G"), pw(1, 1), "Permutation"),
        (lambda terms: FQSymElement(terms, basis="F"), (1, 2), "Permutation"),
        (WQSymElement, perm(2, 1), "PackedWord"),
        (WQSymElement, (1, 1), "PackedWord"),
    ],
)
def test_elements_reject_keys_of_the_wrong_type(make, bad, expected):
    for terms in ({bad: 1}, [(bad, 1)]):
        with pytest.raises(TypeError, match=f"keys must be {expected}, got {type(bad).__name__}"):
            make(terms)


def test_a_permutation_key_in_wqsym_no_longer_passes_for_a_packed_word():
    # 21 is a packed word as well, but an element of WQSym keys it by PackedWord
    with pytest.raises(TypeError):
        WQSymElement({perm(2, 1): 1})
    assert WQSymElement({pw(2, 1): 1}) == wqsym.m_basis(pw(2, 1))


MISUSED_ELEMENT_CALLS = {
    "unknown basis": (lambda: FQSymElement({}, basis="H"), ValueError),
    "G plus F": (lambda: fqsym.g_basis(perm(1)) + fqsym.f_basis(perm(1)), BasisMismatch),
    "element times element": (lambda: wqsym.m_basis(pw(1)) * wqsym.m_basis(pw(1)), TypeError),
}


@pytest.mark.parametrize("name", sorted(MISUSED_ELEMENT_CALLS))
def test_a_misused_element_raises(name):
    call, error = MISUSED_ELEMENT_CALLS[name]
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# the terms view
# ---------------------------------------------------------------------------


def test_terms_view_reads_like_a_dict_of_keys():
    keys = [perm(2, 1), perm(1), perm(1, 3, 2)]
    x = FQSymElement(dict(zip(keys, (3, -1, Fraction(1, 2)))), basis="G")
    terms = x.terms
    assert len(terms) == 3
    assert list(terms) == keys and list(terms.keys()) == keys
    assert list(terms.values()) == [3, -1, Fraction(1, 2)]
    assert list(terms.items()) == list(zip(keys, (3, -1, Fraction(1, 2))))
    assert terms[perm(2, 1)] == 3 and terms.get(perm(1)) == -1
    assert perm(1, 3, 2) in terms and perm(1, 2) not in terms
    assert terms.get(perm(1, 2), 0) == 0
    assert terms == {perm(1): -1, perm(1, 3, 2): Fraction(1, 2), perm(2, 1): 3}
    assert terms != {perm(1): -1, perm(1, 3, 2): Fraction(1, 2), perm(1, 2): 3}
    with pytest.raises(TypeError):
        terms[perm(1, 2)] = 1  # read-only


def test_terms_view_keeps_the_key_types_apart():
    g = fqsym.g_basis(perm(1))
    m = wqsym.m_basis(pw(1))
    assert pw(1) not in g.terms and (1,) not in g.terms
    assert perm(1) not in m.terms and (1,) not in m.terms
    assert g.terms.get(pw(1), 0) == 0 and g.coefficient(pw(1)) == 0
    for view, other in ((g.terms, pw(1)), (m.terms, perm(1)), (g.terms, (1,))):
        with pytest.raises(KeyError):
            view[other]
    with pytest.raises(KeyError):
        g.terms[perm(2, 1)]


def test_terms_view_yields_fresh_public_keys():
    x = fqsym.product(fqsym.g_basis(perm(1)), fqsym.g_basis(perm(2, 1)))
    w = wqsym.product(wqsym.m_basis(pw(1)), wqsym.m_basis(pw(1, 1)))
    for element, key_type in ((x, Permutation), (w, PackedWord)):
        first, second = list(element.terms), list(element.terms.keys())
        assert first == second
        for a, b, (c, _) in zip(first, second, element.terms.items()):
            public = key_type(list(a.letters))
            assert type(a) is type(c) is key_type and type(a.letters) is tuple
            assert a is not b and a is not c
            assert a == public and hash(a) == hash(public)
            assert element.terms[public] == element.coefficient(public)


def test_terms_view_iterates_in_the_order_the_kernel_summed():
    """The dict order of a product is the order in which its words first
    appeared, pair by pair, in the order of the per-pair reference."""
    x = FQSymElement({perm(2, 1): 1, perm(1, 2): 2}, basis="G")
    y = FQSymElement({perm(1): 1, perm(): -1}, basis="G")
    order: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for c in fqsym.convolve(a, b):
                order[c] = order.get(c, 0) + ca * cb
    assert list(fqsym.product(x, y).terms.items()) == [(k, c) for k, c in order.items() if c]


# ---------------------------------------------------------------------------
# elements built by the kernel and by the public constructor
# ---------------------------------------------------------------------------

coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


def drawn(keys, make):
    return st.lists(st.tuples(st.sampled_from(keys), coefficients), max_size=5).map(make)


def g_element(terms):
    return FQSymElement(terms, basis="G")


def agree(kernel, public):
    """kernel and public hold the same terms, and every reading of them
    agrees; the kernel's element holds bare tuples."""
    assert all(type(w) is tuple for w in kernel._words)
    assert kernel == public and public == kernel
    assert not kernel != public
    assert kernel._words == public._words
    assert str(kernel) == str(public) and repr(kernel) == repr(public)
    assert kernel.to_json() == public.to_json()
    assert kernel.support() == public.support()
    assert kernel.sorted_terms() == public.sorted_terms()
    assert len(kernel) == len(public) and bool(kernel) == bool(public)


@settings(deadline=None)
@given(drawn(PERMS, g_element), drawn(PERMS, g_element), drawn(WORDS, WQSymElement), drawn(WORDS, WQSymElement))
def test_kernel_elements_agree_with_public_ones(x, y, v, w):
    results = [
        fqsym.product(x, y),
        fqsym.b_product(x, y),
        fqsym.derive(x),
        x + y,
        x - y,
        3 * x,
        x * Fraction(1, 2),
        wqsym.product(v, w),
        wqsym.delta(v),
        wqsym.f_k([v, w]),
        v + w,
        -w,
    ]
    for got in results:
        public = got._like(dict(got.terms.items()))
        agree(got, public)
        assert got._like(list(got.terms.items())) == got


def test_equality_compares_the_terms():
    assert fqsym.g_basis(perm(1, 2)) != fqsym.g_basis(perm(2, 1))
    assert fqsym.g_basis(perm(1, 2)) != 2 * fqsym.g_basis(perm(1, 2))
    assert wqsym.m_basis(pw(1, 1)) != wqsym.m_basis(pw(1, 2))
    assert fqsym.g_basis(perm(1)) != fqsym.f_basis(perm(1))
    assert fqsym.g_basis(perm(1)) != wqsym.m_basis(pw(1))


# ---------------------------------------------------------------------------
# the batch check of the kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "element, key_type, bad",
    [
        (fqsym.unit(), Permutation, (1, 1)),
        (fqsym.unit(), Permutation, (2, 3)),
        (wqsym.unit(), PackedWord, (1, 3)),
        (wqsym.unit(), PackedWord, (2,)),
    ],
)
def test_a_bad_word_reaching_the_kernel_raises_the_public_error(element, key_type, bad):
    with pytest.raises(ValueError) as public:
        key_type(bad)
    with pytest.raises(ValueError) as batch:
        keyed(element, {(1,): 1, bad: 2})
    assert str(batch.value) == str(public.value)
    with pytest.raises(ValueError) as lifted:
        bilinear(element, element, lambda a, b: [(1,), bad])
    assert str(lifted.value) == str(public.value)
    # a bad word whose sum cancelled builds nothing and raises nothing
    assert keyed(element, {(1,): 1, bad: 0}) == element._like({key_type((1,)): 1})
    cancelling = element + element._like({key_type((1,)): -1})
    assert not bilinear(cancelling, element, lambda a, b: [bad])


def test_the_first_bad_word_is_the_one_reported():
    with pytest.raises(ValueError, match=r"1\.\.2: \(2, 2\)"):
        keyed(fqsym.unit(), {(1, 2): 1, (2, 2): 1, (3, 3, 3): 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: FQSymElement({Permutation((1,)): 0.5}),
        lambda: WQSymElement({PackedWord((1,)): 0.5}),
        lambda: FQSymElement({Permutation((1,)): 1}) * 0.5,
        lambda: WQSymElement({PackedWord((1,)): 1}) * 0.5,
        lambda: 0.5 * WQSymElement({PackedWord((1,)): 1}),
    ],
    ids=[
        "FQSym coefficient", "WQSym coefficient", "FQSym times float", "WQSym times float",
        "float times WQSym",
    ],
)
def test_a_float_gets_into_no_element(build):
    with pytest.raises(TypeError):
        build()
