"""Elements keyed by stored words: the terms view, the key type each
element class fixes, the batch check of the products' words, and the
kernels on stored words against the same kernels on letter tuples, whose
block join is checked against brute force.

The products keep their terms as stored words (``combinat._key``: bytes
below 256 letters, the letter tuple beyond) and build no key object;
these tests hold them to the elements the public constructor builds
from keys, and to the kernels as they ran on letter tuples
(``references``), on small random elements and on words at the
255/256-letter boundary of the stored form.  A word reaches the kernel
here as the products hold it, through ``_key``.
"""

import json
import random
from fractions import Fraction
from itertools import product as cartesian_product

import pytest
from hypothesis import given, settings, strategies as st

from treecalc import combinat, fqsym, wqsym
from treecalc.combinat import PackedWord, Permutation, _key, pack, packed_words, permutations
from treecalc.elements import FQSymElement, WQSymElement, bilinear, keyed
from treecalc.errors import BasisMismatch

from references import (
    delta_on_tuples,
    derive_on_tuples,
    f_k_on_tuples,
    g_product_on_tuples,
    joins_on_tuples,
    m_product_on_tuples,
    packed_convolve_on_tuples,
    word_key_error,
)

PERMS = [p for n in range(4) for p in permutations(n)]
WORDS = [w for n in range(4) for w in packed_words(n)]
SHORT_WORDS = [w for n in range(3) for w in packed_words(n)]  # a third lift block stays small


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


def stored_form(element) -> bool:
    """Every word of the element is held as bytes below 256 letters and
    as an int letter tuple beyond."""
    return all(
        type(w) is bytes if len(w) < 256 else type(w) is tuple and all(type(c) is int for c in w)
        for w in element._words
    )


def agree(kernel, public):
    """kernel and public hold the same terms, and every reading of them
    agrees; both hold their words in stored form."""
    assert stored_form(kernel) and stored_form(public)
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
    one, bad = _key((1,)), _key(bad)
    with pytest.raises(ValueError) as batch:
        keyed(element, {one: 1, bad: 2})
    assert str(batch.value) == str(public.value)
    with pytest.raises(ValueError) as lifted:
        bilinear(element, element, lambda a, b: [one, bad])
    assert str(lifted.value) == str(public.value)
    # a bad word whose sum cancelled builds nothing and raises nothing
    assert keyed(element, {one: 1, bad: 0}) == element._like({key_type((1,)): 1})
    cancelling = element + element._like({key_type((1,)): -1})
    assert not bilinear(cancelling, element, lambda a, b: [bad])


def test_the_first_bad_word_is_the_one_reported():
    with pytest.raises(ValueError, match=r"1\.\.2: \(2, 2\)"):
        keyed(fqsym.unit(), {(1, 2): 1, (2, 2): 1, (3, 3, 3): 1})


@st.composite
def flawed_word(draw, n: int) -> tuple:
    """A permutation or a packed word of length n, as drawn, or with one
    flaw: a repeated letter, a 0, a negative letter, a letter above the
    length, or its letters 1 written True or integral Fractions."""
    if draw(st.booleans()):
        word = list(draw(st.permutations(range(1, n + 1))))
    else:
        letters = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        rank = {c: i for i, c in enumerate(sorted(set(letters)), 1)}
        word = [rank[c] for c in letters]
    flaw = draw(st.sampled_from(["none", "repeat", "zero", "negative", "above", "bool", "fraction"]))
    if word and flaw in ("repeat", "zero", "negative", "above"):
        spot = draw(st.integers(0, n - 1))
        word[spot] = {
            "repeat": word[draw(st.integers(0, n - 1))],
            "zero": 0,
            "negative": -draw(st.integers(1, 3)),
            "above": n + draw(st.integers(1, 2)),
        }[flaw]
    elif flaw == "bool":
        word = [True if c == 1 else c for c in word]
    elif flaw == "fraction":
        word = [Fraction(c) if draw(st.booleans()) else c for c in word]
    return tuple(word)


@st.composite
def word_batches(draw) -> list:
    """A batch of words of one length, or of mixed lengths."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        return draw(st.lists(flawed_word(n), max_size=10))
    return draw(st.lists(st.integers(0, 6).flatmap(flawed_word), max_size=10))


@given(word_batches())
@settings(max_examples=300)
def test_the_batch_and_the_constructor_check_keys_as_the_reference_does(words):
    for key_type, like in ((Permutation, FQSymElement()), (PackedWord, WQSymElement())):
        errors = {}  # stored word -> the reference error of its int letters: True and 1 are one
        for word in words:
            error = word_key_error(key_type, word)
            if error is None:
                assert key_type(word).letters == word
            else:
                with pytest.raises(ValueError) as public:
                    key_type(word)
                assert str(public.value) == error
            try:
                stored = _key(word)
            except (TypeError, ValueError):
                # no product word has such a letter: the batch never sees one
                assert any(not isinstance(c, int) or c < 0 for c in word)
                continue
            errors.setdefault(stored, word_key_error(key_type, tuple(stored)))
        first = next(filter(None, errors.values()), None)
        if first is None:
            assert keyed(like, dict.fromkeys(errors, 1)) == like._like(
                {key_type(word): 1 for word in errors}
            )
        else:
            with pytest.raises(ValueError) as batch:
                keyed(like, dict.fromkeys(errors, 1))
            assert str(batch.value) == first


@pytest.mark.parametrize("key_type", [Permutation, PackedWord])
def test_the_only_bad_word_last_in_a_long_batch_of_one_length_is_reported(key_type):
    good = permutations(7) if key_type is Permutation else packed_words(7)
    words = dict.fromkeys([key.letters for key in good], 1)
    bad = (1, 2, 3, 4, 5, 6, 6) if key_type is Permutation else (1, 2, 3, 4, 5, 6, 8)
    words[bad] = 1
    like = FQSymElement() if key_type is Permutation else WQSymElement()
    assert len(keyed(like, dict(list(words.items())[:-1]))) == len(words) - 1
    with pytest.raises(ValueError) as batch:
        keyed(like, words)
    assert str(batch.value) == word_key_error(key_type, bad)


# every word of length 0-5 over the letters 0-6 and 255, in stored form
SMALL_WORDS = [bytes(w) for n in range(6) for w in cartesian_product((*range(7), 255), repeat=n)]


def first_error(key_type, words):
    return next(filter(None, (word_key_error(key_type, tuple(w)) for w in words)), None)


@pytest.mark.parametrize("key_type", [Permutation, PackedWord])
def test_the_batch_check_of_every_small_word_is_the_reference_check(key_type, monkeypatch):
    slow = []  # the letter-set comparisons and the per-word checks the batch makes
    interval, store = combinat._interval, key_type._store
    monkeypatch.setattr(combinat, "_interval", lambda m: slow.append(m) or interval(m))
    monkeypatch.setattr(key_type, "_store", lambda key, word: slow.append(word) or store(key, word))
    # the 256-letter permutation is a key of either type, and as a letter
    # tuple it sends its batch to the letter sets
    long = tuple(range(256, 0, -1))

    def batch_error(words):
        """The text of the error the batch check raises on the words, or
        None; a batch of keys that the C check takes (bytes permutations of
        one length, bytes packed words) passes with no slow step."""
        slow.clear()
        try:
            key_type._check_words(words)
        except ValueError as error:
            return str(error)
        one_length = key_type is PackedWord or len(set(map(len, words))) <= 1
        assert not (slow and one_length and long not in words), "the batch left the C check"
        return None

    for word in SMALL_WORDS:
        error = word_key_error(key_type, tuple(word))
        assert batch_error([word]) == batch_error([long, word]) == error
    by_length = [[w for w in SMALL_WORDS if len(w) == n] for n in range(6)]
    mixed = [ws[i % len(ws)] for i in range(512) for ws in by_length]  # the lengths in turn
    for words in (*by_length, mixed):
        keys = [w for w in words if word_key_error(key_type, tuple(w)) is None]
        assert batch_error(keys) is None
        assert all(batch_error([key, long]) is None for key in keys)
        for bad in set(words).difference(keys):
            # the one bad word between keys of its batch
            assert batch_error(keys[:2] + [bad] + keys[2:4]) == word_key_error(key_type, tuple(bad))
        for start in range(0, len(words), 7):
            chunk = words[start : start + 7]
            assert batch_error(chunk) == batch_error(chunk + [long]) == first_error(key_type, chunk)


def test_a_repeated_letter_is_a_packed_word_and_no_permutation():
    # (1, 1) has the letter set {1}: an interval, but not {1, 2}
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(1, 1\)$"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(1, 1\)$"):
        keyed(FQSymElement(), {_key((1, 2)): 1, _key((1, 1)): 1})
    assert PackedWord((1, 1)).letters == (1, 1)
    assert keyed(WQSymElement(), {_key((1, 2)): 1, _key((1, 1)): 1}) == WQSymElement(
        {pw(1, 2): 1, pw(1, 1): 1}
    )


def test_the_stored_form_is_bytes_below_256_letters_and_refuses_what_no_byte_holds():
    assert _key((2, 1, 3)) == b"\x02\x01\x03" and _key(()) == b""
    short, long = tuple(range(255, 0, -1)), tuple(range(256, 0, -1))
    assert type(_key(short)) is bytes and tuple(_key(short)) == short
    assert type(_key(long)) is tuple and _key(long) == long
    assert _key(list(long)) == long
    # a negative letter, a letter above 255 and a non-integer letter fit no byte
    for word, error in (((1, -1), ValueError), ((256, 1), ValueError), ((Fraction(1),), TypeError)):
        with pytest.raises(error):
            _key(word)
    # the public constructor still reports such a word by its key rule
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(1, -1\)$"):
        Permutation((1, -1))


@pytest.mark.parametrize("key_type", [Permutation, PackedWord])
def test_every_letter_is_stored_as_an_int(key_type):
    for word, ints in (((True, 2), (1, 2)), ((Fraction(2), 1), (2, 1)), ((2, True), (2, 1))):
        key = key_type(word)
        assert key.letters == ints and all(type(c) is int for c in key.letters)
        assert key == key_type(ints) and hash(key) == hash(key_type(ints))
        text = "".join(map(str, ints))
        assert str(key) == key.to_text() == text
        assert repr(key) == f"{key_type.__name__}({ints})"
        like = FQSymElement() if key_type is Permutation else WQSymElement()
        element = like._like({key: 1})
        assert str(element) == f"[{text}]" and element == like._like({key_type(ints): 1})
    # a word of ints is stored as given
    letters = (2, 1)
    assert key_type(letters).letters is letters


@pytest.mark.parametrize("key_type", [Permutation, PackedWord])
def test_an_unhashable_letter_is_a_type_error(key_type):
    # a key is checked by its set of letters, and a list is no set member;
    # no product word holds one, since the words are dict keys
    for word in (([1],), (1, [2])):
        with pytest.raises(TypeError, match="unhashable"):
            key_type(word)


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


# ---------------------------------------------------------------------------
# the kernels against the tuple kernels
# ---------------------------------------------------------------------------


def same(kernel, reference):
    """Equal elements, equal readings, and the kernel's words in stored form."""
    assert stored_form(kernel)
    assert kernel == reference
    assert kernel.to_json() == reference.to_json()


G_PRODUCTS = {
    "product": (fqsym.product, 2, False),
    "prec": (fqsym.prec_product, 0, False),
    "succ": (fqsym.succ_product, 1, False),
    "b_product": (fqsym.b_product, 2, True),
}
M_PRODUCTS = {
    "prec": (wqsym.prec_product, 0),
    "circ": (wqsym.circ_product, 1),
    "succ": (wqsym.succ_product, 2),
    "product": (wqsym.product, 3),
}


def nonempty(x):
    return x._like({key: c for key, c in x.terms.items() if len(key)})


@settings(deadline=None, max_examples=60)
@given(
    drawn(PERMS, g_element),
    drawn(PERMS, g_element),
    drawn(WORDS, WQSymElement),
    drawn(WORDS, WQSymElement),
    drawn(SHORT_WORDS, WQSymElement),
)
def test_the_kernels_agree_with_the_tuple_kernels(x, y, u, v, w):
    for kernel, part, top in G_PRODUCTS.values():
        a, b = (x, y) if part == 2 else (nonempty(x), nonempty(y))
        same(kernel(a, b), g_product_on_tuples(a, b, part, top))
    same(fqsym.derive(x), derive_on_tuples(x))
    same(fqsym.derive(fqsym.b_product(x, y)), derive_on_tuples(fqsym.b_product(x, y)))
    for kernel, part in M_PRODUCTS.values():
        a, b = (u, v) if part == 3 else (nonempty(u), nonempty(v))
        same(kernel(a, b), m_product_on_tuples(a, b, part))
    same(wqsym.delta(u), delta_on_tuples(u))
    same(wqsym.delta(wqsym.product(u, v)), delta_on_tuples(wqsym.product(u, v)))
    for args in ([u], [u, v], [w, u, w]):
        same(wqsym.f_k(args), f_k_on_tuples(args))


def test_the_tuple_join_is_every_packed_word_its_blocks_pack_to():
    # by brute force over the packed words of length <= 6, each with the
    # tops of its first and last block: cut at one point for a product, and
    # at every copy of the top letter for a sandwich of two blocks or more
    def add(joined: dict, w: tuple, blocks: list) -> None:
        key = tuple(pack(block).letters for block in blocks)
        joined.setdefault(key, []).append((w, max(blocks[0], default=0), max(blocks[-1], default=0)))

    products, sandwiches = {}, {}
    words = [[w.letters for w in packed_words(n)] for n in range(7)]
    for n, ws in enumerate(words):
        for w in ws:
            for i in range(n + 1):
                add(products, w, [w[:i], w[i:]])
            cuts = [i for i, c in enumerate(w) if c == max(w, default=0)]
            if cuts:
                add(sandwiches, w, [w[i + 1 : j] for i, j in zip((-1, *cuts), (*cuts, n))])
    for separated, k in [(False, 2), *((True, k) for k in range(2, 8))]:
        joined = products if not separated else sandwiches
        for lengths in cartesian_product(range(7 - (k - 1) * separated), repeat=k):
            if sum(lengths) + (k - 1) * separated <= 6:
                for blocks in cartesian_product(*(words[n] for n in lengths)):
                    got = sorted(joins_on_tuples(blocks, separated))
                    assert got == sorted(joined.get(blocks, []))


# ---------------------------------------------------------------------------
# the 255/256-letter boundary
# ---------------------------------------------------------------------------


def shuffled(n: int, seed: int) -> tuple:
    letters = list(range(1, n + 1))
    random.Random(seed).shuffle(letters)
    return tuple(letters)


def packed(n: int, top: int, seed: int) -> tuple:
    """A packed word of length n on the letters 1..top, the top one once."""
    rng = random.Random(seed)
    letters = list(range(1, top)) + [rng.randint(1, top - 1) for _ in range(n - top)]
    rng.shuffle(letters)
    spot = rng.randrange(n)
    return tuple(letters[:spot]) + (top,) + tuple(letters[spot:])


@pytest.mark.parametrize("n", [252, 253, 254, 255, 256])
def test_g_products_with_a_one_letter_word_cross_the_boundary(n):
    x = FQSymElement({Permutation(shuffled(n, n)): 2, Permutation(shuffled(n, -n)): -1})
    one = fqsym.g_basis(Permutation((1,)))
    for a, b in ((x, one), (one, x)):
        for kernel, part, top in G_PRODUCTS.values():
            same(kernel(a, b), g_product_on_tuples(a, b, part, top))
    # the unit takes the other path: one word, maybe a new top letter
    for a, b in ((x, fqsym.unit()), (fqsym.unit(), x)):
        same(fqsym.product(a, b), x)
        same(fqsym.b_product(a, b), g_product_on_tuples(a, b, 2, True))


@pytest.mark.parametrize("n", [254, 255, 256, 257])
def test_derive_and_delta_cross_the_boundary(n):
    x = FQSymElement({Permutation(shuffled(n, n)): 1, Permutation(shuffled(n, n + 1)): Fraction(1, 2)})
    same(fqsym.derive(x), derive_on_tuples(x))
    assert {len(w) for w in fqsym.derive(x)._words} == {n - 1}
    lifted = fqsym.b_product(x, fqsym.g_basis(Permutation((1,))))
    same(fqsym.derive(lifted), derive_on_tuples(lifted))
    # one copy of the top letter, or two, or every letter the top one
    words = [packed(n, 200, n), packed(n, 200, n) + (201, 201), (1,) * n, packed(n, n, n)]
    v = WQSymElement({PackedWord(w): i + 1 for i, w in enumerate(words)})
    same(wqsym.delta(v), delta_on_tuples(v))
    assert set(map(len, wqsym.delta(v)._words)) == {n - 1, n, 0}


@pytest.mark.parametrize("n", [254, 255])
def test_m_products_and_lifts_cross_the_boundary(n):
    u = WQSymElement({PackedWord(packed(n, 100, n)): 1})
    one = wqsym.m_basis(PackedWord((1,)))
    for a, b in ((u, one), (one, u)):
        for kernel, part in M_PRODUCTS.values():
            same(kernel(a, b), m_product_on_tuples(a, b, part))
    for args in ([u], [u, one], [one, u]):
        same(wqsym.f_k(args), f_k_on_tuples(args))
    word = PackedWord(packed(n, 100, n))
    for a, b in ((word, PackedWord((1,))), (PackedWord((1,)), word)):
        every = packed_convolve_on_tuples(a.letters, b.letters)[3]
        assert [w.letters for w in wqsym.packed_convolve(a, b)] == list(every)


@pytest.mark.parametrize("n", [256, 257])
def test_m_products_and_lifts_past_the_boundary(n):
    # a letter tuple joins a one-letter word into letter tuples, relabelled by index
    u = WQSymElement({PackedWord(packed(n, 100, n)): 1, PackedWord(packed(n, 3, -n)): -2})
    one = wqsym.m_basis(PackedWord((1,)))
    for a, b in ((u, one), (one, u)):
        for kernel, part in M_PRODUCTS.values():
            same(kernel(a, b), m_product_on_tuples(a, b, part))
    for args in ([u], [u, one], [one, u]):
        same(wqsym.f_k(args), f_k_on_tuples(args))
    word = PackedWord(packed(n, 100, n))
    for a, b in ((word, PackedWord((1,))), (PackedWord((1,)), word)):
        expected = packed_convolve_on_tuples(a.letters, b.letters)
        assert [w.letters for w in wqsym.packed_convolve(a, b)] == list(expected[3])
        split = wqsym.tridendriform_split(a, b)
        assert [[w.letters for w in part] for part in split] == list(map(list, expected[:3]))


def test_one_element_with_words_on_both_sides_of_the_boundary():
    short, long = Permutation(shuffled(255, 1)), Permutation(shuffled(256, 1))
    x = FQSymElement({long: 2, short: -1, Permutation((1,)): Fraction(1, 3)})
    assert [type(w) for w in x._words] == [tuple, bytes, bytes]
    assert x.sorted_terms() == [(Permutation((1,)), Fraction(1, 3)), (short, -1), (long, 2)]
    assert x.support() == [Permutation((1,)), short, long]
    assert str(x) == f"1/3*[1] + (-1)*[{short.to_text()}] + 2*[{long.to_text()}]"
    assert json.loads(json.dumps(x.to_json()))["terms"] == [
        {"perm": "1", "coeff": "1/3"},
        {"perm": short.to_text(), "coeff": "-1"},
        {"perm": long.to_text(), "coeff": "2"},
    ]
    assert x.coefficient(short) == -1 and x.coefficient(long) == 2
    assert x.coefficient(Permutation(shuffled(256, 2))) == 0
    assert x.terms == {long: 2, short: -1, Permutation((1,)): Fraction(1, 3)}
    y = FQSymElement({short: 1, long: 1})
    assert x + y == FQSymElement({long: 3, Permutation((1,)): Fraction(1, 3)})
    assert x - x == FQSymElement() and not x - x
    assert x == FQSymElement(dict(reversed(list(x.terms.items()))))
    assert x != FQSymElement({long: 2, short: -1})
