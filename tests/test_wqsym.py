from itertools import chain, product as iter_product
from math import comb

import pytest

from treecalc.arith import QPoly
from treecalc.combinat import PackedWord, PlaneTree, pack, packed_words
from treecalc.elements import WQSymElement
from treecalc.errors import EmptyOperand
from treecalc.series import BinomialPoly
from treecalc.wqsym import (
    _join_tables,
    _packed_convolve_cached,
    _sandwich_words,
    circ_product,
    delta,
    f_k,
    m_basis,
    packed_convolve,
    prec_product,
    product,
    psi,
    succ_product,
    tree_fiber_element,
    tridendriform_split,
    unit,
)

from references import graded_word_sum, packed_convolve_on_tuples, sandwich_words_on_tuples


def pw(*letters) -> PackedWord:
    return PackedWord(letters)


def texts(ws) -> list[str]:
    return [w.to_text() for w in ws]


# ---------------------------------------------------------------------------
# packed convolution
# ---------------------------------------------------------------------------


def test_packed_convolve_five_term_product():
    result = packed_convolve(pw(1, 1), pw(2, 1))
    assert texts(result) == ["1121", "1132", "2221", "2231", "3321"]


def test_packed_convolve_trivia():
    u = pw(1, 2, 1)
    assert packed_convolve(PackedWord.empty(), u) == [u]
    assert packed_convolve(u, PackedWord.empty()) == [u]
    assert texts(packed_convolve(pw(1), pw(1))) == ["11", "12", "21"]


def test_packed_convolve_against_filter(packed_by_length):
    # oracle: enumerate all packed words of the joint length and test the
    # two packing conditions directly
    for k in range(1, 6):
        for l in range(1, 7 - k):
            oracle: dict = {}
            for w in packed_by_length[k + l]:
                key = (pack(w.letters[:k]), pack(w.letters[k:]))
                oracle.setdefault(key, []).append(w)
            for a in packed_by_length[k]:
                for b in packed_by_length[l]:
                    expected = sorted(oracle.get((a, b), []))
                    assert packed_convolve(a, b) == expected


def test_product_bilinear():
    x = m_basis(pw(1, 1)) + m_basis(pw(1))
    y = m_basis(pw(2, 1))
    lhs = product(x, y)
    rhs = product(m_basis(pw(1, 1)), y) + product(m_basis(pw(1)), y)
    assert lhs == rhs
    assert product(unit(), y) == y


# ---------------------------------------------------------------------------
# tridendriform structure
# ---------------------------------------------------------------------------


def test_tridendriform_split_examples():
    prec, circ, succ = tridendriform_split(pw(1), pw(1))
    assert texts(prec) == ["21"]
    assert texts(circ) == ["11"]
    assert texts(succ) == ["12"]

    prec, circ, succ = tridendriform_split(pw(1, 1), pw(2, 1))
    assert texts(prec) == ["3321"]
    assert texts(circ) == ["2221"]
    assert texts(succ) == ["1121", "1132", "2231"]


def test_tridendriform_partitions_convolution(packed_by_length):
    for k in range(1, 5):
        for l in range(1, 6 - k):
            for a in packed_by_length[k]:
                for b in packed_by_length[l]:
                    prec, circ, succ = tridendriform_split(a, b)
                    assert sorted(prec + circ + succ) == packed_convolve(a, b)
                    assert len(prec) + len(circ) + len(succ) == len(
                        set(prec) | set(circ) | set(succ)
                    )


# ---------------------------------------------------------------------------
# the block join by cached relabelling tables
# ---------------------------------------------------------------------------


def test_the_table_join_is_the_tuple_join(packed_by_length):
    # every pair of packed words of total length <= 6, and every separated
    # tuple of 2 or 3 blocks of total length <= 5, as bytes and as letter tuples
    for k in range(7):
        for l in range(7 - k):
            for a, b in iter_product(packed_by_length[k], packed_by_length[l]):
                expected = packed_convolve_on_tuples(a.letters, b.letters)
                for form in (bytes, tuple):
                    got = _packed_convolve_cached(form(a.letters), form(b.letters))
                    assert {*map(type, chain(*got))} <= {form}
                    assert [list(map(tuple, part)) for part in got] == list(map(list, expected))
                if k and l:
                    split = [[w.letters for w in part] for part in tridendriform_split(a, b)]
                    assert split == list(map(list, expected[:3]))
    for blocks_count in (2, 3):
        for lengths in iter_product(range(6), repeat=blocks_count):
            if sum(lengths) > 5:
                continue
            for blocks in iter_product(*(packed_by_length[n] for n in lengths)):
                letters = tuple(block.letters for block in blocks)
                expected = sandwich_words_on_tuples(letters)
                assert _sandwich_words(tuple(map(bytes, letters))) == list(map(bytes, expected))
                assert _sandwich_words(letters) == expected


def test_tables_past_255_letters_are_tuples():
    # maxima summing past 255 letters: a tuple table, read by index
    wide = tuple(range(255, 0, -1))
    for blocks, separated in (((wide, (1,)), False), (((1,), wide), False), ((wide[1:], (1,)), True)):
        sizes = tuple(map(max, blocks))
        assert {*map(type, _join_tables(sizes, separated)[0])} == {tuple}
        if separated:
            assert _sandwich_words(blocks) == sandwich_words_on_tuples(blocks)
        else:
            assert list(_packed_convolve_cached(*blocks)) == list(packed_convolve_on_tuples(*blocks))


def test_a_table_cache_entry_holds_one_table_per_join():
    # sum over the tops m of C(m, a) * C(a, a + b - m): a support of a in
    # {1..m}, then the last block covers the m - a letters it leaves
    assert _join_tables.cache_info().maxsize is not None
    for a, b in iter_product(range(7), repeat=2):
        count = sum(comb(m, a) * comb(a, a + b - m) for m in range(max(a, b), a + b + 1))
        for separated in (False, True):
            tables, firsts, lasts = _join_tables((a, b), separated)
            assert len(tables) == len(firsts) == len(lasts) == count
            assert {*map(len, tables)} == {256}
    assert len(_join_tables((3, 3), False)[0]) == 63
    assert len(_join_tables((6, 6), False)[0]) == 8989


def test_tridendriform_empty_operand():
    with pytest.raises(EmptyOperand):
        tridendriform_split(PackedWord.empty(), pw(1))


# ---------------------------------------------------------------------------
# the finite-difference map
# ---------------------------------------------------------------------------


def test_delta_examples():
    assert delta(m_basis(pw(5, 2, 1, 1, 3, 5, 4))) == m_basis(pw(2, 1, 1, 3, 4))
    assert delta(m_basis(pw(1, 1))) == unit()
    assert delta(unit()) == WQSymElement({})


def test_delta_trilinear_leibniz(packed_by_length):
    # delta(xy) = (delta x) y + (delta x)(delta y) + x (delta y)
    for k in range(1, 5):
        for l in range(1, 6 - k):
            for a in packed_by_length[k]:
                for b in packed_by_length[l]:
                    x, y = m_basis(a), m_basis(b)
                    lhs = delta(product(x, y))
                    dx, dy = delta(x), delta(y)
                    rhs = product(dx, y) + product(dx, dy) + product(x, dy)
                    assert lhs == rhs


def test_delta_tridendriform_compatibility(packed_by_length):
    # each third of the product carries the matching part of the rule
    for k in range(1, 5):
        for l in range(1, 6 - k):
            for a in packed_by_length[k]:
                for b in packed_by_length[l]:
                    x, y = m_basis(a), m_basis(b)
                    assert delta(prec_product(x, y)) == product(delta(x), y)
                    assert delta(circ_product(x, y)) == product(delta(x), delta(y))
                    assert delta(succ_product(x, y)) == product(x, delta(y))


# ---------------------------------------------------------------------------
# sandwich operations
# ---------------------------------------------------------------------------


def test_f_k_five_term_lift():
    element = f_k([m_basis(pw(1, 1)), m_basis(pw(2, 1))])
    assert texts(sorted(element.terms)) == [
        "11321",
        "11432",
        "22321",
        "22431",
        "33421",
    ]
    assert all(c == 1 for c in element.terms.values())


def test_f_k_unit_cases():
    assert f_k([unit()]) == m_basis(pw(1))
    assert f_k([m_basis(pw(1, 1))]) == m_basis(pw(1, 1, 2))
    assert f_k([unit(), unit()]) == m_basis(pw(1))
    assert f_k([unit(), unit(), unit()]) == m_basis(pw(1, 1))


def test_f_k_needs_an_argument():
    with pytest.raises(ValueError):
        f_k([])


def test_delta_of_f_k_is_product(packed_by_length):
    cases = [
        [pw(1, 1)],
        [pw(1), pw(1)],
        [pw(1, 1), pw(2, 1)],
        [pw(2, 1), pw(1)],
        [pw(1), pw(1), pw(1, 2)],
    ]
    for blocks in cases:
        elements = [m_basis(b) for b in blocks]
        lifted = f_k(elements)
        expected = elements[0]
        for e in elements[1:]:
            expected = product(expected, e)
        assert delta(lifted) == expected


def test_sandwich_words_against_filter(packed_by_length):
    # oracle: every packed word of length <= 7 whose maximum occurs exactly
    # once or twice, keyed by the packings of the blocks between those slots
    oracle: dict = {}
    for n in range(1, 8):
        for w in packed_by_length[n] if n < 7 else packed_words(7):
            top = max(w.letters)
            slots = [i for i, c in enumerate(w.letters) if c == top]
            if len(slots) <= 2:
                bounds = zip((-1, *slots), (*slots, n))
                key = tuple(pack(w.letters[i + 1 : j]) for i, j in bounds)
                oracle.setdefault(key, []).append(w.letters)
    for k in (2, 3):
        for lengths in iter_product(range(9 - k), repeat=k):
            if sum(lengths) + k - 1 > 7:
                continue
            for blocks in iter_product(*(packed_by_length[l] for l in lengths)):
                expected = sorted(oracle.get(blocks, []))
                assert _sandwich_words(tuple(b.letters for b in blocks)) == expected


def test_f_k_multilinear():
    x = m_basis(pw(1)) + 2 * m_basis(pw(1, 1))
    y = m_basis(pw(1))
    lhs = f_k([x, y])
    rhs = f_k([m_basis(pw(1)), y]) + 2 * f_k([m_basis(pw(1, 1)), y])
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the binomial evaluation
# ---------------------------------------------------------------------------


def test_psi_examples():
    assert psi(m_basis(pw(1, 1))) == BinomialPoly({1: 1})
    assert psi(m_basis(pw(2, 1))) == BinomialPoly({2: 1})
    assert psi(unit()) == BinomialPoly({0: 1})


def test_psi_is_multiplicative(packed_by_length):
    for k in range(1, 4):
        for l in range(1, 6 - k):
            for a in packed_by_length[k]:
                for b in packed_by_length[l]:
                    x, y = m_basis(a), m_basis(b)
                    assert psi(product(x, y)) == psi(x) * psi(y)


def test_psi_product_example_both_sides():
    # psi(M_11 M_21) expands the five-term product; the other side is a
    # polynomial product in the binomial basis
    lhs = psi(product(m_basis(pw(1, 1)), m_basis(pw(2, 1))))
    rhs = BinomialPoly({1: 1}) * BinomialPoly({2: 1})
    assert lhs == rhs
    assert lhs == BinomialPoly({2: 2, 3: 3})


# ---------------------------------------------------------------------------
# plane-tree fibers
# ---------------------------------------------------------------------------


def test_element_json_dump():
    element = m_basis(pw(1, 1)) + 2 * m_basis(pw(2, 1))
    assert element.to_json() == {
        "terms": [
            {"word": "11", "coeff": "1"},
            {"word": "21", "coeff": "2"},
        ]
    }


def test_tree_fiber_element_single_word():
    tree = PlaneTree.from_text("(**)")
    assert tree_fiber_element(tree, 1) == m_basis(pw(1))


def test_tree_fiber_element_thirteen_words():
    tree = PlaneTree.from_text("((**)(**)(***))")
    element = tree_fiber_element(tree, 6)
    assert len(element) == 13
    by_max: dict = {}
    for word in element.terms:
        by_max[word.max_letter] = by_max.get(word.max_letter, 0) + 1
    assert by_max == {2: 1, 3: 6, 4: 6}


# ---------------------------------------------------------------------------
# the generating element equation
# ---------------------------------------------------------------------------


def _truncate(element: WQSymElement, max_len: int, max_q: int) -> WQSymElement:
    out = {}
    for key, c in element.terms.items():
        if len(key) > max_len:
            continue
        out[key] = c.truncated(max_q) if isinstance(c, QPoly) else c
    return WQSymElement(out)


def test_delta_x_equation():
    # delta X = q X^2 (1 - qX)^(-1) = sum_{n>=2} q^(n-1) X^n, compared on
    # words of length <= N-1 with q-degree <= N
    N = 5
    X = graded_word_sum(N, weight=lambda n: QPoly.monomial(n))
    max_len, max_q = N - 1, N
    lhs = _truncate(delta(X), max_len, max_q)

    X_t = _truncate(X, max_len, max_q)
    rhs = WQSymElement({})
    power = _truncate(product(X_t, X_t, max_length=max_len), max_len, max_q)
    for n in range(2, max_q + 2):
        rhs = rhs + power * QPoly.monomial(n - 1)
        power = _truncate(
            product(power, X_t, max_length=max_len), max_len, max_q
        )
    assert lhs == _truncate(rhs, max_len, max_q)
