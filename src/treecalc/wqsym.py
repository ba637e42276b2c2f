"""Word quasi-symmetric functions on the M basis.

The product is packed convolution: M_a M_b sums M_w over the packed
words w whose prefix of length |a| packs to a and whose suffix packs to
b.  It splits three ways by comparing the maxima of the two blocks
(the tridendriform structure).  The finite-difference map erases every
occurrence of the maximal letter; the sandwich operations insert a new
maximal letter between k blocks and lift the k-fold product through it.
Evaluating M_u at a binomial coefficient C(t, max u) turns all of this
into the discrete calculus of polynomials in the binomial basis.

Products and delta run on bare letter tuples (``elements.bilinear``) and
build no key object; one cache holds each pair's packed convolution split
into the three tridendriform parts, so a part product makes only its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product as cartesian_product
from math import prod
from typing import Sequence

from .combinat import PackedWord, PlaneTree, packed_words, plane_tree_of_word
from .elements import WQSymElement, bilinear, keyed
from .errors import EmptyOperand
from .series import BinomialPoly

EMPTY_WORD = PackedWord.empty()


def m_basis(word: PackedWord) -> WQSymElement:
    return WQSymElement({word: 1})


def unit() -> WQSymElement:
    return WQSymElement({EMPTY_WORD: 1})


def _relabel(letters: tuple[int, ...], values: Sequence[int]) -> tuple[int, ...]:
    """Send letter i to values[i-1]; values must be increasing."""
    return tuple(values[c - 1] for c in letters)


def _letter_supports(sizes: Sequence[int], top: int):
    """All ways to choose an increasing support of the given size in
    {1..top} for each block so that the supports jointly cover {1..top}.

    Built without rejection: the last block is forced to contain every
    letter not covered so far, and branches that can no longer cover the
    alphabet are pruned.
    """
    letters = range(1, top + 1)
    k = len(sizes)
    tail_capacity = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        tail_capacity[i] = tail_capacity[i + 1] + sizes[i]

    def rec(index: int, covered: frozenset):
        if index == k - 1:
            size = sizes[index]
            missing = tuple(c for c in letters if c not in covered)
            if len(missing) > size:
                return
            for extra in combinations(sorted(covered), size - len(missing)):
                yield (tuple(sorted(missing + extra)),)
            return
        for support in combinations(letters, sizes[index]):
            now_covered = covered | frozenset(support)
            if top - len(now_covered) > tail_capacity[index + 1]:
                continue
            for rest in rec(index + 1, now_covered):
                yield (support,) + rest

    yield from rec(0, frozenset())


@lru_cache(maxsize=None)
def _packed_convolve_cached(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple, ...]:
    """The packed convolution of two letter tuples as sorted letter
    tuples: (prec, circ, succ, every).  A block's maximum is the top of
    its support, so each word is classified as it is built."""
    if not a or not b:
        return (), (), (), (a + b,)
    p, r = max(a), max(b)
    out = []
    for top in range(max(p, r), p + r + 1):
        for support_a, support_b in _letter_supports((p, r), top):
            left, right = support_a[-1], support_b[-1]
            part = (left <= right) + (left < right)
            out.append((_relabel(a, support_a) + _relabel(b, support_b), part))
    out.sort()
    parts = (tuple(w for w, kind in out if kind == part) for part in range(3))
    return (*parts, tuple(w for w, _ in out))


def packed_convolve(a: PackedWord, b: PackedWord) -> list[PackedWord]:
    """All packed w = u.v with |u| = |a|, pack(u) = a, pack(v) = b.

    Words are built directly: choose the letter supports of the two
    blocks inside {1..M} for every feasible overall maximum M, then
    relabel each block onto its support.  Results are sorted
    lexicographically and duplicate-free (the supports are readable off
    any result, so distinct choices give distinct words).
    """
    return [PackedWord(w) for w in _packed_convolve_cached(a.letters, b.letters)[3]]


def product(
    x: WQSymElement, y: WQSymElement, *, max_length: int | None = None
) -> WQSymElement:
    """Bilinear extension of packed convolution.

    max_length truncates by word length during accumulation, which keeps
    powers of the graded generating element affordable.
    """

    def words(a: tuple, b: tuple) -> tuple:
        if max_length is not None and len(a) + len(b) > max_length:
            return ()
        return _packed_convolve_cached(a, b)[3]

    return bilinear(x, y, words)


def _split_words(a: tuple, b: tuple, part: int) -> tuple:
    if not a or not b:
        raise EmptyOperand("tridendriform operations need nonempty operands")
    return _packed_convolve_cached(a, b)[part]


def tridendriform_split(
    a: PackedWord, b: PackedWord
) -> tuple[list[PackedWord], list[PackedWord], list[PackedWord]]:
    """Partition the packed convolution by comparing block maxima:
    prec has max(prefix) > max(suffix), circ equality, succ the rest."""
    prec, circ, succ = (
        [PackedWord(w) for w in _split_words(a.letters, b.letters, part)] for part in range(3)
    )
    return prec, circ, succ


def _split_product(x: WQSymElement, y: WQSymElement, part: int) -> WQSymElement:
    return bilinear(x, y, lambda a, b: _split_words(a, b, part))


def prec_product(x: WQSymElement, y: WQSymElement) -> WQSymElement:
    return _split_product(x, y, 0)


def circ_product(x: WQSymElement, y: WQSymElement) -> WQSymElement:
    return _split_product(x, y, 1)


def succ_product(x: WQSymElement, y: WQSymElement) -> WQSymElement:
    return _split_product(x, y, 2)


def delta(x: WQSymElement) -> WQSymElement:
    """Erase all occurrences of the maximal letter of every basis word.

    A word of length n with r copies of its maximum lands in length
    n - r, so this walks down the length filtration rather than the
    grading; the constant word 1...1 maps to the unit and the unit
    itself to zero.
    """
    out: dict = {}
    for letters, c in x._words.items():
        if letters:
            m = max(letters)
            shorter = tuple(letter for letter in letters if letter != m)
            out[shorter] = out.get(shorter, 0) + c
    return keyed(x, out)


def _sandwich_words(blocks: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Letter tuples of the packed words w = w_1 m w_2 m ... m w_k where
    pack(w_i) matches the given blocks (packed letter tuples) and m is one
    more than the maximum over all blocks.

    For k = 1 the degenerate sandwich is taken to be w_1 followed by the
    new maximum, which keeps "erase the maximum" a left inverse of the
    construction at every arity.
    """
    if len(blocks) == 1:
        block = blocks[0]
        return [block + (max(block, default=0) + 1,)]
    sizes = tuple(max(block, default=0) for block in blocks)
    out = []
    for top in range(max(sizes, default=0), sum(sizes) + 1):
        for supports in _letter_supports(sizes, top):
            separator = (top + 1,)
            word: tuple[int, ...] = ()
            for i, block in enumerate(blocks):
                if i:
                    word += separator
                word += _relabel(block, supports[i])
            out.append(word)
    out.sort()
    return out


def f_k(args: Sequence[WQSymElement]) -> WQSymElement:
    """The k-linear sandwich lift: on basis words it sums M_w over all
    packed w obtained by joining blocks packing to the arguments with a
    fresh maximal letter; erasing that letter recovers the k-fold
    product."""
    if not args:
        raise ValueError("f_k needs at least one argument")
    out: dict = {}
    # each argument's terms in the order of their keys, (length, letters)
    ordered = [sorted(x._words.items(), key=lambda item: (len(item[0]), item[0])) for x in args]
    for terms in cartesian_product(*ordered):
        coeff = prod(c for _, c in terms)
        for w in _sandwich_words(tuple(w for w, _ in terms)):
            out[w] = out.get(w, 0) + coeff
    return keyed(args[0], out)


def psi(x: WQSymElement) -> BinomialPoly:
    """Evaluate M_u to the binomial coefficient C(t, max u); an algebra
    homomorphism onto polynomials in the binomial basis."""
    out: dict = {}
    for word, c in x._words.items():
        k = max(word, default=0)
        out[k] = out.get(k, 0) + c
    return BinomialPoly(out)


def tree_fiber_element(
    tree: PlaneTree, n: int, *, unsafe_large: bool = False
) -> WQSymElement:
    """Sum of M_u over the packed words u of length n whose plane tree is
    the given shape."""
    out: dict = {}
    for word in packed_words(n, unsafe_large=unsafe_large):
        if plane_tree_of_word(word.letters) == tree:
            out[word] = 1
    return WQSymElement(out)
