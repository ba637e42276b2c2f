"""Word quasi-symmetric functions on the M basis.

The product is packed convolution: M_a M_b sums M_w over the packed
words w whose prefix of length |a| packs to a and whose suffix packs to
b.  It splits three ways by comparing the maxima of the two blocks
(the tridendriform structure).  The finite-difference map erases every
occurrence of the maximal letter; the sandwich operations insert a new
maximal letter between k blocks and lift the k-fold product through it.
Evaluating M_u at a binomial coefficient C(t, max u) turns all of this
into the discrete calculus of polynomials in the binomial basis.

One block join builds them all: the packed words joining blocks that
pack to given words, each block relabelled onto its support by one
``bytes.translate``, with the new maximal letter between blocks for the
lifts and nothing between them for the product.  Products, lifts and
delta run on stored words (``combinat._key``, ``elements.bilinear``,
``elements.erase``) and build no key object; one cache holds each pair's packed convolution in
its three tridendriform parts, so a part product makes only its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, filterfalse, product as cartesian_product
from math import prod
from typing import Iterator, Sequence

from .combinat import PackedWord, PlaneTree, _key, packed_words, plane_tree_of_word
from .elements import WQSymElement, bilinear, erase, keyed
from .errors import EmptyOperand
from .series import BinomialPoly

EMPTY_WORD = PackedWord.empty()


def m_basis(word: PackedWord) -> WQSymElement:
    return WQSymElement({word: 1})


def unit() -> WQSymElement:
    return WQSymElement({EMPTY_WORD: 1})


def _joins(blocks: tuple, separated: bool) -> Iterator[tuple]:
    """Each packed word w_1 s w_2 s ... s w_k with pack(w_i) = blocks[i],
    s the fresh maximal letter top + 1 if separated and nothing otherwise,
    with the tops of the supports of w_1 and w_k (0 for an empty block).

    For each feasible top, every block but the last takes any support in
    {1..top} and the last the letters still uncovered plus any choice of
    the covered ones (a head leaving it too few letters is skipped); each
    block is relabelled onto its support (letter c to support[c]), by one
    ``bytes.translate`` through the 256-byte table of the support if the
    blocks are bytes and the join has under 256 letters (exact: each letter
    of a block indexes the support), else by index.  The supports are
    readable off the word, so distinct choices give distinct words.
    """
    *head, last = blocks
    sizes = [max(block, default=0) for block in blocks]
    if sum(map(len, blocks)) + len(head) * separated < 256 and {*map(type, blocks)} == {bytes}:
        form, relabel = bytes, lambda w, support: w.translate(bytes(support).ljust(256, b"\0"))
    else:
        form, relabel = tuple, lambda w, support: tuple(map(support.__getitem__, w))
    for top in range(max(sizes), sum(sizes) + 1):
        letters = range(1, top + 1)
        separator = form((top + 1,) if separated else ())
        for supports in cartesian_product(*(combinations(letters, n) for n in sizes[:-1])):
            covered = set().union(*supports)
            # a leading 0 makes support[c] the image of letter c, and 0 the top of none
            uncovered = (0, *filterfalse(covered.__contains__, letters))
            free = sizes[-1] + 1 - len(uncovered)
            if free < 0:
                continue
            prefix = form()
            for block, support in zip(head, supports):
                prefix += relabel(block, (0, *support)) + separator
            first = (0, *supports[0])[-1]  # a support is sorted
            for extra in combinations(covered, free):
                support = sorted(uncovered + extra)
                yield prefix + relabel(last, support), first, support[-1]


@lru_cache(maxsize=None)
def _packed_convolve_cached(a, b) -> tuple[tuple, ...]:
    """The packed convolution of two stored words as stored words in the
    order of their letters: (prec, circ, succ, every), each word classified
    by its two support tops, which are the block maxima."""
    if not a or not b:
        return (), (), (), (a or b,)
    out = sorted((w, (left <= right) + (left < right)) for w, left, right in _joins((a, b), False))
    parts = (tuple(w for w, kind in out if kind == part) for part in range(3))
    return (*parts, tuple(w for w, _ in out))


def packed_convolve(a: PackedWord, b: PackedWord) -> list[PackedWord]:
    """All packed w = u.v with |u| = |a|, pack(u) = a, pack(v) = b, built
    directly by the block join, sorted lexicographically and
    duplicate-free."""
    return [PackedWord(w) for w in _packed_convolve_cached(_key(a.letters), _key(b.letters))[3]]


def product(
    x: WQSymElement, y: WQSymElement, *, max_length: int | None = None
) -> WQSymElement:
    """Bilinear extension of packed convolution.

    max_length truncates by word length during accumulation, which keeps
    powers of the graded generating element affordable.
    """

    def words(a, b) -> tuple:
        if max_length is not None and len(a) + len(b) > max_length:
            return ()
        return _packed_convolve_cached(a, b)[3]

    return bilinear(x, y, words)


def _split_words(a, b, part: int) -> tuple:
    if not a or not b:
        raise EmptyOperand("tridendriform operations need nonempty operands")
    return _packed_convolve_cached(a, b)[part]


def tridendriform_split(
    a: PackedWord, b: PackedWord
) -> tuple[list[PackedWord], list[PackedWord], list[PackedWord]]:
    """Partition the packed convolution by comparing block maxima:
    prec has max(prefix) > max(suffix), circ equality, succ the rest."""
    prec, circ, succ = (
        list(map(PackedWord, _split_words(_key(a.letters), _key(b.letters), p))) for p in range(3)
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
    return erase(x, max)


def _sandwich_words(blocks: tuple) -> list:
    """The packed words w = w_1 m w_2 m ... m w_k where pack(w_i) matches
    the given blocks (packed words) and m is one more than the maximum
    over all blocks, sorted: stored words from stored words, as
    ``_joins`` gives them (letter tuples from k >= 2 letter tuples).

    For k = 1 the degenerate sandwich is taken to be w_1 followed by the
    new maximum, which keeps "erase the maximum" a left inverse of the
    construction at every arity.
    """
    if len(blocks) == 1:
        return [_key((*blocks[0], max(blocks[0], default=0) + 1))]
    return sorted(w for w, _, _ in _joins(blocks, True))


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
    the given shape, by a scan over all of them.  The scan passes one table
    to plane_tree_of_word as ``shared``, so the words build their equal
    subtrees once."""
    out: dict = {}
    shared: dict = {}
    for word in packed_words(n, unsafe_large=unsafe_large):
        if plane_tree_of_word(word.letters, shared) == tree:
            out[word] = 1
    return WQSymElement(out)
