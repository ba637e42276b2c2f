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
pack to given words, with the new maximal letter between blocks for the
lifts and nothing between them for the product.  Its relabelling tables
are cached by the block maxima, as FQSym caches its value splits, so a
join concatenates the blocks once and makes each word by one
``bytes.translate``.  Products, lifts and delta run on stored words
(``combinat._key``, ``elements.bilinear``, ``elements.erase``) and build
no key object; one cache holds each pair's packed convolution in its
three tridendriform parts, so a part product makes only its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations, product as cartesian_product, repeat
from math import prod
from operator import add, le, lt
from typing import Sequence

from .combinat import _LETTERS, PackedWord, PlaneTree, _key, _shift, packed_words, plane_tree_of_word
from .elements import WQSymElement, bilinear, erase, keyed
from .errors import EmptyOperand
from .series import BinomialPoly

EMPTY_WORD = PackedWord.empty()


def m_basis(word: PackedWord) -> WQSymElement:
    return WQSymElement({word: 1})


def unit() -> WQSymElement:
    return WQSymElement({EMPTY_WORD: 1})


@lru_cache(maxsize=256)
def _join_tables(sizes: tuple, separated: bool) -> tuple[tuple, tuple, tuple]:
    """(tables, firsts, lasts): one relabelling table per join of blocks
    with these maxima, with the tops of its first and last supports (0 for
    an empty block).  For each feasible top, every block but the last takes
    any support in {1..top}, the last the letters still uncovered plus any
    choice of the covered ones.  A table sends 0 to 0, letter c of block i
    shifted past the maxima before it to support_i[c], and if separated the
    placeholder sum(sizes) + 1 to top + 1: a 256-byte ``bytes.translate`` table
    while every letter it reads is below 256, else a tuple.  The supports
    are readable off the word, so distinct tables give distinct words."""
    tables, firsts, lasts = [], [], []
    for top in range(max(sizes), sum(sizes) + 1):
        letters = range(1, top + 1)
        for supports in cartesian_product(*(combinations(letters, n) for n in sizes[:-1])):
            covered = set().union(*supports)
            uncovered = tuple(c for c in letters if c not in covered)
            free = sizes[-1] - len(uncovered)
            if free < 0:
                continue
            head, first = (0, *chain(*supports)), max(supports[0], default=0)
            for extra in combinations(covered, free):
                last = sorted(uncovered + extra)
                tables.append((*head, *last, *(top + 1,) * separated))
                firsts.append(first)
                lasts.append(last[-1] if last else 0)
    if sum(sizes) + separated < 256:
        tables = map(bytes.ljust, map(bytes, tables), repeat(256), repeat(b"\0"))
    return tuple(tables), tuple(firsts), tuple(lasts)


def _joins(blocks: tuple, separated: bool) -> tuple[list, tuple, tuple]:
    """Every packed word w_1 s w_2 s ... s w_k with pack(w_i) = blocks[i]
    (s the fresh maximal letter if separated, else nothing), one per table
    of ``_join_tables``, with its firsts and lasts: the blocks concatenated
    once, then one ``bytes.translate`` per word, or past 255 letters the
    same images by index."""
    sizes = tuple(max(block, default=0) for block in blocks)
    tables, firsts, lasts = _join_tables(sizes, separated)
    offsets = (0, *accumulate(sizes[:-1]))
    if sum(map(len, blocks)) + (len(blocks) - 1) * separated < 256 and {*map(type, blocks)} == {bytes}:
        separator = _LETTERS[sum(sizes) + 1] if separated else b""
        word = separator.join(map(bytes.translate, blocks, map(_shift, offsets)))
        return list(map(word.translate, tables)), firsts, lasts
    word, separator = tuple(blocks[0]), (sum(sizes) + 1,) * separated
    for block, offset in zip(blocks[1:], offsets[1:]):
        word += separator + tuple(c + offset for c in block)
    return [tuple(map(table.__getitem__, word)) for table in tables], firsts, lasts


@lru_cache(maxsize=None)
def _packed_convolve_cached(a, b) -> tuple[tuple, ...]:
    """The packed convolution of two stored words as stored words in the
    order of their letters: (prec, circ, succ, every), each word classified
    by the tops of its two supports, which are the block maxima, as
    ``_join_tables`` caches them for the maxima of a and b."""
    if not a or not b:
        return (), (), (), (a or b,)
    words, firsts, lasts = _joins((a, b), False)
    out = sorted(zip(words, map(add, map(le, firsts, lasts), map(lt, firsts, lasts))))
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
    over all blocks, sorted: stored words from stored words, one
    ``bytes.translate`` each through the separated tables of
    ``_join_tables`` (letter tuples, by index, from k >= 2 letter tuples).

    For k = 1 the degenerate sandwich is taken to be w_1 followed by the
    new maximum, which keeps "erase the maximum" a left inverse of the
    construction at every arity.
    """
    if len(blocks) == 1:
        return [_key((*blocks[0], max(blocks[0], default=0) + 1))]
    return sorted(_joins(blocks, True)[0])


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
