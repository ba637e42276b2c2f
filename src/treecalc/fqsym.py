"""Free quasi-symmetric functions on the G and F bases.

The G basis multiplies by shifted convolution: G_a G_b sums G_c over all
permutations c = u.v whose factors standardize to a and b, giving
C(k+l, k) terms.  On top of that sit the dendriform half products (split
by the side holding the maximal letter), the derivation that erases the
maximal letter, the bilinear lift that inserts a new maximal letter
between the factors (whose tree iterates sum the fibers of the
decreasing-tree map), a q-shuffle deformation on the F basis, and the
q-specialization into q-series in the q-divided-power basis.

One kernel, ``_split_words``, applies the value splits to stored words as
one ``bytes.translate`` per result word (``itemgetter`` on letter tuples
past 254 letters), for the element products (``elements.bilinear``) and
for the per-pair lists of keys alike; the derivation erases through
``elements.erase``, and the q-shuffle sums on stored words too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterator

from .arith import QPoly
from .combinat import _LETTERS, BinaryTree, Permutation, _fold, _key
from .elements import FQSymElement, bilinear, erase, keyed
from .errors import EmptyOperand
from .series import QDividedSeries

EMPTY_PERM = Permutation(())


def g_basis(perm: Permutation) -> FQSymElement:
    return FQSymElement({perm: 1}, basis="G")


def f_basis(perm: Permutation) -> FQSymElement:
    return FQSymElement({perm: 1}, basis="F")


def unit(basis: str = "G") -> FQSymElement:
    return FQSymElement({EMPTY_PERM: 1}, basis=basis)


@lru_cache(maxsize=None)
def _split_values(n: int, k: int):
    """The ways to hand k of the values 1..n to the left factor, each as
    the relabelling sigma = (0, left..., right..., n + 1) that sends
    position i of a.(b shifted by k) to value sigma[i] and fixes n + 1,
    as a 256-byte ``bytes.translate`` table while n < 255, else a tuple.
    Returned as (prec, succ, every): the splits whose left values hold n,
    the others, and all in lexicographic order of the left values."""
    values = range(1, n + 1)
    table, fixed = (bytes, range(n + 1, 256)) if n < 255 else (tuple, (n + 1,))
    prec, succ, every = [], [], []
    for chosen in combinations(values, k):
        chosen_set = set(chosen)
        sigma = table((0, *chosen, *(v for v in values if v not in chosen_set), *fixed))
        every.append(sigma)
        (prec if n in chosen_set else succ).append(sigma)
    return tuple(prec), tuple(succ), tuple(every)


def _split_keys(a: Permutation, b: Permutation, part: int, top: bool = False) -> list[Permutation]:
    """_split_words(a, b, part, top) on two public keys, checked in one
    batch pass and keyed."""
    words = _split_words(_key(a.word), _key(b.word), part, top)
    Permutation._check_words(words)
    return Permutation._unchecked(words)


def convolve(a: Permutation, b: Permutation) -> list[Permutation]:
    """All c = u.v with Std(u) = a and Std(v) = b; exactly C(k+l, k) of
    them, duplicate-free, in the order induced by the value split.

    >>> [c.word for c in convolve(Permutation((1,)), Permutation((2, 1)))]
    [(1, 3, 2), (2, 3, 1), (3, 2, 1)]
    """
    return _split_keys(a, b, 2)


def half_products(a: Permutation, b: Permutation) -> tuple[list[Permutation], list[Permutation]]:
    """Split the convolution by which factor holds the maximal letter:
    prec gets max(u) > max(v), succ gets max(u) <= max(v)."""
    return _split_keys(a, b, 0), _split_keys(a, b, 1)


@lru_cache(maxsize=None)
def _shift(k: int) -> bytes:
    return bytes(range(k, 256)) + bytes(k)  # adds k to every letter below 256 - k


def _split_words(a, b, part: int, top: bool = False) -> list:
    """Part 0 (prec), 1 (succ) or 2 (every) of the value splits applied
    to the stored words a.(b shifted by |a|), in stored form, with a new
    maximal letter between the factors if top is set.  Only the half
    products (parts 0 and 1) reject an empty operand."""
    k, n = len(a), len(a) + len(b)
    if n < 255:  # a, b and every result are bytes, every letter in a table
        word = a + (_LETTERS[n + 1] if top else b"") + b.translate(_shift(k))
        if a and b:
            return list(map(word.translate, _split_values(n, k)[part]))
    else:
        word = (*a, *((n + 1,) if top else ()), *(v + k for v in b))
        if a and b:
            return list(map(_key, map(itemgetter(*word), _split_values(n, k)[part])))
        word = _key(word)
    if part < 2:
        raise EmptyOperand("half products need nonempty operands")
    return [word]  # the one split is the identity


def _g_product(x: FQSymElement, y: FQSymElement, part: int, top: bool = False) -> FQSymElement:
    """The lift of _split_words(a, b, part, top) to G-basis elements."""
    x.require_basis("G")
    y.require_basis("G")
    return bilinear(x, y, lambda a, b: _split_words(a, b, part, top))


def product(x: FQSymElement, y: FQSymElement) -> FQSymElement:
    """Bilinear extension of the convolution product (G basis)."""
    return _g_product(x, y, 2)


def _half_product(x: FQSymElement, y: FQSymElement, side: int) -> FQSymElement:
    return _g_product(x, y, side)


def prec_product(x: FQSymElement, y: FQSymElement) -> FQSymElement:
    return _half_product(x, y, 0)


def succ_product(x: FQSymElement, y: FQSymElement) -> FQSymElement:
    return _half_product(x, y, 1)


def derive(x: FQSymElement) -> FQSymElement:
    """The derivation: erase the maximal letter of every basis word.

    Degree drops by one on each homogeneous component; the degree-0 part
    is sent to zero.
    """
    x.require_basis("G")
    return erase(x, len)


def bilinear_B(a: Permutation, b: Permutation) -> list[Permutation]:
    """All c = u.(n+1).v with Std(u) = a, Std(v) = b, where n = |a|+|b|.

    Erasing the inserted maximum recovers the convolution, so this lifts
    the product through the derivation.
    """
    return _split_keys(a, b, 2, True)


def b_product(x: FQSymElement, y: FQSymElement) -> FQSymElement:
    """Bilinear extension of bilinear_B to elements (G basis)."""
    return _g_product(x, y, 2, True)


# Shapes up to this many nodes recurse, so never deeper than this.
_RECURSION_NODES = 128


@lru_cache(maxsize=None)
def tree_term(tree: BinaryTree) -> FQSymElement:
    """Evaluate the bilinear lift over a binary tree shape with 1 at the
    leaves.  The support is exactly the fiber of the decreasing-tree map
    over the shape, each with coefficient 1.

    The terms of shapes with at most _RECURSION_NODES nodes recurse and
    are shared through the cache; a larger shape folds its larger
    subtrees bottom up on top of those (combinat._fold), so depth meets no
    recursion limit.
    """
    if tree.is_empty:
        return unit("G")
    if tree.node_count <= _RECURSION_NODES:
        return b_product(tree_term(tree.left), tree_term(tree.right))
    large = lambda t: (t.left, t.right) if t.node_count > _RECURSION_NODES else ()
    return _fold(tree, large, tree_term, b_product)


def phi_q(x: FQSymElement, order: int) -> QDividedSeries:
    """The q-specialization G_s -> q^imaj(s) t^n / [n]_q!, an algebra
    homomorphism into q-series in the q-divided-power basis."""
    x.require_basis("G")
    numerators = [QPoly.zero() for _ in range(order + 1)]
    for perm, c in x.terms.items():
        n = perm.size
        if n <= order:
            numerators[n] = numerators[n] + QPoly.monomial(perm.imaj()) * c
    return QDividedSeries(numerators)


def _q_shuffles(a, b) -> Iterator[tuple]:
    """Each interleaving of the stored words a and b + |a|, in stored form,
    with its weight: q to the inversions the shuffle creates, inv(c) -
    inv(a) - inv(b); as b-letters exceed a-letters, the b-letters before
    each a-letter, p_j - j before the one at position p_j, j >= 0."""
    k, shifted = len(a), [v + len(a) for v in b]
    for positions in combinations(range(k + len(b)), k):
        word = shifted[:]
        for p, v in zip(positions, a):
            word.insert(p, v)
        yield _key(word), QPoly.monomial(sum(positions) - k * (k - 1) // 2)


def q_shuffle_words(a: Permutation, b: Permutation) -> list[tuple[Permutation, QPoly]]:
    """The q-shuffle of a with the shifted b, as (word, weight) pairs."""
    words, weights = zip(*_q_shuffles(_key(a.word), _key(b.word)))
    Permutation._check_words(words)
    return list(zip(Permutation._unchecked(words), weights))


def q_shuffle_product(x: FQSymElement, y: FQSymElement) -> FQSymElement:
    """The F-basis product of the q-deformed algebra; at q = 1 the ordinary one."""
    x.require_basis("F")
    y.require_basis("F")
    out: dict = {}
    for a, ca in x._words.items():
        for b, cb in y._words.items():
            c = ca * cb
            for w, weight in _q_shuffles(a, b):
                out[w] = out.get(w, 0) + weight * c
    return keyed(x, out)
