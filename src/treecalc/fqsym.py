"""Free quasi-symmetric functions on the G and F bases.

The G basis multiplies by shifted convolution: G_a G_b sums G_c over all
permutations c = u.v whose factors standardize to a and b, giving
C(k+l, k) terms.  On top of that sit the dendriform half products (split
by the side holding the maximal letter), the derivation that erases the
maximal letter, the bilinear lift that inserts a new maximal letter
between the factors (whose tree iterates sum the fibers of the
decreasing-tree map), a q-shuffle deformation on the F basis, and the
q-specialization into q-series in the q-divided-power basis.

The element products apply each value split to stored words as one
``bytes.translate`` per result word (``itemgetter`` on letter tuples past
254 letters; ``elements.bilinear``) and build no key object.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .arith import QPoly
from .combinat import _LETTERS, BinaryTree, Permutation, _key
from .elements import FQSymElement, bilinear, keyed
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


def _factors(a: Permutation, b: Permutation):
    """The factors (u, v) with Std(u) = a and Std(v) = b of every value split."""
    k = a.size
    for sigma in _split_values(k + b.size, k)[2]:
        yield tuple(sigma[i] for i in a.word), tuple(sigma[k + i] for i in b.word)


def convolve(a: Permutation, b: Permutation) -> list[Permutation]:
    """All c = u.v with Std(u) = a and Std(v) = b; exactly C(k+l, k) of
    them, duplicate-free, in the order induced by the value split.

    >>> [c.word for c in convolve(Permutation((1,)), Permutation((2, 1)))]
    [(1, 3, 2), (2, 3, 1), (3, 2, 1)]
    """
    return [Permutation(u + v) for u, v in _factors(a, b)]


def half_products(a: Permutation, b: Permutation) -> tuple[list[Permutation], list[Permutation]]:
    """Split the convolution by which factor holds the maximal letter:
    prec gets max(u) > max(v), succ gets max(u) <= max(v)."""
    if a.size == 0 or b.size == 0:
        raise EmptyOperand("half products need nonempty operands")
    k, n = a.size, a.size + b.size
    prec, succ = [], []
    for gamma in convolve(a, b):
        if gamma.word.index(n) < k:
            prec.append(gamma)
        else:
            succ.append(gamma)
    return prec, succ


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
    out: dict = {}
    get = out.get
    for w, c in x._words.items():
        if w:
            n = len(w)
            rest = w.replace(_LETTERS[n], b"") if n < 256 else _key([v for v in w if v < n])
            out[rest] = get(rest, 0) + c
    return keyed(x, out)


def bilinear_B(a: Permutation, b: Permutation) -> list[Permutation]:
    """All c = u.(n+1).v with Std(u) = a, Std(v) = b, where n = |a|+|b|.

    Erasing the inserted maximum recovers the convolution, so this lifts
    the product through the derivation.
    """
    top = (a.size + b.size + 1,)
    return [Permutation(u + top + v) for u, v in _factors(a, b)]


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

    The terms of shapes with at most _RECURSION_NODES nodes are shared
    through the cache; a larger shape builds its larger subtrees bottom up
    on top of those, so depth meets no recursion limit.
    """
    if tree.is_empty:
        return unit("G")
    if tree.node_count <= _RECURSION_NODES:
        return b_product(tree_term(tree.left), tree_term(tree.right))
    large = [tree]  # parents before children
    for node in large:
        large += [c for c in (node.left, node.right) if c.node_count > _RECURSION_NODES]
    terms: dict = {}
    for node in reversed(large):
        left, right = (terms[c] if c in terms else tree_term(c) for c in (node.left, node.right))
        terms[node] = b_product(left, right)
    return terms[tree]


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


def q_shuffle_words(a: Permutation, b: Permutation) -> list[tuple[Permutation, QPoly]]:
    """The q-shuffle of a with the shifted b: each interleaving c is
    weighted by q to the number of inversions created by the shuffle,
    inv(c) - inv(a) - inv(b): as b-letters exceed a-letters, the b-letters
    before each a-letter, p_j - j before the one at position p_j, j >= 0."""
    k, l = a.size, b.size
    shifted = tuple(v + k for v in b.word)
    out = []
    for positions in combinations(range(k + l), k):
        pos_set = set(positions)
        ai, bi = iter(a.word), iter(shifted)
        word = tuple(next(ai) if i in pos_set else next(bi) for i in range(k + l))
        out.append((Permutation(word), QPoly.monomial(sum(positions) - k * (k - 1) // 2)))
    return out


def q_shuffle_product(x: FQSymElement, y: FQSymElement) -> FQSymElement:
    """Product of the q-deformed algebra on the F basis; at q = 1 it
    degenerates to the ordinary product."""
    x.require_basis("F")
    y.require_basis("F")
    out: dict = {}
    y_terms = y.terms.items()
    for a, ca in x.terms.items():
        for b, cb in y_terms:
            c = ca * cb
            for gamma, weight in q_shuffle_words(a, b):
                out[gamma] = out.get(gamma, 0) + weight * c
    return FQSymElement(out, basis="F")
