"""Values the benchmark computes on its own, without treecalc, and the
parsers that read the package's printed output back into numbers.

Every check in the workloads compares a treecalc result with one of
these, besides the package's own ``equal`` flags, so a wrong answer is
caught even when both sides of an identity go wrong together.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def catalan(n: int) -> int:
    """Number of binary tree shapes with n nodes."""
    return comb(2 * n, n) // (n + 1)


def fuss_catalan(m: int, n: int) -> int:
    """Number of (m+1)-ary tree shapes with n nodes."""
    return comb((m + 1) * n, n) // (m * n + 1)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def surjections(n: int, k: int) -> int:
    """Packed words of length n with maximal letter k."""
    return factorial(k) * stirling2(n, k)


def ordered_bell(n: int) -> int:
    """Number of packed words of length n."""
    return sum(surjections(n, k) for k in range(n + 1))


def little_schroeder(n: int) -> int:
    """Plane trees with n+1 leaves whose internal nodes have >= 2 children."""
    # trees[j]: trees with j leaves; seqs[j]: ordered sequences of trees
    # with j leaves in all.  A tree with j >= 2 leaves is a sequence of at
    # least two trees: a first tree, then a nonempty sequence.
    trees = [0, 1]
    seqs = [1, 1]
    for j in range(2, n + 2):
        trees.append(sum(trees[i] * seqs[j - i] for i in range(1, j)))
        seqs.append(sum(trees[i] * seqs[j - i] for i in range(1, j + 1)))
    return trees[n + 1]


def eisenstein(n: int) -> Fraction:
    """Coefficient of t^n in the generalized exponential: (n+1)^(n-1)/n!."""
    return Fraction(n + 1) ** (n - 1) / factorial(n)


def generalized_binomial(beta: Fraction, k: int) -> Fraction:
    value = Fraction(1)
    for i in range(k):
        value = value * (beta - i) / (i + 1)
    return value


def lagrange_coefficient(m: int, n: int, alpha: Fraction) -> Fraction:
    """Coefficient of t^n in f = sum C((mn+1) alpha, n) t^n / (mn+1)."""
    return generalized_binomial((m * n + 1) * alpha, n) / (m * n + 1)


def duliu_value(variant: str, m: int, n: int, alpha: Fraction) -> Fraction:
    """Closed side of the Du-Liu identities evaluated at a number."""
    if variant == "las1":
        value = Fraction(1)
        for i in range(n):
            value *= (n + 1 - i) + (n + 1 + i) * alpha
        return value / factorial(n + 1)
    return lagrange_coefficient(1 if variant == "las2" else m, n, alpha)


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of the q-binomial [n choose k]_q, lowest degree first."""
    rows = {(0, 0): [1]}

    def get(a: int, b: int) -> list[int]:
        if b < 0 or b > a:
            return []
        if (a, b) not in rows:
            left = get(a - 1, b - 1)
            right = [0] * b + get(a - 1, b)
            size = max(len(left), len(right))
            row = [
                (left[i] if i < len(left) else 0) + (right[i] if i < len(right) else 0)
                for i in range(size)
            ]
            while row and not row[-1]:
                row.pop()
            rows[(a, b)] = row
        return rows[(a, b)]

    return get(n, k)


def hooks_of_text(text: str) -> tuple[list[int], list[int]]:
    """Subtree sizes and right-subtree sizes of a binary tree string in the
    ``_`` / ``(left,right)`` grammar, read without recursion."""
    lefts: list[int] = []  # left-subtree sizes of the open nodes
    hooks: list[int] = []
    rights: list[int] = []
    last = 0  # size of the subtree that just closed
    for ch in text:
        if ch == "_":
            last = 0
        elif ch == ",":
            lefts.append(last)
        elif ch == ")":
            left = lefts.pop()
            right = last
            last = left + right + 1
            hooks.append(last)
            rights.append(right)
    return hooks, rights


def standardize(word) -> tuple[int, ...]:
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    out = [0] * len(word)
    for rank, position in enumerate(order):
        out[position] = rank + 1
    return tuple(out)


def pack(word) -> tuple[int, ...]:
    relabel = {letter: i + 1 for i, letter in enumerate(sorted(set(word)))}
    return tuple(relabel[c] for c in word)


def imaj(word) -> int:
    """Major index of the inverse of a permutation word."""
    position = {value: i for i, value in enumerate(word)}
    return sum(v for v in range(1, len(word)) if position[v] > position[v + 1])


def packed_convolution_count(p: int, r: int) -> int:
    """Number of packed words u.v with pack(u), pack(v) having maxima p, r."""
    return sum(comb(top, p) * comb(p, r - (top - p)) for top in range(max(p, r), p + r + 1))


# ---------------------------------------------------------------------------
# Parsers for the package's printed values.
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(text: str, variable: str) -> dict[int, Fraction]:
    """Read a polynomial printed as e.g. ``1/2+3/2α-α^2`` into exponent ->
    coefficient."""
    out: dict[int, Fraction] = {}
    if text == "0":
        return out
    for sign, body in _TERM.findall(text):
        if variable in body:
            coeff_text, _, power = body.partition(variable)
            exponent = int(power[1:]) if power else 1
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        else:
            exponent, coeff = 0, Fraction(body)
        out[exponent] = out.get(exponent, 0) + (-coeff if sign == "-" else coeff)
    return out


def evaluate_poly(text: str, variable: str, point: Fraction) -> Fraction:
    return sum(
        (c * point**e for e, c in parse_poly(text, variable).items()), Fraction(0)
    )


def parse_series(text: str) -> tuple[int, dict[int, str]]:
    """Read a printed truncated series ``c0 + (c1)*t^1 + ... + O(t^N)`` into
    its order and the coefficient strings of the nonzero terms."""
    *parts, big_o = text.split(" + ")
    order = int(big_o[len("O(t^") : -1]) - 1
    coeffs: dict[int, str] = {}
    for part in parts:
        if part == "0":
            continue
        if "*t^" not in part:
            coeffs[0] = part
            continue
        body, _, power = part.rpartition(")*t^")
        coeffs[int(power)] = body[1:]
    return order, coeffs


def parse_binomial_poly(text: str) -> dict[int, str]:
    """Read a printed binomial-basis polynomial ``(c)*1 + C(t,1) + ...``
    into basis index -> coefficient string."""
    out: dict[int, str] = {}
    for part in text.split(" + "):
        coeff, _, basis = part.rpartition("*")
        if not coeff:
            coeff, basis = "1", part
        else:
            coeff = coeff[1:-1]
        out[0 if basis == "1" else int(basis[len("C(t,") : -1])] = coeff
    return out
