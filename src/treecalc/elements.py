"""Finitely supported linear combinations of basis words.

One representation serves both algebras: a dict from the letter tuple of
each basis word to a nonzero coefficient, graded by word length; the
element class alone fixes the key type the tuples stand for (Permutation
or PackedWord).  Coefficients are exact, from arith's allowlist: the
constructor, scalar * and map_coefficients raise TypeError on anything
else.  Zero coefficients are never stored, so canonical form is
automatic.  Elements are immutable by convention and all operations
return fresh values.

Letter tuples hash and compare at C speed.  ``bilinear`` sums every
G-basis and M-basis product on them, fqsym.derive, wqsym.delta and
wqsym.f_k sum on them in loops of their own, and ``keyed`` checks each
such result's words in one batch pass; only the q-shuffle sums on
Permutation keys.  ``terms`` is a read-only dict of fresh keys per read.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Callable, Iterable

from .arith import _check_exact
from .combinat import PackedWord, Permutation
from .errors import BasisMismatch


class AlgebraElement:
    """Base class; subclasses fix the key type and the serialization name."""

    __slots__ = ("_words",)
    _key_name = "word"
    _key_type: type

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        key_type, words = self._key_type, {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if type(key) is not key_type:
                name = type(self).__name__
                raise TypeError(f"{name} keys must be {key_type.__name__}, got {type(key).__name__}")
            _check_exact(coeff)
            w = key.letters
            words[w] = words[w] + coeff if w in words else coeff
        self._words = {w: c for w, c in words.items() if c}

    @property
    def terms(self) -> MappingProxyType:
        """The terms as a read-only {basis key: coefficient} dict, in the
        order the words were summed.  Each read builds fresh keys of the
        element's key type, equal to the public keys with the same
        letters; the words are not checked again.

        >>> x = FQSymElement({Permutation((2, 1)): 3, Permutation((1,)): -1})
        >>> x.terms[Permutation((2, 1))], PackedWord((1,)) in x.terms, list(x.terms.items())
        (3, False, [(Permutation((2, 1)), 3), (Permutation((1,)), -1)])
        >>> x.terms == {Permutation((1,)): -1, Permutation((2, 1)): 3}
        True
        """
        keys = self._key_type._unchecked(self._words)
        return MappingProxyType(dict(zip(keys, self._words.values())))

    def _like(self, terms) -> "AlgebraElement":
        """Construct a result carrying the same metadata as self."""
        return type(self)(terms)

    def _with(self, words: dict) -> "AlgebraElement":
        """The element like self on {letter tuple: coefficient}, whose words
        are checked already; the dict becomes its own, uncopied unless a
        coefficient is zero."""
        element = self._like(())
        element._words = words if all(words.values()) else {w: c for w, c in words.items() if c}
        return element

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if type(self) is not type(other):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )

    def coefficient(self, key):
        return self._words.get(key.letters, 0) if type(key) is self._key_type else 0

    def support(self) -> list:
        return [key for key, _ in self.sorted_terms()]

    def sorted_terms(self) -> list[tuple]:
        words = sorted(sorted(self._words), key=len)  # the order of the keys
        return list(zip(self._key_type._unchecked(words), map(self._words.__getitem__, words)))

    def map_coefficients(self, fn: Callable) -> "AlgebraElement":
        return self._with({w: _check_exact(fn(c)) for w, c in self._words.items()})

    def __bool__(self) -> bool:
        return bool(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        if not self._same_flavor(other):
            return False
        return self._words == other._words

    def _same_flavor(self, other) -> bool:
        return True

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self._words)
        get = out.get
        for w, c in other._words.items():
            out[w] = get(w, 0) + c
        return self._with(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._with({w: -c for w, c in self._words.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use the module-level product functions for elements")
        _check_exact(scalar)
        return self._with({w: c * scalar for w, c in self._words.items()})

    __rmul__ = __mul__  # every coefficient ring here is commutative

    def to_json(self) -> dict:
        return {
            "terms": [
                {self._key_name: key.to_text(), "coeff": str(c)}
                for key, c in self.sorted_terms()
            ]
        }

    def __str__(self) -> str:
        if not self._words:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            name = key.to_text() or "()"
            if c == 1:
                parts.append(f"[{name}]")
                continue
            text = str(c)
            if "+" in text or "-" in text:
                text = f"({text})"
            parts.append(f"{text}*[{name}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)})"


class FQSymElement(AlgebraElement):
    """Element of FQSym supported on permutations, in the G or F basis."""

    __slots__ = ("basis",)
    _key_name = "perm"
    _key_type = Permutation

    def __init__(self, terms=(), basis: str = "G"):
        if basis not in ("G", "F"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        super().__init__(terms)

    def _like(self, terms) -> "FQSymElement":
        return FQSymElement(terms, basis=self.basis)

    def _same_flavor(self, other) -> bool:
        return self.basis == other.basis

    def _check_compatible(self, other) -> None:
        super()._check_compatible(other)
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot combine basis {self.basis} with {other.basis}")

    def require_basis(self, basis: str) -> None:
        if self.basis != basis:
            raise BasisMismatch(f"expected basis {basis}, got {self.basis}")

    def to_json(self) -> dict:
        data = super().to_json()
        return {"basis": self.basis, **data}


class WQSymElement(AlgebraElement):
    """Element of WQSym supported on packed words, in the M basis."""

    __slots__ = ()
    _key_name = "word"
    _key_type = PackedWord


def bilinear(x: AlgebraElement, y: AlgebraElement, words: Callable) -> AlgebraElement:
    """Bilinear lift of a map on pairs of letter tuples: each pair of
    terms (a, ca), (b, cb) adds ca * cb to every word in the sequence
    words(a, b); an empty sequence costs no ring multiplication."""
    sums: dict = {}
    get = sums.get
    for a, ca in x._words.items():
        for b, cb in y._words.items():
            ws = words(a, b)
            if ws:
                c = ca * cb
                for w in ws:
                    sums[w] = get(w, 0) + c
    return keyed(x, sums)


def keyed(x: AlgebraElement, sums: dict) -> AlgebraElement:
    """The element like x with coefficient sums[w] on each letter tuple w
    whose sum is nonzero.  Those words pass the key type's exact check,
    by their sets of letters, in one batch pass, which raises the public
    constructor's error; a word whose sum cancelled is never checked.  The
    dict becomes the element's own, uncopied when nothing cancelled."""
    element = x._with(sums)
    x._key_type._check_words(element._words)
    return element
