"""Finitely supported linear combinations of basis words.

One representation serves both algebras: a dict from basis word
(Permutation or PackedWord) to a nonzero coefficient, graded by word
length.  Coefficients may live in any exact ring that supports +, -, *
and == (int, Fraction, QPoly, ...); zero coefficients are never stored,
so canonical form is automatic.  Elements are immutable by convention
and all operations return fresh values.

Products are bilinear lifts of maps on basis words: ``bilinear`` sums
coefficients on raw letter tuples, which hash at C speed, and builds the
checked basis key of each distinct result word once (``keyed``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .combinat import basis_keys
from .errors import BasisMismatch


class AlgebraElement:
    """Base class; subclasses fix the key type and the serialization name."""

    __slots__ = ("terms",)
    _key_name = "word"

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        if isinstance(terms, Mapping):
            # Mapping keys are distinct, and copying a dict reuses their hashes.
            data = dict(terms)
        else:
            data = {}
            for key, coeff in terms:
                data[key] = data[key] + coeff if key in data else coeff
        for key in [key for key, c in data.items() if not c]:
            del data[key]
        self.terms = data

    def _like(self, terms) -> "AlgebraElement":
        """Construct a result carrying the same metadata as self."""
        return type(self)(terms)

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if type(self) is not type(other):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def support(self) -> list:
        return sorted(self.terms)

    def sorted_terms(self) -> list[tuple]:
        return [(key, self.terms[key]) for key in sorted(self.terms)]

    def degrees(self) -> list[int]:
        return sorted({len(key) for key in self.terms})

    def homogeneous(self, degree: int) -> "AlgebraElement":
        return self._like(
            {key: c for key, c in self.terms.items() if len(key) == degree}
        )

    def truncated(self, max_degree: int) -> "AlgebraElement":
        return self._like(
            {key: c for key, c in self.terms.items() if len(key) <= max_degree}
        )

    def map_coefficients(self, fn: Callable) -> "AlgebraElement":
        return self._like({key: fn(c) for key, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        if not self._same_flavor(other):
            return False
        return self.terms == other.terms

    def _same_flavor(self, other) -> bool:
        return True

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use the module-level product functions for elements")
        return self._like({key: c * scalar for key, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use the module-level product functions for elements")
        return self._like({key: scalar * c for key, c in self.terms.items()})

    def to_json(self) -> dict:
        return {
            "terms": [
                {self._key_name: key.to_text(), "coeff": str(c)}
                for key, c in self.sorted_terms()
            ]
        }

    def __str__(self) -> str:
        if not self.terms:
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


def bilinear(
    x: AlgebraElement, y: AlgebraElement, words: Callable, key: type
) -> AlgebraElement:
    """Bilinear lift of a map on pairs of basis words: each pair of terms
    (a, ca), (b, cb) adds ca * cb to every raw word in the sequence
    words(a, b); an empty sequence costs no ring multiplication."""
    sums: dict = {}
    get = sums.get
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            ws = words(a, b)
            if ws:
                c = ca * cb
                for w in ws:
                    sums[w] = get(w, 0) + c
    return keyed(x, sums, key)


def keyed(x: AlgebraElement, sums: dict, key: type) -> AlgebraElement:
    """The element like x with coefficient sums[w] on key(w) for each raw
    word w whose sum is nonzero; every key passes its type's exact check
    (``combinat.basis_keys``).  The dict built there becomes the element's
    own, uncopied: a product's terms exist twice at most."""
    element = x._like(())
    element.terms = basis_keys(key, sums)
    return element
