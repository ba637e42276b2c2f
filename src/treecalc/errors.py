"""Exception types shared across the package.

The CLI maps these onto its stable exit codes: ParseError (with its
subclass VariantArityMismatch) -> 2, SizeGuardError -> 3.  Everything
else is an ordinary error.
"""


class TreecalcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TreecalcError):
    """Malformed tree grammar or word string."""


class SizeGuardError(TreecalcError):
    """An enumeration or check was requested above its safety guard."""


class NonExactDivision(TreecalcError):
    """Polynomial division left a nonzero remainder."""


class NonIntegerResult(TreecalcError):
    """A quantity that must be an integer came out fractional."""


class BasisMismatch(TreecalcError):
    """An operation received elements in the wrong basis."""


class EmptyOperand(TreecalcError):
    """Half products are only defined away from the empty word."""


class ValuationViolation(TreecalcError):
    """A fixed-point operator failed the valuation-raising probe."""


class VariantArityMismatch(ParseError):
    """Identity variant incompatible with the requested tree arity; a parse
    error, since the flags contradict each other."""
