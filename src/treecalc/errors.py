"""Exception types shared across the package, and the one refusal of
every size guard that --unsafe-large overrides.

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


def refuse_large(what: str, size: int, limit: int, unsafe_large: bool, bound="the guard") -> None:
    """Raise SizeGuardError when size exceeds limit and unsafe_large is not
    set; the text names the CLI flag that forces the work."""
    if size > limit and not unsafe_large:
        raise SizeGuardError(f"{what} exceeds {bound} {limit}; pass --unsafe-large to force")


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
