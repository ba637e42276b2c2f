"""treecalc: exact-arithmetic calculus of tree-indexed series expansions,
word algebras, and hook-length-type identities.

Everything is computed over exact rings (rationals, polynomials in q or
alpha, and q-series whose coefficient of t^n / [n]_q! is a polynomial);
there is no floating point.
"""

from .arith import (
    AlphaPoly,
    QPoly,
    Rational,
    binomial_coefficient,
    exact_poly_div,
    q_binomial,
    q_factorial,
    q_integer,
)
from .combinat import (
    BinaryTree,
    HookData,
    MAryTree,
    PackedWord,
    Permutation,
    PlaneTree,
    binary_trees,
    decreasing_tree,
    hook_data,
    mary_trees,
    pack,
    packed_words,
    permutations,
    plane_tree_of_word,
    plane_trees,
    standardize,
)
from .elements import FQSymElement, WQSymElement
from .errors import (
    BasisMismatch,
    EmptyOperand,
    NonExactDivision,
    NonIntegerResult,
    ParseError,
    SizeGuardError,
    TreecalcError,
    ValuationViolation,
    VariantArityMismatch,
)
from .identities import (
    IdentityReport,
    duliu_check,
    eisenstein_check,
    ft_coefficients,
    hook_count,
    lagrange_fixed_point_check,
    postnikov_check,
    qhook_imaj,
    qhook_inv,
)
from .series import (
    BinomialPoly,
    QDividedSeries,
    TreeExpansion,
    TruncatedSeries,
    binomial_series,
    discrete_sum,
    exp_series,
    fixed_point_binary,
    fixed_point_mary,
    fixed_point_plane,
    integrate,
    picard_binary,
    picard_mary,
    q_integrate,
    substitute_qt,
)

__version__ = "0.1.0"
