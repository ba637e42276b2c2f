"""Disjointness audit: the two paths of an identity check share no src
function beyond a short allowlist, each entry with its reason.

Each path runs alone under sys.setprofile, which records every src
function and method it calls, at any depth.  Before each run every
lru_cache of src is cleared and the tree is parsed afresh, so neither path
reads a result the other left behind (a cached term, a stored hook
product).  A function both paths call is shared; one outside the
allowlist means the oracle may be computing the formula it checks.
"""

import sys

import pytest

from treecalc import arith, combinat, elements, errors, fqsym, identities, series, wqsym
from treecalc.combinat import BinaryTree, PlaneTree

MODULES = (arith, combinat, elements, errors, fqsym, identities, series, wqsym)

# What both paths of Theorem FT (ft_coefficients against ft_brute_force) may call.
FT_ALLOWED = {
    # the exactness gate every coefficient passes; it computes nothing
    "arith._check_exact",
    # the container both sides' binomial-basis results are built in
    "series.BinomialPoly.__init__",
    # the input's size, read off its text: the leaf guard and the word length
    "combinat.PlaneTree.leaf_count",
    # the size guard, which compares a count with a limit
    "errors.refuse_large",
}

# What both paths of a hook formula (hook_count, qhook_imaj, qhook_inv
# against hook_oracle) may call.
HOOK_ALLOWED = {
    # stores a polynomial's coefficient tuple in canonical form
    "arith.Poly._canonical",
}

# What both paths of the Lagrange fixed point (the m-ary tree expansion
# against graded Picard) may call: the operator they both solve, and the
# series and ring kernels it runs on.
LAGRANGE_ALLOWED = {
    # the operator both paths solve: its builder, its factor table and its
    # integral
    "identities.lagrange_operator",
    "identities._lagrange_factors",
    "series.integrate",
    # the series kernels: the operator's product (TruncatedSeries.__mul__,
    # named by its alias __rmul__), the sum, and the constant 1 both start from
    "series.TruncatedSeries.__rmul__",
    "series._Series.__radd__",
    "series._Series.constant",
    "series._Series._scalar",
    "series._Series._unchecked",
    "series._Series.order",
    # the ring kernels of the AlphaPoly coefficients and their exactness gate
    "arith.Poly.__bool__",
    "arith.Poly.__init__",
    "arith.Poly.__radd__",
    "arith.Poly.__rmul__",
    "arith.Poly.__truediv__",
    "arith.Poly._canonical",
    "arith.Poly._coerce",
    "arith._check_exact",
    "arith._convolve",
    "arith._nonnegative",
    "arith._terms",
    "arith.exact_scalar",
}

FT_TREES = ("((**)*)", "(*(**)*)", "((**)(**))", "(*(**)(**))", "((**)*(**))")
HOOK_TREES = ("(_,_)", "((_,_),_)", "((_,_),((_,_),_))", "(((_,_),_),(_,(_,_)))")
LAGRANGE_CASES = ("1 5", "2 4", "3 3")  # "m order"

# Each pair: its allowlist, its inputs, their parser, formula and oracle.
# The paths look the functions up when called, so a rebound one runs.
PAIRS = {
    "lagrange": (
        LAGRANGE_ALLOWED,
        LAGRANGE_CASES,
        lambda text: tuple(map(int, text.split())),
        lambda case: series.fixed_point_mary(identities.lagrange_operator(case[0]), *case).total,
        lambda case: series.picard_mary(identities.lagrange_operator(case[0]), *case),
    ),
    "ft": (
        FT_ALLOWED,
        FT_TREES,
        PlaneTree.from_text,
        lambda tree: identities.ft_coefficients(tree),
        lambda tree: identities.ft_brute_force(tree),
    ),
    **{
        name: (
            HOOK_ALLOWED,
            HOOK_TREES,
            BinaryTree.from_text,
            formula,
            lambda tree, statistic=statistic: identities.hook_oracle(tree, statistic),
        )
        for name, formula, statistic in (
            ("hook_count", lambda tree: identities.hook_count(tree), "none"),
            ("qhook_imaj", lambda tree: identities.qhook_imaj(tree), "imaj"),
            ("qhook_inv", lambda tree: identities.qhook_inv(tree), "inv"),
        )
    },
}


def _src_names() -> dict:
    """The code object of each src function and method, named
    "module.name" or "module.Class.name" after the module defining it."""
    names = {}
    for module in MODULES:
        stem = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another module
            if isinstance(obj, type):
                members = [(f"{attr}.{key}", member) for key, member in vars(obj).items()]
            else:
                members = [(attr, obj)]
            for name, member in members:
                for fn in (member, *(getattr(member, a, None) for a in ("__func__", "fget", "func"))):
                    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
                    if code is not None:
                        names[code] = f"{stem}.{name}"
    return names


NAMES = _src_names()


def _clear_caches() -> None:
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _calls(path, tree) -> set[str]:
    """The src functions path(tree) calls, on cleared caches."""
    _clear_caches()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in NAMES:
            seen.add(NAMES[frame.f_code])

    sys.setprofile(profile)
    try:
        path(tree)
    finally:
        sys.setprofile(None)
    return seen


def _shared(pair: str) -> set[str]:
    """The src functions both paths of the pair call on some tree."""
    _, texts, parse, formula, oracle = PAIRS[pair]
    shared = set()
    for text in texts:
        formula_calls = _calls(formula, parse(text))
        oracle_calls = _calls(oracle, parse(text))
        assert formula_calls and oracle_calls  # the profile saw both paths
        shared |= formula_calls & oracle_calls
    return shared


def _not_allowed(pair: str) -> set[str]:
    return _shared(pair) - PAIRS[pair][0]


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_paths_share_only_allowed_functions(pair):
    extra = _not_allowed(pair)
    assert not extra, f"{pair}: formula and oracle both call {sorted(extra)}"


def test_every_allowed_function_is_shared():
    # an entry no pair shares any more is stale: drop it
    shared = set().union(*map(_shared, PAIRS))
    assert FT_ALLOWED | HOOK_ALLOWED | LAGRANGE_ALLOWED == shared


def test_a_formula_calling_its_oracle_is_named(monkeypatch):
    # the planted mutant: the FT formula builds the packed-word fiber first
    evaluate = identities.evaluate_plane_tree

    def mutant(tree, family, a):
        wqsym.tree_fiber_element(tree, tree.leaf_count - 1)
        return evaluate(tree, family, a)

    monkeypatch.setattr(identities, "evaluate_plane_tree", mutant)
    assert "wqsym.tree_fiber_element" in _not_allowed("ft")


def test_a_hook_formula_reading_a_fiber_is_named(monkeypatch):
    # a second mutant: the q-hook formula scans the decreasing-tree fiber
    qhook = identities._qhook

    def mutant(tree):
        identities.hook_fiber(tree)
        return qhook(tree)

    monkeypatch.setattr(identities, "_qhook", mutant)
    assert {"identities.hook_fiber", "combinat.decreasing_tree"} <= _not_allowed("qhook_imaj")


def test_only_the_tree_path_walks_multisets():
    _, cases, parse, tree_path, picard = PAIRS["lagrange"]
    walk = {"series._partitions", "series._multisets"}
    for case in map(parse, cases):
        assert walk <= _calls(tree_path, case)
        assert not walk & _calls(picard, case)
        assert tree_path(case) == picard(case)


def test_an_off_by_one_multiplicity_fails_the_tree_path(monkeypatch):
    # the planted mutant: every multiset of two or more ordered tuples
    # stands for one tuple too many.  The engine re-checks its sum against
    # x = 1 + F(x, ..., x), so the Lagrange check stops there, before its
    # paths are compared
    multisets = series._multisets

    def mutant(table, runs):
        for classes, ways in multisets(table, runs):
            yield classes, ways + (ways > 1)

    monkeypatch.setattr(series, "_multisets", mutant)
    with pytest.raises(ArithmeticError, match="^m-ary expansion does not satisfy its equation$"):
        identities.lagrange_fixed_point_check(2, 4)
