import random
from fractions import Fraction
from math import comb, factorial, prod
from types import SimpleNamespace

import pytest

from treecalc import identities
from treecalc.arith import (
    AlphaPoly,
    QPoly,
    _q_integer_product,
    _q_integer_quotient,
    exact_poly_div,
    q_factorial,
    q_integer,
)
from treecalc.combinat import (
    BinaryTree,
    MAryTree,
    PlaneTree,
    _internal_nodes,
    binary_trees,
    decreasing_tree,
    hook_data,
    mary_trees,
    packed_words,
    permutations,
    plane_tree_of_word,
    plane_trees,
)
from treecalc.errors import NonExactDivision, SizeGuardError, VariantArityMismatch
from treecalc.series import BinomialPoly, TreeExpansion, TruncatedSeries, fixed_point_mary
from treecalc.wqsym import WQSymElement, tree_fiber_element
from treecalc.identities import (
    FT_LEAF_GUARD,
    decreasing_tree_fibers,
    duliu_check,
    duliu_node_factor,
    duliu_rhs,
    eisenstein_check,
    eisenstein_coefficients,
    ft_brute_force,
    ft_check,
    ft_coefficients,
    hook_count,
    hook_fiber,
    hook_oracle,
    lagrange_fixed_point_check,
    lagrange_series,
    postnikov_check,
    qhook_imaj,
    qhook_inv,
)

import references
from references import duliu_cross_check, plane_q_check

FOUR_NODE_TREE = BinaryTree.from_text("((_,_),((_,_),_))")


# ---------------------------------------------------------------------------
# hook formulas
# ---------------------------------------------------------------------------


def test_hook_count_examples():
    assert hook_count(FOUR_NODE_TREE) == 3
    assert hook_count(BinaryTree.from_text("(_,_)")) == 1
    assert sum(hook_count(t) for t in binary_trees(3)) == 6


def test_hook_count_matches_fibers():
    for n in range(1, 7):
        for tree, fiber in decreasing_tree_fibers(n).items():
            assert hook_count(tree) == len(fiber)


def test_qhook_imaj_examples():
    assert qhook_imaj(FOUR_NODE_TREE) == QPoly((0, 0, 1, 1, 1))
    assert qhook_imaj(BinaryTree.from_text("(_,_)")) == QPoly.one()


def test_qhook_against_imaj_fiber():
    for n in range(1, 6):
        for tree, fiber in decreasing_tree_fibers(n).items():
            poly = QPoly.zero()
            for p in fiber:
                poly = poly + QPoly.monomial(p.imaj())
            assert qhook_imaj(tree) == poly


def test_qhook_inv_oracle_on_four_node_tree():
    fiber = hook_fiber(FOUR_NODE_TREE)
    assert sorted(p.inversions() for p in fiber) == [2, 3, 4]
    poly = QPoly.zero()
    for p in fiber:
        poly = poly + QPoly.monomial(p.inversions())
    assert qhook_inv(FOUR_NODE_TREE) == poly


def test_qhook_at_one_is_hook_count():
    for n in range(1, 8):
        for tree in binary_trees(n):
            assert qhook_imaj(tree).evaluate(Fraction(1)) == hook_count(tree)


def test_qhook_sums_to_q_factorial():
    # summing the fiber polynomials over all shapes recovers the full
    # imaj generating polynomial of S_n
    for n in range(1, 8):
        total = QPoly.zero()
        for tree in binary_trees(n):
            total = total + qhook_imaj(tree)
        assert total == q_factorial(n)


def _qhook_reference(tree) -> QPoly:
    """The q-hook with nothing cancelled: the whole q^delta [n]_q! divided
    by the whole product of the [h]_q."""
    data = hook_data(tree)
    numerator = QPoly((0,) * sum(data.right_sizes) + q_factorial(tree.node_count).coeffs)
    return exact_poly_div(numerator, _q_integer_product(data.hooks))


def _shape(n: int, left_size) -> BinaryTree:
    """The n-node shape each of whose subtrees, of k nodes, has
    left_size(k) nodes on its left."""
    if not n:
        return BinaryTree()
    left = left_size(n)
    return BinaryTree(_shape(left, left_size), _shape(n - 1 - left, left_size))


def test_qhook_equals_the_uncancelled_reference():
    rng = random.Random(701539)
    shapes = [tree for n in range(1, 10) for tree in binary_trees(n)]
    shapes += [_shape(60, lambda k: k - 1), _shape(60, lambda k: (k - 1) // 2)]
    shapes += [_shape(60, rng.randrange) for _ in range(3)]
    for tree in shapes:
        reference = _qhook_reference(tree)
        assert qhook_imaj(tree) == reference, tree
        assert qhook_inv(tree) == reference, tree


def test_qhook_cancellation_mutants():
    for n in range(2, 8):
        for tree in binary_trees(n):
            data = hook_data(tree)
            delta = sum(data.right_sizes)
            # a denominator missing one hook still divides, one [h]_q too high
            hook = min(h for h in data.hooks if h > 1)
            missing = list(data.hooks)
            missing.remove(hook)
            wrong = _q_integer_quotient(delta, range(2, n + 1), missing)
            assert wrong == qhook_imaj(tree) * q_integer(hook) != qhook_imaj(tree)
            # a numerator missing the root's [n]_q leaves the cyclotomic
            # factor of [n]_q in the divisor alone
            with pytest.raises(NonExactDivision):
                _q_integer_quotient(delta, range(2, n), data.hooks)


def test_hook_oracle_agrees_with_the_fibers():
    for n in range(1, 6):
        for tree, fiber in decreasing_tree_fibers(n).items():
            assert hook_oracle(tree, "none") == len(fiber)
            for statistic, stat in (("imaj", lambda p: p.imaj()), ("inv", lambda p: p.inversions())):
                poly = QPoly.zero()
                for p in fiber:
                    poly = poly + QPoly.monomial(stat(p))
                assert hook_oracle(tree, statistic) == poly


def test_fiber_scans_equal_a_grouping_built_with_no_table():
    for n in range(7):
        unshared: dict = {}
        for p in permutations(n):
            unshared.setdefault(decreasing_tree(p).text, []).append(p)
        fibers = decreasing_tree_fibers(n)
        assert [(tree.text, fiber) for tree, fiber in fibers.items()] == list(unshared.items())
        if n <= 5:
            for tree, fiber in fibers.items():
                assert hook_fiber(tree) == fiber
    for n in range(1, 5):
        words = list(packed_words(n))
        for tree in plane_trees(n):
            fiber = {w: 1 for w in words if plane_tree_of_word(w.letters).text == tree.text}
            assert tree_fiber_element(tree, n) == WQSymElement(fiber)


def test_hook_count_on_nodes_shared_across_a_scan():
    # the table of a scan over S_7 holds one node per shape with 1..7 nodes;
    # each asked in the order built (children first) and in reverse (parents
    # first, filling the stored products of the children they share)
    for order in (list, reversed):
        shared: dict = {}
        for p in permutations(7):
            decreasing_tree(p, shared)
        assert len(shared) == 625
        for node in order(list(shared.values())):
            assert hook_count(node) == _by_hook_data(node)


def test_hook_oracle_refuses_an_unknown_statistic():
    # over the fiber {132, 231} q^maj sums to 2q^2, the q^inv that an unknown
    # name once fell back to sums to q+q^2
    with pytest.raises(KeyError):
        hook_oracle(BinaryTree.from_text("((_,_),(_,_))"), "maj")


def _by_hook_data(tree) -> Fraction:
    """n! over the product of the sorted hook multiset."""
    return Fraction(factorial(tree.node_count), prod(hook_data(tree).hooks))


def test_hook_count_matches_hook_data_on_every_small_shape():
    for n in range(1, 10):
        for tree in binary_trees(n):
            assert hook_count(tree) == _by_hook_data(tree)


def test_hook_count_matches_hook_data_on_deep_combs():
    empty = BinaryTree()
    left_comb = right_comb = empty
    for _ in range(3000):  # well past the default recursion limit
        left_comb = BinaryTree(left_comb, empty)
        right_comb = BinaryTree(empty, right_comb)
    for comb_tree in (left_comb, right_comb):
        assert hook_count(comb_tree) == _by_hook_data(comb_tree) == 1


def test_hook_count_walk_serves_mary_shapes():
    # the increasing labelings of any rooted tree number n!/prod h_v
    for m in (2, 3):
        for n in range(1, 6):
            for tree in mary_trees(m, n):
                assert hook_count(tree) == _by_hook_data(tree)
    with pytest.raises(ValueError):
        hook_count(MAryTree(2))
    with pytest.raises(ValueError):
        hook_count(BinaryTree())


def _parsed(tree):
    """The shape parsed again from its text: it shares no node with tree,
    and none of its nodes holds a hook product yet."""
    if isinstance(tree, BinaryTree):
        return BinaryTree.from_text(tree.text)
    return MAryTree.from_text(tree.arity, tree.text)


def test_stored_hook_products_agree_whichever_node_is_asked_first():
    shapes = [tree for n in range(1, 8) for tree in binary_trees(n)]
    shapes += [tree for m in (2, 3) for n in range(1, 6) for tree in mary_trees(m, n)]
    for tree in shapes:
        # root first fills every subtree; reversed, each subtree comes before its parent
        for order in (list, reversed):
            for node in order(_internal_nodes(_parsed(tree))):
                assert hook_count(node) == _by_hook_data(node), node
        # the enumerated shape shares its subtrees with other shapes
        assert hook_count(tree) == hook_count(_parsed(tree)) == _by_hook_data(tree)


def test_stored_hook_products_of_shared_nodes():
    # one object in several child slots counts once in each
    binary = BinaryTree.from_text("((_,_),_)")
    binary = BinaryTree(binary, BinaryTree(binary, binary))
    mary = MAryTree.from_text(2, "(___)")
    mary = MAryTree(2, (mary, MAryTree(2), MAryTree(2, (mary,) * 3)))
    for tree in (binary, mary):
        assert hook_count(tree) == _by_hook_data(tree) == hook_count(_parsed(tree))


def test_stored_hook_products_on_deep_combs():
    empty = BinaryTree()
    for root_first in (True, False):
        left_combs, right_combs = [empty], [empty]
        for _ in range(3000):  # well past the default recursion limit
            left_combs.append(BinaryTree(left_combs[-1], empty))
            right_combs.append(BinaryTree(empty, right_combs[-1]))
        for combs in (left_combs[1:], right_combs[1:]):
            # a comb of k nodes has the hooks 1..k, so its count is 1
            if root_first:
                assert hook_count(combs[-1]) == 1
                assert hook_count(combs[0]) == hook_count(combs[1499]) == 1
            else:
                assert all(hook_count(node) == 1 for node in combs)
            assert _by_hook_data(combs[-1]) == _by_hook_data(combs[1499]) == 1


def test_stored_hook_products_keep_the_empty_tree_undefined():
    # an empty child holds the product 1, but its own count stays undefined
    binary, mary = BinaryTree.from_text("(_,_)"), MAryTree.from_text(3, "(____)")
    assert hook_count(binary) == hook_count(mary) == 1
    for empty in (binary.left, binary.right, mary.children[0], BinaryTree(), MAryTree(2)):
        with pytest.raises(ValueError):
            hook_count(empty)


def test_hook_counts_sum_to_factorial():
    for n in range(1, 10):
        assert sum(hook_count(t) for t in binary_trees(n)) == factorial(n)


# ---------------------------------------------------------------------------
# plane-tree coefficients
# ---------------------------------------------------------------------------


def test_ft_coefficients_examples():
    tree = PlaneTree.from_text("((**)(**)(***))")
    assert ft_coefficients(tree) == {2: 1, 3: 6, 4: 6}
    assert ft_coefficients(PlaneTree.from_text("(**)")) == {1: 1}
    with pytest.raises(ValueError):
        ft_coefficients(PlaneTree())


def test_ft_coefficients_guard():
    star = PlaneTree([PlaneTree()] * (FT_LEAF_GUARD + 1))
    message = f"on {FT_LEAF_GUARD + 1} leaves .*; pass --unsafe-large to force"
    with pytest.raises(SizeGuardError, match=message):
        ft_coefficients(star)
    # C(t, 1) is the only term of a star: one letter, repeated
    assert ft_coefficients(star, unsafe_large=True) == {1: 1}
    assert ft_coefficients(PlaneTree([PlaneTree()] * FT_LEAF_GUARD)) == {1: 1}


def test_ft_coefficients_guard_text():
    star = PlaneTree([PlaneTree()] * 257)
    with pytest.raises(SizeGuardError) as info:
        ft_coefficients(star)
    assert str(info.value) == (
        "ft_coefficients on 257 leaves exceeds the guard 256; pass --unsafe-large to force"
    )


def test_ft_check_reports_both_sides():
    report = ft_check(PlaneTree.from_text("((**)(**)(***))"))
    assert report.name == "ft" and report.equal
    assert report.parameters == {"tree": "((**)(**)(***))"}
    assert report.lhs == report.rhs == '{"2": 1, "3": 6, "4": 6}'
    assert report.elapsed_ms > 0


def test_ft_check_meets_the_packed_words_guard_first():
    star = PlaneTree([PlaneTree()] * (FT_LEAF_GUARD + 1))
    with pytest.raises(SizeGuardError) as info:
        ft_check(star)
    assert str(info.value).startswith(f"packed_words({FT_LEAF_GUARD}) exceeds the guard")


def test_ft_matches_brute_force_small():
    for n in range(1, 6):
        for tree in plane_trees(n):
            assert ft_coefficients(tree) == ft_brute_force(tree)


# ---------------------------------------------------------------------------
# Postnikov and Eisenstein
# ---------------------------------------------------------------------------


def test_postnikov_small_values():
    report = postnikov_check(1)
    assert report.equal and report.lhs == "1"
    report = postnikov_check(2)
    assert report.equal and report.lhs == "3"
    # the two 2-node shapes each weigh (1+1)(1+1/2) = 3
    assert report.rhs == "3"


def test_postnikov_guard():
    with pytest.raises(SizeGuardError):
        postnikov_check(13)
    # n = 0 lies outside the identity, not above the guard
    with pytest.raises(ValueError):
        postnikov_check(0)


def test_eisenstein_coefficients_examples():
    g = eisenstein_coefficients(4)
    assert g.coefficient(0) == 1
    assert g.coefficient(2) == Fraction(3, 2)
    assert g.coefficient(4) == Fraction(125, 24)


def test_eisenstein_check():
    report = eisenstein_check(6)
    assert report.equal
    with pytest.raises(SizeGuardError):
        eisenstein_check(15)


# ---------------------------------------------------------------------------
# Du-Liu
# ---------------------------------------------------------------------------


def test_duliu_las2_n1():
    report = duliu_check("las2", 1)
    assert report.equal
    assert report.lhs == "α"
    assert report.rhs == "α"


def test_duliu_n0_trivial():
    for variant in ("las1", "las2", "las3"):
        m = 2 if variant == "las3" else 1
        report = duliu_check(variant, 0, m)
        assert report.equal
        assert report.lhs == "1"


def test_duliu_las1_n2_by_hand():
    # two shapes, each contributing (alpha + 1/2)(alpha + 1)
    lhs = 2 * (AlphaPoly((Fraction(1, 2), 1)) * AlphaPoly((1, 1)))
    assert duliu_rhs("las1", 1, 2) == lhs
    assert duliu_check("las1", 2).equal


def test_duliu_checks_pass():
    for n in range(6):
        assert duliu_check("las1", n).equal
        assert duliu_check("las2", n).equal
    for m in (2, 3):
        for n in range(5):
            assert duliu_check("las3", n, m).equal


def test_duliu_las3_reduces_to_las2():
    for n in range(5):
        assert duliu_rhs("las3", 1, n) == duliu_rhs("las2", 1, n)


def test_duliu_cross_check():
    for n in range(6):
        assert duliu_cross_check(n)


def test_duliu_guards():
    with pytest.raises(VariantArityMismatch):
        duliu_check("las1", 3, m=2)
    with pytest.raises(SizeGuardError):
        duliu_check("las2", 12)
    with pytest.raises(SizeGuardError):
        duliu_check("las3", 9, m=2)
    with pytest.raises(SizeGuardError):
        duliu_check("las3", 7, m=4)


UNKNOWN_VARIANT_CALLS = {
    "node factor": lambda: duliu_node_factor("las4", 1, 2),
    "right-hand side": lambda: duliu_rhs("las4", 1, 2),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_VARIANT_CALLS))
def test_an_unknown_duliu_variant_raises(name):
    with pytest.raises(ValueError, match="unknown Du-Liu variant 'las4'"):
        UNKNOWN_VARIANT_CALLS[name]()


def test_postnikov_is_las1_at_alpha_one():
    # at alpha = 1 the las1 summand is prod (1 + 1/h), so las1 evaluates
    # to the Postnikov sum: lhs(1) * n!/2^n = (n+1)^(n-1).  (The las2
    # specialization at alpha = 1 degenerates to 1 = 1 instead.)
    from treecalc.identities import _duliu_tree_sum

    for n in range(1, 7):
        las1_at_one = _duliu_tree_sum("las1", 1, n).evaluate(Fraction(1))
        assert las1_at_one * Fraction(factorial(n), 2**n) == (n + 1) ** (n - 1)
        las2_at_one = _duliu_tree_sum("las2", 1, n).evaluate(Fraction(1))
        assert las2_at_one == 1


def _ungrouped_product_sum(trees, factor):
    total = AlphaPoly.zero()
    for tree in trees:
        term = AlphaPoly.one()
        for h in hook_data(tree).hooks:
            term = term * factor(h)
        total = total + term
    return total


def test_postnikov_sum_against_per_tree_fractions():
    from treecalc.identities import _postnikov_sum

    for n in range(10):
        expected = Fraction(0)
        for tree in binary_trees(n):
            weight = Fraction(1)
            if n:
                for h in hook_data(tree).hooks:
                    weight *= 1 + Fraction(1, h)
            expected += weight
        assert _postnikov_sum(n) == expected


def _postnikov_sum_by_recursion(n: int) -> Fraction:
    """The sum as it was first written: a recursive closure memoized by
    text over the subtrees of the shapes with n nodes."""
    cache = {"_": 1}

    def weight(tree: BinaryTree) -> int:
        value = cache.get(tree.text)
        if value is None:
            k, left = tree.node_count, tree.left
            value = (k + 1) * comb(k - 1, left.node_count)
            value *= weight(left) * weight(tree.right)
            cache[tree.text] = value
        return value

    return Fraction(sum(weight(tree) for tree in binary_trees(n)), factorial(n))


def test_postnikov_sum_matches_the_recursive_reference():
    from treecalc.identities import _postnikov_sum

    for n in range(12):
        assert _postnikov_sum(n) == _postnikov_sum_by_recursion(n)


def test_postnikov_sum_visits_every_shape(monkeypatch):
    from treecalc.identities import _postnikov_sum

    visited = []

    def counted(n, **kwargs):
        for tree in binary_trees(n, **kwargs):
            visited.append(tree)
            yield tree

    monkeypatch.setattr(identities, "binary_trees", counted)
    for n in range(1, 10):
        visited.clear()
        _postnikov_sum(n)
        at_n = [tree.text for tree in visited if tree.node_count == n]
        assert at_n == [tree.text for tree in binary_trees(n)]


def test_duliu_tree_sum_against_ungrouped_products():
    from treecalc.identities import _duliu_tree_sum, duliu_node_factor

    for variant in ("las1", "las2"):
        for n in range(1, 7):
            expected = _ungrouped_product_sum(
                binary_trees(n), lambda h: duliu_node_factor(variant, 1, h)
            )
            assert _duliu_tree_sum(variant, 1, n) == expected
    for m in (2, 3):
        for n in range(1, 5):
            expected = _ungrouped_product_sum(
                mary_trees(m, n), lambda h: duliu_node_factor("las3", m, h)
            )
            assert _duliu_tree_sum("las3", m, n) == expected


# ---------------------------------------------------------------------------
# Lagrange fixed point
# ---------------------------------------------------------------------------


def test_lagrange_series_coefficients():
    f = lagrange_series(1, 2)
    assert f.coefficient(0) == AlphaPoly.one()
    assert f.coefficient(1) == AlphaPoly.gen()


def test_lagrange_checks():
    assert lagrange_fixed_point_check(1, 6).equal
    assert lagrange_fixed_point_check(2, 5).equal
    with pytest.raises(SizeGuardError):
        lagrange_fixed_point_check(17, 10)
    with pytest.raises(SizeGuardError):
        lagrange_fixed_point_check(2, 10)


# ---------------------------------------------------------------------------
# the plane-tree q-equation
# ---------------------------------------------------------------------------


def test_plane_q_check():
    report = plane_q_check(5)
    assert report.equal


def test_report_serialization():
    report = postnikov_check(3)
    data = report.to_json()
    assert data["identity"] == "postnikov"
    assert data["equal"] is True
    assert "per_tree" not in data
    with_trees = report.to_json(include_per_tree=True)
    assert with_trees["per_tree"]


# ---------------------------------------------------------------------------
# the one per-tree check
# ---------------------------------------------------------------------------


def test_a_broken_closed_form_fails_both_per_tree_checks(monkeypatch):
    assert postnikov_check(4).equal and lagrange_fixed_point_check(2, 4).equal
    check = identities._hook_classes_check

    def mutant(expansion, order, closed):
        # the single-node tree alone gets a wrong closed form
        broken = lambda hooks: closed(hooks) + (1 if hooks == (1,) else 0)
        return check(expansion, order, broken)

    monkeypatch.setattr(identities, "_hook_classes_check", mutant)
    postnikov = postnikov_check(4)
    assert not postnikov.equal
    assert postnikov.lhs == postnikov.rhs == "125"  # the tree sum still agrees
    assert not lagrange_fixed_point_check(2, 4).equal


PER_TREE_ORDER = 5


def _postnikov_closed(hooks):
    return Fraction(prod(h + 1 for h in hooks), 2 ** len(hooks) * prod(hooks))


def _postnikov_per_tree(terms=None):
    """The shape-walk reference check of the Postnikov expansion, on its
    own terms or on a replacement list of (tree, term) pairs."""
    expansion, _ = identities._postnikov_paths(PER_TREE_ORDER)
    if terms is not None:
        expansion = TreeExpansion(terms=terms, total=expansion.total)
    return references.per_tree_walk(expansion, PER_TREE_ORDER, _postnikov_closed), expansion


def test_per_tree_fails_on_one_fresh_wrong_term():
    (equal, _), expansion = _postnikov_per_tree()
    assert equal
    terms = list(expansion.terms)
    tree, term = terms[-1]
    terms[-1] = (tree, term + TruncatedSeries.monomial(tree.node_count, PER_TREE_ORDER))
    assert not _postnikov_per_tree(terms)[0][0]


def test_per_tree_fails_on_one_term_shared_across_multisets():
    # a term right for one tree, handed also to a tree of another multiset:
    # a comparison cached by the term object alone would pass it
    (_, values), expansion = _postnikov_per_tree()
    terms = list(expansion.terms)
    first = next(i for i, (tree, _) in enumerate(terms) if tree.node_count == PER_TREE_ORDER)
    other = next(
        i for i in range(first + 1, len(terms))
        if hook_data(terms[i][0]).hooks != hook_data(terms[first][0]).hooks
        and values[i] != values[first]
    )
    terms[other] = (terms[other][0], terms[first][1])
    assert not _postnikov_per_tree(terms)[0][0]


def _postnikov_classes(edit=None):
    """The class check of the Postnikov expansion, on its own table or on
    a copy of it that edit(top level, as a list of [term, hooks, count])
    changes in place."""
    expansion, _ = identities._postnikov_paths(PER_TREE_ORDER)
    if edit is not None:
        table = [{key: list(value) for key, value in level.items()}
                 for level in expansion.terms.hook_classes]
        edit(list(table[PER_TREE_ORDER].values()))
        expansion = TreeExpansion(terms=SimpleNamespace(hook_classes=table), total=expansion.total)
    return identities._hook_classes_check(expansion, PER_TREE_ORDER, _postnikov_closed)


def test_class_check_fails_on_one_fresh_wrong_term():
    assert _postnikov_classes()

    def edit(classes):
        classes[-1][0] = classes[-1][0] + TruncatedSeries.monomial(PER_TREE_ORDER, PER_TREE_ORDER)

    assert not _postnikov_classes(edit)


def test_class_check_fails_on_one_term_shared_across_multisets():
    # a class's term, right for its multiset, handed to a class of another
    # multiset whose closed form differs
    def edit(classes):
        first = classes[0]
        other = next(c for c in classes[1:] if _postnikov_closed(c[1]) != _postnikov_closed(first[1]))
        other[0] = first[0]

    assert not _postnikov_classes(edit)


@pytest.mark.parametrize("order", range(9))
def test_class_check_agrees_with_the_shape_walk(order):
    expansion, _ = identities._postnikov_paths(order)
    assert identities._hook_classes_check(expansion, order, _postnikov_closed)
    equal, texts = references.per_tree_walk(expansion, order, _postnikov_closed)
    assert equal
    if order:
        rows = postnikov_check(order).to_json(include_per_tree=True)["per_tree"]
        assert rows == [
            {"tree": tree.text, "coefficient": text}
            for (tree, _), text in zip(expansion.terms, texts)
        ]
    for m in (1, 2, 3):
        if order <= {1: 8, 2: 6, 3: 5}[m]:
            operator = identities.lagrange_operator(m)
            expansion = fixed_point_mary(operator, m, order)
            closed = lambda hooks: identities._duliu_product("las3", m, hooks)
            assert identities._hook_classes_check(expansion, order, closed)
            assert references.per_tree_walk(expansion, order, closed)[0]


def test_postnikov_lists_its_rows_only_when_asked(monkeypatch):
    calls = []
    real = identities.hook_data
    monkeypatch.setattr(identities, "hook_data", lambda tree: calls.append(None) or real(tree))
    report = postnikov_check(6)
    assert report.equal and not calls
    assert "per_tree" not in report.to_json()
    rows = report.to_json(include_per_tree=True)["per_tree"]
    assert isinstance(rows, list) and len(rows) == 1 + 1 + 2 + 5 + 14 + 42 + 132
    assert len(calls) == len(rows) - 1  # one multiset per nonempty shape


# ---------------------------------------------------------------------------
# one equality rule: every named path is compared, and the failing ones named
# ---------------------------------------------------------------------------

PATH_CHECKS = {
    "postnikov": lambda: postnikov_check(4),
    "eisenstein": lambda: eisenstein_check(4),
    "duliu": lambda: duliu_check("las3", 3, 2),
    "lagrange": lambda: lagrange_fixed_point_check(2, 4),
    "ft": lambda: ft_check(PlaneTree.from_text("((**)(**)(***))")),
    "plane-q": lambda: plane_q_check(4),
}


def _off_by(bump):
    """A mutant of a function whose results are bumped by bump."""
    return lambda real: lambda *args, **kwargs: bump(real(*args, **kwargs))


def _plus_t(series):
    return series + TruncatedSeries.monomial(1, series.order)


def _total_plus_t(expansion):
    return TreeExpansion(terms=expansion.terms, total=_plus_t(expansion.total))


def _closed_form_doubled(check):
    return lambda expansion, order, closed: check(expansion, order, lambda h: closed(h) * 2)


_plus_one = _off_by(lambda value: value + 1)
_plus_c0 = _off_by(lambda p: p + BinomialPoly({0: QPoly.one()}))  # C(t, 0) = 1

# (check, path) -> (the function behind the path, its mutant)
PATH_MUTANTS = {
    ("postnikov", "shape-sum"): ("_postnikov_sum", _plus_one),
    ("postnikov", "per-tree"): ("_hook_classes_check", _closed_form_doubled),
    ("postnikov", "tree-expansion"): ("fixed_point_binary", _off_by(_total_plus_t)),
    ("postnikov", "picard"): ("picard_binary", _off_by(_plus_t)),
    ("eisenstein", "exp(t g)"): ("exp_series", _off_by(_plus_t)),
    ("eisenstein", "tree-expansion"): ("fixed_point_binary", _off_by(_total_plus_t)),
    ("eisenstein", "picard"): ("picard_binary", _off_by(_plus_t)),
    ("duliu", "closed-form"): ("duliu_rhs", _plus_one),
    ("lagrange", "binomial"): ("binomial_series", _off_by(_plus_t)),
    ("lagrange", "picard"): ("picard_mary", _off_by(_plus_t)),
    ("lagrange", "tree-expansion"): ("fixed_point_mary", _off_by(_total_plus_t)),
    ("lagrange", "per-tree"): ("_hook_classes_check", _closed_form_doubled),
    ("ft", "oracle"): ("ft_brute_force", _off_by(lambda counts: {**counts, 0: 1})),
    ("plane-q", "word-sum"): ("psi", _plus_c0),
    ("plane-q", "difference"): ("finite_difference", _plus_c0),
}


def _mutate(monkeypatch, check, paths):
    # plane_q_check is a test reference and reads its paths' functions there
    module = references if check == "plane-q" else identities
    for path in paths:
        name, mutant = PATH_MUTANTS[check, path]
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))


@pytest.mark.parametrize("check", list(PATH_CHECKS))
def test_a_passing_check_names_no_path(check):
    report = PATH_CHECKS[check]()
    assert report.equal is True
    assert report.disagree == ()


@pytest.mark.parametrize("check, path", list(PATH_MUTANTS))
def test_each_path_mutant_is_named(monkeypatch, check, path):
    _mutate(monkeypatch, check, [path])
    report = PATH_CHECKS[check]()
    assert report.equal is False
    assert report.disagree == (path,)


@pytest.mark.parametrize("check, paths", [
    ("lagrange", ("binomial", "picard")),
    ("postnikov", ("shape-sum", "picard")),
    ("eisenstein", ("exp(t g)", "picard")),
    ("plane-q", ("word-sum", "difference")),
])
def test_two_path_mutants_are_both_named(monkeypatch, check, paths):
    # no path stops the comparison of the ones after it
    _mutate(monkeypatch, check, paths)
    report = PATH_CHECKS[check]()
    assert report.equal is False
    assert report.disagree == paths
