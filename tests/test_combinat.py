import os
import subprocess
import sys
from itertools import product as iter_product
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

import treecalc
from treecalc.combinat import (
    EMPTY_BINARY,
    LEAF,
    BinaryTree,
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
from treecalc.combinat import MARY_SLOT_GUARD, _cartesian_tree, _compositions, _shapes, _splits
from treecalc.errors import ParseError, SizeGuardError

from references import plane_tree_counts

words = st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=8)


# ---------------------------------------------------------------------------
# standardization and packing
# ---------------------------------------------------------------------------


def test_standardize_examples():
    assert standardize((3, 4, 3, 6, 4)).word == (1, 3, 2, 5, 4)
    assert standardize((1, 1, 1)).word == (1, 2, 3)
    for p in permutations(4):
        assert standardize(p.word) == p


def test_pack_examples():
    assert pack((3, 4, 3, 6, 4)).letters == (1, 2, 1, 3, 2)
    assert pack((7, 7, 7)).letters == (1, 1, 1)
    assert pack(()).letters == ()


def test_pack_idempotent_exhaustive():
    for n in range(7):
        for word in iter_product(range(1, 7), repeat=n):
            packed = pack(word)
            assert pack(packed.letters) == packed


@given(words)
def test_standardize_of_pack(word):
    assert standardize(pack(word).letters) == standardize(word)


def test_packed_word_validation():
    with pytest.raises(ValueError):
        PackedWord((1, 3))  # 2 missing
    with pytest.raises(ValueError):
        Permutation((1, 1))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_statistics_examples():
    p = Permutation((2, 1))
    assert (p.maj(), p.imaj(), p.inversions()) == (1, 1, 1)
    e = Permutation.identity(5)
    assert (e.maj(), e.imaj(), e.inversions()) == (0, 0, 0)
    p = Permutation((2, 4, 1, 3))
    assert p.inverse().word == (3, 1, 4, 2)
    assert p.imaj() == 4


def test_inversions_against_definition(perms_by_size):
    for p in perms_by_size[5]:
        w = p.word
        count = sum(
            1 for i in range(5) for j in range(i + 1, 5) if w[i] > w[j]
        )
        assert p.inversions() == count


def test_statistics_against_their_definitions_up_to_seven():
    """imaj against the major index of the inverse key, and inversions
    against the count of pairs, on all of S_0 .. S_7."""
    for n in range(8):
        for p in permutations(n):
            w = p.word
            assert p.imaj() == p.inverse().maj()
            assert p.inversions() == sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_decreasing_tree_examples():
    shape = decreasing_tree(Permutation((1, 4, 2, 3)))
    assert shape.text == "((_,_),((_,_),_))"
    assert decreasing_tree(Permutation((1,))).text == "(_,_)"
    assert decreasing_tree(Permutation((3, 4, 1, 2))) == shape


def test_hook_data_examples():
    tree = BinaryTree.from_text("((_,_),((_,_),_))")
    data = hook_data(tree)
    assert data.hooks == (4, 2, 1, 1)
    assert sum(data.right_sizes) == 2

    single = BinaryTree.from_text("(_,_)")
    assert hook_data(single) == hook_data(decreasing_tree(Permutation((1,))))
    assert hook_data(single).hooks == (1,)
    assert hook_data(single).right_sizes == (0,)

    left_comb = BinaryTree.from_text("(((_,_),_),_)")
    assert hook_data(left_comb).hooks == (3, 2, 1)
    assert hook_data(left_comb).right_sizes == (0, 0, 0)


def test_hook_data_invariants():
    for n in range(1, 7):
        for tree in binary_trees(n):
            data = hook_data(tree)
            assert len(data.hooks) == n
            assert max(data.hooks) == n
            assert data.hooks.count(n) == 1
    with pytest.raises(ValueError):
        hook_data(BinaryTree())


def test_hook_data_matches_recursive_reference():
    def reference(tree, hooks, rights):
        if tree.node_count:
            hooks.append(tree.node_count)
            rights.append(tree.right.node_count)
            reference(tree.left, hooks, rights)
            reference(tree.right, hooks, rights)
        return hooks, rights

    for n in range(1, 9):
        for tree in binary_trees(n):
            hooks, rights = reference(tree, [], [])
            data = hook_data(tree)
            assert data.hooks == tuple(sorted(hooks, reverse=True))
            assert data.right_sizes == tuple(sorted(rights, reverse=True))


def test_hook_data_mary():
    for tree in mary_trees(2, 3):
        data = hook_data(tree)
        assert len(data.hooks) == 3
        assert max(data.hooks) == 3
        assert data.right_sizes == ()


DEEP = 3000  # well past the default recursion limit of 1000


def test_hook_data_deep_combs():
    from treecalc.identities import hook_count

    empty = BinaryTree()
    left_comb = right_comb = empty
    for _ in range(DEEP):
        left_comb = BinaryTree(left_comb, empty)
        right_comb = BinaryTree(empty, right_comb)
    descending = tuple(range(DEEP, 0, -1))
    assert hook_data(left_comb).hooks == descending
    assert hook_data(left_comb).right_sizes == (0,) * DEEP
    assert hook_data(right_comb).hooks == descending
    assert hook_data(right_comb).right_sizes == tuple(range(DEEP - 1, -1, -1))
    assert hook_count(left_comb) == 1
    assert hook_count(right_comb) == 1


def test_hook_data_deep_mary_chain():
    empty = MAryTree(2)
    chain = empty
    for _ in range(DEEP):
        chain = MAryTree(2, (empty, chain, empty))
    data = hook_data(chain)
    assert data.hooks == tuple(range(DEEP, 0, -1))
    assert data.right_sizes == ()


def test_decreasing_tree_fibers_sum(perms_by_size):
    for n in range(1, 7):
        shapes = {}
        for p in perms_by_size[n]:
            t = decreasing_tree(p)
            shapes[t] = shapes.get(t, 0) + 1
        assert sum(shapes.values()) == factorial(n)
        assert set(shapes) == set(binary_trees(n))


def test_decreasing_tree_total_up_to_nine():
    # the map is total on S_n and its fibers partition S_n across all shapes
    for n in (8, 9):
        count = 0
        shapes = set()
        for p in permutations(n):
            shapes.add(decreasing_tree(p))
            count += 1
        assert count == factorial(n)
        assert shapes == set(binary_trees(n))


def test_plane_tree_examples():
    assert plane_tree_of_word(()) == PlaneTree()
    assert plane_tree_of_word((1, 1)).text == "(***)"
    tree = plane_tree_of_word((2, 4, 3, 4, 1, 1))
    assert tree.text == "((**)(**)(***))"
    assert tree.leaf_count == 7
    assert tree.internal_count == 4


def test_plane_tree_of_packed_words(packed_by_length):
    for n in range(1, 7):
        for word in packed_by_length[n]:
            tree = plane_tree_of_word(word.letters)
            assert tree.leaf_count == n + 1
            stack = [tree]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    assert len(node.children) >= 2
                    stack.extend(node.children)


def test_plane_tree_counts_match_schroeder(packed_by_length):
    expected = {1: 1, 2: 3, 3: 11, 4: 45}
    for n, count in expected.items():
        reachable = {plane_tree_of_word(w.letters) for w in packed_by_length[n]}
        assert len(reachable) == count
        assert reachable == set(plane_trees(n))


# The recursive definitions of the two word-to-tree maps, kept here only as
# the reference for the iterative builders: the block-list stack that serves
# both, and decreasing_tree's two-child stack, with and without a shared
# table.  They build the canonical text, which is cheaper than tree objects
# and equal iff the shapes are.


def _decreasing_tree_reference(word: tuple) -> str:
    if not word:
        return "_"
    i = word.index(max(word))
    left, right = word[:i], word[i + 1 :]
    return f"({_decreasing_tree_reference(left)},{_decreasing_tree_reference(right)})"


def _plane_tree_reference(word: tuple) -> str:
    if not word:
        return "*"
    top, blocks = max(word), [[]]
    for letter in word:
        if letter == top:
            blocks.append([])
        else:
            blocks[-1].append(letter)
    return "(" + "".join(_plane_tree_reference(tuple(block)) for block in blocks) + ")"


def _binary_text(children: list) -> str:
    return f"({children[0]},{children[1]})"


def _plane_text(children: list) -> str:
    return "(" + "".join(children) + ")"


def test_builder_matches_the_recursive_references():
    # the builder with text nodes on all of S_0..S_8 and every packed word of
    # length <= 7; the maps themselves on the smaller sizes below
    for n in range(9):
        for p in permutations(n):
            assert _cartesian_tree(p.word, "_", _binary_text) == _decreasing_tree_reference(p.word)
    for n in range(8):
        for word in packed_words(n):
            letters = word.letters
            assert _cartesian_tree(letters, "*", _plane_text) == _plane_tree_reference(letters)


def test_the_maps_match_the_recursive_references(perms_by_size, packed_by_length):
    for n in range(7):
        for p in perms_by_size[n]:
            assert decreasing_tree(p).text == _decreasing_tree_reference(p.word)
        for word in packed_by_length[n]:
            assert plane_tree_of_word(word.letters).text == _plane_tree_reference(word.letters)


def test_plane_tree_of_an_unpacked_word_matches_the_reference():
    for word in [(5,), (3, 9, 3), (7, 2, 7, 2, 9, 1), (4, 4, 8, 1, 8)]:
        assert plane_tree_of_word(word).text == _plane_tree_reference(word)


@pytest.mark.parametrize(
    "letters", [range(1, DEEP + 1), range(DEEP, 0, -1)], ids=["increasing", "decreasing"]
)
def test_decreasing_tree_of_a_deep_permutation(letters):
    tree = decreasing_tree(Permutation(letters))
    assert tree.node_count == DEEP
    comb = "_"
    for _ in range(DEEP):  # the maximum ends the increasing word: a left comb
        comb = f"({comb},_)" if letters[0] == 1 else f"(_,{comb})"
    assert tree.text == comb


def test_plane_tree_of_a_deep_word():
    tree = plane_tree_of_word(range(1, DEEP + 1))
    assert (tree.leaf_count, tree.internal_count) == (DEEP + 1, DEEP)
    assert tree.text == "(" * DEEP + "**" + ")*" * (DEEP - 1) + ")"


def test_plane_tree_counts_read_off_the_text_are_the_sums_once_stored():
    trees = [tree for n in range(8) for tree in plane_trees(n)]
    deep = "*"
    for _ in range(DEEP):
        deep = f"(*{deep}*)"
    trees += [plane_tree_of_word(range(1, DEEP + 1)), PlaneTree.from_text(deep)]
    for tree in trees:
        assert (tree.internal_count, tree.leaf_count) == plane_tree_counts(tree)


def test_the_maps_through_one_table_match_the_recursive_references(packed_by_length):
    # one table serves every permutation of S_0..S_7, another every packed
    # word of length <= 6; a node found by the wrong key, or built with its
    # children swapped, prints the wrong text
    binary, plane = {}, {}
    for n in range(8):
        for p in permutations(n):
            assert decreasing_tree(p, binary).text == _decreasing_tree_reference(p.word)
    for n in range(7):
        for word in packed_by_length[n]:
            letters = word.letters
            assert plane_tree_of_word(letters, plane).text == _plane_tree_reference(letters)
    # one node per distinct nonempty shape: Catalan(1..7) and the plane trees
    # with 1..6 internal nodes
    assert len(binary) == 1 + 2 + 5 + 14 + 42 + 132 + 429
    assert len(plane) == len({node.text for node in plane.values()})


def test_equal_shapes_built_through_one_table_are_one_object():
    binary, plane = {}, {}
    tree = decreasing_tree(Permutation((1, 3, 2)), binary)
    assert decreasing_tree(Permutation((2, 3, 1)), binary) is tree
    assert tree.left is tree.right
    other = decreasing_tree(Permutation((2, 1, 4, 3)), binary)  # (2,1) under 4, then 3
    assert other.right is tree.left
    assert decreasing_tree(Permutation((2, 1)), binary) is other.left
    tree = plane_tree_of_word((2, 4, 3, 4, 1, 1), plane)
    assert tree.children[0] is tree.children[1]
    assert plane_tree_of_word((1, 1), plane) is plane_tree_of_word((5, 5), plane) is tree.children[2]
    # with no table every call builds its own nodes
    assert decreasing_tree(Permutation((1, 3, 2))) is not decreasing_tree(Permutation((1, 3, 2)))
    assert plane_tree_of_word((1, 1)) is not plane_tree_of_word((1, 1))


@pytest.mark.parametrize(
    "letters", [range(1, DEEP + 1), range(DEEP, 0, -1)], ids=["increasing", "decreasing"]
)
def test_a_deep_permutation_through_a_table(letters):
    shared: dict = {}
    tree = decreasing_tree(Permutation(letters), shared)
    assert tree.text == decreasing_tree(Permutation(letters)).text
    assert len(shared) == DEEP  # every subtree of a comb has its own size


def test_a_deep_word_through_a_table():
    shared: dict = {}
    word = range(1, DEEP + 1)
    assert plane_tree_of_word(word, shared).text == plane_tree_of_word(word).text
    assert len(shared) == DEEP


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------


def test_binary_tree_counts():
    catalan = [1, 1, 2, 5, 14, 42]
    for n, expected in enumerate(catalan):
        trees = list(binary_trees(n))
        assert len(trees) == expected
        assert len(set(trees)) == expected


def test_packed_word_counts(packed_by_length):
    ordered_bell = [1, 1, 3, 13, 75]
    for n, expected in enumerate(ordered_bell):
        assert len(packed_by_length[n]) == expected
        assert len(set(packed_by_length[n])) == expected


def test_packed_words_against_filter():
    for n in range(7):
        brute = sorted(
            PackedWord(w)
            for w in iter_product(range(1, n + 1), repeat=n)
            if set(w) == set(range(1, max(w, default=0) + 1))
        )
        assert list(packed_words(n)) == brute


def test_permutations_enumerator():
    assert [p.word for p in permutations(0)] == [()]
    assert len(list(permutations(4))) == 24


def test_mary_tree_counts():
    # Fuss-Catalan: C((m+1)n, n) / (mn+1)
    from math import comb

    for m in (1, 2, 3):
        for n in range(5):
            expected = comb((m + 1) * n, n) // (m * n + 1)
            assert len(list(mary_trees(m, n))) == expected


def test_size_guards():
    with pytest.raises(SizeGuardError):
        next(permutations(13))
    with pytest.raises(SizeGuardError):
        next(packed_words(10))
    # the override flag lifts the guard
    stream = permutations(13, unsafe_large=True)
    assert next(stream).size == 13


def test_mary_trees_are_guarded_by_their_child_slots():
    # the guard is the m = 3, n = 9 level; m = 4, n = 9 fills 119,751,775 slots
    assert MARY_SLOT_GUARD == 4 * comb(4 * 9, 9) // (3 * 9 + 1)
    with pytest.raises(SizeGuardError, match="child slots"):
        next(mary_trees(4, 9))


def test_compositions_in_lexicographic_order():
    for total in range(9):
        for parts in range(6):
            for minimum in (0, 1):
                brute = [
                    c for c in iter_product(range(minimum, total + 1), repeat=parts)
                    if sum(c) == total
                ]
                raised = [
                    tuple(part + minimum for part in c)
                    for c in _compositions(total - minimum * parts, parts)
                ]
                assert raised == brute
    assert next(_compositions(0, 3000)) == (0,) * 3000


def test_one_splits_rule_counts_every_tree_family():
    # the shapes of size n are, for each split, the products of the smaller shapes
    families = ((2, binary_trees), (3, lambda n: mary_trees(2, n)), (None, plane_trees))
    for arity, family in families:
        counts = [1]
        for n in range(1, 7):
            counts.append(sum(prod(counts[s] for s in split) for split in _splits(arity, n)))
        assert counts == [len(list(family(n))) for n in range(7)]


def test_tree_enumerators_check_their_guard_when_called():
    shapes = _shapes.cache_info().currsize
    for call in (lambda: binary_trees(15), lambda: mary_trees(2, 10), lambda: plane_trees(10)):
        with pytest.raises(SizeGuardError):
            call()  # no next() needed
    assert _shapes.cache_info().currsize == shapes


def test_long_packed_words_meet_no_recursion_limit():
    assert next(packed_words(3000, unsafe_large=True)).letters == (1,) * 3000


def test_tree_shapes_build_bottom_up():
    # a fresh interpreter, so that no size is cached yet, with room for
    # only 20 more frames than it starts with
    script = (
        "import sys\n"
        "from treecalc.combinat import binary_trees\n"
        "depth, frame = 0, sys._getframe()\n"
        "while frame:\n"
        "    depth, frame = depth + 1, frame.f_back\n"
        "sys.setrecursionlimit(depth + 20)\n"
        "print(sum(1 for _ in binary_trees(11)))\n"
    )
    source = os.path.dirname(os.path.dirname(treecalc.__file__))
    env = {**os.environ, "PYTHONPATH": source}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "58786\n", "")


def test_enumeration_deterministic():
    first = [t.text for t in binary_trees(4)]
    second = [t.text for t in binary_trees(4)]
    assert first == second == sorted(first)


# ---------------------------------------------------------------------------
# grammar round trips
# ---------------------------------------------------------------------------


def test_binary_tree_grammar_round_trip():
    for n in range(6):
        for tree in binary_trees(n):
            assert BinaryTree.from_text(tree.text) == tree


def test_plane_tree_grammar_round_trip():
    for n in range(6):
        for tree in plane_trees(n):
            assert PlaneTree.from_text(tree.text) == tree


def test_mary_tree_grammar_round_trip():
    for m in (1, 2):
        for n in range(4):
            for tree in mary_trees(m, n):
                assert MAryTree.from_text(m, tree.text) == tree


def test_empty_shapes_are_pairwise_unequal():
    empties = [BinaryTree(), MAryTree(1), MAryTree(2)]
    for i, a in enumerate(empties):
        for j, b in enumerate(empties):
            assert (a == b) == (i == j)


def test_mary_tree_of_arity_one_is_not_a_binary_tree():
    mary = MAryTree.from_text(1, "(__)")
    assert mary != BinaryTree(BinaryTree(), BinaryTree())
    assert BinaryTree(BinaryTree(), BinaryTree()) != mary
    list(binary_trees(2))  # the binary shapes of size 2 are cached first
    assert [type(t) for t in mary_trees(1, 2)] == [MAryTree, MAryTree]


def test_equal_shapes_hash_equal():
    pairs = [
        (BinaryTree(BinaryTree(), BinaryTree()), BinaryTree.from_text("(_,_)")),
        (MAryTree(2, [MAryTree(2)] * 3), MAryTree.from_text(2, "(___)")),
        (PlaneTree([PlaneTree(), PlaneTree()]), PlaneTree.from_text("(**)")),
    ]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


MALFORMED_SHAPE_CALLS = {
    "binary node with one child": lambda: BinaryTree(EMPTY_BINARY),
    "m-ary arity 0": lambda: MAryTree(0),
    "m-ary node with m children": lambda: MAryTree(2, [MAryTree(2)] * 2),
    "m-ary node of mixed arities": lambda: MAryTree(2, [MAryTree(1)] * 3),
    "plane node with one child": lambda: PlaneTree([PlaneTree()]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SHAPE_CALLS))
def test_a_malformed_shape_raises(name):
    with pytest.raises(ValueError):
        MALFORMED_SHAPE_CALLS[name]()


def test_parse_errors():
    for bad in ("", "(", "(_,_", "(_)", "x", "(_,_))"):
        with pytest.raises(ParseError):
            BinaryTree.from_text(bad)
    with pytest.raises(ParseError):
        PlaneTree.from_text("(*)")
    with pytest.raises(ParseError):
        MAryTree.from_text(2, "(__)")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (BinaryTree.from_text, " ", "unexpected end of binary tree string"),
        (BinaryTree.from_text, "(_,", "unexpected end of binary tree string"),
        (BinaryTree.from_text, "(x", "expected '_' or '(' in binary tree, got 'x'"),
        (BinaryTree.from_text, "(_)", "expected ',' between binary tree children"),
        (BinaryTree.from_text, "(_,_", "expected ')' closing binary tree node"),
        (BinaryTree.from_text, "(_,_))", "trailing input after binary tree: ')'"),
        (PlaneTree.from_text, "", "unexpected end of plane tree string"),
        (PlaneTree.from_text, ")", "expected '*' or '(' in plane tree, got ')'"),
        (PlaneTree.from_text, "(**", "expected ')' closing plane tree node"),
        (PlaneTree.from_text, "(*)", "plane tree nodes need >= 2 children"),
        (PlaneTree.from_text, "(**)*", "trailing input after plane tree: '*'"),
        (lambda t: MAryTree.from_text(2, t), "(__", "unexpected end of m-ary tree string"),
        (lambda t: MAryTree.from_text(2, t), "(_,", "expected '_' or '(' in m-ary tree, got ','"),
        (lambda t: MAryTree.from_text(2, t), "(____)", "expected ')' closing m-ary tree node"),
        (lambda t: MAryTree.from_text(2, t), "___", "trailing input after m-ary tree: '__'"),
    ],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_deep_trees():
    binary, plane, mary = "_", "*", "_"
    for _ in range(DEEP):
        binary = f"({binary},_)"
        plane = f"(*{plane}*)"
        mary = f"(_{mary}_)"
    assert BinaryTree.from_text(binary).node_count == DEEP
    assert PlaneTree.from_text(plane).internal_count == DEEP
    assert MAryTree.from_text(2, mary).node_count == DEEP


def test_word_text_round_trip():
    assert Permutation.from_text("1423").word == (1, 4, 2, 3)
    assert PackedWord.from_text("12132").letters == (1, 2, 1, 3, 2)
    long_word = Permutation(tuple(range(1, 12)))
    assert "," in long_word.to_text()
    assert Permutation.from_text(long_word.to_text()) == long_word
    with pytest.raises(ParseError):
        Permutation.from_text("1x3")


def test_the_empty_text_is_the_empty_word():
    assert Permutation.from_text("") == Permutation(())


@pytest.mark.parametrize("text", ["1,,2", "1 2", "12x", "1,a", " 1x ", "1,2,"])
def test_bad_word_strings_name_the_stripped_text(text):
    for key_type in (Permutation, PackedWord):
        with pytest.raises(ParseError) as info:
            key_type.from_text(text)
        assert str(info.value) == f"bad word string {text.strip()!r}"


def test_a_parse_shares_one_leaf():
    # the module's immutable leaves; a subclass still gets leaves of its own type
    assert {*PlaneTree.from_text("((**)*)").children[0].children} == {LEAF}
    binary = BinaryTree.from_text("((_,_),_)")
    assert binary.right is EMPTY_BINARY and binary.left.left is EMPTY_BINARY
    mary = MAryTree.from_text(2, "((___)__)")
    assert len({id(leaf) for leaf in (*mary.children[0].children, *mary.children[1:])}) == 1

    class Shaped(PlaneTree):
        __slots__ = ()

    tree = Shaped.from_text("(*(**))")
    assert {type(tree), type(tree.children[0]), type(tree.children[1].children[1])} == {Shaped}
    assert tree.text == "(*(**))"


# ---------------------------------------------------------------------------
# the word core shared by Permutation and PackedWord
# ---------------------------------------------------------------------------


def test_word_keys_of_different_types_are_unequal():
    perm, packed = Permutation((1, 2)), PackedWord((1, 2))
    assert perm != packed and packed != perm
    assert perm != (1, 2) and (1, 2) != perm
    assert packed != (1, 2) and (1, 2) != packed
    assert len({perm, packed}) == 2


def test_equal_word_keys_hash_equal():
    for key_type, letters in ((Permutation, (2, 3, 1)), (PackedWord, (1, 2, 1))):
        a, b = key_type(letters), key_type.from_text("".join(map(str, letters)))
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_word_keys_sort_by_length_then_letters():
    perms = [Permutation(w) for w in ((2, 1, 3), (1,), (1, 3, 2), (2, 1), ())]
    assert [p.word for p in sorted(perms)] == [(), (1,), (2, 1), (1, 3, 2), (2, 1, 3)]
    packed = [PackedWord(w) for w in ((1, 1, 1), (2, 1), (1,), (1, 2, 1), (1, 1))]
    assert [w.letters for w in sorted(packed)] == [(1,), (1, 1), (2, 1), (1, 1, 1), (1, 2, 1)]


def test_word_key_reprs():
    assert repr(Permutation((2, 1))) == "Permutation((2, 1))"
    assert repr(Permutation((1,))) == "Permutation((1,))"
    assert repr(Permutation(())) == "Permutation(())"
    assert repr(PackedWord((1, 2, 1))) == "PackedWord((1, 2, 1))"
    assert repr(PackedWord(())) == "PackedWord(())"


def test_permutation_word_is_its_letters():
    perm = Permutation((3, 1, 2))
    assert perm.word is perm.letters == (3, 1, 2)
    assert list(perm) == [3, 1, 2] and len(perm) == 3
