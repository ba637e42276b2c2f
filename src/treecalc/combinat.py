"""Words, permutations, packed words, and the tree shapes they index.

Provides the classical statistics (maj, imaj, inversions), the
standardization and packing maps, the decreasing-tree and plane-tree
constructions (two iterative Cartesian-tree builders, so no word-to-tree
map recurses: a two-child stack for the distinct letters of a
permutation and a block-list stack for words; a scan over many words
passes both one table, ``shared``, so its equal subtrees are one object),
hook data, the one bottom-up evaluator of a tree as a term (``_fold``,
children before parents, with no recursion), and exhaustive enumerators
with size guards.

Tree shapes carry a canonical text encoding fixed by the grammar

    BinaryTree ::= "_" | "(" BinaryTree "," BinaryTree ")"
    PlaneTree  ::= "*" | "(" PlaneTree{2,} ")"          children juxtaposed
    MAryTree   ::= "_" | "(" child{m+1} ")"             arity m out-of-band

which is bit-exact across the CLI, JSON dumps, and hashing; the three
families share one parser, one enumerator and one equality by text.
Every value here is immutable.  The enumerators run in a deterministic
order; the tree families build each size's full list once and cache it,
bounded only by the size guards.

Permutation and PackedWord share one word core: a tuple of int letters
with its equality, hash, order and text.  Each key type has one exact check
(the set of letters of w is {1..m}, m = len(w) or, for a packed word,
len(set(w))), run on one word by the public constructor by its letter set
and on all the words of a product in one batch pass (``_Word._check_words``:
a ``bytes.translate`` per permutation, a frozenset lookup per packed word);
the products keep words in stored form (``_key``) and build keys when read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import lru_cache, partial
from itertools import chain, combinations, compress, count, product, repeat, starmap
from itertools import permutations as _itertools_permutations
from math import comb, inf, prod
from operator import attrgetter, eq, gt
from typing import Collection, Iterator, NamedTuple, Sequence

from .errors import ParseError, refuse_large

PERMUTATION_GUARD = 12
PACKED_WORD_GUARD = 9
BINARY_TREE_GUARD = 14
MARY_TREE_GUARD = 9
# Child slots of one m-ary level, (m+1)*FussCatalan(m, n): m = 3, n = 9, the
# largest level the node guard allowed with m <= 3.
MARY_SLOT_GUARD = 13_449_040
PLANE_TREE_GUARD = 9
_LETTERS = tuple(bytes((c,)) for c in range(256))  # the one-letter stored words
_INT = frozenset((int,))  # the type of every stored letter
_PACKED = frozenset(frozenset(range(1, k + 1)) for k in range(16))  # the sets {1..k}: 9 KB


def _word_from_text(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        return tuple(map(int, text.split(",") if "," in text else text))
    except ValueError as exc:
        raise ParseError(f"bad word string {text!r}") from exc


def _key(letters: Sequence[int]) -> bytes | tuple[int, ...]:
    """The stored form of a word in the word-algebra kernels: bytes below 256
    letters (a key's letters never exceed its length), its tuple beyond."""
    return bytes(letters) if len(letters) < 256 else tuple(letters)


@lru_cache(maxsize=None)
def _shift(k: int) -> bytes:
    return bytes(range(k, 256)) + bytes(k)  # adds k to every letter below 256 - k


# The comparison set of ``_store`` and of the batches ``_Word._check_words``
# has no C check for, built per size on first use; bounded, as each is a word long.
@lru_cache(maxsize=64)
def _interval(m: int) -> frozenset[int]:
    """The letter set of every permutation of 1..m and packed word with m letters."""
    return frozenset(range(1, m + 1))


class _Word:
    """The word core of both basis-key types: one tuple of int letters, equal
    only to a key of the same type with the same tuple, hashed by the
    tuple, ordered by (length, letters), and printed without separators
    while every letter is a digit.  Each key type adds its statistics and
    ``_distinct``, true if its letters are distinct: the letter set must
    then be 1..len(w) (a permutation), else 1..len(set(w)) (a packed word)."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[int]):
        self._store(tuple(letters))

    def _store(self, letters: tuple[int, ...]) -> None:
        """The key type's exact check of one word, then the store of its letters as ints."""
        found = set(letters)
        if found != _interval(len(letters if self._distinct else found)):
            raise ValueError(self._error.format(n=len(letters), word=letters))
        self.letters = letters if _INT.issuperset(map(type, letters)) else tuple(map(int, letters))

    @classmethod
    def _check_words(cls, words: Collection[bytes | tuple[int, ...]]) -> None:
        """The exact check of ``_store`` on all stored words at once, at C speed;
        a bad word raises the public constructor's error, the first in order.
        Permutations of one length n < 256 (every G product) take one
        ``translate`` each: the letters 0..n less those of w are b"\\0" iff w
        covers 1..n and holds no 0, so is 1..n.  A packed word is a key iff
        its letter set is some {1..k}, one of ``_PACKED`` for k < 16.  Other
        batches, and bad words, meet the letter sets of ``_store``."""
        try:  # two lengths, or a word past 255 letters, raise
            if cls._distinct:
                (n,) = set(map(len, words))
                valid = all(map(_LETTERS[0].__eq__, map(bytes(range(n + 1)).translate, repeat(None), words)))
            else:
                valid = _PACKED.issuperset(map(frozenset, words))
        except (ValueError, TypeError):
            valid = False
        if not valid:
            sets = list(map(set, words))
            valid = all(map(eq, sets, map(_interval, map(len, words if cls._distinct else sets))))
        if not valid:
            new = object.__new__
            for word in words:
                new(cls)._store(tuple(word))

    @classmethod
    def _unchecked(cls, words: Collection[bytes | tuple[int, ...]]) -> list:
        """Fresh keys of cls for stored words already checked, in order,
        built with no Python call per key."""
        keys = list(map(object.__new__, repeat(cls, len(words))))
        deque(map(_Word.letters.__set__, keys, map(tuple, words)), 0)
        return keys

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __lt__(self, other: "_Word") -> bool:
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def to_text(self) -> str:
        return ("" if all(c <= 9 for c in self.letters) else ",").join(map(str, self.letters))

    __str__ = to_text

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.letters})"


class Permutation(_Word):
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((2, 4, 1, 3)).inverse().word
    (3, 1, 4, 2)
    """

    __slots__ = ()
    word = _Word.letters  # the slot itself: a read costs no property call

    _distinct = True
    _error = "not a permutation of 1..{n}: {word}"

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(_word_from_text(text))

    @property
    def size(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Permutation":
        out = [0] * len(self.word)
        for position, value in enumerate(self.word):
            out[value - 1] = position + 1
        return Permutation(out)

    def descents(self) -> list[int]:
        """Positions i (1-based) with w_i > w_{i+1}."""
        w = self.word
        return [i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]]

    def maj(self) -> int:
        """Major index: the sum of the descent positions."""
        return sum(self.descents())

    def imaj(self) -> int:
        """Major index of the inverse permutation: the sum of the values
        i whose successor i + 1 stands to their left."""
        pos = [0] * len(self.word)  # pos[i - 1]: the position of the value i
        for position, value in enumerate(self.word):
            pos[value - 1] = position
        return sum(compress(count(1), map(gt, pos, pos[1:])))

    def inversions(self) -> int:
        """Number of pairs i < j with w_i > w_j: each letter, read from the
        right, counts the smaller letters after it by bisecting their
        sorted list."""
        after: list[int] = []
        total = 0
        for value in reversed(self.word):
            smaller = bisect_left(after, value)
            total += smaller
            after.insert(smaller, value)
        return total


class PackedWord(_Word):
    """A word whose letters form the initial interval {1..m}.

    >>> PackedWord((1, 2, 1, 3, 2)).max_letter
    3
    """

    __slots__ = ()

    _distinct = False
    _error = "not a packed word: {word}"

    @classmethod
    def empty(cls) -> "PackedWord":
        return cls(())

    @classmethod
    def from_text(cls, text: str) -> "PackedWord":
        return cls(_word_from_text(text))

    @property
    def max_letter(self) -> int:
        return max(self.letters, default=0)


def standardize(word: Sequence[int]) -> Permutation:
    """Relabel a word by 1..n preserving relative order, ties left to right.

    >>> standardize((3, 4, 3, 6, 4)).word
    (1, 3, 2, 5, 4)
    """
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    out = [0] * len(word)
    for rank, position in enumerate(order):
        out[position] = rank + 1
    return Permutation(out)


def pack(word: Sequence[int]) -> PackedWord:
    """Order-preserving relabeling of the occurring letters onto {1..m}.

    >>> pack((3, 4, 3, 6, 4)).letters
    (1, 2, 1, 3, 2)
    """
    relabel = {letter: i + 1 for i, letter in enumerate(sorted(set(word)))}
    return PackedWord(tuple(relabel[c] for c in word))


class _Shape:
    """Equality, hashing and printing of a tree shape, all by its canonical
    text: two shapes are equal iff they have the same type and text."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __str__(self) -> str:
        return self.text


def _parse(text: str, name: str, leaf: str, leaf_tree, make_node, arity=None, sep=""):
    """Parse one tree of the grammar  leaf | "(" child ... ")"  with an
    explicit stack, so depth meets no recursion limit; every leaf is the
    one immutable leaf_tree.

    With an arity a node holds exactly that many children, joined by sep;
    without one (plane trees) it closes at its ")" and needs >= 2.
    """
    text = text.strip()
    stack: list[list] = []  # per open '(': the children parsed so far
    pos = 0
    while True:
        if pos == len(text):
            if stack and arity is None:
                raise ParseError(f"expected ')' closing {name} node")
            raise ParseError(f"unexpected end of {name} string")
        char = text[pos]
        pos += 1
        if char == "(":
            stack.append([])
            continue
        if char == leaf:
            tree = leaf_tree
        elif char == ")" and stack and arity is None:
            children = stack.pop()
            if len(children) < 2:
                raise ParseError(f"{name} nodes need >= 2 children")
            tree = make_node(children)
        else:
            raise ParseError(f"expected {leaf!r} or '(' in {name}, got {char!r}")
        while stack:
            children = stack[-1]
            children.append(tree)
            if arity is None or len(children) < arity:
                if not text.startswith(sep, pos):
                    raise ParseError(f"expected {sep!r} between {name} children")
                pos += len(sep)
                break
            if not text.startswith(")", pos):
                raise ParseError(f"expected ')' closing {name} node")
            pos += 1
            tree = make_node(stack.pop())
        else:
            if pos < len(text):
                raise ParseError(f"trailing input after {name}: {text[pos:]!r}")
            return tree


_arity, _node_count, _text = attrgetter("arity"), attrgetter("node_count"), attrgetter("text")


class BinaryTree(_Shape):
    """Shape of an incomplete binary tree; BinaryTree() is the empty tree."""

    __slots__ = ("left", "right", "node_count", "text", "_hooks")

    def __init__(self, left: "BinaryTree | None" = None, right: "BinaryTree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a binary node needs both children")
        self.left = left
        self.right = right
        if left is None:
            self.node_count = 0
            self.text = "_"
            self._hooks = 1
        else:
            self.node_count = 1 + left.node_count + right.node_count
            self.text = f"({left.text},{right.text})"
            self._hooks = None

    @property
    def is_empty(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return f"BinaryTree.from_text({self.text!r})"

    @classmethod
    def from_text(cls, text: str) -> "BinaryTree":
        leaf = EMPTY_BINARY if cls is BinaryTree else cls()
        return _parse(text, "binary tree", "_", leaf, lambda c: cls(*c), arity=2, sep=",")


EMPTY_BINARY = BinaryTree()


class MAryTree(_Shape):
    """An (m+1)-ary tree shape for a given arity parameter m >= 1.

    Every node has exactly m+1 child slots (children may be empty), so
    m = 1 reproduces binary trees.  The text grammar juxtaposes the
    children; m travels out-of-band.
    """

    __slots__ = ("arity", "children", "node_count", "text")

    def __init__(self, arity: int, children: Sequence["MAryTree"] | None = None):
        if arity < 1:
            raise ValueError("arity parameter m must be >= 1")
        self.arity = arity
        if children is None:
            self.children = ()
            self.node_count = 0
            self.text = "_"
        else:
            children = tuple(children)
            if len(children) != arity + 1:
                raise ValueError(f"a node needs exactly {arity + 1} children")
            if any(map(arity.__ne__, map(_arity, children))):
                raise ValueError("mixed arities in one tree")
            self.children = children
            self.node_count = 1 + sum(map(_node_count, children))
            self.text = "(" + "".join(map(_text, children)) + ")"

    @property
    def is_empty(self) -> bool:
        return not self.children

    def __eq__(self, other) -> bool:
        return _Shape.__eq__(self, other) and self.arity == other.arity

    __hash__ = _Shape.__hash__  # defining __eq__ alone would unset it

    def __repr__(self) -> str:
        return f"MAryTree.from_text({self.arity}, {self.text!r})"

    @classmethod
    def from_text(cls, arity: int, text: str) -> "MAryTree":
        return _parse(text, "m-ary tree", "_", cls(arity), lambda c: cls(arity, c), arity=arity + 1)


class PlaneTree(_Shape):
    """A plane tree whose internal nodes all have at least two children.

    PlaneTree() is the single leaf (the tree of the empty word); internal
    nodes are built from an ordered sequence of at least two subtrees.
    A node stores only its children and its text, and counts its nodes
    and leaves off the text when asked.
    """

    __slots__ = ("children", "text")

    def __init__(self, children: Sequence["PlaneTree"] | None = None):
        if children is None:
            self.children = ()
            self.text = "*"
        else:
            children = tuple(children)
            if len(children) < 2:
                raise ValueError("internal plane-tree nodes need >= 2 children")
            self.children = children
            self.text = f"({''.join(map(_text, children))})"

    @property
    def is_leaf(self) -> bool:
        return not self.children

    internal_count = property(lambda self: self.text.count("("))
    leaf_count = property(lambda self: self.text.count("*"))

    def __repr__(self) -> str:
        return f"PlaneTree.from_text({self.text!r})"

    @classmethod
    def from_text(cls, text: str) -> "PlaneTree":
        return _parse(text, "plane tree", "*", LEAF if cls is PlaneTree else cls(), cls)


LEAF = PlaneTree()


def _fold(tree, children, leaf, node):
    """Evaluate a tree bottom up: leaf(t) on each node t for which
    children(t) lists no children, node(*values) on the others, values
    being their children's.  The nodes are listed breadth first, so the
    children of a node sit side by side after it, and evaluated in
    reverse, children before parents; depth meets no recursion limit."""
    nodes, first = [tree], []  # first[i]: the index of node i's first child
    for t in nodes:
        first.append(len(nodes))
        nodes += children(t)
    first.append(len(nodes))
    values = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        start, stop = first[i], first[i + 1]
        values[i] = node(*values[start:stop]) if start < stop else leaf(nodes[i])
    return values[0]


class HookData(NamedTuple):
    """Subtree sizes h_v per node, plus right-subtree sizes for binary trees.

    Both fields are multisets stored as descending tuples.
    """

    hooks: tuple[int, ...]
    right_sizes: tuple[int, ...] = ()


def _internal_nodes(tree: BinaryTree | MAryTree) -> list:
    """The internal nodes of a binary or m-ary tree, unsorted: one
    breadth-first pass over a list that grows while it is read, so a
    deep tree never meets the recursion limit.  The binary pass reads the
    two child slots directly, with no tuple per node.  Every hook multiset
    of this module comes from this walk; the tree engine's hook classes
    (series._expand) merge their children's multisets instead."""
    if not tree.node_count:
        raise ValueError("hook data of the empty tree is undefined")
    nodes = [tree]
    append = nodes.append
    if isinstance(tree, BinaryTree):
        for node in nodes:
            left, right = node.left, node.right
            if left.node_count:
                append(left)
            if right.node_count:
                append(right)
    else:
        for node in nodes:
            for child in node.children:
                if child.node_count:
                    append(child)
    return nodes


def _hook_product(tree: BinaryTree | MAryTree) -> int:
    """The product of the hook lengths of a nonempty binary or m-ary tree.
    A binary tree's is multiplicative over subtrees, |T| times the
    products of T's children, and each binary node keeps its product in
    _hooks once asked (the empty tree holds 1, a node None until then),
    so a node whose children hold theirs costs one multiply and one store.
    Otherwise the nodes missing one are listed breadth first, as in
    _internal_nodes, and filled in reverse, children before parents, so a
    deep tree meets no recursion limit.  An m-ary tree's is the product of
    the node counts of _internal_nodes."""
    if not tree.node_count:
        raise ValueError("hook data of the empty tree is undefined")
    if not isinstance(tree, BinaryTree):
        return prod(map(_node_count, _internal_nodes(tree)))
    left_hooks, right_hooks = tree.left._hooks, tree.right._hooks
    if left_hooks is not None and right_hooks is not None:
        tree._hooks = product = tree.node_count * left_hooks * right_hooks
        return product
    nodes = [tree]
    for node in nodes:
        if node.left._hooks is None:
            nodes.append(node.left)
        if node.right._hooks is None:
            nodes.append(node.right)
    for node in reversed(nodes):
        node._hooks = node.node_count * node.left._hooks * node.right._hooks
    return tree._hooks


def hook_data(tree: BinaryTree | MAryTree) -> HookData:
    """Collect the hook multiset (and, for binary trees, the right sizes),
    each sorted from the one unsorted walk ``_internal_nodes``.  A caller
    that needs only the product of the hooks reads _hook_product instead,
    and the per-tree checks of the tree expansions read the multisets
    that the engine's hook classes carry, so neither walks a shape."""
    nodes = _internal_nodes(tree)
    hooks = sorted([node.node_count for node in nodes], reverse=True)
    if not isinstance(tree, BinaryTree):
        return HookData(tuple(hooks))
    rights = sorted([node.right.node_count for node in nodes], reverse=True)
    return HookData(tuple(hooks), tuple(rights))


def _cartesian_tree(word: Sequence[int], leaf, node):
    """The Cartesian tree of a word: its largest letter is the root, with one
    child per block between its occurrences; the empty word is the leaf.
    One pass keeps a stack of open nodes [letter, block trees so far],
    letters decreasing upward.  Each letter closes the smaller open nodes,
    opens its own unless the top node has its letter, and ends the top
    node's current block; a sentinel above every letter closes the word."""
    stack = [[inf, []]]
    tree = leaf  # the tree of the block after the top node's last letter
    for letter in chain(word, (inf,)):
        while stack[-1][0] < letter:
            children = stack.pop()[1]
            children.append(tree)
            tree = node(children)
        if stack[-1][0] > letter:
            stack.append([letter, []])
        stack[-1][1].append(tree)
        tree = leaf
    return stack[0][1][0]


def decreasing_tree(perm: Permutation, shared: dict | None = None) -> BinaryTree:
    """Shape of the decreasing tree: the Cartesian tree of the permutation.

    The letters are distinct, so each open node holds exactly one finished
    block, its left subtree: one pass keeps a stack of open nodes (letter,
    left subtree), letters decreasing upward, and each letter closes the
    smaller open nodes with the tree of their right block; a sentinel
    above every letter closes the word.  A caller that builds many trees
    may pass one dict as ``shared``: every node is then looked up by the
    ids of its two children before it is built, so equal subtrees built
    through one table are one object.  The table holds every node whose
    id is in a key (or the id is EMPTY_BINARY's), so no id is reused
    while it lives."""
    stack = [(inf, EMPTY_BINARY)]
    tree = EMPTY_BINARY  # the tree of the block after the top node's letter
    for letter in chain(perm.word, (inf,)):
        while stack[-1][0] < letter:
            left = stack.pop()[1]
            if shared is None:
                tree = BinaryTree(left, tree)
            else:
                key = (id(left), id(tree))
                node = shared.get(key)
                if node is None:
                    node = shared[key] = BinaryTree(left, tree)
                tree = node
        stack.append((letter, tree))
        tree = EMPTY_BINARY
    return stack[-1][1]


def plane_tree_of_word(word: Sequence[int], shared: dict | None = None) -> PlaneTree:
    """Plane tree of a word: the blocks between its maxima under one root,
    each built alike.  With a dict as ``shared``, every node is looked up
    by the ids of its children before it is built, as in decreasing_tree,
    so equal subtrees built through one table are one object."""
    if shared is None:
        return _cartesian_tree(word, LEAF, PlaneTree)

    def node(children: list) -> PlaneTree:
        key = tuple(map(id, children))
        tree = shared.get(key)
        if tree is None:
            tree = shared[key] = PlaneTree(children)
        return tree

    return _cartesian_tree(word, LEAF, node)


# ---------------------------------------------------------------------------
# Exhaustive enumerators in a fixed deterministic order.  Permutations and
# packed words stream; each size of a tree family is built in full once and
# cached, bounded only by the guards, which refuse larger sizes unless forced
# and which a tree enumerator checks when called, before any shape is built.
# ---------------------------------------------------------------------------


def _check_guard(name: str, n: int, guard: int, unsafe_large: bool) -> None:
    if n < 0:
        raise ValueError(f"cannot enumerate {name} of negative size")
    refuse_large(f"{name}({n})", n, guard, unsafe_large)


def permutations(n: int, *, unsafe_large: bool = False) -> Iterator[Permutation]:
    """All of S_n in lexicographic order; exactly one empty permutation at n=0."""
    _check_guard("permutations", n, PERMUTATION_GUARD, unsafe_large)
    for word in _itertools_permutations(range(1, n + 1)):
        yield Permutation(word)


def packed_words(n: int, *, unsafe_large: bool = False) -> Iterator[PackedWord]:
    """All packed words of length n in lexicographic order.

    Depth-first construction with feasibility pruning: a prefix is viable
    iff the letters missing below its maximum still fit in the remaining
    positions.  The prefix's letters all lie below its maximum, so the
    missing ones number the maximum less the count of distinct letters.
    Counts are the ordered Bell numbers 1, 1, 3, 13, 75, ...
    """
    _check_guard("packed_words", n, PACKED_WORD_GUARD, unsafe_large)
    # an explicit stack, one entry per position: word[pos] is the letter
    # tried there (0: none yet), top[pos] and seen[pos] the maximum and the
    # count of distinct letters of word[:pos], uses[c] the uses of c in it
    word, top, seen, uses = [0] * n, [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    pos = 0
    while pos >= 0:
        if pos == n:
            yield PackedWord(tuple(word))
            pos -= 1
            continue
        c = word[pos]
        uses[c] -= 1  # take back the letter last tried here (uses[0] is never read)
        high, distinct = top[pos], seen[pos]
        c += 1
        if high - distinct == n - pos:  # no room to spare: only a missing letter fits
            while c <= high and uses[c]:
                c += 1
        if c > distinct + n - pos:  # a new maximum this large leaves too little room
            word[pos] = 0
            pos -= 1
            continue
        word[pos] = c
        uses[c] += 1
        top[pos + 1] = max(high, c)
        seen[pos + 1] = distinct + (uses[c] == 1)
        pos += 1


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` integers >= 0,
    in lexicographic order, with no recursion: stars and bars, the parts - 1
    bars placed in every way among the units and themselves."""
    if parts == 0 or total < 0:
        if parts == total == 0:
            yield ()
        return
    cells = total + parts - 1
    for bars in combinations(range(cells), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, cells)))


def _splits(arity: int | None, n: int) -> Iterator[tuple[int, ...]]:
    """The child sizes of each root of size n (none at size 0, the leaf):
    binary and m-ary trees (arity = children per node) split the n - 1
    nodes below the root; plane trees (arity None), sized by leaves less
    one, split into k >= 2 children of sizes summing to n + 1 - k."""
    if arity is None:
        return chain.from_iterable(_compositions(n + 1 - k, k) for k in range(2, n + 2))
    return _compositions(n - 1, arity)


@lru_cache(maxsize=None)
def _shapes(kind: type, arity: int | None, n: int) -> tuple:
    """Every shape of size n of one family, sorted by text.  A node's
    children run over the smaller shapes of each of its splits, built
    bottom up first, so no call nests more than one deeper."""
    for smaller in range(n):
        _shapes(kind, arity, smaller)
    if kind is PlaneTree:
        leaf, nodes = LEAF, partial(map, PlaneTree)
    elif kind is BinaryTree:
        leaf, nodes = EMPTY_BINARY, partial(starmap, BinaryTree)
    else:
        leaf, nodes = MAryTree(arity - 1), partial(map, partial(MAryTree, arity - 1))
    out = [] if n else [leaf]
    for sizes in _splits(arity, n):
        out.extend(nodes(product(*[_shapes(kind, arity, s) for s in sizes])))
    return tuple(sorted(out, key=_text))


def _listed(kind: type, arity: int | None, n: int) -> Iterator:
    """_shapes(kind, arity, n), built on the first next()."""
    yield from _shapes(kind, arity, n)


def binary_trees(n: int, *, unsafe_large: bool = False) -> Iterator[BinaryTree]:
    """All binary tree shapes with n nodes; Catalan(n) of them, in
    lexicographic order of the canonical encoding."""
    _check_guard("binary_trees", n, BINARY_TREE_GUARD, unsafe_large)
    return _listed(BinaryTree, 2, n)


def child_slots(arity: int, n: int) -> int:
    """(m+1)*FussCatalan(m, n): the child slots of the (m+1)-ary shapes with n nodes."""
    return (arity + 1) * comb((arity + 1) * n, n) // (arity * n + 1)


def mary_trees(arity: int, n: int, *, unsafe_large: bool = False) -> Iterator[MAryTree]:
    """All (arity+1)-ary tree shapes with n nodes (Fuss-Catalan counts),
    guarded also by the child slots of the level built."""
    _check_guard(f"mary_trees(m={arity})", n, MARY_TREE_GUARD, unsafe_large)
    name = f"mary_trees(m={arity}, n={n}) child slots"
    _check_guard(name, child_slots(arity, n), MARY_SLOT_GUARD, unsafe_large)
    return _listed(MAryTree, arity + 1, n)


def plane_trees(n: int, *, unsafe_large: bool = False) -> Iterator[PlaneTree]:
    """All plane trees with internal arity >= 2 and n+1 leaves.

    These are exactly the trees reachable from words of length n, counted
    by the little Schroeder numbers 1, 1, 3, 11, 45, ...
    """
    _check_guard("plane_trees", n, PLANE_TREE_GUARD, unsafe_large)
    return _listed(PlaneTree, None, n)
