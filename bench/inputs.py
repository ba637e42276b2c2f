"""Seeded inputs of the four workloads, generated without treecalc.

Every sampled input comes from ``random.Random(seed)``.  The package only
ever sees the generated strings and words, through ``from_text`` or its
constructors, so no treecalc cache warms before the timed region.

Where a workload samples, the sample is built so that the amount of work
does not depend on the seed: the seed changes which inputs are used, not
how many or how large, so runs at different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from itertools import permutations, product

WORKLOADS = ("tree-sums", "hook-levels", "word-algebras", "series-expansions")

# tree-sums: complete sets, as in the acceptance criteria 8 and 10.
POSTNIKOV_NS = tuple(range(1, 12))
DULIU_CASES = (
    [("las1", n, 1) for n in range(1, 8)]
    + [("las2", n, 1) for n in range(1, 8)]
    + [("las3", n, m) for m in (2, 3) for n in range(1, 6)]
)
HOOK_COUNT_N = 11
HOOK_COUNT_CHUNK = 2000

# hook-levels: one whole level checked against S_n, plus a sample of larger
# shapes checked against the tree_term support.
LEVEL_N = 7
SAMPLE_N = 10
SAMPLE_SIZE = 60

# word-algebras: operands are sums of distinct basis words of one size with
# coefficients in 1..9.  The shapes (size, number of terms) are fixed and
# the seed picks the words, so the work does not depend on the seed.
PERM_CASES = (
    ((2, 2), (2, 2)), ((1, 1), (3, 4)), ((3, 4), (1, 1)), ((2, 2), (3, 6)),
    ((3, 6), (2, 2)), ((3, 6), (3, 6)), ((2, 2), (4, 8)), ((4, 8), (2, 2)),
    ((4, 8), (3, 6)), ((3, 6), (4, 8)), ((4, 8), (4, 8)), ((5, 8), (3, 6)),
    ((3, 6), (5, 8)), ((2, 2), (6, 6)), ((6, 6), (2, 2)),
)
PERM_DRAWS = 3
# ((length, maximal letter, terms), ...) of the two operands, length <= 6.
PACKED_CASES = (
    ((2, 2, 2), (2, 1, 1)), ((3, 2, 6), (2, 2, 2)), ((2, 2, 2), (3, 3, 6)),
    ((3, 2, 6), (3, 2, 6)), ((3, 3, 6), (3, 3, 6)), ((3, 2, 6), (3, 3, 6)),
    ((4, 3, 12), (2, 2, 2)), ((2, 2, 2), (4, 3, 12)), ((4, 2, 12), (2, 1, 1)),
    ((5, 3, 16), (1, 1, 1)), ((1, 1, 1), (5, 4, 16)), ((4, 4, 12), (2, 2, 2)),
)
PACKED_DRAWS = 4
# (length, maximal letter) of the blocks of each f_k lift.
FK_SHAPES = (
    ((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (2, 2)), ((3, 2), (1, 1)),
    ((1, 1), (1, 1), (1, 1)), ((2, 2), (1, 1), (1, 1)), ((1, 1), (2, 1), (2, 2)),
)
FT_MAX_LENGTH = 6

# series-expansions: the CLI commands, run in-process.
CLI_CALLS = (
    ["identity", "eisenstein", "--order", "9"],
    ["identity", "lagrange", "--m", "1", "--order", "5"],
    ["identity", "lagrange", "--m", "2", "--order", "5"],
    ["identity", "lagrange", "--m", "3", "--order", "5"],
    ["--format", "json", "expand", "postnikov", "--order", "9", "--per-tree"],
    ["expand", "inverse-linear", "--order", "9"],
    ["expand", "duliu", "--m", "2", "--order", "5"],
    ["expand", "plane-q", "--order", "5"],
)
PICARD_ORDER = 30
# Per-tree terms of the Postnikov expansion checked against the closed form.
PER_TREE_SAMPLE = 200


@lru_cache(maxsize=None)
def binary_tree_texts(n: int) -> tuple[str, ...]:
    """All binary tree shapes with n nodes, in the package's text grammar,
    sorted by text."""
    if n == 0:
        return ("_",)
    out = [
        f"({left},{right})"
        for k in range(n)
        for left in binary_tree_texts(k)
        for right in binary_tree_texts(n - 1 - k)
    ]
    return tuple(sorted(out))


def _flip_children(text: str, rng: random.Random) -> str:
    """Swap the two children of every node with probability 1/2.

    Subtree sizes are kept, so the hook multiset, the fiber size and with
    them the cost of every check on the shape stay the same."""

    def parse(pos: int) -> tuple[str, int]:
        if text[pos] == "_":
            return "_", pos + 1
        left, pos = parse(pos + 1)
        right, pos = parse(pos + 1)  # skip ','
        if rng.random() < 0.5:
            left, right = right, left
        return f"({left},{right})", pos + 1  # skip ')'

    return parse(0)[0]


def _text(word) -> str:
    return ",".join(map(str, word))


def _random_sum(rng: random.Random, words: list, terms: int) -> list:
    """[word text, coefficient] pairs: distinct words, coefficients 1..9."""
    return [[_text(word), rng.randint(1, 9)] for word in rng.sample(words, terms)]


def _random_packed_word(rng: random.Random, length: int, top: int) -> str:
    letters = list(range(1, top + 1)) + [rng.randint(1, top) for _ in range(length - top)]
    rng.shuffle(letters)
    return _text(letters)


def packed_word_tuples(length: int) -> list[tuple[int, ...]]:
    """All packed words of one length, lexicographically."""
    return [
        word
        for word in product(range(1, length + 1), repeat=length)
        if set(word) == set(range(1, max(word, default=0) + 1))
    ]


def make_inputs(workload: str, seed: int) -> dict:
    """The JSON-serializable inputs of one workload at one seed."""
    rng = random.Random(seed)
    if workload == "tree-sums":
        return {
            "postnikov_n": list(POSTNIKOV_NS),
            "duliu": [list(case) for case in DULIU_CASES],
            "hook_count_n": HOOK_COUNT_N,
            "hook_count_chunk": HOOK_COUNT_CHUNK,
        }
    if workload == "hook-levels":
        pool = binary_tree_texts(SAMPLE_N)
        stride = [pool[i * len(pool) // SAMPLE_SIZE] for i in range(SAMPLE_SIZE)]
        return {
            "level_n": LEVEL_N,
            "level_shapes": list(binary_tree_texts(LEVEL_N)),
            "sample_shapes": [_flip_children(text, rng) for text in stride],
        }
    if workload == "word-algebras":
        return {
            "perm_pairs": [
                [
                    _random_sum(rng, list(permutations(range(1, size + 1))), terms)
                    for size, terms in case
                ]
                for case in PERM_CASES
                for _ in range(PERM_DRAWS)
            ],
            "packed_pairs": [
                [
                    _random_sum(
                        rng, [w for w in packed_word_tuples(length) if max(w) == top], terms
                    )
                    for length, top, terms in case
                ]
                for case in PACKED_CASES
                for _ in range(PACKED_DRAWS)
            ],
            "fk_blocks": [
                [_random_packed_word(rng, *shape) for shape in blocks]
                for blocks in FK_SHAPES
            ],
            "ft_words": [
                _text(word)
                for length in range(1, FT_MAX_LENGTH + 1)
                for word in packed_word_tuples(length)
            ],
        }
    if workload == "series-expansions":
        trees = sum(len(binary_tree_texts(k)) for k in range(10))
        return {
            "cli_calls": [list(call) for call in CLI_CALLS],
            "picard_order": PICARD_ORDER,
            "per_tree_sample": sorted(rng.sample(range(trees), PER_TREE_SAMPLE)),
        }
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    """SHA-256 of the canonical JSON of the inputs."""
    data = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()
