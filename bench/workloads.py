"""The operations of the four workloads, run in a child after
``import treecalc``.

An operation is one timed call into the package, tagged as the formula
side or the oracle side of a check, followed by an untimed check of the
returned value against the package's own ``equal`` flag, against another
code path of the package, or against a value from ``reference``.  The
package is always reached through module attributes, never through names
bound here, so the tracing wrappers and the fault injection see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb, factorial, prod
from typing import Callable, Iterator, NamedTuple

from treecalc import arith, cli, combinat, elements, fqsym, identities, series, wqsym

import reference as ref


class Op(NamedTuple):
    name: str
    side: str  # "formula" or "oracle"
    call: Callable[[], object]
    check: Callable[[object], bool]


def _hook_count(text: str) -> int:
    hooks, _ = ref.hooks_of_text(text)
    return factorial(len(hooks)) // prod(hooks)


def _coefficients(counts: Counter) -> list[int]:
    return [counts.get(e, 0) for e in range(max(counts, default=-1) + 1)]


# ---------------------------------------------------------------------------
# tree-sums
# ---------------------------------------------------------------------------


def tree_sums(inputs: dict) -> Iterator[Op]:
    for n in inputs["postnikov_n"]:
        want = (n + 1) ** (n - 1)
        yield Op(
            f"postnikov n={n}",
            "formula",
            lambda n=n: identities.postnikov_check(n),
            lambda r, want=want: r.equal
            and Fraction(r.lhs) == want
            and Fraction(r.rhs) == want,
        )
    for variant, n, m in inputs["duliu"]:
        want = ref.duliu_value(variant, m, n, Fraction(2))
        yield Op(
            f"duliu {variant} m={m} n={n}",
            "formula",
            lambda v=variant, n=n, m=m: identities.duliu_check(v, n, m),
            lambda r, want=want: r.equal
            and ref.evaluate_poly(r.lhs, "α", Fraction(2)) == want
            and ref.evaluate_poly(r.rhs, "α", Fraction(2)) == want,
        )
    for _, n, m in (case for case in inputs["duliu"] if case[0] == "las3"):
        yield Op(
            f"mary_trees m={m} n={n}",
            "formula",
            lambda m=m, n=n: sum(1 for _ in combinat.mary_trees(m, n)),
            lambda r, m=m, n=n: r == ref.fuss_catalan(m, n),
        )
    # The hook counts of all shapes with n nodes, a chunk of the shape
    # stream per operation: short operations let the host-speed probe,
    # which runs between operations, follow the host closely.
    n, chunk = inputs["hook_count_n"], inputs["hook_count_chunk"]
    shapes = ref.catalan(n)
    chunks = -(-shapes // chunk)
    totals = {"shapes": 0, "sum": 0}
    for index in range(chunks):

        def hook_counts(index=index):
            if index == 0:
                totals["stream"] = combinat.binary_trees(n)
            seen = total = 0
            for tree in islice(totals["stream"], chunk):
                seen += 1
                total += identities.hook_count(tree)
            totals["shapes"] += seen
            totals["sum"] += total
            # the last chunk must leave the stream at its end
            at_end = index < chunks - 1 or next(totals["stream"], None) is None
            return seen, at_end

        want = min(chunk, shapes - index * chunk)
        last = index == chunks - 1
        yield Op(
            f"hook_count n={n} chunk {index}",
            "formula",
            hook_counts,
            lambda r, want=want, last=last: r == (want, True)
            and (not last or (totals["shapes"], totals["sum"]) == (shapes, factorial(n))),
        )


# ---------------------------------------------------------------------------
# hook-levels
# ---------------------------------------------------------------------------


def hook_levels(inputs: dict) -> Iterator[Op]:
    n = inputs["level_n"]
    level: dict = {}

    def fibers():
        for tree, perms in identities.decreasing_tree_fibers(n).items():
            imaj = inv = arith.QPoly.zero()
            for p in perms:
                imaj = imaj + arith.QPoly.monomial(p.imaj())
                inv = inv + arith.QPoly.monomial(p.inversions())
            level[tree.text] = ({p.word for p in perms}, imaj, inv)
        return level

    yield Op(
        f"S_{n} fibers",
        "oracle",
        fibers,
        lambda r: set(r) == set(inputs["level_shapes"])
        and len(r) == ref.catalan(n)
        and sum(len(words) for words, _, _ in r.values()) == factorial(n),
    )
    for text in inputs["level_shapes"]:
        yield Op(
            f"tree_term {text}",
            "oracle",
            lambda text=text: fqsym.tree_term(combinat.BinaryTree.from_text(text)),
            lambda e, text=text: {p.word for p in e.terms} == level[text][0]
            and set(e.terms.values()) == {1},
        )

        def formulas(text=text):
            tree = combinat.BinaryTree.from_text(text)
            return (
                identities.hook_count(tree),
                identities.qhook_imaj(tree),
                identities.qhook_inv(tree),
            )

        yield Op(
            f"hook formulas {text}",
            "formula",
            formulas,
            lambda r, text=text: r[0] == _hook_count(text) == len(level[text][0])
            and r[1] == level[text][1]
            and r[2] == level[text][2],
        )

    sample: dict = {}
    for text in inputs["sample_shapes"]:

        def support_poly(text=text):
            element = fqsym.tree_term(combinat.BinaryTree.from_text(text))
            poly = arith.QPoly.zero()
            for p in element.terms:
                poly = poly + arith.QPoly.monomial(p.imaj())
            sample[text] = poly
            return element, poly

        yield Op(
            f"tree_term imaj {text}",
            "oracle",
            support_poly,
            lambda r, text=text: len(r[0]) == _hook_count(text)
            and set(r[0].terms.values()) == {1}
            and list(r[1].coeffs)
            == _coefficients(Counter(ref.imaj(p.word) for p in r[0].terms)),
        )
        yield Op(
            f"qhook_imaj {text}",
            "formula",
            lambda text=text: identities.qhook_imaj(combinat.BinaryTree.from_text(text)),
            lambda r, text=text: r == sample[text],
        )


# ---------------------------------------------------------------------------
# word-algebras
# ---------------------------------------------------------------------------


def _element(make, parse, terms: list):
    return make({parse(text): c for text, c in terms})


def _coefficients_ok(product, x_terms, y_terms, k: int, split) -> bool:
    """Each word w of a product of homogeneous operands comes from exactly
    one pair of basis words, read off w by ``split``; its coefficient is
    the product of theirs."""
    xc = {tuple(map(int, t.split(","))): c for t, c in x_terms}
    yc = {tuple(map(int, t.split(","))): c for t, c in y_terms}
    for word, c in product.items():
        left, right = split(word[:k]), split(word[k:])
        if c != xc.get(left, 0) * yc.get(right, 0):
            return False
    return True


def _perm_ops(x_terms: list, y_terms: list) -> Iterator[Op]:
    k = len(x_terms[0][0].split(","))
    l = len(y_terms[0][0].split(","))
    top = k + l
    pairs = len(x_terms) * len(y_terms)
    label = f"{x_terms[0][0]}x{len(x_terms)}|{y_terms[0][0]}x{len(y_terms)}"
    st: dict = {}
    parse = combinat.Permutation.from_text

    def g_product():
        st["x"] = _element(elements.FQSymElement, parse, x_terms)
        st["y"] = _element(elements.FQSymElement, parse, y_terms)
        st["p"] = fqsym.product(st["x"], st["y"])
        return st["p"]

    yield Op(
        f"G product {label}",
        "formula",
        g_product,
        lambda p: len(p) == pairs * comb(top, k)
        and _coefficients_ok(
            {w.word: c for w, c in p.terms.items()}, x_terms, y_terms, k, ref.standardize
        ),
    )

    def halves():
        st["prec"] = fqsym.prec_product(st["x"], st["y"])
        st["succ"] = fqsym.succ_product(st["x"], st["y"])
        return st["prec"] + st["succ"]

    yield Op(
        f"prec+succ {label}",
        "formula",
        halves,
        lambda s: s == st["p"]
        and len(st["prec"]) == sum(1 for perm in st["p"].terms if perm.word.index(top) < k),
    )

    def leibniz():
        dx, dy = fqsym.derive(st["x"]), fqsym.derive(st["y"])
        left, right = fqsym.product(dx, st["y"]), fqsym.product(st["x"], dy)
        return (
            fqsym.derive(st["prec"]) == left,
            fqsym.derive(st["succ"]) == right,
            fqsym.derive(st["p"]) == left + right,
        )

    yield Op(f"derive Leibniz {label}", "formula", leibniz, all)

    def lift():
        lifted = fqsym.b_product(st["x"], st["y"])
        return lifted, fqsym.derive(lifted)

    yield Op(
        f"derive b_product {label}",
        "formula",
        lift,
        lambda r: r[1] == st["p"]
        and len(r[0]) == pairs * comb(top, k)
        and all(perm.word[k] == top + 1 for perm in r[0].terms),
    )

    # The q-shuffle has polynomial coefficients, so it runs on the first
    # basis word of each operand only, to keep arith work minor here.
    a_text, b_text = x_terms[0][0], y_terms[0][0]

    def shuffle():
        return fqsym.q_shuffle_product(
            fqsym.f_basis(parse(a_text)), fqsym.f_basis(parse(b_text))
        )

    def check_shuffle(e):
        weights: Counter = Counter()
        for c in e.terms.values():
            for exponent, coeff in enumerate(c.coeffs):
                weights[exponent] += coeff
        return len(e) == comb(top, k) and _coefficients(weights) == ref.gaussian_binomial(top, k)

    yield Op(f"q-shuffle {label}", "formula", shuffle, check_shuffle)


def _packed_ops(x_terms: list, y_terms: list) -> Iterator[Op]:
    k = len(x_terms[0][0].split(","))
    label = f"{x_terms[0][0]}x{len(x_terms)}|{y_terms[0][0]}x{len(y_terms)}"
    st: dict = {}
    parse = combinat.PackedWord.from_text

    def m_product():
        st["x"] = _element(elements.WQSymElement, parse, x_terms)
        st["y"] = _element(elements.WQSymElement, parse, y_terms)
        st["p"] = wqsym.product(st["x"], st["y"])
        return st["p"]

    def check_product(p):
        count = sum(
            ref.packed_convolution_count(max(map(int, a.split(","))), max(map(int, b.split(","))))
            for a, _ in x_terms
            for b, _ in y_terms
        )
        return len(p) == count and _coefficients_ok(
            {w.letters: c for w, c in p.terms.items()}, x_terms, y_terms, k, ref.pack
        )

    yield Op(f"M product {label}", "formula", m_product, check_product)

    def split():
        st["prec"] = wqsym.prec_product(st["x"], st["y"])
        return st["prec"] + wqsym.circ_product(st["x"], st["y"]) + wqsym.succ_product(
            st["x"], st["y"]
        )

    def check_split(total):
        prec = sum(1 for w in st["p"].terms if max(w.letters[:k]) > max(w.letters[k:]))
        return total == st["p"] and len(st["prec"]) == prec

    yield Op(f"tridendriform {label}", "formula", split, check_split)

    def leibniz():
        x, y = st["x"], st["y"]
        dx, dy = wqsym.delta(x), wqsym.delta(y)
        rhs = wqsym.product(dx, y) + wqsym.product(dx, dy) + wqsym.product(x, dy)
        return wqsym.delta(st["p"]) == rhs

    yield Op(f"delta Leibniz {label}", "formula", leibniz, bool)


def _sandwich_ok(word: tuple[int, ...], blocks: list[tuple[int, ...]]) -> bool:
    """word splits at its maximal letter into blocks packing to the given ones."""
    top = max(word)
    parts: list[list[int]] = [[]]
    for c in word:
        if c == top:
            parts.append([])
        else:
            parts[-1].append(c)
    return [ref.pack(part) for part in parts] == blocks


def _fk_op(texts: list[str]) -> Op:
    blocks = [tuple(int(c) for c in text.split(",")) for text in texts]

    def lift():
        args = [wqsym.m_basis(combinat.PackedWord.from_text(t)) for t in texts]
        lifted = wqsym.f_k(args)
        expected = args[0]
        for arg in args[1:]:
            expected = wqsym.product(expected, arg)
        return lifted, wqsym.delta(lifted) == expected

    return Op(
        f"f_{len(texts)} {'|'.join(texts)}",
        "formula",
        lift,
        lambda r: r[1] and all(_sandwich_ok(w.letters, blocks) for w in r[0].terms),
    )


def word_algebras(inputs: dict) -> Iterator[Op]:
    for x_terms, y_terms in inputs["perm_pairs"]:
        yield from _perm_ops(x_terms, y_terms)
    for x_terms, y_terms in inputs["packed_pairs"]:
        yield from _packed_ops(x_terms, y_terms)
    for texts in inputs["fk_blocks"]:
        yield _fk_op(texts)

    groups: dict = {}

    def group_words():
        for text in inputs["ft_words"]:
            word = combinat.PackedWord.from_text(text)
            tree = combinat.plane_tree_of_word(word.letters)
            counts = groups.setdefault(tree.text, {})
            counts[word.max_letter] = counts.get(word.max_letter, 0) + 1
        return groups

    def check_groups(g):
        words: Counter = Counter()
        trees: Counter = Counter()
        for text, counts in g.items():
            length = text.count("*") - 1
            trees[length] += 1
            words[length] += sum(counts.values())
        lengths = range(1, max(trees) + 1)
        return all(words[n] == ref.ordered_bell(n) for n in lengths) and all(
            trees[n] == ref.little_schroeder(n) for n in lengths
        )

    yield Op("packed words by plane tree", "oracle", group_words, check_groups)
    for text in sorted(groups, key=lambda t: (len(t), t)):
        yield Op(
            f"ft {text}",
            "formula",
            lambda text=text: identities.ft_coefficients(combinat.PlaneTree.from_text(text)),
            lambda r, text=text: r == dict(sorted(groups[text].items())),
        )


# ---------------------------------------------------------------------------
# series-expansions
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _series_values(text: str, variable: str, point: Fraction) -> tuple[int, list]:
    order, coeffs = ref.parse_series(text)
    return order, [
        ref.evaluate_poly(coeffs.get(n, "0"), variable, point) for n in range(order + 1)
    ]


def _check_identity(out: str, name: str, want: list) -> bool:
    lines = out.splitlines()
    return (
        lines[0] == f"identity={name} equal=true"
        and _series_values(lines[1][len("lhs=") :], "α", Fraction(2))
        == (len(want) - 1, want)
        and _series_values(lines[2][len("rhs=") :], "α", Fraction(2))
        == (len(want) - 1, want)
    )


def _check_per_tree(out: str, order: int, sample: list[int]) -> bool:
    data = json.loads(out)
    want = [ref.eisenstein(n) for n in range(order + 1)]
    if [Fraction(c) for c in data["series"]] != want:
        return False
    rows = data["per_tree"]
    if len(rows) != sum(ref.catalan(k) for k in range(order + 1)):
        return False
    sums = [Fraction(0)] * (order + 1)
    for row in rows:
        term = json.loads(row["term"])
        k = row["tree"].count("(")
        if sum(1 for c in term if c != "0") != 1:
            return False
        sums[k] += Fraction(term[k])
    if sums != want:
        return False
    for index in sample:
        row = rows[index]
        hooks, _ = ref.hooks_of_text(row["tree"])
        closed = prod((Fraction(h + 1, h) for h in hooks), start=Fraction(1, 2 ** len(hooks)))
        if Fraction(json.loads(row["term"])[len(hooks)]) != closed:
            return False
    return True


def _check_plane_q(out: str, order: int) -> bool:
    coeffs = ref.parse_binomial_poly(out.strip())
    want = {0: {0: Fraction(1)}}
    for k in range(1, order + 1):
        want[k] = {n: Fraction(ref.surjections(n, k)) for n in range(k, order + 1)}
    return {k: ref.parse_poly(c, "q") for k, c in coeffs.items()} == want


def _cli_check(argv: list[str], sample: list[int]) -> Callable[[object], bool]:
    order = int(argv[argv.index("--order") + 1])
    m = int(argv[argv.index("--m") + 1]) if "--m" in argv else 1
    name = argv[argv.index("identity") + 1] if "identity" in argv else None
    equation = argv[argv.index("expand") + 1] if "expand" in argv else None

    def content(out: str) -> bool:
        if name == "eisenstein":
            return _check_identity(out, name, [ref.eisenstein(n) for n in range(order + 1)])
        if name == "lagrange":
            want = [ref.lagrange_coefficient(m, n, Fraction(2)) for n in range(order + 1)]
            return _check_identity(out, name, want)
        if equation == "postnikov":
            return _check_per_tree(out, order, sample)
        if equation == "inverse-linear":
            return _series_values(out.strip(), "α", Fraction(2)) == (order, [1] * (order + 1))
        if equation == "duliu":
            want = [ref.lagrange_coefficient(m, n, Fraction(2)) for n in range(order + 1)]
            return _series_values(out.strip(), "α", Fraction(2)) == (order, want)
        if equation == "plane-q":
            return _check_plane_q(out, order)
        raise ValueError(f"no check for {argv}")

    return lambda r: r[0] == 0 and content(r[1])


def series_expansions(inputs: dict) -> Iterator[Op]:
    for argv in inputs["cli_calls"]:
        yield Op(
            "treecalc " + " ".join(argv),
            "formula",
            lambda argv=argv: _run_cli(argv),
            _cli_check(argv, inputs["per_tree_sample"]),
        )
    order = inputs["picard_order"]

    def picard():
        one = series.TruncatedSeries.constant(Fraction(1), order)
        return series.picard_binary(identities.postnikov_operator, one, order)

    yield Op(
        f"picard postnikov order={order}",
        "oracle",
        picard,
        lambda x: list(x.coeffs) == [ref.eisenstein(n) for n in range(order + 1)],
    )


WORKLOADS = {
    "tree-sums": tree_sums,
    "hook-levels": hook_levels,
    "word-algebras": word_algebras,
    "series-expansions": series_expansions,
}
