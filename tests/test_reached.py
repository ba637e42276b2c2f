"""Every name defined at module level in src/treecalc is reached from src,
and every import a src module makes is used there.

A name is reached when the console entry point cli.main, or a name the
list below exempts, refers to it through src, directly or through other
reached names: by its bare name in its own module, by the name another
module imported it as, or as an attribute of an imported treecalc module
(cli's ``identities.QHOOK_GUARD``).  A name's own definition does not
reach it, and neither do docstrings, doctests and the re-exports of
__init__.  A name that only the tests reach belongs in tests/references.py.
"""

import ast
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treecalc"
BENCH = SRC.parent.parent / "bench"

# the console script of pyproject.toml
ENTRY = "cli.main"

EXEMPT = {
    # bench/ reaches it: bench/workloads.py calls it, or bench/tracing.py
    # wraps it by name, which getattr would break if it left src.
    "bench": {
        "fqsym.half_products",
        "fqsym.prec_product",
        "fqsym.product",
        "fqsym.q_shuffle_product",
        "fqsym.succ_product",
        "identities.decreasing_tree_fibers",
        "wqsym.circ_product",
        "wqsym.delta",
        "wqsym.f_k",
        "wqsym.prec_product",
        "wqsym.product",
        "wqsym.succ_product",
        "wqsym.tridendriform_split",
    },
    # ROADMAP item 5 will wire it into a q-series check of the binary
    # equation.
    "q-series": {
        "fqsym.phi_q",
        "series.q_integrate",
        "series.substitute_qt",
    },
    # The word-algebra structure of the source paper, or a basis
    # constructor: the tests state the paper's identities with them.
    "structure": {
        "fqsym.bilinear_B",
        "fqsym.convolve",
        "fqsym.derive",
        "fqsym.f_basis",
        "fqsym.g_basis",
        "fqsym.q_shuffle_words",
        "wqsym.m_basis",
        "wqsym.packed_convolve",
        "wqsym.unit",
    },
    # A public primitive of the exact rings or the words.
    "primitive": {
        "arith.Rational",
        "arith.q_integer",
        "combinat.pack",
        "combinat.standardize",
    },
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """The names a module binds at top level, other than by import, each
    with the statement that binds it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _imported(tree: ast.Module) -> dict[str, str | None]:
    """Each name the module's imports bind (at any depth), mapped to the
    "module.name" it stands for in treecalc, to "module." for a treecalc
    module itself, and to None outside treecalc."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if node.level != 1:
                    target = None
                elif node.module:
                    target = f"{node.module}.{alias.name}"
                else:
                    target = f"{alias.name}."
                out[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = None
    return out


def _loads(node: ast.AST):
    """Each (name, attribute or None) the code under node reads."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            yield child.value.id, child.attr
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id, None


@lru_cache(maxsize=None)
def _graph():
    """The references between module-level names in src, as edges from
    each "module.name" to the ones it refers to; the names module-level
    code outside any definition refers to; and the unused imports."""
    edges, roots, unused = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        own, imported = _defined(tree), _imported(tree)

        def refers(node, skip=None):
            for name, attr in _loads(node):
                if name == skip:
                    continue
                if name in own:
                    yield f"{module}.{name}"
                elif imported.get(name):
                    target = imported[name]
                    if not target.endswith("."):
                        yield target
                    elif attr:
                        yield target + attr

        for name, node in own.items():
            edges.setdefault(f"{module}.{name}", set()).update(refers(node, skip=name))
        for node in tree.body:  # such as cli's __main__ block
            if not isinstance(node, (*_DEFINITIONS, ast.Import, ast.ImportFrom, ast.Expr)):
                roots.update(refers(node))
        read = {name for name, _ in _loads(tree)}
        unused |= {f"{module}.{name}" for name in imported if name not in read}
    return edges, roots, unused


def _reached(edges, roots) -> set[str]:
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += edges.get(name, ())
    return reached


ALL_EXEMPT = set().union(*EXEMPT.values())


def test_every_src_name_is_reached_from_src():
    edges, roots, _ = _graph()
    unreached = sorted(set(edges) - _reached(edges, roots | {ENTRY} | ALL_EXEMPT))
    assert unreached == [], f"no src caller, only tests or nothing: {unreached}"


def test_no_exemption_is_stale():
    edges, roots, _ = _graph()
    assert sorted(ALL_EXEMPT - set(edges)) == [], "exempt but not defined in src"
    reached = _reached(edges, roots | {ENTRY})
    assert sorted(ALL_EXEMPT & reached) == [], "exempt but reached from the entry point"


def test_every_bench_exemption_is_named_in_bench():
    bench = "\n".join(path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py")))
    missing = [name for name in sorted(EXEMPT["bench"]) if name.split(".")[1] not in bench]
    assert missing == []


def test_every_src_import_is_used():
    assert sorted(_graph()[2]) == []
