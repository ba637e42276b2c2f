"""The one guard rule: every size guard of src refuses through
errors.refuse_large, before any work, and --unsafe-large passes every
guard that the identity and expand commands meet."""

import ast
import time
import tracemalloc
from pathlib import Path

import pytest

from treecalc import combinat, identities, series
from treecalc.cli import main
from treecalc.errors import SizeGuardError
from treecalc.identities import duliu_check, lagrange_fixed_point_check

SRC = Path(__file__).resolve().parent.parent / "src" / "treecalc"


def test_size_guard_error_is_built_only_in_errors():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "SizeGuardError":
                    sites.append(f"{path.name}:{node.lineno}")
    assert sites and all(place.startswith("errors.py:") for place in sites), sites


# Every enumerator guard and every limit of the checks, set so low that each
# input below meets them: a call that drops the flag still exits 3 with it.
LOW_GUARDS = {
    combinat: {
        "BINARY_TREE_GUARD": 2,
        "MARY_TREE_GUARD": 2,
        "MARY_SLOT_GUARD": 4,
        "PLANE_TREE_GUARD": 2,
        "PACKED_WORD_GUARD": 1,
    },
    identities: {
        "POSTNIKOV_GUARD": 2,
        "DULIU_SLOT_GUARD": 4,
        "FT_LEAF_GUARD": 2,
    },
    series: {
        "MARY_CALL_GUARD": 1,
        "MARY_ARGUMENT_GUARD": 1,
    },
}

GUARDED_CALLS = [
    ("identity", "postnikov", "--n", "3"),
    ("identity", "postnikov", "--n", "3", "--per-tree"),
    ("identity", "eisenstein", "--order", "3"),
    ("identity", "duliu", "--variant", "las1", "--n", "3"),
    ("identity", "duliu", "--variant", "las3", "--m", "2", "--n", "3"),
    ("identity", "lagrange", "--m", "2", "--order", "3"),
    ("identity", "ft", "--tree", "(*(**))"),
    ("expand", "inverse-linear", "--order", "3"),
    ("expand", "postnikov", "--order", "3", "--per-tree"),
    ("expand", "duliu", "--m", "2", "--order", "3", "--per-tree"),
    ("expand", "plane-q", "--order", "3", "--per-tree"),
]


@pytest.mark.parametrize("argv", GUARDED_CALLS, ids=" ".join)
def test_unsafe_large_passes_every_guard_a_command_meets(capsys, monkeypatch, argv):
    for module, guards in LOW_GUARDS.items():
        for name, value in guards.items():
            monkeypatch.setattr(module, name, value)
    code = main(["--format", "json", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("size guard: ")
    assert captured.err.endswith("; pass --unsafe-large to force\n")
    assert main(["--format", "json", "--unsafe-large", *argv]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "eisenstein", "--order", "100000"),
        ("identity", "lagrange", "--order", "100000"),
        ("identity", "lagrange", "--m", "1000000", "--order", "3"),
        ("identity", "duliu", "--variant", "las1", "--n", "1000000"),
        ("identity", "duliu", "--variant", "las3", "--m", "2", "--n", "1000000"),
        ("expand", "postnikov", "--order", "100000"),
        ("expand", "duliu", "--m", "2", "--order", "100000"),
    ],
    ids=" ".join,
)
def test_a_check_far_above_its_guard_refuses_before_any_work(capsys, argv):
    # no coefficient of the order is computed or padded before the refusal
    # (a series padded to order 100,000 alone holds 0.8 MB)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.endswith("; pass --unsafe-large to force\n")
    assert elapsed < 0.5
    assert peak < 256 * 1024


def test_an_arity_below_one_lies_outside_the_identity():
    with pytest.raises(ValueError, match="m >= 1, got 0"):
        lagrange_fixed_point_check(0, 4)
    with pytest.raises(ValueError, match="m >= 1, got 0"):
        duliu_check("las3", 3, 0)


def test_the_check_limits_give_way_to_unsafe_large():
    with pytest.raises(SizeGuardError, match=r"^postnikov_check\(n=13\) exceeds the guard 12;"):
        identities.postnikov_check(13)
    message = r"^fixed_point_mary\(m=2, order=10\) on at least 583 operator calls exceeds the guard 500;"
    with pytest.raises(SizeGuardError, match=message):
        lagrange_fixed_point_check(2, 10)
    assert lagrange_fixed_point_check(2, 10, unsafe_large=True).equal
    message = r"^fixed_point_mary\(m=2500, order=1\) passing at least 20008 series to its operator"
    with pytest.raises(SizeGuardError, match=message + " exceeds the guard 20000;"):
        lagrange_fixed_point_check(2500, 1)
    assert lagrange_fixed_point_check(2500, 1, unsafe_large=True).equal
    with pytest.raises(SizeGuardError, match=r"^duliu_check\(m=4, n=7\) on 1159400 child slots"):
        duliu_check("las3", 7, 4)
    with pytest.raises(SizeGuardError, match=r"on 251001 child slots exceeds the guard 250000;"):
        duliu_check("las3", 2, 500)
    assert duliu_check("las3", 2, 500, unsafe_large=True).equal
