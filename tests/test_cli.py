import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import treecalc
from treecalc import cli, combinat, fqsym, identities
from treecalc.cli import main
from treecalc.series import TruncatedSeries


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# hook
# ---------------------------------------------------------------------------


def test_hook_count(capsys):
    code, out = run(capsys, "hook", "((_,_),((_,_),_))")
    assert code == 0
    assert out.strip() == "3"


def test_hook_single_node(capsys):
    code, out = run(capsys, "hook", "(_,_)")
    assert code == 0
    assert out.strip() == "1"


def test_hook_q_imaj(capsys):
    code, out = run(capsys, "hook", "((_,_),((_,_),_))", "--q", "imaj")
    assert code == 0
    assert out.strip() == "q^2+q^3+q^4"


def test_hook_oracle(capsys):
    code, out = run(capsys, "hook", "((_,_),((_,_),_))", "--q", "inv", "--oracle")
    assert code == 0
    assert "match" in out


def test_hook_dump_element(capsys):
    code, out = run(
        capsys, "--format", "json", "hook", "((_,_),((_,_),_))", "--dump"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["element"]["basis"] == "G"
    assert payload["element"]["terms"] == [
        {"perm": "1423", "coeff": "1"},
        {"perm": "2413", "coeff": "1"},
        {"perm": "3412", "coeff": "1"},
    ]


def test_hook_parse_error_exit_code(capsys):
    code, _ = run(capsys, "hook", "((_,)")
    assert code == 2


@pytest.mark.parametrize("node", ["({},_)", "(_,{})"], ids=["left comb", "right comb"])
def test_hook_deep_comb(capsys, node):
    text = "_"
    for _ in range(3000):  # well past the default recursion limit of 1000
        text = node.format(text)
    code, out = run(capsys, "hook", text)
    assert code == 0
    assert out.strip() == "1"


def _left_comb(nodes: int) -> str:
    text = "_"
    for _ in range(nodes):
        text = f"({text},_)"
    return text


def test_hook_q_on_a_deep_comb_is_a_size_guard(capsys):
    code, err = _run_rejected(capsys, "hook", _left_comb(3000), "--q", "imaj")
    assert code == 3
    assert err == (
        "size guard: q-hook of a 3000-node tree exceeds the guard "
        f"{identities.QHOOK_GUARD}; pass --unsafe-large to force\n"
    )


def test_hook_dump_of_a_deep_comb(capsys):
    code = main(["--format", "json", "hook", _left_comb(3000), "--dump", "--unsafe-large"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    terms = json.loads(captured.out)["element"]["terms"]
    # the one permutation whose decreasing tree is the left comb
    assert terms == [{"perm": ",".join(map(str, range(1, 3001))), "coeff": "1"}]


def test_hook_dump_is_guarded_by_its_fiber(capsys):
    # a deep comb's fiber is one permutation: no --unsafe-large needed
    code = main(["--format", "json", "hook", _left_comb(3000), "--dump"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    terms = json.loads(captured.out)["element"]["terms"]
    assert terms == [{"perm": ",".join(map(str, range(1, 3001))), "coeff": "1"}]
    # 14 nodes, 2,745,600 permutations: refused before tree_term runs
    cached = fqsym.tree_term.cache_info()
    tree = "(((_,(_,_)),((_,_),(_,_))),(((_,_),(_,_)),((_,_),(_,_))))"
    code, err = _run_rejected(capsys, "hook", tree, "--dump")
    assert code == 3
    assert err == (
        "size guard: element dump of 2745600 permutations exceeds 7! = 5040; "
        "pass --unsafe-large to force\n"
    )
    assert fqsym.tree_term.cache_info() == cached


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def test_identity_postnikov(capsys):
    code, out = run(capsys, "--format", "json", "identity", "postnikov", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["lhs"] == "3"


def test_identity_duliu_las2(capsys):
    code, out = run(
        capsys, "--format", "json", "identity", "duliu",
        "--variant", "las2", "--n", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == "α"
    assert payload["rhs"] == "α"


def test_identity_ft(capsys):
    code, out = run(
        capsys, "--format", "json", "identity", "ft",
        "--tree", "((**)(**)(***))",
    )
    assert code == 0
    payload = json.loads(out)
    assert json.loads(payload["lhs"]) == {"2": 1, "3": 6, "4": 6}
    assert payload["equal"] is True


def test_identity_guard_exit_code(capsys):
    code, _ = run(capsys, "identity", "postnikov", "--n", "13")
    assert code == 3


def test_identity_failure_exit_code(capsys, monkeypatch):
    # force an unequal report through the dispatch to pin the exit code
    def fake_check(n, *, unsafe_large=False):
        return identities.IdentityReport(
            name="postnikov", parameters={"n": n}, lhs="1", rhs="2", equal=False
        )

    monkeypatch.setattr(identities, "postnikov_check", fake_check)
    code, _ = run(capsys, "identity", "postnikov", "--n", "2")
    assert code == 1


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_inverse_linear(capsys):
    code, out = run(
        capsys, "--format", "json", "expand", "inverse-linear", "--order", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == ["1", "1", "1", "1", "1"]


def test_expand_postnikov_order_zero(capsys):
    code, out = run(
        capsys, "--format", "json", "expand", "postnikov", "--order", "0"
    )
    assert code == 0
    assert json.loads(out)["series"] == ["1"]


def test_expand_per_tree_terms_sum_to_hook_counts(capsys):
    code, out = run(
        capsys, "--format", "json", "expand", "inverse-linear",
        "--order", "3", "--per-tree",
    )
    assert code == 0
    payload = json.loads(out)
    by_degree = {}
    for entry in payload["per_tree"]:
        term = json.loads(entry["term"])
        coeffs = [c for c in term if c != "0"]
        if not coeffs:
            continue
        degree = term.index(coeffs[0])
        by_degree.setdefault(degree, []).append(coeffs[0])
    # per-tree coefficients are c_T / n!, so they sum to 1 in each degree
    from fractions import Fraction

    for degree, values in by_degree.items():
        total = sum(Fraction(v) for v in values)
        assert total == 1
        count = len(values)
        expected = [1, 1, 2, 5][degree]
        assert count == expected


def test_expand_plane_q(capsys):
    code, out = run(
        capsys, "--format", "json", "expand", "plane-q", "--order", "2"
    )
    assert code == 0
    payload = json.loads(out)
    # words by length: e; 1; 11, 12, 21 -> coefficients of C(t,1) and C(t,2)
    assert payload["series"]["0"] == "1"
    assert payload["series"]["1"] == "q+q^2"
    assert payload["series"]["2"] == "2q^2"


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_counts(capsys):
    code, out = run(capsys, "enumerate", "binary-trees", "--n", "4", "--count-only")
    assert code == 0 and out.strip() == "14"
    code, out = run(capsys, "enumerate", "packed-words", "--n", "3", "--count-only")
    assert code == 0 and out.strip() == "13"
    code, out = run(capsys, "enumerate", "permutations", "--n", "0", "--count-only")
    assert code == 0 and out.strip() == "1"


def test_enumerate_stream(capsys):
    code, out = run(capsys, "enumerate", "packed-words", "--n", "2")
    assert code == 0
    assert out.split() == ["11", "12", "21"]


def test_enumerate_guard_exit_code(capsys):
    code, _ = run(capsys, "enumerate", "permutations", "--n", "13")
    assert code == 3


def test_enumerate_csv_format(capsys):
    code, out = run(
        capsys, "--format", "csv", "enumerate", "plane-trees", "--n", "2"
    )
    assert code == 0
    assert "(***)" in out


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_enumerate_prints_each_item_before_the_next(monkeypatch, fmt):
    for items in (("a", "b", "c"), ()):
        out, seen = io.StringIO(), []

        def family(n, m, unsafe):
            for item in items:
                yield item
                seen.append(out.getvalue())  # what was printed when the next is asked for

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setitem(cli.FAMILIES, "binary-trees", family)
        assert main(["--format", fmt, "enumerate", "binary-trees", "--n", "3"]) == 0
        if fmt == "json":
            payload = {"family": "binary-trees", "n": 3, "items": list(items)}
            assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
            printed = [json.dumps(item) for item in items]
        else:
            assert out.getvalue() == "".join(f"{item}\n" for item in items)
            printed = [f"{item}\n" for item in items]
        assert len(seen) == len(items)
        for prefix, item in zip(seen, printed):
            assert out.getvalue().startswith(prefix) and prefix.endswith(item)


ROW_PAYLOADS = {
    "empty per_tree": {"equation": "postnikov", "order": 0, "series": ["1"], "per_tree": []},
    "non-ASCII terms": {
        "equation": "duliu",
        "order": 1,
        "series": ["1", "\u03b1"],
        "per_tree": [
            {"tree": "_", "term": '["1", "0"]'},
            {"tree": "(___)", "term": '["0", "\u03b1"]'},
            {"tree": "\"\\\n\t\x00", "term": "\u00e9 \u2028 \U0001d6fc"},
        ],
    },
    "identity": {
        "identity": "postnikov",
        "parameters": {"n": 2, "series_order": 2},
        "lhs": "3",
        "rhs": "3",
        "equal": True,
        "elapsed_ms": 0.25,
        "per_tree": [{"tree": "_", "coefficient": "1"}, {"tree": "(_,_)", "coefficient": "1"}],
    },
    "identity without per_tree": {"identity": "ft", "parameters": {}, "lhs": "{}", "equal": False},
    "enumerate items": {"family": "packed-words", "n": 2, "items": ["11", "12", "\u03b1"]},
    "enumerate, no items": {"family": "binary-trees", "n": 0, "items": []},
    "enumerate count": {"family": "permutations", "n": 3, "count": 6},
}


@pytest.mark.parametrize("payload", ROW_PAYLOADS.values(), ids=ROW_PAYLOADS)
def test_json_rows_are_byte_identical_to_json_dumps(monkeypatch, payload):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    streamed = dict(payload)
    if "items" in streamed:
        streamed["items"] = iter(streamed["items"])  # enumerate hands over an iterator
    cli._print_json(streamed)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("expand", "duliu", "--m", "2", "--order", "3", "--per-tree"),
    ("expand", "plane-q", "--order", "3", "--per-tree"),
    ("identity", "postnikov", "--n", "6", "--per-tree"),
    ("identity", "lagrange", "--m", "2", "--order", "3"),
    ("enumerate", "plane-trees", "--n", "3"),
])
def test_cli_json_is_what_json_dumps_prints(capsys, argv):
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out.isascii()  # an alpha is written \u03b1, as json.dumps writes it


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_env_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_ORDER", "3")
    code, out = run(capsys, "--format", "json", "expand", "inverse-linear")
    assert code == 0
    assert len(json.loads(out)["series"]) == 4


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_ORDER", "3")
    code, out = run(
        capsys, "--format", "json", "expand", "inverse-linear", "--order", "2"
    )
    assert code == 0
    assert len(json.loads(out)["series"]) == 3


def test_config_file(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_format": "json", "max_degree": 3}))
    code, out = run(
        capsys, "--config", str(config), "hook", "((_,_),((_,_),_))"
    )
    assert code == 0
    assert json.loads(out)["value"] == "3"
    # max_degree 3 blocks the oracle over S_4
    code, _ = run(
        capsys, "--config", str(config), "hook", "((_,_),((_,_),_))", "--oracle"
    )
    assert code == 3


def test_oracle_respects_max_degree_env(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_MAX_DEGREE", "3")
    code, _ = run(capsys, "hook", "((_,_),((_,_),_))", "--oracle")
    assert code == 3
    monkeypatch.setenv("TREECALC_MAX_DEGREE", "7")
    code, _ = run(capsys, "hook", "((_,_),((_,_),_))", "--oracle")
    assert code == 0


def test_oracle_above_the_permutations_guard_needs_unsafe_large(capsys, monkeypatch):
    # a max degree of 13 passes the oracle's own check, but S_13 is still
    # past the permutations guard of 12; the oracle once switched it off
    real, calls = identities.permutations, []

    def spy(n, *, unsafe_large=False):
        calls.append((n, unsafe_large))
        # forced: an empty fiber stands in for S_13, which is never listed
        return iter(()) if unsafe_large else real(n, unsafe_large=unsafe_large)

    monkeypatch.setattr(identities, "permutations", spy)
    monkeypatch.setenv("TREECALC_MAX_DEGREE", "13")
    code, err = _run_rejected(capsys, "hook", _left_comb(13), "--oracle")
    assert (code, calls) == (3, [(13, False)])
    assert err == "size guard: permutations(13) exceeds the guard 12; pass --unsafe-large to force\n"
    code, _ = run(capsys, "--unsafe-large", "hook", _left_comb(13), "--oracle")
    assert (code, calls[-1]) == (1, (13, True))  # the empty stand-in mismatches


# ---------------------------------------------------------------------------
# negative sizes and orders
# ---------------------------------------------------------------------------


def _run_rejected(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_enumerate_negative_n_is_a_parse_error(capsys):
    code, err = _run_rejected(capsys, "enumerate", "binary-trees", "--n", "-1")
    assert code == 2
    assert err == "parse error: --n must be >= 0, got -1\n"


def test_identity_negative_order_is_a_parse_error(capsys):
    code, err = _run_rejected(capsys, "identity", "eisenstein", "--order", "-3")
    assert code == 2
    assert err == "parse error: order must be >= 0, got -3\n"


def test_expand_negative_order_is_a_parse_error(capsys):
    code, err = _run_rejected(capsys, "expand", "postnikov", "--order", "-1")
    assert code == 2
    assert err == "parse error: order must be >= 0, got -1\n"


def test_negative_configured_order_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_ORDER", "-1")
    code, err = _run_rejected(capsys, "expand", "inverse-linear")
    assert code == 2
    assert len(err.splitlines()) == 1


def test_order_flag_overrides_negative_configured_order(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_ORDER", "-1")
    code, out = run(capsys, "expand", "inverse-linear", "--order", "3")
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize(
    "variable, value", [("TREECALC_ORDER", "abc"), ("TREECALC_MAX_DEGREE", "1.5")]
)
def test_configured_non_integer_is_a_parse_error(capsys, monkeypatch, variable, value):
    monkeypatch.setenv(variable, value)
    code, err = _run_rejected(capsys, "enumerate", "binary-trees", "--n", "2")
    assert code == 2
    assert err.startswith("parse error: bad configuration: ")
    assert len(err.splitlines()) == 1


def test_negative_configured_order_ignored_without_order(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_ORDER", "-1")
    code, out = run(capsys, "hook", "((_,_),_)")
    assert code == 0
    assert out.strip() == "1"


# ---------------------------------------------------------------------------
# the arity --m
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, m",
    [
        (("identity", "duliu", "--variant", "las3", "--m", "0", "--n", "2"), 0),
        (("identity", "lagrange", "--m", "0"), 0),
        (("expand", "duliu", "--m", "0", "--order", "3"), 0),
        (("enumerate", "mary-trees", "--m", "0", "--n", "2"), 0),
        (("enumerate", "mary-trees", "--m", "-1", "--n", "2"), -1),
    ],
)
def test_arity_below_one_is_a_parse_error(capsys, argv, m):
    code, err = _run_rejected(capsys, *argv)
    assert code == 2
    assert err == f"parse error: --m must be >= 1, got {m}\n"


def test_arity_above_the_guard_is_a_size_guard(capsys):
    code, _ = _run_rejected(capsys, "identity", "lagrange", "--m", "17")
    assert code == 3


# ---------------------------------------------------------------------------
# CSV output and the configured output format
# ---------------------------------------------------------------------------


def test_csv_without_rows_prints_the_scalar_fields(capsys):
    code, out = run(capsys, "--format", "csv", "identity", "postnikov", "--n", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["identity", "lhs", "rhs", "equal", "elapsed_ms"]
    assert rows[1][:4] == ["postnikov", "16", "16", "True"]
    assert len(rows) == 2

    code, out = run(
        capsys, "--format", "csv", "enumerate", "binary-trees", "--n", "3",
        "--count-only",
    )
    assert code == 0
    assert out == "family,n,count\nbinary-trees,3,5\n"


def test_csv_quotes_binary_tree_texts(capsys):
    code, out = run(
        capsys, "--format", "csv", "identity", "postnikov", "--n", "2", "--per-tree"
    )
    assert code == 0
    assert '"(_,_)",1\n' in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["tree", "coefficient"]
    assert all(len(row) == 2 for row in rows)
    assert ["((_,_),_)", "3/4"] in rows

    code, out = run(capsys, "--format", "csv", "enumerate", "binary-trees", "--n", "2")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["((_,_),_)"], ["(_,(_,_))"]]


def test_config_file_rejects_an_unknown_output_format(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_format": "xml"}))
    code, err = _run_rejected(
        capsys, "--config", str(config), "enumerate", "binary-trees", "--n", "2"
    )
    assert code == 2
    assert err.startswith("parse error: bad configuration: ")
    assert "'xml'" in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# golden output of the tree sums (elapsed_ms removed)
# ---------------------------------------------------------------------------

GOLDEN = {
    ("identity", "postnikov", "--n", "11"): (
        "identity=postnikov equal=true\n"
        "lhs=61917364224\n"
        "rhs=61917364224\n",
        r"""{
  "identity": "postnikov",
  "parameters": {
    "n": 11,
    "series_order": 8
  },
  "lhs": "61917364224",
  "rhs": "61917364224",
  "equal": true
}
""",
    ),
    ("identity", "duliu", "--variant", "las1", "--n", "7"): (
        "identity=duliu-las1 equal=true\n"
        "lhs=1+717/35α+52387/315α^2+73271/105α^3+172531/105α^4+137435/63α^5"
        "+159427/105α^6+429α^7\n"
        "rhs=1+717/35α+52387/315α^2+73271/105α^3+172531/105α^4+137435/63α^5"
        "+159427/105α^6+429α^7\n",
        r"""{
  "identity": "duliu-las1",
  "parameters": {
    "variant": "las1",
    "n": 7,
    "m": 1
  },
  "lhs": "1+717/35\u03b1+52387/315\u03b1^2+73271/105\u03b1^3+172531/105\u03b1^4+137435/63\u03b1^5+159427/105\u03b1^6+429\u03b1^7",
  "rhs": "1+717/35\u03b1+52387/315\u03b1^2+73271/105\u03b1^3+172531/105\u03b1^4+137435/63\u03b1^5+159427/105\u03b1^6+429\u03b1^7",
  "equal": true
}
""",
    ),
    ("identity", "duliu", "--variant", "las3", "--m", "3", "--n", "5"): (
        "identity=duliu-las3 equal=true\n"
        "lhs=1/5α-20/3α^2+224/3α^3-1024/3α^4+8192/15α^5\n"
        "rhs=1/5α-20/3α^2+224/3α^3-1024/3α^4+8192/15α^5\n",
        r"""{
  "identity": "duliu-las3",
  "parameters": {
    "variant": "las3",
    "n": 5,
    "m": 3
  },
  "lhs": "1/5\u03b1-20/3\u03b1^2+224/3\u03b1^3-1024/3\u03b1^4+8192/15\u03b1^5",
  "rhs": "1/5\u03b1-20/3\u03b1^2+224/3\u03b1^3-1024/3\u03b1^4+8192/15\u03b1^5",
  "equal": true
}
""",
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_tree_sum_output_is_golden(capsys, argv):
    text, as_json = GOLDEN[argv]
    code, out = run(capsys, "--format", "text", *argv)
    assert code == 0
    assert out == text
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert re.sub(r',\n  "elapsed_ms": [^\n]*', "", out) == as_json


# ---------------------------------------------------------------------------
# golden output of the series expansions (elapsed_ms removed)
# ---------------------------------------------------------------------------

# SHA-256 of the text and of the JSON output, recorded before the
# zero-skipping series kernel and the shared tree engine
SERIES_GOLDEN = {
    ("identity", "eisenstein", "--order", "9"): (
        "f3c4f0b4d911fc202a72c085ed919f092de43de6de87001744cc3c48f29d0178",
        "05f7f0d5c9545ede5c956cc61767e73a95f4007033167e138d3b49bf0d5de39f",
    ),
    ("identity", "lagrange", "--m", "1", "--order", "5"): (
        "851e2b5c65cc19b54669ce5b8f66e0ab840f30955e2ac36a5d8329fdabaeee26",
        "bf09948aa63a05c1ba4e5e4e89f924f840e5026c4089ee222da5df7e4ad289a6",
    ),
    ("identity", "lagrange", "--m", "2", "--order", "5"): (
        "16bd901f2312c569d7f5d28c764456647e2b271a2c04deeb93d8773f3996367e",
        "a0a60775f752cef4cfd68b3d54325ba929ea310461e2cf347300bcdb589fba61",
    ),
    ("identity", "lagrange", "--m", "3", "--order", "5"): (
        "14ffe77dd92ab2e3722d76ca6e2ae2e681017343e49a1acf51f025f1cd007948",
        "71c5056dc2c6d6d924e1eb39a2f5befea5b802a22675bc0dfaec04d389ea35a1",
    ),
    ("expand", "postnikov", "--order", "9", "--per-tree"): (
        "6c61afc80036f392f6733e9d32780c6f1f01169838ada0dc41ea5f49b51f82e0",
        "4cfb165d19bfef17d4be5b45ec3a4608d7aaabfd24a5131a7e84b45177d76dad",
    ),
    ("expand", "inverse-linear", "--order", "9"): (
        "4be2fc315c93c806886f971bd41833693044bea14b661d52da271b5d6caa673f",
        "b6f83dc8317862bcc81b44e4d32b94777848e6b986dab556294e6c7c6e93c2ce",
    ),
    ("expand", "duliu", "--m", "2", "--order", "5"): (
        "9ab26535ae758f506d7680ba74cf478742146640bb183465cde531eed3c59ebf",
        "11831537a9a3ac211c0c6a08574a1e410dd350acde436f36e8c3587cf21937ab",
    ),
    ("expand", "plane-q", "--order", "5"): (
        "753ba7fed535488fdd29c66a28b2ce339460b34272b997285286e3717ccc29a3",
        "c2f9728bb1223c3a2b5852f81afac52bc065f341bdaf383b97d1b26cebf99309",
    ),
    ("identity", "lagrange", "--m", "2", "--order", "8"): (
        "44b5695f1d591493dea5b83e2bfdf54ae558b475387310e9c9d18adf3134333a",
        "37e2b15d9c4117a4e7fdf32dcff339a2ccc0673c2efdc6bf26d6f9f9e6763f45",
    ),
}


# SHA-256 of the text and of the JSON output, recorded before the
# binomial-basis product stopped going through the monomial basis
BINOMIAL_GOLDEN = {
    ("expand", "plane-q", "--order", "6"): (
        "7caa8f7daae5a9200d6ee8f7aa777c262301f3550cb8ae365eb02f9e255494fc",
        "85b3689381627781fa42406166b96e52d1f95b7dd61d68a701de92ccb5c35bc3",
    ),
    ("identity", "ft", "--tree", "((**)(**)(***))"): (
        "74b014aa5977868c4676440992ecb06c6f43cd24c2bcd8c18d495a7b702a3235",
        "37cf7b26bd51e86af5008bfdcb75378a60ac102b8129d13295b335eceed9875c",
    ),
    ("identity", "ft", "--tree", "(*(*(**)*)(**))"): (
        "839fae3a2313168ced38e9c0e11126bb68f79087689c1e81897188595307d97e",
        "b9a8a29be275793ecc52d8ec82bffb5b1697a5bd5f902278aed3d6aa78f75199",
    ),
    ("identity", "ft", "--tree", "(((**)(**))(*(**)))"): (
        "d71d4fb3a28785a21739e30177b7f7a08ab7bf4f4bc2f105a3f89c0bb3fc3731",
        "0f143b85d0febbfe6d3632f4cc66d578c0f50dd3835d63e169514a04525c4909",
    ),
}


# SHA-256 of the text and of the JSON output, recorded before the three
# tree families shared one enumerator: they pin the canonical tree order
ENUMERATION_GOLDEN = {
    ("enumerate", "binary-trees", "--n", "6"): (
        "7ff5661022c94f36104e442014d6028950477f306d0512c48032c87d3a2cd06d",
        "90cbdab78e898c70bb938e7304a49ae5ff6406c6bca589b203f6d9cbc0514f86",
    ),
    ("enumerate", "mary-trees", "--m", "1", "--n", "4"): (
        "e726c2fc232103de7ada50c9cf8626029f768fe1cd1d27ee4b98e4386e421463",
        "f6af4d1573dae5255c0622faae4a162f5797f30fba1d3c0b1fca1ed6e93f73df",
    ),
    ("enumerate", "mary-trees", "--m", "2", "--n", "4"): (
        "dd65de7c05502c739828773cca1b23a693df12644979a3fb8c066d314e59d974",
        "4fe8eb64ab9e647ffa79f89a7d42f450325cec06eb3df30fb1add995b789e81d",
    ),
    ("enumerate", "mary-trees", "--m", "3", "--n", "3"): (
        "b4544d21b42af75c2862829cc5631869ad33f0465405adff39700c87507fc379",
        "52027ae4ce00c8fa0752952190d80cfd424208c409581c54e2125fb914b4c737",
    ),
    ("enumerate", "plane-trees", "--n", "5"): (
        "21f379b3bf8ee6e9dd47406ee0c5089a79460c6cb1cca8c960d50319b4296649",
        "be3b4f5698726f28738c5da76041e73c48533b5bf044572455451080b7692a87",
    ),
}

# SHA-256 of the text and of the JSON output, recorded before the word keys
# shared one core and the hook oracle and the per-tree check moved into
# identities
FOUR_NODES = "((_,_),((_,_),_))"
WORD_GOLDEN = {
    ("hook", FOUR_NODES, "--oracle", "--q", "none"): (
        "f93755a372e4d51b794327f21acc04bfe15418eb3d124e67a64422ef58850b7e",
        "8caf4f46089f78ca3bee0c85f52b062c2323eea95805bf37b377b254938aa352",
    ),
    ("hook", FOUR_NODES, "--oracle", "--q", "imaj"): (
        "e38dabdd8ee88c85066cfe2e5e1afde8a039aa718ddfae7b643c0778e17793fd",
        "9528d34e47de4d9b5d9ea4e845c8e30843697cbdc79c88a797e2d305cebad0be",
    ),
    ("hook", FOUR_NODES, "--oracle", "--q", "inv"): (
        "e38dabdd8ee88c85066cfe2e5e1afde8a039aa718ddfae7b643c0778e17793fd",
        "29577e4251f418023e0b1cf481b31781e91cd74e1a1db971e90fd0c687a353aa",
    ),
    ("enumerate", "permutations", "--n", "4"): (
        "0f5898ef4a578a1b7aaafa85da9e72cb9eeeafb911e4b7290c92529a58ba4665",
        "b4c8bff0c1b0b6df9ba1439b85415c6b5f6c2cf903baad1c87a97accab00fc6f",
    ),
    ("enumerate", "packed-words", "--n", "3"): (
        "ab8da15682db9e06e041692e7e84b2a044ab22cabeeaa1aa0244a4f8fdb83ca7",
        "7fc16e1f25fc8aa0d271bdaf9c3d71753f654c5e28c97f79cd0bb9da36d65ef6",
    ),
}
GOLDEN_DIGESTS = {**SERIES_GOLDEN, **BINOMIAL_GOLDEN, **ENUMERATION_GOLDEN, **WORD_GOLDEN}

# SHA-256 of one output format alone, recorded with WORD_GOLDEN
FORMAT_GOLDEN = {
    ("json", "hook", FOUR_NODES, "--dump"):
        "19f933a4a85114c5298c05851a7489f25dcc4b763b619f727be448ae045d5175",
    ("json", "identity", "postnikov", "--n", "6", "--per-tree"):
        "9696a9b25fbcc29da23f6db75f3939edcc4a396c3224b9455e601f3dda2132b1",
    ("csv", "identity", "postnikov", "--n", "6", "--per-tree"):
        "dbc05fd0672012187b89d0a4c02cce255cd9ecdc3048c087343e44dadd7a4a91",
    # recorded while the per-tree rows and the hook dump were still built
    # as lists before printing
    ("csv", "expand", "postnikov", "--order", "6", "--per-tree"):
        "b032f64be18b684353386a15b2d4d8963571f1c17e669b60a0c67dce605d0014",
    ("text", "expand", "plane-q", "--order", "4", "--per-tree"):
        "8d83619a036a5fb5de6b6c836dfe613808854f498ffd8de44a506f240397ce1a",
    ("json", "expand", "plane-q", "--order", "4", "--per-tree"):
        "9cb2d4c60d7558718668fb7fe064fbcf5c2f65315f63dd1593b214c08ecd56ad",
    ("csv", "expand", "plane-q", "--order", "4", "--per-tree"):
        "9768c6335cab31fd19fce06bc23c3f7cb8d49ad81e6e9c8bb2164b090f68b2de",
    ("text", "expand", "duliu", "--m", "2", "--order", "4", "--per-tree"):
        "e5dcab263317fa6e622c09f861096a09568bb91009be1bcb9a981e9dbdcb0353",
    ("json", "expand", "duliu", "--m", "2", "--order", "4", "--per-tree"):
        "ad4e58cce4a32b2df5894f24dbf752c20635bde8248469ac56c8eaa2959819d4",
    ("csv", "expand", "duliu", "--m", "2", "--order", "4", "--per-tree"):
        "10a32d693c5d10e31e859c0e3511162c79bb16f9f72d2028a2d0c42d149ddeb8",
    ("text", "hook", FOUR_NODES, "--dump"):
        "9852028b13653eed5880be479ef6ee40f84681305618a7a8a4361f4feec66626",
    ("csv", "hook", FOUR_NODES, "--dump"):
        "a09c27f8c43e918831169dc89260bd334b9721960e9e44c1b4dc802660b08bce",
    # recorded when the text format began to print the rows of identity --per-tree
    ("text", "identity", "postnikov", "--n", "6", "--per-tree"):
        "774b736da4127e07cf799a4aaac5eb8b3c6858d3e4f00be364ccf93adabe7e85",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_series_output_is_golden(capsys, argv):
    for fmt, digest in zip(("text", "json"), GOLDEN_DIGESTS[argv]):
        code, out = run(capsys, "--format", fmt, *argv)
        assert code == 0
        out = re.sub(r',\n  "elapsed_ms": [^\n]*', "", out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", list(FORMAT_GOLDEN))
def test_format_output_is_golden(capsys, argv):
    code, out = run(capsys, "--format", *argv)
    assert code == 0
    out = re.sub(r',\n  "elapsed_ms": [^\n]*', "", out)
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_GOLDEN[argv]


# SHA-256 of each format of a failing check, identity lagrange --m 2 --order 4
# with binomial_series off by t (elapsed_ms removed): the lhs and rhs a
# failure prints, and no path names
FAILURE_GOLDEN = {
    "text": "2dd35fda253c7c837d45c8a0b3b0b15184ef12d3e98e0089af279434f29a2f23",
    "json": "77730407a02a875b0811a354d53c2f0929c354269ccd33edf0552a86e770e1d1",
    "csv": "311fbf367b98f9880b3a57e4e33d8a5cb6080ece8970750b2f16135aa88fab69",
}


def test_failing_check_output_is_golden(capsys, monkeypatch):
    binomial_series = identities.binomial_series
    monkeypatch.setattr(
        identities, "binomial_series",
        lambda beta, u: binomial_series(beta, u) + TruncatedSeries.monomial(1, u.order),
    )
    for fmt, digest in FAILURE_GOLDEN.items():
        code, out = run(capsys, "--format", fmt, "identity", "lagrange", "--m", "2", "--order", "4")
        assert code == 1
        out = re.sub(r',\n  "elapsed_ms": [^\n]*', "", out)
        out = re.sub(r",[0-9.e-]+\n\Z", ",\n", out)  # the csv row ends with elapsed_ms
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# identity ft on trees the oracle cannot take
# ---------------------------------------------------------------------------


def test_identity_ft_deep_tree_is_a_size_guard(capsys):
    tree = "(**)"
    for _ in range(2999):
        tree = f"(*{tree})"
    code, err = _run_rejected(capsys, "identity", "ft", "--tree", tree)
    assert code == 3
    assert err.startswith("size guard: packed_words(3000) exceeds the guard")
    assert len(err.splitlines()) == 1


def test_identity_ft_leaf_is_a_parse_error(capsys):
    code, err = _run_rejected(capsys, "identity", "ft", "--tree", "*")
    assert code == 2
    assert err == "parse error: identity ft needs a nonempty plane tree\n"


# ---------------------------------------------------------------------------
# config values of the wrong JSON type
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1]", "the file must hold a JSON object, got [1]"),
        ('{"unsafe_large": "false"}', 'unsafe_large must be true or false, got "false"'),
        ('{"max_degree": true}', "max_degree must be an integer, got true"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_parse_error(capsys, tmp_path, content, message):
    config = tmp_path / "config.json"
    config.write_text(content)
    code, err = _run_rejected(
        capsys, "--config", str(config), "enumerate", "binary-trees", "--n", "2"
    )
    assert code == 2
    assert err == f"parse error: bad configuration: {message}\n"


@pytest.mark.parametrize("source", ["environment", "config file"])
def test_a_negative_max_degree_is_a_parse_error(capsys, monkeypatch, tmp_path, source):
    argv = ["hook", "(_,_)", "--oracle"]
    if source == "environment":
        monkeypatch.setenv("TREECALC_MAX_DEGREE", "-1")
    else:
        config = tmp_path / "config.json"
        config.write_text('{"max_degree": -1}')
        argv = ["--config", str(config), *argv]
    code, err = _run_rejected(capsys, *argv)
    assert code == 2
    assert err == "parse error: bad configuration: max_degree must be >= 0, got -1\n"


def test_an_enumerator_guard_names_the_cli_flag(capsys):
    code, err = _run_rejected(capsys, "enumerate", "packed-words", "--n", "10")
    assert code == 3
    assert err == (
        "size guard: packed_words(10) exceeds the guard 9; pass --unsafe-large to force\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("enumerate", "permutations", "--n", "13"),
            "permutations(13) exceeds the guard 12; pass --unsafe-large to force",
        ),
        (
            ("expand", "duliu", "--m", "2", "--order", "10"),
            "mary_trees(m=2)(10) exceeds the guard 9; pass --unsafe-large to force",
        ),
        (
            ("enumerate", "mary-trees", "--m", "900", "--n", "3", "--count-only"),
            "mary_trees(m=900, n=3) child slots(1096743151) exceeds the guard 13449040; "
            "pass --unsafe-large to force",
        ),
        (
            ("hook", _left_comb(8), "--oracle"),
            "oracle over S_8 exceeds max degree 7; pass --unsafe-large to force",
        ),
    ],
    ids=["permutations", "m-ary nodes", "m-ary child slots", "hook oracle"],
)
def test_each_guard_prints_its_refusal_in_full(capsys, argv, message):
    code, err = _run_rejected(capsys, *argv)
    assert code == 3
    assert err == f"size guard: {message}\n"


# ---------------------------------------------------------------------------
# one exit code for each subcommand and each kind of bad input
# ---------------------------------------------------------------------------

# (argv, environment, config-file content, exit code); 2 is a parse error,
# the argument parser's included, and 3 a size guard.
EXIT_CODES = [
    (("hook", "_"), {}, None, 2),
    (("hook", "((_,)"), {}, None, 2),
    (("hook", "(_,_)", "--q", "maj"), {}, None, 2),
    (("hook", _left_comb(61), "--q", "imaj"), {}, None, 3),
    (("hook", _left_comb(8), "--oracle"), {}, None, 3),
    (("identity", "postnikov"), {}, None, 2),
    (("identity", "postnikov", "--n", "0"), {}, None, 2),
    (("identity", "duliu"), {}, None, 2),
    (("identity", "ft"), {}, None, 2),
    (("identity", "ft", "--tree", "(*"), {}, None, 2),
    (("identity", "duliu", "--variant", "las1", "--m", "2", "--n", "3"), {}, None, 2),
    (("identity", "eisenstein", "--order", "15"), {}, None, 3),
    (("identity", "duliu", "--variant", "las3", "--m", "4", "--n", "7"), {}, None, 3),
    (("identity", "eisenstein"), {"TREECALC_ORDER": "abc"}, None, 2),
    (("expand", "inverse-linear"), {}, "[1]", 2),
    (("expand", "postnikov", "--order", "-1"), {}, None, 2),
    (("expand", "postnikov", "--order", "15"), {}, None, 3),
    (("expand", "duliu", "--m", "2", "--order", "10"), {}, None, 3),
    (("expand", "plane-q", "--order", "10"), {}, None, 3),
    (("enumerate", "binary-trees"), {}, None, 2),
    (("enumerate", "mary-trees", "--m", "0", "--n", "2"), {}, None, 2),
    (("enumerate", "packed-words", "--n", "10"), {}, None, 3),
    (("enumerate", "plane-trees", "--n", "10"), {}, None, 3),
    (("enumerate", "mary-trees", "--m", "900", "--n", "3", "--count-only"), {}, None, 3),
    (("expand", "duliu", "--m", "300", "--order", "3"), {}, None, 3),
    (("hook", "(_,_)", "--oracle"), {"TREECALC_MAX_DEGREE": "-1"}, None, 2),
    (("hook", "(_,_)", "--dump"), {}, '{"max_degree": -1}', 2),
]


@pytest.mark.parametrize(
    "argv, env, config, expected", EXIT_CODES, ids=[" ".join(row[0])[:60] for row in EXIT_CODES]
)
def test_exit_code_table(capsys, monkeypatch, tmp_path, argv, env, config, expected):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = ("--config", str(path), *argv)
    shapes = combinat._shapes.cache_info().currsize
    try:
        code = main(list(argv))
    except SystemExit as exc:  # the argument parser's own errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert "Traceback" not in captured.err
    prefixes = ("parse error: ", "usage: ") if expected == 2 else ("size guard: ",)
    assert captured.err.startswith(prefixes)
    assert combinat._shapes.cache_info().currsize == shapes  # refused before any shape


@pytest.mark.parametrize("family, n", [("binary-trees", "15"), ("permutations", "13")])
def test_a_json_enumerate_guard_prints_nothing(capsys, family, n):
    code, out = run(capsys, "--format", "json", "enumerate", family, "--n", n)
    assert (code, out) == (3, "")


@pytest.mark.parametrize(
    "argv, printed",
    [
        (("enumerate", "mary-trees", "--m", "2000", "--n", "1", "--count-only"), "1"),
        (("expand", "duliu", "--m", "2000", "--order", "1"), "1 + (α)*t^1 + O(t^2)"),
    ],
    ids=["enumerate", "expand"],
)
def test_a_large_arity_meets_no_recursion_limit(capsys, argv, printed):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == printed + "\n"


# ---------------------------------------------------------------------------
# the choice tables: help texts and argument errors, byte for byte
# ---------------------------------------------------------------------------

# SHA-256 of the --help text (stdout, exit 0) or of the argument error
# (stderr, exit 2) at COLUMNS=80, recorded before the choice lists became
# one table per subcommand.
PARSER_GOLDEN = {
    ("--help",): "d18327afe673f3d1bd2ca080b950b1ad6b0f3377739886eefe1362f81b970ec9",
    ("hook", "--help"): "23b1148dd9e0a2d6450b45dbf7f12e557d9da0b60420f5f05b8836048ce14726",
    ("identity", "--help"): "9a37a9ddefd5aa5884b83772bd0d94d386d25037f6925a1ab043730138b44101",
    ("expand", "--help"): "c54e892b516dce479aca94fca60db71a804897dfc32bdbf184afbf946ae49657",
    ("enumerate", "--help"): "9336568eb433b7d3b807b9feb1a7be7ae3c4f8c23a66436064e06be386a9822a",
    ("identity", "plane-q"): "fe1cf6f37d12c7ae53071c5bdabf47bf212f5e9333bfa0a46ba1d783c2a18e08",
    ("expand", "bogus"): "3f044f52d852d5c53e015f35e3ac7a563df47b070a833a02e9c1cc5816d2d6a0",
    ("enumerate", "trees"): "c2765748383550022985482806ffee6849235609482ecae261ea2168af5a5e36",
    ("hook", "(_,_)", "--q", "maj"):
        "afe677180709b77c6f9b63271222ce7cd7b250e5e9c652c462d1f3fbb9048663",
}


@pytest.mark.parametrize("argv", list(PARSER_GOLDEN), ids=" ".join)
def test_parser_output_is_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    help_asked = argv[-1] == "--help"
    assert exit_info.value.code == (0 if help_asked else 2)
    assert (captured.err if help_asked else captured.out) == ""
    printed = captured.out if help_asked else captured.err
    assert hashlib.sha256(printed.encode()).hexdigest() == PARSER_GOLDEN[argv]


def test_cli_import_stays_light():
    # dataclasses brings inspect, ast, dis and tokenize with it, about 10 ms
    # of every start; the CLI needs none of them
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import treecalc.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    source = os.path.dirname(os.path.dirname(treecalc.__file__))
    env = {**os.environ, "PYTHONPATH": source}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ("--format", "json", "expand", "postnikov", "--order", "9", "--per-tree"),
    ("enumerate", "permutations", "--n", "8"),
], ids=" ".join)
def test_a_reader_that_closes_early_ends_the_command_quietly(argv):
    # like `| head -1`: each command writes far more than a pipe holds, so it
    # meets the closed pipe; exit 1 would claim a failed identity
    source = os.path.dirname(os.path.dirname(treecalc.__file__))
    env = {**os.environ, "PYTHONPATH": source}
    child = subprocess.Popen(
        [sys.executable, "-m", "treecalc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err, bool(first)) == (141, b"", True)


class _ClosedPipe:
    """A stdout whose reader has gone: its first write raises."""

    def __init__(self, handle):
        self.fileno = handle.fileno  # main points it at the null device then

    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("fmt", cli.OUTPUT_FORMATS)
def test_per_tree_rows_stream_in_every_format(monkeypatch, tmp_path, fmt):
    # a row is written as soon as it is built, so a closed reader stops the
    # walk at its first size at the latest; trees(9) first is the guard call
    from treecalc import series

    asked = []
    real = series.binary_trees
    monkeypatch.setattr(series, "binary_trees", lambda n, **kw: asked.append(n) or real(n, **kw))
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle))
        code = main(["--format", fmt, "expand", "postnikov", "--order", "9", "--per-tree"])
    assert code == 141
    assert asked[0] == 9 and asked[1:] in ([], [0])


def test_identity_per_tree_text_prints_the_json_rows(capsys):
    code, text = run(capsys, "identity", "postnikov", "--n", "4", "--per-tree")
    assert code == 0
    code, out = run(capsys, "--format", "json", "identity", "postnikov", "--n", "4", "--per-tree")
    rows = json.loads(out)["per_tree"]
    assert text.splitlines()[:3] == ["identity=postnikov equal=true", "lhs=125", "rhs=125"]
    assert text.splitlines()[3:] == [f"{row['tree']}: {row['coefficient']}" for row in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ("eisenstein", "--order", "3"),
        ("duliu", "--n", "3"),
        ("lagrange", "--m", "2", "--order", "3"),
        ("ft", "--tree", "(**)"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("fmt", cli.OUTPUT_FORMATS)
def test_identity_per_tree_without_rows_is_a_parse_error(capsys, argv, fmt):
    code, err = _run_rejected(capsys, "--format", fmt, "identity", *argv, "--per-tree")
    assert code == 2
    assert err == f"parse error: identity {argv[0]} has no per-tree rows\n"


def test_identity_per_tree_rows_stream_in_text(monkeypatch, tmp_path):
    # the check walks the shapes of sizes 1..9 for its sum; the rows walk
    # sizes 0..8 only as they are printed, so a closed reader stops them first
    asked = []
    real = identities.binary_trees
    spy = lambda n, **kw: asked.append(n) or real(n, **kw)
    monkeypatch.setattr(identities, "binary_trees", spy)
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle))
        code = main(["identity", "postnikov", "--n", "9", "--per-tree"])
    assert code == 141
    assert asked == list(range(1, 10))
