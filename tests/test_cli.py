import json

from treecalc import identities
from treecalc.cli import main


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
    def fake_check(n):
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


def test_negative_configured_order_ignored_without_order(capsys, monkeypatch):
    monkeypatch.setenv("TREECALC_ORDER", "-1")
    code, out = run(capsys, "hook", "((_,_),_)")
    assert code == 0
    assert out.strip() == "1"
