"""Command line behavior: output shapes, exit codes, budgets, determinism."""

import json
from dataclasses import replace
import subprocess
import sys

import pytest

import gbdepth.cli as cli
import gbdepth.family as family
from gbdepth.cli import main
from gbdepth.errors import InternalInvariantError
from gbdepth.rings import MonomialIdeal

IDEAL_FILE = "ideals/d1.ideal"
LATTICE_FILE = "ideals/grid2x2.lattice"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1, "structured output must be a single line"
    return code, json.loads(lines[0]), lines[0]


def test_gb_table_output(capsys):
    code, out, err = run(capsys, "gb", "--d", "1", "--r", "1")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "order: weight:1,2,2;tie=lex",
        "size: 3",
        "x3^2 - x1*x2",
        "x2*x3 - x1^2",
        "x2^2 - x1*x3",
    ]


def test_gb_structured_deterministic(capsys):
    code, payload, raw1 = run_json(capsys, "gb", "--d", "1")
    assert code == 0
    assert payload["command"] == "gb"
    assert payload["gb_size"] == 4
    assert payload["n"] == 3
    assert payload["elements"][0] == "x1*x3 - x2^2"
    _, _, raw2 = run_json(capsys, "gb", "--d", "1")
    assert raw1 == raw2


def test_initial_from_file_and_family(capsys):
    code, out, _ = run(capsys, "initial", "--d", "1")
    assert code == 0
    assert out.splitlines() == [
        "order: weight:1,1,1;tie=lex",
        "generators: 4",
        "x1*x3",
        "x1*x2",
        "x1^2",
        "x2^3",
    ]
    # the same ideal from a file, explicit order
    code2, out2, _ = run(capsys, "initial", "--ideal", IDEAL_FILE,
                         "--order", "weight:1,1,1;tie=lex")
    assert code2 == 0
    assert out2 == out


def test_invariants_of_monomial_ideal(capsys):
    code, out, _ = run(capsys, "invariants",
                       "--monomial", "x1^2, x1*x2, x1*x3, x2^3", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert "dim: 1" in lines
    assert "depth: 0" in lines
    assert "pd: 3" in lines
    assert "reg: 2" in lines
    assert "cohen_macaulay: no" in lines
    assert "hilbert_numerator: 1 - 3*t^2 + 2*t^3" in lines
    assert any(line.strip().startswith("total:") for line in lines)


def test_invariants_via_groebner_route(capsys):
    code, payload, _ = run_json(capsys, "invariants", "--ideal", IDEAL_FILE,
                                "--order", "weight:1,2,2;tie=lex")
    assert code == 0
    assert payload["dim"] == 1 and payload["depth"] == 1
    assert payload["reg"] == 1 and payload["cohen_macaulay"] is True
    assert payload["hilbert_numerator"] == [1, 0, -3, 2]
    assert [row[0] for row in payload["betti"]] == [0, 1, 1, 1, 2, 2]


def test_invariants_monomial_needs_n(capsys):
    code, _, err = run(capsys, "invariants", "--monomial", "x1^2")
    assert code == 2
    assert "error:" in err


def test_verify_full_range_table(capsys):
    code, out, _ = run(capsys, "verify", "--d", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=1 paper_literal=no"
    assert lines[1].startswith("r=0: depth=0 dim=1 reg=2 gb_size=4 pass")
    assert lines[2].startswith("r=1: depth=1 dim=1 reg=1 gb_size=3 pass")
    assert "reg_original: 1 (expected 1; CM certificate ok)" in lines
    assert "notes:" in lines
    assert lines[-1] == "PASS"


def test_verify_single_level(capsys):
    code, out, _ = run(capsys, "verify", "--d", "1", "--r", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("r=0:")
    assert lines[-1] == "PASS"
    assert "notes:" not in out


def test_verify_structured_schema(capsys):
    code, payload, _ = run_json(capsys, "verify", "--d", "2")
    assert code == 0
    assert payload["pass"] is True
    assert payload["d"] == 2
    assert payload["reg_original"] == 2
    assert payload["cm_certificate_ok"] is True
    assert len(payload["reports"]) == 3
    for r, rep in enumerate(payload["reports"]):
        for key in ("r", "depth", "reg", "dim", "pass", "gb_size", "order",
                    "initial", "hilbert_numerator"):
            assert key in rep
        assert rep["r"] == r and rep["depth"] == r
        assert rep["reg"] == 4 - r
        assert rep["dim"] == 2
        assert rep["pass"] is True
        assert rep["direct_agrees"] is True


def test_verify_paper_literal_refuted(capsys):
    code, out, _ = run(capsys, "verify", "--d", "2", "--paper-literal")
    assert code == 1
    assert "claimed-set-REFUTED" in out
    assert "failure membership: claimed element x2*x3 - x3^2 is not in the ideal" in out
    assert out.splitlines()[-1] == "FAIL"


def test_verify_needs_d(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "need" in err


def test_explore_deterministic_output(capsys):
    code, payload, raw1 = run_json(capsys, "explore", "--d", "1",
                                   "--samples", "20")
    assert code == 0
    assert payload["depth_values"] == [0, 1]
    assert payload["records"][0]["weights"] == [4, 4, 1]
    assert payload["samples"] == 20
    _, _, raw2 = run_json(capsys, "explore", "--d", "1", "--samples", "20")
    assert raw1 == raw2


def test_explore_inline_ideal(capsys):
    code, out, _ = run(capsys, "explore", "--ideal",
                       "x1^2 - x2*x3; x1*x2 - x3^2; x1*x3 - x2^2",
                       "--n", "3", "--samples", "5")
    assert code == 0
    assert "depth_values:" in out


def test_hibi_from_file(capsys):
    code, out, _ = run(capsys, "hibi", "--ideal", LATTICE_FILE)
    assert code == 0
    lines = out.splitlines()
    assert "lattice elements: 4" in lines
    assert "incomparable pairs: 1" in lines
    assert "legend: x1=bot x2=a x3=b x4=top" in lines
    assert "gb_size: 1" in lines
    assert "dim: 3  depth: 3  reg: 1  cohen_macaulay: yes" in lines
    assert lines[-1] == "max_depth_reaches_dim: yes"


def test_hibi_inline_and_no_samples(capsys):
    text = "elements: bot a b top;bot < a;bot < b;a < top;b < top"
    code, payload, _ = run_json(capsys, "hibi", "--ideal", text,
                                "--samples", "0")
    assert code == 0
    assert payload["incomparable_pairs"] == 1
    assert payload["cohen_macaulay"] is True
    assert "samples" not in payload
    assert "max_depth_reaches_dim" not in payload


def test_hibi_divisor_file(capsys):
    code, payload, _ = run_json(capsys, "hibi", "--ideal",
                                "ideals/divisors12.lattice", "--samples", "10")
    assert code == 0
    assert payload["n"] == 6
    assert payload["incomparable_pairs"] == 3
    assert payload["max_depth_reaches_dim"] is True


def test_budget_flag_exit_code(capsys):
    code, _, err = run(capsys, "gb", "--d", "2", "--budget-pairs", "2")
    assert code == 3
    assert "pairs budget of 2 exceeded" in err


def test_budget_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("GBDEPTH_BUDGET_PAIRS", "2")
    code, _, err = run(capsys, "gb", "--d", "2")
    assert code == 3 and "budget of 2" in err
    # an explicit flag beats the environment
    code2, _, err2 = run(capsys, "gb", "--d", "2", "--budget-pairs", "100000")
    assert code2 == 0
    monkeypatch.setenv("GBDEPTH_BUDGET_PAIRS", "not-a-number")
    code3, _, err3 = run(capsys, "gb", "--d", "1")
    assert code3 == 2 and "must be an integer" in err3


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "gb", "--ideal", "x1^", "--n", "3")
    assert code == 2
    assert "error: line 1, col" in err


def test_order_error_exit_code(capsys):
    code, _, err = run(capsys, "gb", "--d", "1", "--order", "weight:0,1,1;tie=lex")
    assert code == 2
    assert "would not be a well-order" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "gb", "--ideal", "./definitely-missing.ideal")
    assert code == 2
    assert "ideal file not found" in err


def test_missing_lattice_file_exit_code(capsys):
    code, out, err = run(capsys, "hibi", "--ideal", "nosuch.lattice")
    assert code == 2 and out == ""
    assert err == "error: lattice file not found: nosuch.lattice\n"


def test_internal_invariant_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise InternalInvariantError("forced for the test")
    monkeypatch.setattr(cli, "invariant_report", boom)
    code, _, err = run(capsys, "invariants", "--monomial", "x1^2", "--n", "2")
    assert code == 4
    assert "internal invariant violation" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def deep(*a, **k):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "invariant_report", deep)
    code, out, err = run(capsys, "invariants", "--monomial", "x1^2", "--n", "2")
    assert code == 4 and out == ""
    assert err == "internal error: RecursionError('maximum recursion depth exceeded')\n"


def _bend_one_report(monkeypatch, field, value):
    # the second report explore_orders asks for gets a wrong field
    real = family.invariant_report
    calls = []

    def bent(J, **kwargs):
        rep = real(J, **kwargs)
        calls.append(J)
        return replace(rep, **{field: value}) if len(calls) == 2 else rep
    monkeypatch.setattr(family, "invariant_report", bent)


def test_explore_numerator_mismatch_exits_4(capsys, monkeypatch):
    _bend_one_report(monkeypatch, "hilbert_numerator", (1, -3, 2))
    code, out, err = run(capsys, "explore", "--d", "1", "--samples", "20")
    assert code == 4 and out == ""
    assert err.startswith("internal invariant violation: initial ideals ")


def test_hibi_squarefree_depth_mismatch_exits_4(capsys, monkeypatch):
    # every initial ideal sampled here is squarefree
    _bend_one_report(monkeypatch, "depth", 0)
    code, out, err = run(capsys, "hibi", "--ideal", "ideals/divisors12.lattice",
                         "--samples", "50")
    assert code == 4 and out == ""
    assert "squarefree initial ideals" in err


def test_explore_inhomogeneous_skips_graded_checks(capsys):
    # (x1) and (x2*x3) are both initial ideals, with regularity 0 and 1
    code, out, _ = run(capsys, "explore", "--ideal", "x1 - x2*x3", "--n", "3",
                       "--samples", "30")
    assert code == 0
    assert "reg=0" in out and "reg=1" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["totally-bogus"])
    assert e.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gbdepth.cli", "verify", "--d", "1",
         "--format", "structured"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True


def test_invariants_squarefree_monomial_skips_face_loop(capsys, monkeypatch):
    """x1*...*x20 has one complex, whose only face is empty: no membership
    test over the 2^20 subsets of its support."""
    def refuse(self, m):
        raise AssertionError("contains_mono called")
    monkeypatch.setattr(MonomialIdeal, "contains_mono", refuse)
    mono = "*".join(f"x{i}" for i in range(1, 21))
    code, payload, _ = run_json(capsys, "invariants", "--monomial", mono,
                                "--n", "20", "--budget-lattice", "10")
    assert code == 0
    assert (payload["pd"], payload["reg"]) == (1, 19)
