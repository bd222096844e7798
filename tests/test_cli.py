import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kummercover import cli
from kummercover.cli import run
from kummercover.homology import OracleDisagreement


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def run_json(capsys, argv):
    code = run(argv)
    out, _ = capture(capsys)
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, obj = run_json(capsys, ["validate", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0
    assert obj == {"n": 12, "d": [10, 15, 20, 3], "valid": True}


def test_validate_degree_violation(capsys):
    code = run(["validate", "-n", "12", "-d", "10,15,20,20"])
    out, err = capture(capsys)
    assert code == 1
    assert "DegreeViolation" in err


def test_validate_params_file(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"n": 12, "d": [10, 15, 20, 3]}))
    code, obj = run_json(capsys, ["validate", "--params", str(f)])
    assert code == 0 and obj["valid"]


def test_genus(capsys):
    code, obj = run_json(capsys, ["genus", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0
    assert obj["genus"] == 7
    assert obj["branch_count"] == 12
    assert obj["open_rank"] == 25


def test_snf_example(capsys):
    code, obj = run_json(capsys, ["snf", "-d", "10,15,20"])
    assert code == 0
    assert obj["gcd"] == 5


def test_snf_structured(capsys):
    code, obj = run_json(capsys, ["snf", "-d", "10,15,20", "-n", "5"])
    assert code == 0
    assert obj["structured_det"] == "1"
    assert obj["structured_is_transform"] is True
    code, obj = run_json(capsys, ["snf", "-d", "12,9,15", "-n", "3"])
    assert obj["structured_det"] == "4"
    assert obj["structured_is_transform"] is False


def test_snf_output_does_not_depend_on_n(capsys):
    # -n only adds the structured block; its value is never read
    outs = []
    for n in ("5", "7"):
        assert run(["snf", "-d", "10,15,20", "-n", n]) == 0
        outs.append(capture(capsys)[0])
    assert outs[0] == outs[1]
    assert "structured_candidate" in json.loads(outs[0])


def test_gens_json(capsys):
    code, obj = run_json(capsys, ["gens", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0
    assert obj["mode"] == "modn"
    assert obj["count"] == 25
    assert len(obj["generators"]) == 25


def test_gens_integral_window(capsys):
    code, obj = run_json(capsys, ["gens", "-n", "12", "-d", "10,15,20,3",
                                  "--mode", "integral", "--window", "2"])
    assert code == 0
    assert obj["window"] == 2


def test_fold_preset_rank(capsys):
    code, obj = run_json(capsys, ["fold", "-n", "12", "-d", "10,15,20,3",
                                  "--preset", "rn", "--rank"])
    assert code == 0
    assert obj["rank"] == 25


def test_fold_words_and_dot(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("x1^2\nx2\n")
    dot = tmp_path / "out.dot"
    code, obj = run_json(capsys, ["fold", "--words", str(words),
                                  "--rank-hint", "2", "--rank",
                                  "--dot", str(dot)])
    assert code == 0 and obj["rank"] == 2
    assert dot.read_text().startswith("digraph stallings {")


def test_intersect(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x1^2\n")
    b.write_text("x1^3\n")
    code, obj = run_json(capsys, ["intersect", "--words", str(a),
                                  "--words2", str(b), "--rank-hint", "1"])
    assert code == 0
    assert obj["rank"] == 1
    assert obj["basis"] == ["x1^6"]


def test_homology(capsys):
    code, obj = run_json(capsys, ["homology", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0
    assert obj["genus"] == 7
    assert sum(obj["M"]) == 14
    assert obj["checks"] == {"sum_M_eq_2g": True, "hodge": True,
                             "rank_agrees": True}


def test_braid(capsys):
    code, obj = run_json(capsys, ["braid", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0
    assert [v["lifts"] for v in obj["verdicts"]] == [False, False]
    code, obj = run_json(capsys, ["braid", "-n", "5", "-d", "1,1,1,1,1",
                                  "--generator", "2"])
    assert obj["verdicts"] == [obj["verdicts"][0]]
    assert obj["verdicts"][0]["lifts"] is True


def test_report_aggregates(capsys):
    code, obj = run_json(capsys, ["report", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0
    assert obj["genus"] == 7
    assert obj["open_rank"] == 25
    assert obj["kernel_graph_rank"] == 25
    assert obj["generators"]["count"] == 25
    assert sum(obj["homology"]["M"]) == 14
    assert obj["snf"]["gcd"] == 5


def test_report_deterministic(capsys):
    argv = ["report", "-n", "6", "-d", "1,2,3,5,1"]
    assert run(argv) == 0
    first, _ = capture(capsys)
    run(argv)
    second, _ = capture(capsys)
    assert first == second


def test_usage_errors(capsys):
    assert run(["genus"]) == 64             # missing params
    capture(capsys)
    assert run(["nonsense"]) == 64          # unknown subcommand
    capture(capsys)
    assert run(["snf"]) == 64               # snf requires -d
    capture(capsys)


def test_removed_flags_are_usage_errors(capsys):
    assert run(["--seed", "1", "genus", "-n", "12", "-d", "10,15,20,3"]) == 64
    capture(capsys)
    assert run(["report", "-n", "12", "-d", "10,15,20,3", "--json"]) == 64
    capture(capsys)


@pytest.mark.parametrize("module", ["kummercover", "kummercover.cli"])
def test_python_dash_m(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", module, "genus", "-n", "12",
                           "-d", "10,15,20,3"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["genus"] == 7


def test_missing_file_is_input_error(capsys):
    assert run(["validate", "--params", "/nonexistent/p.json"]) == 1


@pytest.mark.parametrize("content", [
    {"d": [10, 15, 20, 3]},                    # missing n
    {"n": 12},                                 # missing d
    [12, [10, 15, 20, 3]],                     # top-level list
    {"n": 12, "d": [10, 15.5, 20, 3]},         # non-integer exponent
    {"n": "12", "d": [10, 15, 20, 3]},         # n as a string
    {"n": 12, "d": 10},                        # d not a list
])
def test_malformed_params_file_is_input_error(tmp_path, capsys, content):
    f = tmp_path / "params.json"
    f.write_text(json.dumps(content))
    assert run(["genus", "--params", str(f)]) == 1
    out, err = capture(capsys)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_n_without_d_prints_usage(capsys):
    assert run(["genus", "-n", "12"]) == 64
    _, err = capture(capsys)
    assert err.startswith("usage: kummercover genus")
    assert "-n and -d" in err


def test_exit_2_only_for_oracle_failures(monkeypatch, capsys):
    def disagree(p):
        raise OracleDisagreement("planted")

    monkeypatch.setattr(cli.cover, "genus", disagree)
    assert run(["genus", "-n", "12", "-d", "10,15,20,3"]) == 2
    assert "OracleDisagreement: planted" in capture(capsys)[1]

    def recurse(p):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.cover, "genus", recurse)
    with pytest.raises(RecursionError):
        run(["genus", "-n", "12", "-d", "10,15,20,3"])
