import hashlib
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
    code, obj = run_json(capsys, ["snf", "-d", "10,15,20"])
    assert code == 0
    assert obj["structured_det"] == "1"
    assert obj["structured_is_transform"] is True
    code, obj = run_json(capsys, ["snf", "-d", "12,9,15"])
    assert obj["structured_det"] == "4"
    assert obj["structured_is_transform"] is False


def test_snf_block_matches_report(capsys):
    # snf always prints the structured block, the same one report prints
    code, snf = run_json(capsys, ["snf", "-d", "10,15,20"])
    assert code == 0 and snf.pop("d") == [10, 15, 20]
    code, report = run_json(capsys, ["report", "-n", "12", "-d", "10,15,20,3"])
    assert code == 0 and snf == report["snf"]


def test_snf_rejects_n(capsys):
    assert run(["snf", "-d", "10,15,20", "-n", "5"]) == 64
    out, err = capture(capsys)
    assert out == ""
    assert err.startswith("usage: kummercover")
    assert err.endswith("error: unrecognized arguments: -n 5\n")


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


# shared suffixes, an inverse, the identity and a word that is already a
# closed path once the earlier ones are in
WORDS_A = ("x1*x2*x1^-1\nx1^2*x2^-1*x1^-2\nx2^-1*x1^-1*x2\nx1*x2^-1*x1^-1\n"
           "x2^3\n1\nx1^-1*x2*x1*x2*x1^-1*x2^-1*x1\n")
WORDS_B = "x1^2\nx2*x1*x2^-1\nx1^-1*x2^2*x1\n"


def test_fold_and_intersect_golden(tmp_path, capsys):
    a, b, dot = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "g.dot"
    a.write_text(WORDS_A)
    b.write_text(WORDS_B)
    assert run(["fold", "--words", str(a), "--rank-hint", "2", "--rank",
                "--dot", str(dot)]) == 0
    assert capture(capsys)[0] == '{\n  "vertices": 8,\n  "edges": 12,\n  "rank": 5\n}\n'
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "3697237fe97d615af547a089d4112606dc3ddd3ad9c9c64486b959e8c5b2005e")
    assert run(["intersect", "--words", str(a), "--words2", str(b),
                "--rank-hint", "2", "--dot", str(dot)]) == 0
    assert json.loads(capture(capsys)[0]) == {
        "vertices": 17, "edges": 21, "rank": 5,
        "basis": [
            "x1*x2^2*x1^-1",
            "x1^2*x2*x1^-2*x2^-1*x1^2*x2*x1^2*x2^-1*x1^-2",
            "x1^2*x2*x1^-1*x2^-1*x1*x2^2*x1^-1*x2*x1*x2^-1*x1^-2",
            "x1^2*x2*x1^-1*x2^-1*x1^-1*x2^2*x1^-1*x2*x1^2*x2^-1*x1^-2",
            "x1^2*x2*x1^-2*x2^-1*x1*x2^4*x1*x2*x1*x2^-1*x1^-2",
        ]}
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "643f3b7ea390d7f7b65b450a167db6d85aabcec809ad2465df654987eaa8558f")


def test_fold_preset_product_golden(tmp_path, capsys):
    # intersection graphs of 31 504 and 331 152 letters, held as 48 arcs each;
    # the digests and counts are those of the graphs built letter by letter
    dot = tmp_path / "g.dot"
    assert run(["fold", "--preset", "product", "-n", "16", "-d", "881,835,253,15",
                "--rank", "--dot", str(dot)]) == 0
    out = capture(capsys)[0]
    assert json.loads(out) == {"vertices": 31472, "edges": 31504, "rank": 33}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0f2fab9757c60ad872e927cd76388ba3936d240e34be6ee910994bf0fe7f183e")
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "4724c9530f210244f12c1d0b56927b28c8f7918ee989f4641563afe2c92ba1d2")
    assert run(["fold", "--preset", "product", "-n", "16", "-d", "9811,8357,2529,7",
                "--rank"]) == 0
    assert capture(capsys)[0] == (
        '{\n  "vertices": 331120,\n  "edges": 331152,\n  "rank": 33\n}\n')


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


def test_report_golden(capsys):
    assert run(["report", "-n", "12", "-d", "10,15,20,3"]) == 0
    assert hashlib.sha256(capture(capsys)[0].encode()).hexdigest() == (
        "b016d4b4e7a339e9b976af6735ab5b65cd853cbea59478ce42e6c4ecd7788a62")


@pytest.mark.parametrize("argv, digest", [
    (["report"], "0887d7df747f159c78486008bb1c5a4755cff47c3f100b5f8fc50f3858f595f0"),
    (["gens", "--format", "text"],
     "e6cb9d386dffd898201a5d0de143ae85fdfba26cae2208baa3da456b8e9bde7a"),
])
def test_golden_at_n_240(capsys, argv, digest):
    # 3.5 * 10^5 kernel-generator letters, 1.2 MB of stdout
    assert run([*argv, "-n", "240", "-d", "7,11,13,929"]) == 0
    assert hashlib.sha256(capture(capsys)[0].encode()).hexdigest() == digest


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


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(args, *flags):
    """The CLI in a new interpreter, with the package from this checkout."""
    return subprocess.run([sys.executable, *flags, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=60)


@pytest.mark.parametrize("module", ["kummercover", "kummercover.cli"])
def test_python_dash_m(module):
    proc = run_fresh(["-m", module, "genus", "-n", "12", "-d", "10,15,20,3"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["genus"] == 7


def _assert_closed_stdout_exits_141(args):
    # the reader takes 100 bytes of a 1.2 MB output and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "kummercover", *args,
                             "-n", "240", "-d", "7,11,13,929"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": SRC})
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err.startswith("error: BrokenPipeError") and err.count("\n") == 1


def test_closed_stdout_exits_141_without_traceback():
    _assert_closed_stdout_exits_141(["report"])


def test_closed_stdout_of_gens_text_exits_141_without_traceback():
    # the text is printed one generator per line, not as one JSON document
    _assert_closed_stdout_exits_141(["gens", "--format", "text"])


def test_parser_reused_across_runs(capsys):
    # one process, one parser: each run must print what a fresh process does
    calls = [(["report", "-n", "12", "-d", "10,15,20,3"], 0),
             (["report", "-n", "12"], 64),
             (["report", "-n", "12", "-d", "10,15,20,20"], 1),
             (["genus", "-n", "12", "-d", "10,15,20,3"], 0),
             (["report", "-n", "12", "-d", "10,15,20,3"], 0)]
    for argv, code in calls:
        assert run(argv) == code
        out, err = capture(capsys)
        fresh = run_fresh(["-m", "kummercover", *argv])
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()


def test_coset_graph_disagreement_exits_2_under_dash_O():
    # one retargeted edge in the direct coset graph must fail the report
    script = """
import dataclasses, sys
from kummercover import cli, folding
real = folding.coset_graph
def planted(p):
    g = real(p)
    (u, lab, v), *rest = g.edges
    bad = (u, lab, (v + 1) % g.num_vertices)
    return dataclasses.replace(g, edges=(bad, *rest))
folding.coset_graph = planted
sys.exit(cli.run(["report", "-n", "12", "-d", "10,15,20,3"]))
"""
    proc = run_fresh(["-c", script], "-O")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "inconsistency: OracleDisagreement: folded kernel graph differs" in proc.stderr


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


def _readme_cli_examples():
    """The ``kummercover ...`` lines of README's ``## CLI`` code block that read
    no input file."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines()
             if line.startswith("kummercover ")]
    return [argv for argv in lines if not {"--words", "--words2", "--params"} & set(argv)]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 8
    monkeypatch.chdir(tmp_path)    # fold --dot writes into the working directory
    for argv in examples:
        code = run(argv)
        err = capture(capsys)[1]
        assert code == 0, (argv, err)
