"""Command line behavior: exit codes and output shapes."""

import os
import subprocess
import sys

import pytest

from fr1tass import oracle
from fr1tass.cli import main
from fr1tass.gallery import balance_ab_et, center_language, power_of_two
from fr1tass.model import parse_machine, serialize_machine
from fr1tass.pcp import PcpInstance, pcp_machine

from common import all_a, pure_loop

DFA_TEXT = ("alphabet: a b\n"
            "start:    e\n"
            "accept:   e\n"
            "trans: e a -> o\n"
            "trans: e b -> o\n"
            "trans: o a -> e\n"
            "trans: o b -> e\n")

PCP_TEXT = "alphabet: a b\nu: a\nu: a b\nv: a a\nv: b\n"

NONFREEZING_TEXT = ("input:  a\n"
                    "tape:   a A\n"
                    "start:  1\n"
                    "accept: 2\n"
                    "mode:   AS\n"
                    "trans:  1 a -> 2 A\n")


@pytest.fixture
def power_file(tmp_path):
    path = tmp_path / "power.fts"
    path.write_text(serialize_machine(power_of_two()))
    return str(path)


@pytest.fixture
def balance_file(tmp_path):
    path = tmp_path / "balance.fts"
    path.write_text(serialize_machine(balance_ab_et()))
    return str(path)


@pytest.fixture
def all_a_file(tmp_path):
    path = tmp_path / "all_a.fts"
    path.write_text(serialize_machine(all_a()))
    return str(path)


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- validate

def test_validate_ok(power_file, capsys):
    assert main(["validate", power_file]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_violations(tmp_path, capsys):
    path = put(tmp_path, "bad.fts", NONFREEZING_TEXT)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "NonFreezing" in out


def test_validate_syntax_error(tmp_path, capsys):
    path = put(tmp_path, "broken.fts", "input: a\nstart: s\n")
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line" in err


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/machine.fts"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------- run

def test_run_accepted(power_file, capsys):
    assert main(["run", power_file, "--chars", "aaaa"]) == 0
    out = capsys.readouterr().out
    assert out == "verdict=Accepted steps=8 sweeps=4 state=5\n"


def test_run_rejected(power_file, capsys):
    assert main(["run", power_file, "--word", "a a a"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("verdict=RejectedStuck ")


def test_run_trace(power_file, capsys):
    assert main(["run", power_file, "--chars", "aaaa", "--trace"]) == 0
    assert capsys.readouterr().out == (
        "sweep 1 state=1 len=4 case=- tape=a a a a\n"
        "sweep 2 state=3 len=2 case=Shrunk tape=A a\n"
        "sweep 3 state=3 len=1 case=Shrunk tape=A\n"
        "sweep 4 state=2 len=1 case=Unchanged tape=A\n"
        "verdict=Accepted steps=8 sweeps=4 state=5\n")


def test_run_empty_word(balance_file, capsys):
    assert main(["run", balance_file]) == 0
    assert "verdict=Accepted" in capsys.readouterr().out


def test_run_step_budget(tmp_path, capsys):
    path = put(tmp_path, "loop.fts", serialize_machine(pure_loop()))
    assert main(["run", path, "--chars", "aaa"]) == 1
    assert "verdict=RejectedLoop" in capsys.readouterr().out
    assert main(["run", path, "--chars", "aaa", "--max-steps", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("word", [[], ["--chars", "aaa"]], ids=["empty", "aaa"])
def test_run_refuses_negative_step_limit(tmp_path, capsys, word):
    path = put(tmp_path, "loop.fts", serialize_machine(pure_loop()))
    assert main(["run", path, *word, "--max-steps", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_steps must be at least 0\n"


def test_run_rejects_foreign_letters(power_file, capsys):
    assert main(["run", power_file, "--chars", "ab"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -------------------------------------------------------- enumerate / equal

def test_enumerate_output(balance_file, capsys):
    assert main(["enumerate", balance_file, "--max-len", "2"]) == 0
    assert capsys.readouterr().out == "\na\na b\nb a\n"


def test_enumerate_deep_prefix_tree(power_file, capsys):
    assert main(["enumerate", power_file, "--max-len", "1200"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == " ".join("a" * 1024)


def test_runtime_errors_exit_two(power_file, monkeypatch, capsys):
    def fail(m, max_len):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(oracle, "_accepted_layers", fail)
    assert main(["enumerate", power_file, "--max-len", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: maximum recursion depth exceeded\n")


def test_enumerate_writes_each_length_when_the_walk_has_it(
        power_file, monkeypatch, capsys):
    """A length's words are out before the walk goes on, so a walk that
    fails later still leaves them on stdout."""
    def one_length(m, max_len):
        yield [("a",)]
        raise RuntimeError("walk cut short")

    monkeypatch.setattr(oracle, "_accepted_layers", one_length)
    assert main(["enumerate", power_file, "--max-len", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "a\n"
    assert err == "error: walk cut short\n"


def ranked_text(low: str, high: str) -> str:
    """Words with the letter high, over two letters that the tape ranks
    low before high."""
    return (f"input: {high} {low}\n"
            f"tape:  {low} {high}\n"
            "start: p\n"
            "accept: q\n"
            "mode:  AS\n"
            f"trans: p {high} -> q {low}\n"
            f"trans: p {low} -> p {low}\n"
            f"trans: q {high} -> q {high}\n"
            f"trans: q {low} -> p -\n")


@pytest.mark.parametrize("low", ["b", "ab"])
def test_enumerate_sorts_by_tape_rank(tmp_path, capsys, low):
    """The tape ranks low before a, against their string order, so
    enumerate sorts by each word's ranks, not by its line."""
    text = ranked_text(low, "a")
    m = parse_machine(text)
    words = sorted(oracle.enumerate_accepted(m, 4),
                   key=lambda w: (len(w), *map(m.tape.rank, w)))
    assert len(words) == 26 and words[1] == (low, "a")
    assert main(["enumerate", put(tmp_path, "m.fts", text),
                 "--max-len", "4"]) == 0
    assert capsys.readouterr().out == "".join(" ".join(w) + "\n"
                                              for w in words)


def test_enumerate_requires_bound(balance_file, capsys):
    with pytest.raises(SystemExit):
        main(["enumerate", balance_file])


def test_equal_machines(power_file, capsys):
    assert main(["equal", power_file, power_file, "--max-len", "8"]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_equal_counterexample(power_file, all_a_file, capsys):
    assert main(["equal", power_file, all_a_file, "--max-len", "8"]) == 1
    assert capsys.readouterr().out == ("counterexample: a a a\n"
                                       "in first: False\n"
                                       "in second: True\n")


def test_equal_empty_word_counterexample(tmp_path, balance_file, capsys):
    flagged = parse_machine(serialize_machine(power_of_two()))
    path = put(tmp_path, "p2.fts",
               serialize_machine(flagged).replace("mode:   AS\n",
                                                  "mode:   AS\nempty:  true\n"))
    assert main(["equal", path, path.replace("p2", "p3"), "--max-len", "3"]) == 2
    capsys.readouterr()
    other = put(tmp_path, "plain.fts", serialize_machine(power_of_two()))
    assert main(["equal", path, other, "--max-len", "3"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "counterexample: (empty word)"


# ------------------------------------------------------------ classify-unary

def test_classify_unary(all_a_file, capsys):
    assert main(["classify-unary", all_a_file]) == 0
    assert capsys.readouterr().out == "AS_Threshold 1\n"


def test_classify_unary_precondition(power_file, capsys):
    assert main(["classify-unary", power_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- transform

def test_transform_unary_to_stdout(power_file, capsys):
    assert main(["transform", "remove-erasing", power_file]) == 0
    m = parse_machine(capsys.readouterr().out)
    assert not m.has_erasing()
    assert m.tape.letters[0] == "BOX"


def test_transform_binary_to_file(tmp_path, power_file, all_a_file, capsys):
    out = str(tmp_path / "meet.fts")
    assert main(["transform", "intersect", power_file, all_a_file,
                 "-o", out]) == 0
    m = parse_machine(open(out).read())
    assert len(m.states) == 6


def test_transform_sequential_ops(power_file, all_a_file, capsys):
    assert main(["transform", "intersect-seq", power_file, all_a_file]) == 0
    assert main(["transform", "union-seq", power_file, all_a_file]) == 0
    capsys.readouterr()


def test_transform_mode_bridges(power_file, balance_file, capsys):
    assert main(["transform", "as2et", power_file]) == 0
    assert parse_machine(capsys.readouterr().out).mode.value == "ET"
    assert main(["transform", "et2as", balance_file]) == 0
    assert parse_machine(capsys.readouterr().out).mode.value == "AS"


def test_transform_complement_needs_erasure_free_input(power_file, capsys):
    assert main(["transform", "complement", power_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_transform_arity_errors(power_file, all_a_file, capsys):
    assert main(["transform", "union", power_file]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["transform", "as2et", power_file, all_a_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_transform_from_dfa(tmp_path, capsys):
    path = put(tmp_path, "parity.dfa", DFA_TEXT)
    assert main(["transform", "from-dfa", path]) == 0
    m = parse_machine(capsys.readouterr().out)
    assert m.accepts_empty


# ------------------------------------------------------------------- gallery

def test_gallery_list(capsys):
    assert main(["gallery", "list"]) == 0
    assert capsys.readouterr().out == ("power_of_two\nmarked_copy\n"
                                       "center_language\nbalance_ab_et\n")


def test_gallery_emit(capsys):
    assert main(["gallery", "emit", "power_of_two"]) == 0
    assert capsys.readouterr().out == serialize_machine(power_of_two())


def test_gallery_unknown_name(capsys):
    assert main(["gallery", "emit", "no_such_machine"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------------- pcp

def test_pcp_build(tmp_path, capsys):
    path = put(tmp_path, "inst.pcp", PCP_TEXT)
    assert main(["pcp", "build", path]) == 0
    m = parse_machine(capsys.readouterr().out)
    instance = PcpInstance(u_words=("a", "ab"), v_words=("aa", "b"),
                           base_alphabet=("a", "b"))
    assert m == pcp_machine(instance)


def test_pcp_encode(tmp_path, capsys):
    path = put(tmp_path, "inst.pcp", PCP_TEXT)
    assert main(["pcp", "encode", path, "--indices", "1,2"]) == 0
    assert capsys.readouterr().out == "# 1~ 2~ # a~ a~ b~ # a~ a~ b~\n"
    assert main(["pcp", "encode", path, "--indices", "1 2"]) == 0
    capsys.readouterr()


def test_pcp_encode_bad_indices(tmp_path, capsys):
    path = put(tmp_path, "inst.pcp", PCP_TEXT)
    assert main(["pcp", "encode", path, "--indices", "1,x"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["pcp", "encode", path, "--indices", "9"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------------- dot

def test_dot_output(power_file, tmp_path, capsys):
    assert main(["dot", power_file]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    out = str(tmp_path / "power.dot")
    assert main(["dot", power_file, "-o", out]) == 0
    assert open(out).read().startswith("digraph")


# -------------------------------------------------------------- entry point

def _child_env() -> dict:
    """The environment of a child that finds the package where this
    process found it."""
    package_root = os.path.dirname(os.path.dirname(oracle.__file__))
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fr1tass.cli",
                           "gallery", "list"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "power_of_two"


def test_enumerate_stops_quietly_when_the_reader_closes_the_pipe(tmp_path):
    """As under head -n 1: a walk to length 40 is far from done when the
    reader stops, and the next length written meets a closed pipe."""
    path = put(tmp_path, "center.fts", serialize_machine(center_language()))
    with subprocess.Popen([sys.executable, "-m", "fr1tass.cli", "enumerate",
                           path, "--max-len", "40"], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        assert proc.stdout.readline() == "a\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == ""


def test_main_keeps_no_state_between_calls(tmp_path, power_file, capfd):
    """One process's parser serves every call: each call's output and exit
    code are those of a fresh process."""
    center = put(tmp_path, "center.fts", serialize_machine(center_language()))
    calls = [["run", power_file, "--chars", "aaaa", "--trace"],
             ["run", power_file, "--chars", "aaaa"],
             ["enumerate", power_file, "--max-len", "9"],
             ["enumerate", center, "--max-len", "5"],
             ["equal", power_file, center, "--max-len", "3"]]
    for argv in calls:
        code = main(argv)
        out, err = capfd.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "fr1tass.cli", *argv],
                               capture_output=True, text=True,
                               env=_child_env())
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
        assert out.startswith("sweep ") == ("--trace" in argv)
