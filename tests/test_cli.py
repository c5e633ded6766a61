"""Command-line surface: verbs, exit codes, reproducible reports."""

import os

import pytest

from omegacfl import verify
from omegacfl.cli import main
from omegacfl.formats import format_mpda, parse_machine, read_expression
from omegacfl import Mpda, cfg, alphabet, kc_to_bpda, omega_power

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data(name):
    return os.path.join(DATA, name)


def test_check_lasso_accept_and_reject(capsys):
    assert main(["check-lasso", "--machine", data("ones-acceptor.automaton"),
                 "--word", "(01)^w"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ACCEPT")
    assert "witness spoke:" in out and "witness cycle:" in out
    assert main(["check-lasso", "--machine", data("ones-acceptor.automaton"),
                 "--word", "(0)^w"]) == 1
    assert capsys.readouterr().out.startswith("REJECT")


def test_check_lasso_on_pushdown(tmp_path, capsys):
    out_file = str(tmp_path / "m.pushdown")
    assert main(["kc-to-bpda", "--expr", data("zero-star-one.expr"),
                 "--out", out_file]) == 0
    capsys.readouterr()
    assert main(["check-lasso", "--machine", out_file,
                 "--word", "01(10)^w"]) == 0
    assert capsys.readouterr().out.startswith("ACCEPT")


def test_check_lasso_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.automaton"
    bad.write_text("states: q\n")
    assert main(["check-lasso", "--machine", str(bad), "--word", "(0)^w"]) == 2
    assert main(["check-lasso", "--machine", data("ones-acceptor.automaton"),
                 "--word", "not-a-lasso"]) == 2
    assert main(["check-lasso", "--machine", "/nonexistent",
                 "--word", "(0)^w"]) == 2


def test_check_lasso_rejects_muller_pushdown(tmp_path, capsys):
    m = kc_to_bpda(omega_power(cfg(alphabet("0", "1"), "S", [("S", ("1",))])))
    mp = Mpda(m.machine, frozenset({frozenset({"f0"})}))
    p = tmp_path / "m.pushdown"
    p.write_text(format_mpda(mp))
    assert main(["check-lasso", "--machine", str(p), "--word", "(1)^w"]) == 2


def test_build_bar_roundtrip(tmp_path, capsys):
    out_file = str(tmp_path / "bar.pushdown")
    assert main(["build-bar", "--machine", data("ones-acceptor.automaton"),
                 "--separator", "A", "--out", out_file]) == 0
    capsys.readouterr()
    machine = parse_machine(open(out_file).read())
    assert len(machine.machine.states) == 14
    prov = open(out_file + ".provenance").read()
    assert prov.splitlines()[0].split()[0] == "a"
    groups = {ln.split()[0] for ln in prov.splitlines()}
    assert "k" in groups and "c" in groups
    # the emitted machine decides coded trees like the in-process one
    assert main(["check-lasso", "--machine", out_file,
                 "--word", "(1A)^w"]) == 0


def test_code_tree(capsys):
    assert main(["code-tree", "--tree", data("constant-a.tree"),
                 "--levels", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "a.A.a.a.A.a.a.a.a.A.a.a.a.a.a.a.a.a.A"
    # the coded prefix doubles per level: deep requests are refused
    assert main(["code-tree", "--tree", data("constant-a.tree"),
                 "--levels", "23"]) == 2
    assert "levels must be at most 22" in capsys.readouterr().err


def test_kc_to_bpda_artifact_reparses(tmp_path, capsys):
    out_file = str(tmp_path / "m.pushdown")
    assert main(["kc-to-bpda", "--expr", data("zero-star-one.expr"),
                 "--out", out_file]) == 0
    machine = parse_machine(open(out_file).read())
    expr = read_expression(data("zero-star-one.expr"))
    assert machine == kc_to_bpda(expr)


def test_omega_power_and_substitute(tmp_path, capsys):
    pow_file = str(tmp_path / "pow.expr")
    assert main(["omega-power", "--grammar", data("matched-blocks.grammar"),
                 "--out", pow_file]) == 0
    assert read_expression(pow_file) is not None
    img_file = str(tmp_path / "img.expr")
    assert main(["substitute", "--expr", data("six-letters.expr"),
                 "--subst", data("block-encoding.subst"),
                 "--out", img_file]) == 0
    capsys.readouterr()
    m_file = str(tmp_path / "img.pushdown")
    assert main(["kc-to-bpda", "--expr", img_file, "--out", m_file]) == 0
    capsys.readouterr()
    assert main(["check-lasso", "--machine", m_file,
                 "--word", "(babbaab)^w"]) == 0
    capsys.readouterr()
    assert main(["check-lasso", "--machine", m_file, "--word", "(ab)^w"]) == 1


def test_expression_artifact_roundtrip(tmp_path, capsys):
    pow_file = str(tmp_path / "pow.expr")
    main(["omega-power", "--grammar", data("zero-star-one.grammar"),
          "--out", pow_file])
    capsys.readouterr()
    e = read_expression(pow_file)
    again = str(tmp_path / "again.expr")
    from omegacfl.formats import write_expression
    write_expression(e, again)
    assert read_expression(again) == e


def test_check_lasso_muller_automaton(tmp_path, capsys):
    from omegacfl import MullerAutomaton
    from omegacfl.formats import format_muller_automaton, parse_automaton
    ba = parse_automaton(open(data("ones-acceptor.automaton")).read())
    mu = MullerAutomaton(ba.machine, frozenset({frozenset({"q0", "qf"})}))
    p = tmp_path / "m.automaton"
    p.write_text(format_muller_automaton(mu))
    assert main(["check-lasso", "--machine", str(p), "--word", "(01)^w"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ACCEPT") and "witness inf: q0 qf" in out
    assert main(["check-lasso", "--machine", str(p), "--word", "(0)^w"]) == 1


def test_verify_failing_suite_exits_nonzero(monkeypatch, capsys):
    def suite_failing(seed):
        return [verify.CheckResult("always-passes", True, "ok"),
                verify.CheckResult("always-fails", False, f"seed {seed}")]

    monkeypatch.setitem(verify.SUITES, "failing", suite_failing)
    assert main(["verify", "--suite", "failing", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert "FAIL always-fails" in out
    assert "PASS always-passes" in out
    # the bar suite, two-descriptions check included, holds
    assert main(["verify", "--suite", "bar", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS bar-two-descriptions" in out
    assert "FAIL" not in out


def test_verify_reports_are_reproducible(capsys):
    assert main(["verify", "--suite", "emptiness", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "emptiness", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "suite: emptiness"
    assert first.splitlines()[1] == "seed: 3"
    assert "PASS" in first


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])
