"""Command-line surface: verbs, exit codes, reproducible reports."""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacfl import verify
from omegacfl.cli import main
from omegacfl.formats import (format_bpda, format_mpda, parse_machine,
                              read_expression)
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


def test_kc_to_bpda_runaway_family(tmp_path, capsys):
    # N_i -> N_{i+1} 0 | N_{i+1} 1 | 1 over indices mod 8, whose Greibach
    # normal form has over a million rules
    n = 8
    lines = ["terminals: 0 1",
             "nonterminals: " + " ".join(f"N{i}" for i in range(n))]
    lines += [f"N{i} -> N{(i + 1) % n} 0 | N{(i + 1) % n} 1 | 1"
              for i in range(n)]
    (tmp_path / "family.grammar").write_text("\n".join(lines) + "\n")
    (tmp_path / "lambda.grammar").write_text(
        "terminals: 0 1\nnonterminals: S\nS -> #\n")
    (tmp_path / "family.expr").write_text(
        "pair:\nU: lambda.grammar\nV: family.grammar\n")
    assert main(["kc-to-bpda", "--expr", str(tmp_path / "family.expr"),
                 "--out", str(tmp_path / "family.pushdown")]) == 0
    assert "rules: 64" in capsys.readouterr().out


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


def test_verify_failing_suite_exits_nonzero(monkeypatch, capsys,
                                            suite_results):
    def suite_failing(seed):
        return [verify.CheckResult("always-passes", True, "ok"),
                verify.CheckResult("always-fails", False, f"seed {seed}")]

    monkeypatch.setitem(verify.SUITES, "failing", suite_failing)
    assert main(["verify", "--suite", "failing", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert "FAIL always-fails" in out
    assert "PASS always-passes" in out
    # the bar suite, two-descriptions check included, holds; its results
    # are the session's run of the suite at seed 7
    bar = suite_results("bar", 7)
    monkeypatch.setitem(verify.SUITES, "bar", lambda seed: {7: bar}[seed])
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


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])
    err = capsys.readouterr().err
    assert "'nope'" in err
    assert all(name in err for name in verify.SUITES)


# what one call loads: each verb imports only the modules it uses
LOADED = """
import json, sys
from omegacfl.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("omegacfl"))]))
"""
BASE = {"omegacfl", "omegacfl.cli", "omegacfl.formats", "omegacfl.words",
        "omegacfl.cfg"}


def test_each_verb_loads_only_its_modules(tmp_path, fresh_python):
    pushdown = str(tmp_path / "m.pushdown")
    calls = [
        (["check-lasso", "--machine", data("ones-acceptor.automaton"),
          "--word", "(01)^w"], {"omegacfl.buchi"}),
        (["kc-to-bpda", "--expr", data("zero-star-one.expr"),
          "--out", pushdown],
         {"omegacfl.kleene", "omegacfl.pushdown", "omegacfl.buchi"}),
        (["check-lasso", "--machine", pushdown, "--word", "0(01)^w"],
         {"omegacfl.pushdown", "omegacfl.buchi"}),
        (["code-tree", "--tree", data("constant-a.tree"), "--levels", "3"],
         {"omegacfl.trees"}),
    ]
    for argv, extra in calls:
        proc = fresh_python(LOADED, *argv)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, (argv[0], proc.stdout)
        assert set(loaded) == BASE | extra, argv[0]


# each data file with the file-reading verbs that read it ({d} is the
# directory of the mangled copies, {f} the mangled file); the extra
# pushdown file is the kc-to-bpda machine of zero-star-one.expr
KC_TO_BPDA = ["kc-to-bpda", "--expr", "{d}/zero-star-one.expr",
              "--out", "{d}/out"]
SUBSTITUTE = ["substitute", "--expr", "{d}/six-letters.expr",
              "--subst", "{d}/block-encoding.subst", "--out", "{d}/out.expr"]
FUZZ_VERBS = {
    "ones-acceptor.automaton": [
        ["check-lasso", "--machine", "{f}", "--word", "(01)^w"],
        ["build-bar", "--machine", "{f}", "--out", "{d}/out"]],
    "zero-star-one.pushdown": [
        ["check-lasso", "--machine", "{f}", "--word", "0(01)^w"],
        ["build-bar", "--machine", "{f}", "--out", "{d}/out"]],
    "constant-a.tree": [["code-tree", "--tree", "{f}", "--levels", "3"]],
    "matched-blocks.grammar": [
        ["omega-power", "--grammar", "{f}", "--out", "{d}/out.expr"]],
    "zero-star-one.expr": [KC_TO_BPDA],
    "zero-star-one.grammar": [KC_TO_BPDA],
    "lambda.grammar": [KC_TO_BPDA],
    "six-letters.expr": [SUBSTITUTE],
    "six-letters.grammar": [SUBSTITUTE],
    "six-lambda.grammar": [SUBSTITUTE],
    "block-encoding.subst": [SUBSTITUTE],
}
FUZZ_TOKENS = ["#", "->", "|", ":", "pair:", "U:", "V:", "final:", "trans:",
               "node:", "word:", "label", "q0", "S", "Z0", "0", "1", "A",
               "-1", "x", "."]
fuzz_edits = st.lists(st.tuples(
    st.sampled_from(["drop-token", "dup-token", "put-token", "drop-line",
                     "dup-line", "swap-lines"]),
    st.integers(0, 200), st.integers(0, 200),
    st.sampled_from(FUZZ_TOKENS)), min_size=1, max_size=3)


def _mutate(text, edits):
    lines = [ln.split() for ln in text.splitlines()]
    for op, i, j, token in edits:
        if not lines:
            break
        i %= len(lines)
        row = lines[i]
        if op == "drop-line":
            del lines[i]
        elif op == "dup-line":
            lines.insert(i, list(row))
        elif op == "swap-lines":
            k = j % len(lines)
            lines[i], lines[k] = lines[k], row
        elif op == "put-token":
            row.insert(j % (len(row) + 1), token)
        elif row:
            k = j % len(row)
            if op == "drop-token":
                del row[k]
            else:
                row.insert(k, row[k])
    return "\n".join(" ".join(row) for row in lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_seed_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz-seed")
    for name in os.listdir(DATA):
        shutil.copy(data(name), d / name)
    expr = read_expression(data("zero-star-one.expr"))
    (d / "zero-star-one.pushdown").write_text(format_bpda(kc_to_bpda(expr)))
    return d


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(FUZZ_VERBS)), edits=fuzz_edits)
@example(name="six-letters.expr", edits=[("drop-token", 1, 1, "#")])
@example(name="six-letters.expr",
         edits=[("drop-token", 1, 1, "#"), ("put-token", 1, 1, ".")])
def test_malformed_files_exit_2_not_3(fuzz_seed_dir, name, edits):
    # a mangled file is either still well formed (exit 0 or 1) or refused
    # with exit 2; exit 3 would be an invariant violation
    with tempfile.TemporaryDirectory() as d:
        shutil.copytree(fuzz_seed_dir, d, dirs_exist_ok=True)
        f = os.path.join(d, name)
        with open(f) as fh:
            text = _mutate(fh.read(), edits)
        with open(f, "w") as fh:
            fh.write(text)
        for argv in FUZZ_VERBS[name]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([a.format(f=f, d=d) for a in argv])
            assert code in (0, 1, 2), (argv[0], text, err.getvalue())
