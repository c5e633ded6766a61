"""File formats: round trips and rejection of malformed input."""

import pytest

from omegacfl import (Bpda, BuchiAutomaton, Fsm, Mpda, MullerAutomaton, Pdm,
                      alphabet, cfg, kc_to_bpda, lasso, level_homogeneous_tree,
                      omega_power)
from omegacfl.cfg import doubling_filler, lambda_grammar
from omegacfl.formats import (ParseError, format_bpda, format_buchi_automaton,
                              format_grammar, format_mpda,
                              format_muller_automaton, format_tree,
                              parse_automaton, parse_grammar, parse_machine,
                              parse_pushdown, parse_tree, read_expression,
                              read_substitution, write_expression)

BITS = alphabet("0", "1")


def sample_fsm():
    return Fsm(frozenset({"q0", "qf"}), BITS, "q0", frozenset({
        ("q0", "0", "q0"), ("q0", "1", "qf"),
        ("qf", "0", "q0"), ("qf", "1", "qf")}))


def test_grammar_roundtrip():
    for g in (doubling_filler(BITS), lambda_grammar(BITS),
              cfg(BITS, "S", [("S", ("0", "S", "1")), ("S", ())])):
        assert parse_grammar(format_grammar(g)) == g


def test_grammar_multichar_tokens():
    six = alphabet("a", "b", "c", "~>", "d", "A")
    g = cfg(six, "S", [("S", ("~>", "S")), ("S", ("A",))])
    assert parse_grammar(format_grammar(g)) == g


def test_grammar_start_header_for_empty_grammar():
    g = cfg(BITS, "S", [])
    text = format_grammar(g)
    assert "start: S" in text
    assert parse_grammar(text) == g


def test_grammar_parse_errors():
    with pytest.raises(ParseError):
        parse_grammar("S -> 0")  # missing headers
    with pytest.raises(ParseError):
        parse_grammar("terminals: 0\nnonterminals: S\nS -> 0 #")
    with pytest.raises(ParseError):
        parse_grammar("terminals: 0\nnonterminals: S\nwhat is this")
    with pytest.raises(ParseError):
        parse_grammar("terminals: 0\nnonterminals: S\nS -> 1")


def test_automaton_roundtrip():
    ba = BuchiAutomaton(sample_fsm(), frozenset({"qf"}))
    assert parse_automaton(format_buchi_automaton(ba)) == ba
    mu = MullerAutomaton(sample_fsm(), frozenset({
        frozenset({"q0"}), frozenset({"q0", "qf"})}))
    assert parse_automaton(format_muller_automaton(mu)) == mu


def test_automaton_parse_errors():
    with pytest.raises(ParseError):
        parse_automaton("states: a\nalphabet: 0\ninitial: a")  # no condition
    with pytest.raises(ParseError):
        parse_automaton("states: a\nalphabet: 0\ninitial: a\nfinal: a\n"
                        "table: a")
    with pytest.raises(ParseError):
        parse_automaton("states: a\nalphabet: 0\ninitial: a\nfinal: a\n"
                        "trans: a 0 a")


def test_pushdown_roundtrip():
    m = kc_to_bpda(omega_power(cfg(BITS, "S", [("S", ("0", "S", "1")),
                                               ("S", ("0", "1"))])))
    assert parse_pushdown(format_bpda(m)) == m
    base = m.machine
    mp = Mpda(base, frozenset({frozenset({"v0"})}))
    assert parse_pushdown(format_mpda(mp)) == mp


def test_pushdown_multichar_letter_is_not_an_arrow():
    six = alphabet("a", "~>")
    rules = frozenset({("q", "~>", "Z", "q", ("Z", "Z")),
                       ("q", None, "Z", "q", ())})
    m = Bpda(Pdm(frozenset({"q"}), six, ("Z",), "q", "Z", rules),
             frozenset({"q"}))
    assert parse_pushdown(format_bpda(m)) == m


def test_pushdown_silent_and_pop_tokens():
    rules = frozenset({("q", None, "Z", "q", ()),
                       ("q", "0", "Z", "q", ("Z", "Z"))})
    m = Bpda(Pdm(frozenset({"q"}), BITS, ("Z",), "q", "Z", rules),
             frozenset({"q"}))
    text = format_bpda(m)
    assert "q # Z -> q push(#)" in text
    assert parse_pushdown(text) == m


def test_parse_machine_dispatch():
    ba = BuchiAutomaton(sample_fsm(), frozenset({"qf"}))
    assert isinstance(parse_machine(format_buchi_automaton(ba)), BuchiAutomaton)
    m = kc_to_bpda(omega_power(cfg(BITS, "S", [("S", ("1",))])))
    assert isinstance(parse_machine(format_bpda(m)), Bpda)


def test_tree_roundtrip():
    t = level_homogeneous_tree(lasso(BITS, "0", "01"))
    assert parse_tree(format_tree(t)) == t


def test_tree_parse_errors():
    with pytest.raises(ParseError):
        parse_tree("labels: a\nnodes: n\ninitial: n\nnode: n label a left n")
    with pytest.raises(ParseError):
        parse_tree("labels: a\nnodes: n\ninitial: m\n"
                   "node: n label a left n right n")


def test_expression_roundtrip(tmp_path):
    e = omega_power(doubling_filler(BITS))
    path = str(tmp_path / "expr.expr")
    write_expression(e, path)
    back = read_expression(path)
    assert back == e


def test_expression_parse_errors(tmp_path):
    p = tmp_path / "bad.expr"
    p.write_text("pair:\nU: missing\n")
    with pytest.raises(ParseError):
        read_expression(str(p))
    # a U: or V: line that names no file is refused before any file is read
    (tmp_path / "g.grammar").write_text(
        "terminals: 0\nnonterminals: S\nS -> 0\n")
    for text in ("pair:\nU:\nV: g.grammar\n", "pair:\nU: g.grammar\nV:\n"):
        p.write_text(text)
        with pytest.raises(ParseError, match="names no grammar file"):
            read_expression(str(p))


def test_substitution_word_file(tmp_path):
    p = tmp_path / "m.subst"
    p.write_text("domain: a b\nword: a -> x y\nword: b -> y\n")
    sub = read_substitution(str(p))
    assert sub.is_morphism()
    assert sub.image_word("a") == ("x", "y")
    assert sub.is_lambda_free()


def test_substitution_grammar_file(tmp_path):
    g = doubling_filler(BITS)
    (tmp_path / "d.grammar").write_text(format_grammar(g))
    p = tmp_path / "m.subst"
    p.write_text("domain: a\ngrammar: a -> d.grammar\n")
    sub = read_substitution(str(p))
    assert not sub.is_morphism()
    assert sub.image("a") == g


def test_substitution_parse_errors(tmp_path):
    p = tmp_path / "bad.subst"
    p.write_text("word: a -> b\n")
    with pytest.raises(ParseError):
        read_substitution(str(p))
    p.write_text("domain: a\nnonsense line\n")
    with pytest.raises(ParseError):
        read_substitution(str(p))
