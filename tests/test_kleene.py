"""Omega-Kleene expressions: conversion, closure operations, the oracle."""

import os
import random
import subprocess
import sys

import pytest

from omegacfl import (BuchiAutomaton, Fsm, alphabet, block_encoding_morphism,
                      cfg, coding_complement_expr, filler_image_expr,
                      kc_substitute, kc_to_bpda, kc_union, lasso,
                      lasso_in_kc, omega_kleene, omega_power)
from omegacfl.cfg import (Cfg, alphabet_star_grammar, apply_substitution,
                          cfg_empty, concat_grammars, doubling_filler,
                          empty_grammar, filler_insertion, gap_too_long,
                          gap_too_short, lambda_grammar, letters_grammar,
                          single_word_grammar, strip_lambda)
from omegacfl.kleene import (_binarized, _lasso_letter_mats,
                             _line_letter_mats, _mat_mul, _reach_matrices,
                             _transitive_plus)
from omegacfl.oracles import cnf_cyk_member, random_lasso
from omegacfl.pushdown import PUSH_CAP

BITS = alphabet("0", "1")


def zero_star_one(terminals=BITS):
    return cfg(terminals, "S", [("S", ("0", "S")), ("S", ("1",))])


def ones_acceptor():
    fsm = Fsm(frozenset({"q0", "qf"}), BITS, "q0", frozenset({
        ("q0", "0", "q0"), ("q0", "1", "qf"),
        ("qf", "0", "q0"), ("qf", "1", "qf")}))
    return BuchiAutomaton(fsm, frozenset({"qf"}))


def test_omega_power_single_letter():
    one = alphabet("a", "b")
    e = omega_power(single_word_grammar(one, ("a",)))
    m = kc_to_bpda(e)
    assert m.accepts_lasso(lasso(one, "", "a"))
    assert not m.accepts_lasso(lasso(one, "", "ab"))
    assert not m.accepts_lasso(lasso(one, "a", "b"))


def test_omega_power_rejects_lambda_only_cycle():
    with pytest.raises(ValueError):
        omega_power(lambda_grammar(BITS))


def test_lambda_stripped_on_construction():
    v = cfg(BITS, "S", [("S", ()), ("S", ("1",))])
    e = omega_power(v)
    m = kc_to_bpda(e)
    assert m.accepts_lasso(lasso(BITS, "", "1"))
    assert not m.accepts_lasso(lasso(BITS, "", "0"))


def test_conversion_matches_two_state_acceptor():
    e = omega_power(zero_star_one())
    m = kc_to_bpda(e)
    aut = ones_acceptor()
    rng = random.Random(2)
    for _ in range(100):
        w = random_lasso(rng, BITS, 6, 6)
        assert m.accepts_lasso(w) == aut.accepts_lasso(w)


def test_union_denotation():
    e1 = omega_power(single_word_grammar(BITS, ("0",)))
    e2 = omega_power(single_word_grammar(BITS, ("1",)))
    u = kc_union(e1, e2)
    m = kc_to_bpda(u)
    assert m.accepts_lasso(lasso(BITS, "", "0"))
    assert m.accepts_lasso(lasso(BITS, "", "1"))
    assert not m.accepts_lasso(lasso(BITS, "", "01"))
    # union is the disjunction of the components on every tested lasso
    m1, m2 = kc_to_bpda(e1), kc_to_bpda(e2)
    rng = random.Random(3)
    for _ in range(30):
        w = random_lasso(rng, BITS, 3, 3)
        assert m.accepts_lasso(w) == (m1.accepts_lasso(w) or m2.accepts_lasso(w))


def test_union_with_self_and_with_empty():
    e = omega_power(zero_star_one())
    both = kc_union(e, e)
    vacuous = omega_kleene([(empty_grammar(BITS), letters_grammar(BITS))])
    extended = kc_union(e, vacuous)
    m, mb, mx = (kc_to_bpda(x) for x in (e, both, extended))
    rng = random.Random(4)
    for _ in range(30):
        w = random_lasso(rng, BITS, 4, 4)
        assert m.accepts_lasso(w) == mb.accepts_lasso(w) == mx.accepts_lasso(w)


def test_union_requires_same_alphabet():
    with pytest.raises(ValueError):
        kc_union(omega_power(zero_star_one()),
                 omega_power(single_word_grammar(alphabet("a"), ("a",))))


def test_substitute_identity():
    from omegacfl.cfg import substitution
    e = omega_power(zero_star_one())
    ident = substitution(BITS, {
        t: single_word_grammar(BITS, (t,), tag=t) for t in BITS})
    image = kc_substitute(e, ident)
    m, mi = kc_to_bpda(e), kc_to_bpda(image)
    rng = random.Random(5)
    for _ in range(30):
        w = random_lasso(rng, BITS, 4, 4)
        assert m.accepts_lasso(w) == mi.accepts_lasso(w)


def test_substitute_rejects_non_lambda_free():
    from omegacfl.cfg import substitution
    bad = substitution(BITS, {
        "0": lambda_grammar(BITS), "1": single_word_grammar(BITS, ("1",))})
    with pytest.raises(ValueError):
        kc_substitute(omega_power(zero_star_one()), bad)


def test_substitute_morphism_transfers_membership():
    # the letter-block encoding is injective on omega-words, so membership
    # transfers exactly along it
    source = alphabet("a", "b")
    sub6 = block_encoding_morphism()
    # restrict to a two-letter sub-alphabet by building the expression there
    v = cfg(source, "S", [("S", ("a", "S")), ("S", ("b",))])
    e = omega_power(v)
    m = kc_to_bpda(e)
    # extend to the six-letter domain: words never use the other letters
    full = sub6.domain
    v6 = cfg(full, "S", [("S", ("a", "S")), ("S", ("b",))])
    e6 = omega_power(v6)
    image = kc_substitute(e6, sub6)
    mi = kc_to_bpda(image)
    rng = random.Random(6)
    for _ in range(25):
        w = random_lasso(rng, source, 3, 3)
        w6 = lasso(full, w.spoke.symbols, w.cycle.symbols)
        got = m.accepts_lasso(w)
        assert mi.accepts_lasso(sub6.apply_to_lasso(w6)) == got


def test_block_stream_shape_of_accepted_words():
    # every accepted lasso of the image machine is a stream of b a^i b blocks
    sub6 = block_encoding_morphism()
    full = sub6.domain
    e6 = omega_power(letters_grammar(full))
    image = kc_substitute(e6, sub6)
    mi = kc_to_bpda(image)
    two = alphabet("a", "b")

    def is_block_stream(w, horizon=40):
        syms = [w.symbol_at(i) for i in range(horizon)]
        i = 0
        while i < horizon - 8:
            if syms[i] != "b":
                return False
            j = i + 1
            while j < horizon and syms[j] == "a":
                j += 1
            if j >= horizon:
                return True  # ran off the horizon mid-block
            if syms[j] != "b" or j == i + 1:
                return False
            i = j + 1
        return True

    rng = random.Random(8)
    tested = 0
    for _ in range(300):
        w = random_lasso(rng, two, 4, 6).normalize()
        if mi.accepts_lasso(w):
            tested += 1
            assert is_block_stream(w)
    assert tested >= 3


def test_oracle_examples():
    e = omega_power(zero_star_one())
    assert lasso_in_kc(e, lasso(BITS, "", "01"), 20) == "yes"
    assert lasso_in_kc(e, lasso(BITS, "", "0"), 20) == "no"


def test_oracle_unknown_on_small_bound():
    # U = {0^9}, V = all letters: the word is in the language but the first
    # block boundary lies beyond the bound, so the pumping search cannot
    # conclude and the exact closure says the word is not excluded either
    u = single_word_grammar(BITS, ("0",) * 9)
    e = omega_kleene([(u, letters_grammar(BITS))])
    w = lasso(BITS, "", "0")
    assert lasso_in_kc(e, w, 2) == "unknown"
    assert lasso_in_kc(e, w, 12) == "yes"
    m = kc_to_bpda(e)
    assert m.accepts_lasso(w)


def test_oracle_bound_precondition():
    e = omega_power(zero_star_one())
    with pytest.raises(ValueError):
        lasso_in_kc(e, lasso(BITS, "0011", "01"), 3)


def grammar_zoo():
    """Grammar shapes the top-down conversion has to parse: left and mutual
    recursion, unit chains, nullable bodies, and a nonterminal-leading body
    longer than PUSH_CAP."""
    yield doubling_filler(BITS)
    yield gap_too_short(BITS)
    yield gap_too_long(BITS)
    yield alphabet_star_grammar(BITS)
    yield concat_grammars(alphabet_star_grammar(gap_too_short(BITS).terminals),
                          gap_too_short(BITS))
    yield lambda_grammar(BITS)
    yield cfg(BITS, "E", [("E", ("E", "0")), ("E", ("1",))])
    yield cfg(BITS, "S", [("S", ("T", "0")), ("T", ("S", "1")),
                          ("T", ("0",))])
    yield cfg(BITS, "S", [("S", ("T", "T", "1")), ("T", ()), ("T", ("0",))])
    yield cfg(BITS, "S", [("S", ("T",)), ("T", ("U",)), ("U", ("0", "S")),
                          ("U", ("1",))])
    yield cfg(BITS, "A", [("A", ("B", "1")), ("B", ("A", "0")),
                          ("A", ("0",)), ("B", ("1",))])
    long_body = ("T", "0", "1", "T", "1", "0")
    assert len(long_body) > PUSH_CAP
    yield cfg(BITS, "S", [("S", long_body), ("S", ("1",)), ("T", ("S",)),
                          ("T", ("0",))])


def test_oracle_soundness_sample():
    exprs = [omega_power(zero_star_one()),
             omega_power(cfg(BITS, "S", [("S", ("0", "S", "1")),
                                         ("S", ("0", "1"))]))]
    # each zoo grammar as the cycle language, and as U before (0*1)^w
    for g in grammar_zoo():
        if not cfg_empty(strip_lambda(g)):
            exprs.append(omega_power(g))
        exprs.append(omega_kleene([(g, zero_star_one(g.terminals))]))
    rng = random.Random(10)
    verdicts = set()
    for e in exprs:
        m = kc_to_bpda(e)
        conclusive = 0
        for _ in range(40):
            w = random_lasso(rng, e.alphabet, 5, 5).normalize()
            verdict = lasso_in_kc(e, w, 4 * (len(w.spoke) + len(w.cycle)) + 8)
            if verdict != "unknown":
                assert (verdict == "yes") == m.accepts_lasso(w), (e, w)
                conclusive += 1
                verdicts.add(verdict)
        assert conclusive >= 20
    assert verdicts == {"yes", "no"}


def test_conversion_size_is_linear():
    # N_i -> N_{i+1} 0 | N_{i+1} 1 | 1 over indices mod n: in Greibach
    # normal form this family grows exponentially with n
    n = 30
    prods = [(f"N{i}", body) for i in range(n) for body in (
        (f"N{(i + 1) % n}", "0"), (f"N{(i + 1) % n}", "1"), ("1",))]
    g = cfg(BITS, "N0", prods)
    size = sum(1 + len(b) for _, b in g.productions)
    m = kc_to_bpda(omega_power(g))
    assert len(m.machine.rules) <= 2 * size
    assert m.accepts_lasso(lasso(BITS, "", "1"))
    assert not m.accepts_lasso(lasso(BITS, "", "0"))


def test_empty_u_component_contributes_nothing():
    e = omega_kleene([(empty_grammar(BITS), zero_star_one())])
    m = kc_to_bpda(e)
    assert not m.accepts_lasso(lasso(BITS, "", "01"))
    combined = kc_union(e, omega_power(zero_star_one()))
    assert kc_to_bpda(combined).accepts_lasso(lasso(BITS, "", "01"))


def cyk_grammars():
    return [
        zero_star_one(),
        cfg(BITS, "S", [("S", ("0", "S", "1")), ("S", ("0", "1"))]),
        apply_substitution(filler_insertion(BITS, "A"), zero_star_one()),
        doubling_filler(BITS), gap_too_short(BITS), gap_too_long(BITS),
        lambda_grammar(BITS)]


def test_line_reach_rows_match_cyk():
    # bit j of row i of the start symbol's matrix over a word's position
    # line says the factor x[i:j] is derivable; checked for every factor,
    # the empty one included, against the CNF/CYK recognizer
    rng = random.Random(11)
    for g in cyk_grammars():
        letters = g.terminals.letters
        members = 0
        for _ in range(12):
            n = rng.randint(0, 9)
            w = lasso(g.terminals, [rng.choice(letters) for _ in range(n)],
                      letters[:1])
            x = w.spoke.symbols
            rows = _reach_matrices(g, *_line_letter_mats(w, n))[g.start]
            for i, row in enumerate(rows):
                assert row >> i << i == row  # no bit below the diagonal
                for j in range(i, n + 1):
                    got = bool(row >> j & 1)
                    assert got == cnf_cyk_member(g, x[i:j]), (g.start, x, i, j)
                    members += got
        assert members > 0


def round_robin_reach(g, letter_mats, size):
    """The round-robin fixpoint the worklist replaced: sweep every body
    until a whole sweep changes nothing."""
    bodies = _binarized(g)
    mats = {h: [0] * size for h, _ in bodies}
    eye = [1 << i for i in range(size)]

    def sym_mat(s):
        return letter_mats[s] if s in g.terminals else mats.get(s)

    changed = True
    while changed:
        changed = False
        for h, b in bodies:
            if not b:
                new = eye
            elif len(b) == 1:
                new = sym_mat(b[0])
                if new is None:
                    continue
            else:
                m1, m2 = sym_mat(b[0]), sym_mat(b[1])
                if m1 is None or m2 is None:
                    continue
                new = _mat_mul(m1, m2)
            old = mats[h]
            merged = [x | y for x, y in zip(old, new)]
            if merged != old:
                mats[h] = merged
                changed = True
    return mats


def test_reach_matrices_match_round_robin():
    # every nonterminal's matrix, on position lines and on lasso automata
    # (whose cycle makes the order of the fixpoint matter)
    e1 = omega_power(zero_star_one())
    builders = [e1, omega_power(cfg(BITS, "S", [("S", ("0", "S", "1")),
                                                 ("S", ("0", "1"))])),
                omega_power(apply_substitution(filler_insertion(BITS, "A"),
                                               zero_star_one())),
                coding_complement_expr(BITS), filler_image_expr(e1, "A")]
    # T has no production; S reads it, and reads itself twice
    dangling = Cfg(BITS, frozenset({"S", "T"}), "S", frozenset({
        ("S", ("0", "T")), ("S", ("S", "S")), ("S", ("1",)),
        ("S", ("T", "1", "S"))}))
    grammars = cyk_grammars() + [dangling] + [
        g for e in builders for p in e.pairs for g in (p.u, p.v)]
    assert max(len(_binarized(g)) for g in grammars) >= 85
    rng = random.Random(13)
    for g in grammars:
        for _ in range(3):
            w = random_lasso(rng, g.terminals, 6, 6).normalize()
            n = len(w.spoke) + len(w.cycle)
            for mats in (_line_letter_mats(w, 4 * n + 12),
                         _lasso_letter_mats(w)):
                assert _reach_matrices(g, *mats) == round_robin_reach(g, *mats)


def test_transitive_plus_matches_bfs():
    rng = random.Random(12)
    for side in range(1, 71):
        p = rng.choice((0.01, 0.04, 0.15))
        m = [sum(1 << j for j in range(side) if rng.random() < p)
             for _ in range(side)]
        want = []
        for i in range(side):
            seen, todo = 0, [i]
            while todo:
                k = todo.pop()
                for j in range(side):
                    if m[k] >> j & 1 and not seen >> j & 1:
                        seen |= 1 << j
                        todo.append(j)
            want.append(seen)
        assert _transitive_plus(m) == want


def test_cli_import_needs_no_numpy():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, omegacfl.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
