"""Finite-state omega-automata: lasso acceptance and run witnesses."""

import random

import pytest

from omegacfl import BuchiAutomaton, Fsm, MullerAutomaton, alphabet, lasso
from omegacfl.oracles import buchi_oracle, muller_oracle, random_lasso

BITS = alphabet("0", "1")


def ones_acceptor():
    fsm = Fsm(frozenset({"q0", "qf"}), BITS, "q0", frozenset({
        ("q0", "0", "q0"), ("q0", "1", "qf"),
        ("qf", "0", "q0"), ("qf", "1", "qf")}))
    return BuchiAutomaton(fsm, frozenset({"qf"}))


def unreachable_loop_machine():
    """q0 loops on every letter; qf loops too but cannot be reached."""
    return Fsm(frozenset({"q0", "qf"}), BITS, "q0", frozenset(
        (q, a, q) for q in ("q0", "qf") for a in BITS))


def random_fsm(rng, n_states, total=False):
    states = tuple(f"s{i}" for i in range(n_states))
    trans = set()
    for q in states:
        for a in BITS:
            fanout = rng.choice((1, 1, 1, 2, 0 if not total else 1))
            for p in rng.sample(states, min(fanout, len(states))):
                trans.add((q, a, p))
    return Fsm(frozenset(states), BITS, "s0", frozenset(trans))


def replay_ok(fsm, w, witness, steps=None):
    """The induced run must follow the transition relation on the word."""
    if steps is None:
        steps = 2 * (len(witness.spoke_states) + len(witness.cycle_states)
                     + len(w.spoke) + len(w.cycle)) + 4
    if witness.state_at(0) != fsm.initial:
        return False
    for i in range(steps):
        cur, nxt = witness.state_at(i), witness.state_at(i + 1)
        if nxt not in fsm.delta(cur, w.symbol_at(i)):
            return False
    return True


def test_buchi_examples():
    aut = ones_acceptor()
    assert aut.accepts_lasso(lasso(BITS, "", "01"))
    assert not aut.accepts_lasso(lasso(BITS, "", "0"))
    empty_final = BuchiAutomaton(aut.machine, frozenset())
    for text in ("01", "0", "1"):
        assert not empty_final.accepts_lasso(lasso(BITS, "", text))
    # the only cycle through a final state is unreachable from the start
    unreachable = BuchiAutomaton(unreachable_loop_machine(), frozenset({"qf"}))
    for u, v in (("", "01"), ("1", "0"), ("", "1")):
        assert not unreachable.accepts_lasso(lasso(BITS, u, v))


def test_buchi_witness_replays():
    aut = ones_acceptor()
    w = lasso(BITS, "0", "011")
    accepted, witness = aut.decide_lasso(w)
    assert accepted
    assert replay_ok(aut.machine, w, witness)
    assert witness.inf_set & aut.final


def test_muller_examples():
    aut = ones_acceptor()
    # the unique run of the deterministic machine on (01)^w alternates
    table = frozenset({frozenset({"q0", "qf"})})
    mu = MullerAutomaton(aut.machine, table)
    assert mu.accepts_lasso(lasso(BITS, "", "01"))
    # In(r) = {q0} on 0^w, which is not \"exactly\" the table entry
    assert not mu.accepts_lasso(lasso(BITS, "", "0"))
    assert not MullerAutomaton(aut.machine, frozenset()).accepts_lasso(
        lasso(BITS, "", "01"))
    # the only cycle with infinity set {qf} is unreachable from the start
    unreachable = MullerAutomaton(unreachable_loop_machine(),
                                  frozenset({frozenset({"qf"})}))
    for u, v in (("", "01"), ("1", "0"), ("", "1")):
        assert not unreachable.accepts_lasso(lasso(BITS, u, v))


def test_muller_one_state_self_loops():
    fsm = Fsm(frozenset({"q"}), BITS, "q",
              frozenset({("q", "0", "q"), ("q", "1", "q")}))
    mu = MullerAutomaton(fsm, frozenset({frozenset({"q"})}))
    for u, v in (("", "0"), ("01", "10"), ("", "1")):
        assert mu.accepts_lasso(lasso(BITS, u, v))


def test_acceptance_invariant_under_normalize():
    rng = random.Random(11)
    for _ in range(40):
        fsm = random_fsm(rng, rng.randint(1, 4))
        aut = BuchiAutomaton(fsm, frozenset(
            s for s in fsm.states if rng.random() < 0.5))
        w = random_lasso(rng, BITS, 4, 4)
        assert aut.accepts_lasso(w) == aut.accepts_lasso(w.normalize())


def test_buchi_agrees_with_subset_oracle():
    rng = random.Random(5)
    for _ in range(60):
        fsm = random_fsm(rng, rng.randint(1, 4))
        final = frozenset(s for s in fsm.states if rng.random() < 0.5)
        aut = BuchiAutomaton(fsm, final)
        w = random_lasso(rng, BITS, 4, 4)
        got, witness = aut.decide_lasso(w)
        assert got == buchi_oracle(aut, w)
        if got:
            assert replay_ok(fsm, w, witness)
            assert witness.inf_set & aut.final


def test_muller_agrees_with_subset_oracle():
    rng = random.Random(6)
    for _ in range(60):
        fsm = random_fsm(rng, rng.randint(1, 4))
        entries = []
        for _ in range(rng.randint(0, 3)):
            entries.append(frozenset(
                s for s in fsm.states if rng.random() < 0.6))
        entries = [e for e in entries if e]
        aut = MullerAutomaton(fsm, frozenset(entries))
        w = random_lasso(rng, BITS, 4, 4)
        got, witness = aut.decide_lasso(w)
        assert got == muller_oracle(aut, w)
        if got:
            assert replay_ok(fsm, w, witness)
            assert witness.inf_set in aut.table


def test_validation():
    fsm = ones_acceptor().machine
    with pytest.raises(ValueError):
        BuchiAutomaton(fsm, frozenset({"nope"}))
    with pytest.raises(ValueError):
        MullerAutomaton(fsm, frozenset({frozenset({"nope"})}))
    with pytest.raises(ValueError):
        Fsm(frozenset({"a"}), BITS, "b", frozenset())
    assert fsm.deterministic
    partial = Fsm(frozenset({"a"}), BITS, "a", frozenset({("a", "0", "a")}))
    assert not partial.deterministic
