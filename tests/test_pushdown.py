"""Pushdown machines: step semantics, bounded runs, products, emptiness."""

import os
import random
import subprocess
import sys

import pytest

from omegacfl import (Bpda, BuchiPds, Configuration, Mpda, Pdm, alphabet,
                      branch_guess_machine, buchi_pds_empty, cfg, h_prefix,
                      initial_configuration, lasso, product_with_lasso, step,
                      word)
from omegacfl.branching import _depth_labels
from omegacfl.kleene import kc_to_bpda, omega_power
from omegacfl.oracles import (pds_explicit_empty, random_bpda, random_lasso,
                              random_one_counter_pds, random_tree)
from omegacfl.pushdown import bounded_runs
from omegacfl.words import Word

BITS = alphabet("0", "1")


def tiny_machine():
    rules = frozenset({
        ("q", "a", "Z", "p", ("E", "Z")),
        ("q", None, "Z", "q", ("Z",)),
        ("p", "a", "E", "p", ()),
    })
    return Pdm(frozenset({"q", "p"}), alphabet("a"), ("Z", "E"), "q", "Z", rules)


def test_step_examples():
    m = tiny_machine()
    c = Configuration("q", ("Z",))
    assert step(m, c, "a") == frozenset({Configuration("p", ("E", "Z"))})
    assert step(m, Configuration("p", ("Z",)), "a") == frozenset()
    assert step(m, c, None) == frozenset({c})
    assert step(m, Configuration("q", ()), "a") == frozenset()


def test_push_cap_enforced():
    with pytest.raises(ValueError):
        Pdm(frozenset({"q"}), alphabet("a"), ("Z",), "q", "Z",
            frozenset({("q", "a", "Z", "q", ("Z",) * 5)}))


def test_bounded_runs_empty_word():
    m = tiny_machine()
    b = Bpda(m, frozenset({"q"}))
    got = b.bounded_runs(word(m.input_alphabet, ""), 0)
    assert got == {initial_configuration(m): 1}
    b2 = Bpda(m, frozenset({"p"}))
    got2 = b2.bounded_runs(word(m.input_alphabet, ""), 0)
    assert got2 == {initial_configuration(m): 0}


def test_bounded_runs_single_rule():
    m = tiny_machine()
    b = Bpda(m, frozenset({"p"}))
    got = b.bounded_runs(word(m.input_alphabet, "a"), 0)
    assert got == {Configuration("p", ("E", "Z")): 1}


def test_bounded_runs_monotone_in_budget():
    rng = random.Random(4)
    for _ in range(25):
        b = random_bpda(rng, BITS, 3, 8)
        x = word(BITS, [rng.choice(BITS.letters) for _ in range(rng.randint(0, 4))])
        lo = b.bounded_runs(x, 1)
        hi = b.bounded_runs(x, 2)
        for cfg_, count in lo.items():
            assert cfg_ in hi and hi[cfg_] >= count


def test_bounded_runs_replayable():
    rng = random.Random(9)
    for _ in range(15):
        b = random_bpda(rng, BITS, 3, 8)
        x = word(BITS, [rng.choice(BITS.letters) for _ in range(3)])
        budget = 2
        reached = b.bounded_runs(x, budget)
        # replay by explicit breadth-first search over (position, lambda-count)
        frontier = {initial_configuration(b.machine)}
        for pos in range(len(x) + 1):
            closed = set(frontier)
            level = frontier
            for _ in range(budget):
                level = {c2 for c in level for c2 in step(b.machine, c, None)}
                closed |= level
            if pos == len(x):
                frontier = closed
                break
            frontier = {c2 for c in closed
                        for c2 in step(b.machine, c, x.symbols[pos])}
        assert set(reached) == frontier


def tuple_stack_bounded_runs(m, x, lambda_budget, marked):
    """The enumeration the interned-stack loop replaced: configurations with
    tuple stacks, every move through `step`."""
    if lambda_budget < 0:
        raise ValueError("lambda budget must be >= 0")
    init = initial_configuration(m)
    arrived = {init: 1 if m.initial in marked else 0}
    pos = 0
    while True:
        merged = dict(arrived)
        level = arrived
        for _ in range(lambda_budget):
            nxt = {}
            for c, cnt in level.items():
                for c2 in step(m, c, None):
                    val = cnt + (1 if c2.state in marked else 0)
                    if nxt.get(c2, -1) < val:
                        nxt[c2] = val
            level = {c: v for c, v in nxt.items() if merged.get(c, -1) < v}
            for c, v in level.items():
                merged[c] = v
            if not level:
                break
        if pos == len(x):
            return merged
        a = x.symbols[pos]
        arrived = {}
        for c, cnt in merged.items():
            for c2 in step(m, c, a):
                val = cnt + (1 if c2.state in marked else 0)
                if arrived.get(c2, -1) < val:
                    arrived[c2] = val
        pos += 1


def test_bounded_runs_match_tuple_stack_loop():
    cases = []
    # a silent push cycle through a marked state, which every budget cuts
    # short, and a silent pop back to the reading state
    cycle = Bpda(Pdm(frozenset({"q", "p"}), BITS, ("Z", "Y"), "q", "Z",
                     frozenset({("q", None, "Z", "p", ("Y", "Z")),
                                ("p", None, "Y", "q", ("Y", "Y")),
                                ("q", None, "Y", "q", ()),
                                ("q", "1", "Y", "p", ("Y",)),
                                ("p", "0", "Z", "q", ("Z",))})),
                 frozenset({"p"}))
    for text in ("", "1", "10", "110", "1010"):
        cases.append((cycle, word(BITS, text)))
    rng = random.Random(23)
    for _ in range(250):
        b = random_bpda(rng, BITS, 4, rng.randint(1, 8))
        cases.append((b, word(BITS, [rng.choice(BITS.letters)
                                     for _ in range(rng.randint(0, 4))])))
    # transform prefixes of trees on the generic evidence path
    ones = Bpda(Pdm(frozenset({"q0", "qf"}), BITS, ("Z0",), "q0", "Z0",
                    frozenset((q, a, "Z0", "qf" if a == "1" else "q0",
                               ("Z0",)) for q in ("q0", "qf") for a in "01")),
                frozenset({"qf"}))
    silent_start = Bpda(Pdm(frozenset({"q0", "q1"}), BITS, ("Z0",), "q0",
                            "Z0", frozenset({("q0", None, "Z0", "q1", ("Z0",)),
                                             ("q1", "1", "Z0", "q1",
                                              ("Z0",))})),
                        frozenset({"q1"}))
    for base in (ones, silent_start):
        bm = branch_guess_machine(base, "A")
        trees = 0
        while trees < 8:
            t = random_tree(rng, BITS, 4)
            if _depth_labels(t, 4) is not None:
                continue
            trees += 1
            for lv in range(5):
                cases.append((bm.bpda, Word(bm.bpda.machine.input_alphabet,
                                            h_prefix(t, lv, "A").symbols)))
    budget_bound = 0
    for b, x in cases:
        runs = [bounded_runs(b.machine, x, budget, b.final)
                for budget in range(4)]
        for budget, got in enumerate(runs):
            assert got == tuple_stack_bounded_runs(b.machine, x, budget,
                                                   b.final)
        budget_bound += runs[0] != runs[3]
    # enough cases run silent stretches that the budget cuts
    assert budget_bound >= 40


def test_muller_pushdown_bounded_runs_only():
    m = tiny_machine()
    mp = Mpda(m, frozenset({frozenset({"p"})}))
    got = mp.bounded_runs(word(m.input_alphabet, "a"), 0)
    assert got == {Configuration("p", ("E", "Z")): 1}
    assert not hasattr(mp, "accepts_lasso")


def test_product_shape():
    e = omega_power(cfg(BITS, "S", [("S", ("0", "S")), ("S", ("1",))]))
    base = kc_to_bpda(e)
    mm = base.machine
    # the same machine with one more, silent, move at its initial state
    loop = (mm.initial, None, mm.start_stack, mm.initial, (mm.start_stack,))
    looped = Bpda(Pdm(mm.states, mm.input_alphabet, mm.stack_alphabet,
                      mm.initial, mm.start_stack, mm.rules | {loop}),
                  base.final)
    w = lasso(BITS, "0", "10")
    length = 3
    for m in (base, looped):
        pds = product_with_lasso(m, w)
        k = len(m.machine.states)
        assert len(pds.states) <= 3 * k * length
        assert all(s[2] in (0, 1, 2) for s in pds.states)
        assert pds.repeating == frozenset(s for s in pds.states if s[2] == 2)
        # silent moves never advance the position; input moves read the
        # letter at the position and advance it by one, wrapping to |u|
        silent = wraps = 0
        for ((q, i, _), z, (p, j, _), push) in pds.rules:
            letters = {a for (q2, a, z2, p2, push2) in m.machine.rules
                       if (q2, z2, p2, push2) == (q, z, p, push)}
            assert letters
            if j == i:
                assert None in letters
                silent += 1
            else:
                assert w.symbol_at(i) in letters
                assert j == (i + 1 if i + 1 < length else len(w.spoke))
                wraps += i == length - 1
        assert wraps > 0
        assert (silent > 0) == (m is looped)


def test_rule_index_ignores_hash_seed():
    # the order in which the saturation tries moves follows the index, so
    # it must not follow the string-hash order of the rule set
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("from omegacfl import alphabet, coding_complement_expr, "
            "kc_to_bpda; print(kc_to_bpda(coding_complement_expr("
            "alphabet('0', '1'))).machine.rule_index)")
    outs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   check=True, capture_output=True,
                                   text=True).stdout)
    assert outs[0] == outs[1]
    assert "u0:" in outs[0]


def test_empty_repeating_set_is_empty():
    pds = BuchiPds(frozenset({"p"}), ("Z",), "p", "Z",
                   frozenset({("p", "Z", "p", ("Z",))}), frozenset())
    assert buchi_pds_empty(pds)


def test_reachable_repeating_self_loop_is_nonempty():
    pds = BuchiPds(frozenset({"p", "r"}), ("Z",), "p", "Z",
                   frozenset({("p", "Z", "r", ("Z",)),
                              ("r", "Z", "r", ("Z",))}), frozenset({"r"}))
    assert not buchi_pds_empty(pds)


def test_unreachable_repeating_head_stays_empty():
    pds = BuchiPds(frozenset({"p", "r"}), ("Z",), "p", "Z",
                   frozenset({("r", "Z", "r", ("Z",))}), frozenset({"r"}))
    assert buchi_pds_empty(pds)


def test_pop_cycle_through_repeating():
    # grow and shrink the stack forever, visiting r when popping
    rules = frozenset({
        ("p", "Z", "q", ("E", "Z")),
        ("q", "E", "r", ()),
        ("r", "Z", "q", ("E", "Z")),
    })
    pds = BuchiPds(frozenset({"p", "q", "r"}), ("Z", "E"), "p", "Z",
                   rules, frozenset({"r"}))
    assert not buchi_pds_empty(pds)


def test_saturation_matches_explicit_oracle():
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        pds = random_one_counter_pds(rng, 4)
        explicit, closed = pds_explicit_empty(pds, 8)
        if not closed:
            continue
        checked += 1
        assert buchi_pds_empty(pds) == explicit
    # machine-times-lasso products, decided on both paths
    rng = random.Random(41)
    checked = nonempty = 0
    while checked < 200:
        m = random_bpda(rng, BITS, 4, rng.randint(4, 12))
        w = random_lasso(rng, BITS, 3, 3)
        pds = product_with_lasso(m, w)
        explicit, closed = pds_explicit_empty(pds, 8)
        if not closed:
            continue
        checked += 1
        nonempty += not explicit
        assert buchi_pds_empty(pds) == explicit
        assert m.accepts_lasso(w) == (not explicit)
    assert nonempty >= 10


def test_accepts_lasso_invariant_under_representation():
    e = omega_power(cfg(BITS, "S", [("S", ("0", "S", "1")), ("S", ("0", "1"))]))
    m = kc_to_bpda(e)
    # the same omega-word in three representations
    variants = [lasso(BITS, "", "0011"), lasso(BITS, "00", "1100"),
                lasso(BITS, "0011", "00110011")]
    values = {m.accepts_lasso(w) for w in variants}
    assert values == {True}
    variants2 = [lasso(BITS, "", "001"), lasso(BITS, "001", "001001")]
    assert {m.accepts_lasso(w) for w in variants2} == {False}


def test_saturation_agrees_with_finite_path_on_inert_stacks():
    # a finite automaton written with an untouched stack must be decided
    # exactly like the finite-state procedure decides it
    from omegacfl import BuchiAutomaton, Fsm
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 4)
        states = tuple(f"s{i}" for i in range(n))
        trans = set()
        for q in states:
            for a in BITS:
                k = min(rng.choice((0, 1, 1, 2)), len(states))
                for p in rng.sample(states, k):
                    trans.add((q, a, p))
        fsm = Fsm(frozenset(states), BITS, "s0", frozenset(trans))
        final = frozenset(s for s in states if rng.random() < 0.5)
        aut = BuchiAutomaton(fsm, final)
        rules = frozenset((q, a, "Z", p, ("Z",)) for (q, a, p) in trans)
        bpda = Bpda(Pdm(frozenset(states), BITS, ("Z",), "s0", "Z", rules),
                    final)
        for _ in range(4):
            w = random_lasso(rng, BITS, 4, 4)
            assert bpda.accepts_lasso(w) == aut.accepts_lasso(w)


def test_silent_divergence_is_not_acceptance():
    # a silent loop through a final state reads nothing, so no word is
    # accepted: complete runs must consume the whole omega-word
    rules = frozenset({("q", None, "Z", "q", ("Z",))})
    m = Pdm(frozenset({"q"}), BITS, ("Z",), "q", "Z", rules)
    b = Bpda(m, frozenset({"q"}))
    assert not b.accepts_lasso(lasso(BITS, "", "0"))
    assert not b.accepts_lasso(lasso(BITS, "", "01"))


def test_silent_moves_interleaved_with_reading():
    # pushing through a silent move before each letter is fine
    rules = frozenset({
        ("q", None, "Z", "p", ("E", "Z")),
        ("p", "0", "E", "q", ()),
    })
    m = Pdm(frozenset({"q", "p"}), BITS, ("Z", "E"), "q", "Z", rules)
    b = Bpda(m, frozenset({"q"}))
    assert b.accepts_lasso(lasso(BITS, "", "0"))
    assert not b.accepts_lasso(lasso(BITS, "", "01"))
