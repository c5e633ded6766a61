"""The branch-guessing transform: structure, provenance, evidence runs."""

import itertools
import random

import pytest

from omegacfl import (Bpda, BuchiAutomaton, Fsm, Pdm, alphabet,
                      branch_evidence, branch_guess_machine, cfg,
                      filler_image_expr, h_prefix, kc_to_bpda, lasso,
                      lasso_in_kc, level_homogeneous_tree, omega_kleene,
                      omega_power)
from omegacfl.branching import _depth_labels, _fa_encoded
from omegacfl.cfg import concat_grammars, doubling_filler, filler_insertion
from omegacfl.oracles import random_bpda, random_lasso, random_tree
from omegacfl.pushdown import bounded_runs
from omegacfl.words import Word

BITS = alphabet("0", "1")
BITS_SEP = alphabet("0", "1", "A")


def ones_bpda():
    fsm = Fsm(frozenset({"q0", "qf"}), BITS, "q0", frozenset({
        ("q0", "0", "q0"), ("q0", "1", "qf"),
        ("qf", "0", "q0"), ("qf", "1", "qf")}))
    rules = frozenset((q, a, "Z0", p, ("Z0",)) for (q, a, p) in fsm.transitions)
    m = Pdm(fsm.states, BITS, ("Z0",), "q0", "Z0", rules)
    return Bpda(m, frozenset({"qf"})), BuchiAutomaton(fsm, frozenset({"qf"}))


def test_structure_counts():
    rng = random.Random(1)
    for _ in range(6):
        base = random_bpda(rng, BITS, 4, 9)
        bm = branch_guess_machine(base, "A")
        k = len(base.machine.states)
        assert len(bm.bpda.machine.states) == 6 * k + 2
        assert len(bm.bpda.final) == 2 * len(base.final)
        assert bm.bpda.machine.stack_alphabet == \
            tuple(base.machine.stack_alphabet) + (bm.counter_symbol,)
        assert set(bm.rule_group) == set(bm.bpda.machine.rules)
        kinds = set(bm.state_kind.values())
        assert kinds <= {"boot", "base", "copy1", "copy2", "copy3", "copy4",
                         "copy5", "reject"}


def test_one_counter_corollary():
    base, _ = ones_bpda()
    bm = branch_guess_machine(base, "A")
    assert bm.bpda.machine.stack_alphabet == ("Z0", "E")
    # every reachable stack is a run of counters over the bottom symbol
    for (q, a, z, p, push) in bm.bpda.machine.rules:
        assert all(s in ("Z0", "E") for s in push)


def test_counter_symbol_disambiguation():
    rules = frozenset({("q", "0", "E", "q", ("E",))})
    base = Bpda(Pdm(frozenset({"q"}), BITS, ("E",), "q", "E", rules),
                frozenset({"q"}))
    bm = branch_guess_machine(base, "A")
    assert bm.counter_symbol != "E"
    assert bm.counter_symbol in bm.bpda.machine.stack_alphabet


def test_separator_must_be_fresh():
    base, _ = ones_bpda()
    with pytest.raises(ValueError):
        branch_guess_machine(base, "0")
    with pytest.raises(ValueError):
        branch_guess_machine(base, "A", counter_symbol="Z0")


def test_reject_sink_only_self_moves():
    base, _ = ones_bpda()
    bm = branch_guess_machine(base, "A")
    for rule in bm.bpda.machine.rules:
        if rule[0] == bm.reject_state:
            assert rule[3] == bm.reject_state
            assert bm.rule_group[rule] == "k"
    assert bm.reject_state not in bm.bpda.final


def test_group_overlap_e_and_f_both_installed():
    base, _ = ones_bpda()
    bm = branch_guess_machine(base, "A")
    c1 = bm.copies[(1, "q0")]
    c2 = bm.copies[(2, "q0")]
    e_rule = (c1, "A", bm.counter_symbol, c2, (bm.counter_symbol,))
    f_rule = ("q0", "A", bm.counter_symbol, c2, (bm.counter_symbol,))
    assert bm.rule_group[e_rule] == "e"
    assert bm.rule_group[f_rule] == "f"


def test_silent_rules_only_from_silent_base_moves():
    base, _ = ones_bpda()  # no silent moves at all
    bm = branch_guess_machine(base, "A")
    assert all(a is not None for (_, a, _, _, _) in bm.bpda.machine.rules)


def silent_start_bpda():
    """q0 -#-> q1, q1 -1-> q1 with q1 final: the language 1^w, whose runs
    all start with a silent move."""
    rules = frozenset({("q0", None, "Z0", "q1", ("Z0",)),
                       ("q1", "1", "Z0", "q1", ("Z0",))})
    m = Pdm(frozenset({"q0", "q1"}), BITS, ("Z0",), "q0", "Z0", rules)
    return Bpda(m, frozenset({"q1"}))


def silent_prefixed(b):
    """The same language behind a silent push and a silent pop made from a
    fresh initial state before the first letter."""
    m = b.machine
    z0 = m.start_stack
    rules = set(m.rules) | {("sb", None, z0, "sm", ("Y", z0)),
                            ("sm", None, "Y", m.initial, ())}
    return Bpda(Pdm(m.states | {"sb", "sm"}, m.input_alphabet,
                    m.stack_alphabet + ("Y",), "sb", z0, frozenset(rules)),
                b.final)


def test_image_language_is_accepted():
    # every lasso of the filler image is accepted by the transform, also
    # for a base whose runs start with a silent move
    e = omega_power(cfg(BITS, "S", [("S", ("0", "S")), ("S", ("1",))]))
    ones = omega_power(cfg(BITS, "S", [("S", ("1",))]))
    cases = [
        (e, kc_to_bpda(e), 5, [("", "1A1"), ("", "1A")], []),
        (ones, silent_start_bpda(), 1,
         [("", "1A"), ("", "1A1"), ("", "10A00"), ("1A", "11A001")],
         [("", "0A"), ("", "1A111"), ("", "1AA"), ("", "1A0A")]),
    ]
    for expr, base, least, members, others in cases:
        bm = branch_guess_machine(base, "A")
        img_machine = kc_to_bpda(filler_image_expr(expr, "A"))
        rng = random.Random(31)
        accepted = 0
        for _ in range(250):
            w = random_lasso(rng, BITS_SEP, 6, 6).normalize()
            if img_machine.accepts_lasso(w):
                accepted += 1
                assert bm.bpda.accepts_lasso(w)
        assert accepted >= least
        for u, v in members:
            w = lasso(BITS_SEP, u, v)
            assert img_machine.accepts_lasso(w) and bm.bpda.accepts_lasso(w)
        for u, v in others:
            w = lasso(BITS_SEP, u, v)
            assert not img_machine.accepts_lasso(w)
            assert not bm.bpda.accepts_lasso(w)


def test_divergences_are_exactly_boot_runs():
    # boot runs (one extra leading filler block, then the simulation from
    # the initial state) were the transform's only extra words while the
    # first move left the base initial state; the fresh boot state removes
    # them, also for a base that re-enters its initial state and for one
    # whose runs start with silent moves
    e = omega_power(cfg(BITS, "S", [("S", ("0", "S")), ("S", ("1",))]))
    bases = [kc_to_bpda(e), ones_bpda()[0], silent_prefixed(kc_to_bpda(e))]
    machines = [branch_guess_machine(base, "A") for base in bases]
    img = filler_image_expr(e, "A")
    lead = doubling_filler(BITS, "A")
    shifted = omega_kleene([(concat_grammars(lead, p.u), p.v)
                            for p in img.pairs])
    rng = random.Random(37)
    checked = 0
    divergent = []
    for _ in range(120):
        w = random_lasso(rng, BITS_SEP, 5, 5).normalize()
        verdict = lasso_in_kc(img, w, 4 * (len(w.spoke) + len(w.cycle)) + 12)
        if verdict == "unknown":
            continue
        checked += 1
        for i, bm in enumerate(machines):
            if bm.bpda.accepts_lasso(w) != (verdict == "yes"):
                divergent.append((i, w))
    assert checked >= 100
    assert divergent == []
    # known boot-run words: in the shifted language only, now rejected
    for text in (("A", "1"), ("1", "A", "1", "1", "1")):
        w = lasso(BITS_SEP, "", text)
        assert lasso_in_kc(img, w, 30) == "no"
        assert lasso_in_kc(shifted, w, 30) == "yes"
        for bm in machines:
            assert not bm.bpda.accepts_lasso(w)


def test_filler_substitution_is_lambda_free():
    assert filler_insertion(BITS, "A").is_lambda_free()


def test_evidence_level_zero():
    base, _ = ones_bpda()
    bm = branch_guess_machine(base, "A")
    t1 = level_homogeneous_tree(lasso(BITS, "", "1"))
    t0 = level_homogeneous_tree(lasso(BITS, "", "0"))
    assert branch_evidence(bm, t1, 0, 2) == 1  # the first move enters qf
    assert branch_evidence(bm, t0, 0, 2) == 0


def test_evidence_growth_and_stabilization():
    base, aut = ones_bpda()
    bm = branch_guess_machine(base, "A")
    grow = [branch_evidence(bm, level_homogeneous_tree(lasso(BITS, "", "01")),
                            lv, 2) for lv in range(0, 13, 2)]
    assert all(b >= a for a, b in zip(grow, grow[1:]))
    assert grow[-1] >= grow[0] + 5
    flat = [branch_evidence(bm, level_homogeneous_tree(lasso(BITS, "1", "0")),
                            lv, 2) for lv in (10, 11, 12)]
    assert flat[0] == flat[1] == flat[2] == 1


def random_fa_bpda(rng, complete):
    """A seeded finite automaton over bits with 1-5 states as an inert-stack
    pushdown machine: nondeterministic, and with `complete` every state has
    a move on every letter, otherwise some runs die."""
    states = [f"f{i}" for i in range(rng.randint(1, 5))]
    rules = set()
    for q in states:
        for a in "01":
            k = rng.randint(int(complete), min(2, len(states)))
            for p in rng.sample(states, k):
                rules.add((q, a, "Z0", p, ("Z0",)))
    final = frozenset(q for q in states if rng.random() < 0.4)
    m = Pdm(frozenset(states), BITS, ("Z0",), "f0", "Z0", frozenset(rules))
    return Bpda(m, final)


def test_fast_engine_matches_generic_runs():
    ones, _ = ones_bpda()
    # the same acceptor started in its final state: the base initial state
    # is final and re-entered, while the boot state is not final
    m = ones.machine
    final_start = Bpda(Pdm(m.states, m.input_alphabet, m.stack_alphabet,
                           "qf", m.start_stack, m.rules), ones.final)
    known = (ones, final_start)
    # nondeterministic bases, half of them incomplete, where a run may die
    rng = random.Random(47)
    seeded = tuple(random_fa_bpda(rng, i % 2 == 0) for i in range(40))
    dead = 0
    for base in known + seeded:
        bm = branch_guess_machine(base, "A")
        assert _fa_encoded(base)
        rng = random.Random(41)
        for _ in range(12 if base in known else 2):
            w = random_lasso(rng, BITS, 3, 3).normalize()
            t = level_homogeneous_tree(w)
            assert _depth_labels(t, 4) is not None
            for lv in range(5):
                fast = branch_evidence(bm, t, lv, 3)
                prefix = h_prefix(t, lv, "A")
                x = Word(bm.bpda.machine.input_alphabet, prefix.symbols)
                generic = bounded_runs(bm.bpda.machine, x, 3, bm.bpda.final)
                if base in known:
                    assert generic, \
                        "a valid code prefix always leaves live runs"
                dead += not generic
                assert fast == max(generic.values(), default=0)
    # enough seeded cases leave no live run at all
    assert dead >= 20


def dfa_bpda(initial, final, delta):
    """A complete deterministic automaton over bits, (state, letter) ->
    successor, as an inert-stack pushdown machine."""
    rules = frozenset((q, a, "Z0", p, ("Z0",)) for (q, a), p in delta.items())
    m = Pdm(frozenset(q for q, _ in delta), BITS, ("Z0",), initial, "Z0",
            rules)
    return Bpda(m, frozenset(final))


def best_branch_visits(base, t, levels):
    """Most final-state visits, the initial state not counted, of the
    base's runs on the labels of any branch of t through `levels`."""
    m = base.machine
    best = -1
    for turns in itertools.product((t.left, t.right), repeat=levels):
        node = t.initial
        runs = {m.initial: 0}
        for i in range(levels + 1):
            if i:
                node = turns[i - 1][node]
            nxt = {}
            for q, c in runs.items():
                for p, _ in m.moves(q, t.output[node], m.start_stack):
                    nxt[p] = max(nxt.get(p, -1), c + (p in base.final))
            runs = nxt
        best = max(best, *runs.values())
    return best


def mod3_bpda():
    """Accepts when the number of 1s read so far is divisible by 3."""
    return dfa_bpda("m0", {"m0"}, {(f"m{i}", a): f"m{(i + int(a)) % 3}"
                                   for i in range(3) for a in "01"})


def ends01_bpda():
    """Accepts when the letters read so far end in 01."""
    return dfa_bpda("e0", {"e2"}, {("e0", "0"): "e1", ("e0", "1"): "e0",
                                   ("e1", "0"): "e1", ("e1", "1"): "e2",
                                   ("e2", "0"): "e1", ("e2", "1"): "e0"})


def test_generic_path_on_inhomogeneous_tree():
    # for complete finite-automaton bases the score is the best branch's
    bases = [ones_bpda()[0], mod3_bpda(), ends01_bpda()]
    rng = random.Random(43)
    for base in bases:
        bm = branch_guess_machine(base, "A")
        for levels in [1, 2, 3, 4, 5] * 3:
            t = random_tree(rng, BITS, 3)
            while _depth_labels(t, levels) is not None:
                t = random_tree(rng, BITS, 3)
            assert branch_evidence(bm, t, levels, 2) == \
                best_branch_visits(base, t, levels)


def test_evidence_rejects_foreign_labels():
    base, _ = ones_bpda()
    bm = branch_guess_machine(base, "A")
    foreign = level_homogeneous_tree(lasso(alphabet("x"), "", "x"))
    separator = level_homogeneous_tree(lasso(BITS_SEP, "", "1A"))
    plain = level_homogeneous_tree(lasso(BITS, "", "1"))
    rng = random.Random(5)
    mixed = random_tree(rng, BITS, 3)
    while _depth_labels(mixed, 3) is not None:
        mixed = random_tree(rng, BITS, 3)
    # a negative budget is refused on the recurrence and the generic path
    for t, levels, budget in ((foreign, 2, 2), (separator, 2, 2),
                              (plain, -1, 2), (plain, 3, -1), (mixed, 3, -1)):
        with pytest.raises(ValueError):
            branch_evidence(bm, t, levels, budget)


def height_recurrence_evidence(bm, depth_labels):
    """The recurrence the per-state pass replaced: (state, counter height)
    entries with their best score, level by level, mirroring the rule
    groups including the reject sink.  It keeps up to 2^n heights at
    level n."""
    base = bm.base
    q0, z0 = base.machine.initial, base.machine.start_stack
    final = base.final
    best_reject = None

    def note_reject(c):
        nonlocal best_reject
        if best_reject is None or best_reject < c:
            best_reject = c

    entries = {(p, 0): 1 if p in final else 0
               for p, _ in base.machine.moves(q0, depth_labels[0], z0)}
    for n in range(1, len(depth_labels)):
        x = depth_labels[n]
        m = 2 ** n
        reached = {}

        def plant(p, r, c):
            if reached.get((p, r), -1) < c:
                reached[(p, r)] = c

        for (q, h), c in entries.items():
            if 2 * h > m:
                note_reject(c)  # groups (i)/(j): separator hits mid-pop
                continue
            if 2 * h == m:
                continue  # popping eats the level; no move on the separator
            rem = m - 2 * h
            for p, _ in base.machine.moves(q, x, z0):
                c2 = c + (1 if p in final else 0)
                plant(p, rem - 1, c2)  # group (l): simulate now
                if rem >= 2:
                    plant(p, rem - 2, c2)  # groups (q)+(r): wait one letter
            if rem == 1:
                note_reject(c)  # group (q) then (s): waited past the level
        entries = reached
    candidates = list(entries.values())
    if best_reject is not None:
        candidates.append(best_reject)
    return max(candidates, default=0)


def test_state_recurrence_matches_height_recurrence():
    rng = random.Random(53)
    final_start = 0
    for i in range(150):
        base = random_fa_bpda(rng, complete=i % 2 == 0)
        final_start += base.machine.initial in base.final
        bm = branch_guess_machine(base, "A")
        for _ in range(2):
            t = level_homogeneous_tree(random_lasso(rng, BITS, 6, 6))
            lv = rng.randint(0, 11)
            assert branch_evidence(bm, t, lv, 2) == \
                height_recurrence_evidence(bm, _depth_labels(t, lv))
    assert final_start >= 20
    for base in (ones_bpda()[0], mod3_bpda(), ends01_bpda()):
        bm = branch_guess_machine(base, "A")
        for _ in range(4):
            t = level_homogeneous_tree(random_lasso(rng, BITS, 4, 4))
            for lv in (10, 11, 12):
                assert branch_evidence(bm, t, lv, 2) == \
                    height_recurrence_evidence(bm, _depth_labels(t, lv))


def test_evidence_at_depth_64():
    # the per-state pass is linear in the levels; a recurrence over counter
    # heights would need 2^64 entries here
    bm = branch_guess_machine(ones_bpda()[0], "A")
    for spoke, cycle, want in (("", "1", 65), ("", "01", 32), ("1", "0", 1)):
        t = level_homogeneous_tree(lasso(BITS, spoke, cycle))
        assert branch_evidence(bm, t, 64, 2) == want
