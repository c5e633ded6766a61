"""Seeded verification suites.

Each suite runs a battery of exact checks against independent oracles and
returns one result per property.  The command-line `verify` verb prints them
as PASS/FAIL lines; the acceptance tests assert them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import formats
from .buchi import BuchiAutomaton, Fsm
from .cfg import (apply_substitution, cfg, filler_insertion)
from .kleene import kc_to_bpda, lasso_in_kc, omega_kleene, omega_power
from .branching import branch_guess_machine, branch_evidence, filler_image_expr
from .oracles import (has_bad_prefix, has_gap_defect_factor, pds_explicit_empty,
                      random_bpda, random_lasso, random_one_counter_pds,
                      random_tree)
from .pushdown import buchi_pds_empty, inert_stack_bpda
from .trees import (coding_complement_expr, f_embed, h_prefix, j_leftmost,
                    level_homogeneous_tree, level_nodes)
from .words import Alphabet, alphabet, format_lasso, lasso


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# ------------------------------------------------------------- fixtures

BITS = alphabet("0", "1")
BITS_SEP = alphabet("0", "1", "A")


def grammar_zero_star_one():
    """S -> 0 S | 1 : the finite words ending in their only 1."""
    return cfg(BITS, "S", [("S", ("0", "S")), ("S", ("1",))])


def grammar_matched_blocks():
    """S -> 0 S 1 | 0 1 : the words 0^n 1^n."""
    return cfg(BITS, "S", [("S", ("0", "S", "1")), ("S", ("0", "1"))])


def infinitely_many_ones_automaton() -> BuchiAutomaton:
    fsm = Fsm(frozenset({"q0", "qf"}), BITS, "q0", frozenset({
        ("q0", "0", "q0"), ("q0", "1", "qf"),
        ("qf", "0", "q0"), ("qf", "1", "qf")}))
    return BuchiAutomaton(fsm, frozenset({"qf"}))


# --------------------------------------------------------------- suites

def _oracle_vs_machine(rng, cases, size: int, need: int, attempts: int):
    """Draw seeded lassos (case i % len(cases) on draw i, each case an
    expression, its machine and the lasso alphabet) until `need` oracle
    verdicts are conclusive or `attempts` lassos are drawn.  Returns the
    conclusive count and the (case index, lasso) pairs whose machine
    decision differs from the conclusive verdict."""
    conclusive = 0
    mismatches = []
    for i in range(attempts):
        if conclusive >= need:
            break
        e, machine, alpha = cases[i % len(cases)]
        w = random_lasso(rng, alpha, size, size).normalize()
        verdict = lasso_in_kc(e, w, 4 * (len(w.spoke) + len(w.cycle)) + 12)
        if verdict == "unknown":
            continue
        conclusive += 1
        if (verdict == "yes") != machine.accepts_lasso(w):
            mismatches.append((i % len(cases), w))
    return conclusive, mismatches


def suite_coding(seed: int) -> list[CheckResult]:
    out = []

    # coding structure vs brute-force node enumeration
    rng = _rng(seed, "coding-trees")
    bad = []
    for t_idx in range(50):
        labels = Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
        t = random_tree(rng, labels, 5)
        expected: list[str] = []
        cut_points = []
        for n in range(13):
            addresses = sorted("".join(p) for p in
                               itertools.product("lr", repeat=n))
            if n % 2 == 0 and n > 0:
                addresses.reverse()
            for addr in addresses:
                s = t.initial
                for c in addr:
                    s = t.left[s] if c == "l" else t.right[s]
                expected.append(t.output[s])
            expected.append("A")
            cut_points.append(len(expected))
        full = h_prefix(t, 12).symbols
        if list(full) != expected:
            bad.append(f"tree {t_idx} full prefix")
            continue
        for lv in range(13):
            if h_prefix(t, lv).symbols != tuple(expected[:cut_points[lv]]):
                bad.append(f"tree {t_idx} level {lv}")
    out.append(CheckResult(
        "coding-structure: 50 random trees, levels 0-12, exact match",
        not bad, f"mismatches: {bad if bad else 'none'}"))

    # level order identity
    ok = True
    for n in range(11):
        lex = level_nodes(n, "lex").nodes
        rev = level_nodes(n, "revlex").nodes
        if any(rev[i - 1] != lex[2 ** n + 1 - i - 1] for i in range(1, 2 ** n + 1)):
            ok = False
    out.append(CheckResult(
        "level-order-identity: revlex[i] = lex[2^n+1-i] for n <= 10",
        ok, "exact index identity"))

    # leftmost-path embedding round trip
    rng = _rng(seed, "coding-roundtrip")
    bad_rt = []
    for i in range(200):
        alpha = (BITS, Alphabet(("a", "b", "c")))[i % 2]
        w = random_lasso(rng, alpha, 5, 5)
        n = w.normalize()
        back = j_leftmost(f_embed(w))
        if (back.spoke.symbols, back.cycle.symbols) != \
                (n.spoke.symbols, n.cycle.symbols):
            bad_rt.append(format_lasso(w))
    out.append(CheckResult(
        "embed-roundtrip: leftmost path of embedded lasso = normalized lasso "
        "(200 seeded)", not bad_rt, f"failures: {bad_rt if bad_rt else 'none'}"))

    # file format round trips
    samples = []
    aut = infinitely_many_ones_automaton()
    samples.append(("buchi automaton", formats.format_buchi_automaton(aut),
                    formats.parse_automaton, aut))
    kcm = kc_to_bpda(omega_power(grammar_zero_star_one()))
    samples.append(("pushdown", formats.format_bpda(kcm),
                    formats.parse_pushdown, kcm))
    g = grammar_matched_blocks()
    samples.append(("grammar", formats.format_grammar(g),
                    formats.parse_grammar, g))
    t = level_homogeneous_tree(lasso(BITS, "0", "01"))
    samples.append(("tree", formats.format_tree(t), formats.parse_tree, t))
    bad_fmt = [name for name, text, parse, obj in samples
               if parse(text) != obj]
    out.append(CheckResult(
        "format-roundtrip: parse(format(x)) = x for sample artifacts",
        not bad_fmt, f"failures: {bad_fmt if bad_fmt else 'none'}"))
    return out


def suite_complement(seed: int) -> list[CheckResult]:
    out = []
    machine = kc_to_bpda(coding_complement_expr(BITS))

    rejected = []
    seen = set()
    for n in range(1, 6):
        for split in range(n):
            for syms in itertools.product(BITS_SEP.letters, repeat=n):
                w = lasso(BITS_SEP, syms[:split], syms[split:]).normalize()
                key = (w.spoke.symbols, w.cycle.symbols)
                if key in seen:
                    continue
                seen.add(key)
                if not machine.accepts_lasso(w):
                    rejected.append(format_lasso(w))
    out.append(CheckResult(
        f"complement-exhaustive: all {len(seen)} normalized lassos with "
        "|u|+|v| <= 5 accepted", not rejected,
        f"rejected: {rejected[:5] if rejected else 'none'}"))

    rng = _rng(seed, "complement-random")
    rejected_r = []
    for _ in range(500):
        w = random_lasso(rng, BITS_SEP, 8, 8).normalize()
        if not machine.accepts_lasso(w):
            rejected_r.append(format_lasso(w))
    out.append(CheckResult(
        "complement-random: 500 seeded lassos with |u|,|v| <= 8 accepted",
        not rejected_r, f"rejected: {rejected_r[:5] if rejected_r else 'none'}"))

    rng = _rng(seed, "complement-scan")
    witnesses = []
    for t_idx in range(20):
        t = random_tree(rng, BITS, 5)
        for lv in range(11):
            syms = h_prefix(t, lv).symbols
            if has_bad_prefix(syms, BITS, "A") or \
                    has_gap_defect_factor(syms, BITS, "A"):
                witnesses.append(f"tree {t_idx} level {lv}")
    out.append(CheckResult(
        "complement-scan: no coded prefix of 20 random trees (levels <= 10) "
        "carries a bad-prefix or gap-defect witness", not witnesses,
        f"witnesses: {witnesses if witnesses else 'none'}"))
    return out


def _rederive_groups(bm) -> dict:
    """Re-derive the transition set of the branch-guessing transform from
    the nineteen rule schemas, using only the base machine and the published
    state names (the boot state is the transform's initial state)."""
    base = bm.base.machine
    sep, e, reject = bm.separator, bm.counter_symbol, bm.reject_state
    boot = bm.bpda.machine.initial
    q0, z0 = base.initial, base.start_stack
    sigma = base.input_alphabet
    gamma = base.stack_alphabet
    gamma_e = tuple(gamma) + (e,)
    cp = {(i, q): bm.copies[(i, q)] for i in range(1, 6) for q in base.states}
    rules: dict = {}
    inputs = [(q, a, z, p, pu) for (q, a, z, p, pu) in base.rules
              if a is not None]
    silents = [(q, a, z, p, pu) for (q, a, z, p, pu) in base.rules if a is None]
    for (q, a, z, p, pu) in base.rules:
        target = p if a is not None else cp[(3, p)]
        if q == q0 and z == z0:
            rules[(boot, a, z0, target, pu)] = "a"
        if silents:
            rules[(cp[(3, q)], a, z, target, pu)] = "a"
    rules[(boot, sep, z0, reject, (z0,))] = "b"
    for q in base.states:
        for a in sigma:
            for z in gamma_e:
                rules[(q, a, z, cp[(1, q)], (e, z))] = "c"
            rules[(cp[(1, q)], a, e, cp[(1, q)], (e, e))] = "d"
        for z in gamma_e:
            rules[(cp[(1, q)], sep, z, cp[(2, q)], (z,))] = "e"
            rules[(q, sep, z, cp[(2, q)], (z,))] = "f"
        for a in sigma:
            rules[(cp[(2, q)], a, e, cp[(3, q)], (e,))] = "g"
            rules[(cp[(3, q)], a, e, cp[(2, q)], ())] = "h"
        rules[(cp[(2, q)], sep, e, reject, (e,))] = "i"
        rules[(cp[(3, q)], sep, e, reject, (e,))] = "j"
    for a in tuple(sigma) + (sep,):
        for z in gamma_e:
            rules[(reject, a, z, reject, (z,))] = "k"
    for (q, a, z, p, pu) in inputs:
        rules[(cp[(2, q)], a, z, p, pu)] = "l"
        rules[(cp[(5, q)], a, z, p, pu)] = "o"
        rules[(cp[(4, q)], a, z, p, pu)] = "r"
    for (q, _, z, p, pu) in silents:
        rules[(cp[(2, q)], None, z, cp[(5, p)], pu)] = "m"
        rules[(cp[(5, q)], None, z, cp[(5, p)], pu)] = "n"
    for q in base.states:
        for a in sigma:
            for z in gamma:
                rules[(cp[(5, q)], a, z, cp[(4, q)], (z,))] = "p"
                rules[(cp[(2, q)], a, z, cp[(4, q)], (z,))] = "q"
        for z in gamma:
            rules[(cp[(4, q)], sep, z, reject, (z,))] = "s"
    return rules


def suite_bar(seed: int) -> list[CheckResult]:
    out = []

    # structural invariants over random machines
    rng = _rng(seed, "bar-structure")
    problems = []
    for i in range(20):
        base = random_bpda(rng, BITS, 4, rng.randint(4, 12))
        bm = branch_guess_machine(base, "A")
        k, kb = len(base.machine.states), len(bm.bpda.machine.states)
        if kb != 6 * k + 2:
            problems.append(f"machine {i}: |Kbar| = {kb}, want {6 * k + 2}")
        if len(bm.bpda.final) != 2 * len(base.final):
            problems.append(f"machine {i}: |Fbar| != 2|F|")
        if bm.bpda.machine.stack_alphabet != \
                tuple(base.machine.stack_alphabet) + (bm.counter_symbol,):
            problems.append(f"machine {i}: stack alphabet not Gamma+counter")
        if bm.bpda.machine.initial in set(base.machine.states) | \
                set(bm.copies.values()) | {bm.reject_state}:
            problems.append(f"machine {i}: initial state is not a fresh "
                            "boot state")
        rederived = _rederive_groups(bm)
        if rederived != bm.rule_group:
            problems.append(f"machine {i}: rule-group re-derivation differs")
    fab = inert_stack_bpda(infinitely_many_ones_automaton())
    bmf = branch_guess_machine(fab, "A")
    if bmf.bpda.machine.stack_alphabet != ("Z0", bmf.counter_symbol):
        problems.append("finite-automaton input: stack alphabet not {Z0, E}")
    out.append(CheckResult(
        "bar-structure: |Kbar|=6|K|+2 (five copies, reject sink, boot "
        "state), |Fbar|=2|F|, stack=Gamma+counter, groups re-derived "
        "(20 seeded machines + one-counter case)",
        not problems, "; ".join(problems) if problems else "all equal"))

    # reject-sink soundness: the sink only loops to itself
    sink_rules = [r for r in bmf.bpda.machine.rules if r[0] == bmf.reject_state]
    sink_ok = all(r[3] == bmf.reject_state and bmf.rule_group[r] == "k"
                  for r in sink_rules)
    out.append(CheckResult(
        "bar-reject-sink: reject state has only self-moves (group k)",
        sink_ok, f"{len(sink_rules)} sink rules"))

    # two descriptions on lassos
    e = omega_power(grammar_zero_star_one())
    bm = branch_guess_machine(kc_to_bpda(e), "A")
    img = filler_image_expr(e, "A")
    conclusive, mismatches = _oracle_vs_machine(
        _rng(seed, "bar-two-descriptions"), [(img, bm.bpda, BITS_SEP)], 6,
        200, 200)
    divergences = [w for _, w in mismatches]
    agree = conclusive - len(divergences)
    out.append(CheckResult(
        "bar-two-descriptions: machine vs substitution oracle on 200 seeded "
        f"lassos ({conclusive} conclusive, need >= 150)",
        conclusive >= 150 and not divergences,
        f"agree {agree}/{conclusive}; divergent: "
        f"{[format_lasso(w) for w in divergences] if divergences else 'none'}"))

    if divergences:
        # every divergence should be a boot run: the machine read one extra
        # leading filler word before starting the simulation
        from .cfg import concat_grammars, doubling_filler
        lead = doubling_filler(BITS, "A")
        shifted = omega_kleene([(concat_grammars(lead, p.u), p.v)
                                for p in img.pairs])
        explained = [
            (format_lasso(w),
             lasso_in_kc(shifted, w,
                         4 * (len(w.spoke) + len(w.cycle)) + 16))
            for w in divergences]
        all_explained = all(v == "yes" for _, v in explained)
        out.append(CheckResult(
            "bar-divergence-characterization: every divergent lasso is in "
            "the machine's language with one extra leading filler word",
            all_explained, f"{explained}"))

    # path correspondence
    aut = infinitely_many_ones_automaton()
    rng = _rng(seed, "bar-path")
    bad_path = []
    for _ in range(100):
        w = random_lasso(rng, BITS, 6, 6).normalize()
        t = level_homogeneous_tree(w)
        accept = aut.accepts_lasso(w)
        s10, s11, s12 = (branch_evidence(bmf, t, lv, 4) for lv in (10, 11, 12))
        q = aut.machine.initial
        fcount = 0
        for j in range(12):
            q = sorted(aut.machine.delta(q, w.symbol_at(j)))[0]
            fcount += q in aut.final
        good = (s12 >= fcount) if accept else (s10 == s11 == s12)
        if not good:
            bad_path.append((format_lasso(w), accept, (s10, s11, s12), fcount))
    out.append(CheckResult(
        "bar-path-correspondence: evidence score grows iff the base "
        "automaton accepts (100 seeded lassos)", not bad_path,
        f"failures: {bad_path if bad_path else 'none'}"))
    return out


def suite_kc(seed: int) -> list[CheckResult]:
    out = []

    # conversion vs the two-state acceptor
    e1 = omega_power(grammar_zero_star_one())
    m1 = kc_to_bpda(e1)
    aut = infinitely_many_ones_automaton()
    rng = _rng(seed, "kc-regular")
    bad = []
    for _ in range(100):
        w = random_lasso(rng, BITS, 6, 6)
        if m1.accepts_lasso(w) != aut.accepts_lasso(w):
            bad.append(format_lasso(w))
    out.append(CheckResult(
        "kc-regular: conversion of ({lambda}, 0*.1) matches the two-state "
        "acceptor on 100 seeded lassos", not bad,
        f"mismatches: {bad if bad else 'none'}"))

    # conversion vs the factorization oracle on the matched-blocks language
    e2 = omega_power(grammar_matched_blocks())
    m2 = kc_to_bpda(e2)
    conclusive, mismatches = _oracle_vs_machine(
        _rng(seed, "kc-blocks"), [(e2, m2, BITS)], 6, 200, 3000)
    bad2 = [format_lasso(w) for _, w in mismatches]
    pinned_ok = (m2.accepts_lasso(lasso(BITS, "", "01"))
                 and not m2.accepts_lasso(lasso(BITS, "", "0")))
    out.append(CheckResult(
        f"kc-blocks: conversion of ({{lambda}}, 0^n 1^n) matches the oracle "
        f"on {conclusive} conclusive lassos (need 200), (01)^w in / 0^w out",
        conclusive >= 200 and not bad2 and pinned_ok,
        f"mismatches: {bad2 if bad2 else 'none'}; pinned: {pinned_ok}"))

    # omega power of the filler-image grammar
    gw = apply_substitution(filler_insertion(BITS, "A"), grammar_zero_star_one())
    e3 = omega_power(gw)
    m3 = kc_to_bpda(e3)
    pinned_in = m3.accepts_lasso(lasso(BITS_SEP, "", ("1", "A", "1")))
    pinned_out = not m3.accepts_lasso(lasso(BITS_SEP, "", ("1", "A", "1", "1", "1")))
    conclusive3, mismatches = _oracle_vs_machine(
        _rng(seed, "kc-power"), [(e3, m3, BITS_SEP)], 6, 100, 2000)
    bad3 = [format_lasso(w) for _, w in mismatches]
    out.append(CheckResult(
        "kc-power: omega power of the filler-image grammar accepts (1.A.1)"
        f"-cycle, rejects (1.A.111)^w, matches oracle on {conclusive3} "
        "conclusive lassos (need 100)",
        pinned_in and pinned_out and conclusive3 >= 100 and not bad3,
        f"in={pinned_in} out={pinned_out} mismatches: {bad3 if bad3 else 'none'}"))

    # oracle soundness across builder expressions
    e4 = coding_complement_expr(BITS)
    cases = [(e1, m1, BITS), (e2, m2, BITS), (e3, m3, BITS_SEP),
             (e4, kc_to_bpda(e4), BITS_SEP)]
    checked, mismatches = _oracle_vs_machine(
        _rng(seed, "kc-soundness"), cases, 5, 240, 240)
    bad4 = [(idx, format_lasso(w)) for idx, w in mismatches]
    out.append(CheckResult(
        f"kc-oracle-soundness: conclusive oracle verdicts match the exact "
        f"decision on {checked} of 240 sampled instances (need >= 200)",
        checked >= 200 and not bad4,
        f"mismatches: {bad4 if bad4 else 'none'}"))
    return out


def suite_emptiness(seed: int) -> list[CheckResult]:
    rng = _rng(seed, "emptiness")
    checked = 0
    attempts = 0
    mismatches = []
    while checked < 50 and attempts < 4000:
        attempts += 1
        pds = random_one_counter_pds(rng, 4)
        explicit_empty, closed = pds_explicit_empty(pds, 8)
        if not closed:
            continue
        checked += 1
        if buchi_pds_empty(pds) != explicit_empty:
            mismatches.append(checked)
    return [CheckResult(
        f"emptiness: saturation matches explicit-state search on {checked} "
        "height-8-closed one-counter systems (need 50)",
        checked >= 50 and not mismatches,
        f"mismatches: {mismatches if mismatches else 'none'}")]


SUITES = {
    "coding": suite_coding,
    "complement": suite_complement,
    "bar": suite_bar,
    "kc": suite_kc,
    "emptiness": suite_emptiness,
}


def run_suite(name: str, seed: int) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name](seed)
