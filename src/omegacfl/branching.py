"""The branch-guessing pushdown transform.

Given a Buchi pushdown machine over sigma and a separator letter, the
transform builds a machine over sigma+separator that reads a coded tree,
guesses a maximal branch, and simulates the base machine on the labels of
that branch.  A counter symbol pushed once per skipped letter and popped
once per two letters of the next level keeps the guess aligned with the
level-order coding.

A maximal branch starts at the root, so the first move is made from a fresh
boot state that only simulates the root label (group a) or rejects a
leading separator (group b).  The base initial state carries the in-level
groups like every other base state; it is not the machine's start.

Each state of the result is tagged with its provenance (boot state, base
copy number or reject sink) and each transition with the rule group that
produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import _fresh, filler_insertion
from .kleene import OmegaKleeneExpr, kc_substitute
from .pushdown import Bpda, Pdm, PdRule, bounded_runs
from .trees import RegularTree, h_prefix
from .words import Word

GROUPS = "abcdefghijklmnopqrs"


@dataclass(frozen=True)
class BranchGuessMachine:
    """The transformed machine plus provenance maps."""

    bpda: Bpda
    base: Bpda
    separator: str
    counter_symbol: str
    reject_state: str
    copies: dict          # (kind, base state) -> state token; kind 1..5
    state_kind: dict      # state token -> "boot" | "base" | "copy1".."copy5"
                          # | "reject"
    rule_group: dict      # rule tuple -> group letter


def _copy_namer(base_states: frozenset[str]):
    suffix = "^"
    while True:
        names = {(i, q): f"{q}{suffix}{i}" for q in base_states
                 for i in range(1, 6)}
        if set(names.values()) & base_states:
            suffix += "^"
            continue
        return names


def branch_guess_machine(m: Bpda, separator: str = "A",
                         counter_symbol: str | None = None) -> BranchGuessMachine:
    """Install the nineteen rule groups (a)-(s) over the base machine.

    Groups (a) and (b) leave the fresh boot state, which is the initial
    state of the result and is never re-entered (group (a) runs a silent
    root prefix in the third copy); groups (c)-(s) are unioned into one
    nondeterministic transition relation over the base states, their five
    copies and the reject sink.  The result accepts exactly the filler image
    of the base language (see `filler_image_expr`).  Final states are the
    base finals plus their silent-move copies; the boot state is not final.
    """
    base = m.machine
    sigma = base.input_alphabet
    if separator in sigma:
        raise ValueError(f"separator {separator!r} already an input letter")
    if counter_symbol is None:
        counter_symbol = _fresh("E", set(base.stack_alphabet))
    elif counter_symbol in base.stack_alphabet:
        raise ValueError(f"counter symbol {counter_symbol!r} already a stack symbol")
    e = counter_symbol
    copies = _copy_namer(base.states)
    taken = set(base.states) | set(copies.values())
    reject = _fresh("qr", taken)
    boot = _fresh("qb", taken)

    gamma = tuple(base.stack_alphabet)
    gamma_e = gamma + (e,)
    q0, z0 = base.initial, base.start_stack
    input_rules = [(q, a, z, p, push) for (q, a, z, p, push) in base.rules
                   if a is not None]
    silent_rules = [(q, a, z, p, push) for (q, a, z, p, push) in base.rules
                    if a is None]

    rules: dict[PdRule, str] = {}

    def add(rule: PdRule, group: str):
        if rule in rules and rules[rule] != group:
            raise AssertionError(f"rule {rule} tagged {rules[rule]} and {group}")
        rules[rule] = group

    # (a) simulate the root label with the base initial moves.  A silent
    # prefix runs in the third copy, which has no other move with a base
    # symbol on top; group (p) of the fifth copy would skip the root label.
    for (q, a, z, p, push) in base.rules:
        tgt = p if a is not None else copies[(3, p)]
        if q == q0 and z == z0:
            add((boot, a, z0, tgt, push), "a")
        if silent_rules:
            add((copies[(3, q)], a, z, tgt, push), "a")
    # (b) a word may not open with the separator
    add((boot, separator, z0, reject, (z0,)), "b")
    # (c)/(d) skip the rest of the level, one counter push per letter
    for q in sorted(base.states):
        for a in sigma:
            for z in gamma_e:
                add((q, a, z, copies[(1, q)], (e, z)), "c")
            add((copies[(1, q)], a, e, copies[(1, q)], (e, e)), "d")
    # (e)/(f) cross the separator into the popping phase
    for q in sorted(base.states):
        for z in gamma_e:
            add((copies[(1, q)], separator, z, copies[(2, q)], (z,)), "e")
            add((q, separator, z, copies[(2, q)], (z,)), "f")
    # (g)/(h) pop one counter per two letters of the next level
    for q in sorted(base.states):
        for a in sigma:
            add((copies[(2, q)], a, e, copies[(3, q)], (e,)), "g")
            add((copies[(3, q)], a, e, copies[(2, q)], ()), "h")
        # (i)/(j) a separator inside the popping phase breaks the code shape
        add((copies[(2, q)], separator, e, reject, (e,)), "i")
        add((copies[(3, q)], separator, e, reject, (e,)), "j")
    # (k) the reject sink consumes everything
    for a in tuple(sigma) + (separator,):
        for z in gamma_e:
            add((reject, a, z, reject, (z,)), "k")
    # (l) simulate the chosen child's label
    for (q, a, z, p, push) in input_rules:
        add((copies[(2, q)], a, z, p, push), "l")
    # (m)/(n) silent base moves, tracked in the fifth copy
    for (q, a, z, p, push) in silent_rules:
        add((copies[(2, q)], None, z, copies[(5, p)], push), "m")
        add((copies[(5, q)], None, z, copies[(5, p)], push), "n")
    # (o) consume the child label after silent moves
    for (q, a, z, p, push) in input_rules:
        add((copies[(5, q)], a, z, p, push), "o")
    # (p)/(q) wait one letter for the other child
    for q in sorted(base.states):
        for a in sigma:
            for z in gamma:
                add((copies[(5, q)], a, z, copies[(4, q)], (z,)), "p")
                add((copies[(2, q)], a, z, copies[(4, q)], (z,)), "q")
    # (r) simulate from the waiting state
    for (q, a, z, p, push) in input_rules:
        add((copies[(4, q)], a, z, p, push), "r")
    # (s) waiting past the level end breaks the code shape
    for q in sorted(base.states):
        for z in gamma:
            add((copies[(4, q)], separator, z, reject, (z,)), "s")

    states = (set(base.states) | set(copies.values()) | {reject, boot})
    final = frozenset(m.final) | frozenset(copies[(5, q)] for q in m.final)
    machine = Pdm(frozenset(states), sigma.with_letter(separator), gamma_e,
                  boot, z0, frozenset(rules))
    state_kind = {q: "base" for q in base.states}
    for (i, q), name in copies.items():
        state_kind[name] = f"copy{i}"
    state_kind[reject] = "reject"
    state_kind[boot] = "boot"
    return BranchGuessMachine(Bpda(machine, final), m, separator, e, reject,
                              dict(copies), state_kind, dict(rules))


def filler_image_expr(e: OmegaKleeneExpr, separator: str = "A") -> OmegaKleeneExpr:
    """The grammar-level description of the transform's target language:
    insert one doubling-gap filler word after every letter."""
    return kc_substitute(e, filler_insertion(e.alphabet, separator))


# ----------------------------------------------------------- evidence runs

def branch_evidence(bm: BranchGuessMachine, t: RegularTree, levels: int,
                    lambda_budget: int) -> int:
    """Maximum number of final-state visits over all runs of the transformed
    machine consuming the coded tree through `levels`.

    For silent-move-free finite-state bases on depth-homogeneous trees the
    score is computed by an exact per-level recurrence over base states
    instead of the configuration enumeration: the counter height the
    transform tracks never changes a score there (see `_fa_evidence`), so
    the cost is O(levels x base transitions) rather than exponential in
    `levels`."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if lambda_budget < 0:
        raise ValueError("lambda budget must be >= 0")
    if bm.separator in t.labels:
        raise ValueError(f"separator {bm.separator!r} occurs in the tree alphabet")
    depth_labels = _depth_labels(t, levels)
    fast = depth_labels is not None and _fa_encoded(bm.base)
    # the recurrence reads only the per-depth labels, so it never builds
    # the coded prefix (2^(levels+1) - 1 labels)
    symbols = (depth_labels + [bm.separator] if fast
               else h_prefix(t, levels, bm.separator).symbols)
    machine_alpha = bm.bpda.machine.input_alphabet
    for s in symbols:
        if s not in machine_alpha:
            raise ValueError(f"tree label {s!r} outside the machine alphabet")
    if fast:
        return _fa_evidence(bm, depth_labels)
    x = Word(machine_alpha, symbols)
    reached = bounded_runs(bm.bpda.machine, x, lambda_budget, bm.bpda.final)
    return max(reached.values(), default=0)


def _depth_labels(t: RegularTree, levels: int) -> list[str] | None:
    """Per-depth labels when the tree is depth-homogeneous, else None."""
    states = {t.initial}
    out = []
    for _ in range(levels + 1):
        labels = {t.output[s] for s in states}
        if len(labels) != 1:
            return None
        out.append(labels.pop())
        states = {t.left[s] for s in states} | {t.right[s] for s in states}
    return out


def _fa_encoded(base: Bpda) -> bool:
    """A finite automaton written as a pushdown machine: the stack holds the
    untouched start symbol and every move reads a letter."""
    m = base.machine
    if m.stack_alphabet != (m.start_stack,):
        return False
    return all(a is not None and push == (m.start_stack,)
               for (_, a, _, _, push) in m.rules)


def _fa_evidence(bm: BranchGuessMachine, depth_labels: list[str]) -> int:
    """Exact evidence score for finite-automaton bases on depth-homogeneous
    trees, by one best score per base state, level by level, in
    O(levels x base transitions).

    The rule groups track a counter height h beside each base state, and
    level n has m = 2^n letters.  The height drops out: by induction on n
    the runs alive after level n - 1 hold exactly the heights
    0 .. 2^(n-1) - 1 for every live state, so every such h has
    2h <= m - 2.  Hence a separator mid-pop (groups (i)/(j), 2h > m) never
    happens, popping never eats the whole level (2h == m), and waiting
    never runs past the level end (group (q) then (s)); both the immediate
    simulation (group (l)) and the one-letter wait (groups (q)+(r)) always
    apply, landing at heights 2k+1 and 2k for k = 2^(n-1) - 1 - h.  Each
    new height thus reads exactly one old height through the same base
    moves, the score does not depend on the height, and no run reaches
    the reject sink.  Cross-checked against the configuration enumeration
    and the height recurrence in the test suite."""
    base = bm.base.machine
    z0, final = base.start_stack, bm.base.final
    # level 0: the boot state simulates the root label (group a); the boot
    # state itself is not final, so only the target's finality counts
    scores = {p: int(p in final)
              for p, _ in base.moves(base.initial, depth_labels[0], z0)}
    for x in depth_labels[1:]:
        reached: dict[str, int] = {}
        for q, c in scores.items():
            for p, _ in base.moves(q, x, z0):
                c2 = c + (p in final)
                if reached.get(p, -1) < c2:
                    reached[p] = c2
        scores = reached
    return max(scores.values(), default=0)
