"""Pushdown machines with Buchi / Muller acceptance on omega-words.

Exact lasso acceptance works on the product of the machine with the lasso's
position graph, an input-free Buchi pushdown system whose successors are
generated on demand from the machine's rule index, and decides emptiness of
that system by worklist repeating-head saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from .buchi import BuchiAutomaton, _sccs
from .words import Alphabet, Lasso, Word

PUSH_CAP = 4

# (state, letter-or-None, top, successor, pushed word); None reads nothing
PdRule = tuple[str, "str | None", str, str, tuple[str, ...]]


@dataclass(frozen=True)
class Pdm:
    """A pushdown machine; the leftmost stack symbol is the top."""

    states: frozenset[str]
    input_alphabet: Alphabet
    stack_alphabet: tuple[str, ...]
    initial: str
    start_stack: str
    rules: frozenset[PdRule]

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state undeclared")
        if self.start_stack not in self.stack_alphabet:
            raise ValueError("start stack symbol undeclared")
        if len(set(self.stack_alphabet)) != len(self.stack_alphabet):
            raise ValueError("duplicate stack symbols")
        for q, a, z, p, push in self.rules:
            if q not in self.states or p not in self.states:
                raise ValueError(f"rule {q, a, z, p, push} uses undeclared state")
            if a is not None and a not in self.input_alphabet:
                raise ValueError(f"rule letter {a!r} undeclared")
            if z not in self.stack_alphabet:
                raise ValueError(f"rule stack symbol {z!r} undeclared")
            if any(s not in self.stack_alphabet for s in push):
                raise ValueError(f"pushed word {push} uses undeclared symbol")
            if len(push) > PUSH_CAP:
                raise ValueError(
                    f"pushed word longer than {PUSH_CAP}; factor it through "
                    "fresh states at construction time")

    @cached_property
    def rule_index(self) -> dict[tuple[str, str], list[tuple]]:
        """(state, top) -> [(letter, successor, push)], built on first use.

        Built from the rules in sorted order, so the order in which moves
        are tried, and with it the saturation's work, does not depend on
        the process's string-hash seed."""
        index: dict[tuple[str, str], list[tuple]] = {}
        for q, a, z, p, push in sorted(
                self.rules, key=lambda r: (r[0], r[1] or "", *r[2:])):
            index.setdefault((q, z), []).append((a, p, push))
        return index

    def moves(self, q: str, a: "str | None", z: str) -> list[tuple[str, tuple[str, ...]]]:
        return [(p, push) for a2, p, push in self.rule_index.get((q, z), ())
                if a2 == a]


@dataclass(frozen=True)
class Configuration:
    """A machine state plus stack content (top first)."""

    state: str
    stack: tuple[str, ...]

    @property
    def top(self) -> "str | None":
        return self.stack[0] if self.stack else None


def initial_configuration(m: Pdm) -> Configuration:
    return Configuration(m.initial, (m.start_stack,))


def step(m: Pdm, c: Configuration, a: "str | None") -> frozenset[Configuration]:
    """One move reading a (None for a silent move); empty stack allows none."""
    if not c.stack:
        return frozenset()
    out = set()
    for p, push in m.moves(c.state, a, c.stack[0]):
        out.add(Configuration(p, push + c.stack[1:]))
    return frozenset(out)


def bounded_runs(m: Pdm, x: Word, lambda_budget: int,
                 marked: frozenset[str]) -> dict[Configuration, int]:
    """All configurations reachable by consuming exactly x, with the maximum
    number of visits to `marked` states along some run reaching them.

    At most `lambda_budget` consecutive silent moves are explored between
    input letters, so the result under-approximates machines whose runs need
    longer silent stretches.  Within a silent stretch a configuration is
    expanded again only when its count grew.

    Stacks are shared in a trie that lives for one call (node id -> (top,
    id of the rest), id 0 the empty stack), so a configuration is a (state,
    node id) pair, and the successors of each pair under each letter are
    computed once per call.  `Configuration`s are built only for the result.
    """
    if lambda_budget < 0:
        raise ValueError("lambda budget must be >= 0")
    # (state, top, letter) -> [(successor, pushed word, marked increment)]
    index: dict[tuple, list[tuple[str, tuple[str, ...], int]]] = {}
    for (q, z), entries in m.rule_index.items():
        for a, p, push in entries:
            index.setdefault((q, z, a), []).append(
                (p, push, 1 if p in marked else 0))
    silent_steps = (lambda_budget if any(a is None for _, _, a in index)
                    else 0)
    nodes: list[tuple[str, int]] = [("", 0)]  # entry 0 stands for no stack
    node_ids: dict[tuple[str, int], int] = {}
    succ: dict[tuple, list] = {}

    def push_onto(push: tuple[str, ...], sid: int) -> int:
        for z in reversed(push):
            node = (z, sid)
            sid = node_ids.get(node)
            if sid is None:
                sid = node_ids[node] = len(nodes)
                nodes.append(node)
        return sid

    def successors(c: tuple[str, int], a: "str | None") -> list:
        q, sid = c
        out = []
        if sid:
            top, rest = nodes[sid]
            for p, push, inc in index.get((q, top, a), ()):
                out.append(((p, push_onto(push, rest)), inc))
        succ[c, a] = out
        return out

    def close(arrived: dict) -> dict:
        merged = dict(arrived)
        level = arrived
        for _ in range(silent_steps):
            nxt: dict = {}
            for c, cnt in level.items():
                out = succ.get((c, None))
                if out is None:
                    out = successors(c, None)
                for c2, inc in out:
                    val = cnt + inc
                    if nxt.get(c2, -1) < val:
                        nxt[c2] = val
            level = {c: v for c, v in nxt.items() if merged.get(c, -1) < v}
            if not level:
                break
            merged.update(level)
        return merged

    init = (m.initial, push_onto((m.start_stack,), 0))
    merged = close({init: 1 if m.initial in marked else 0})
    for a in x.symbols:
        arrived: dict = {}
        for c, cnt in merged.items():
            out = succ.get((c, a))
            if out is None:
                out = successors(c, a)
            for c2, inc in out:
                val = cnt + inc
                if arrived.get(c2, -1) < val:
                    arrived[c2] = val
        merged = close(arrived)

    def stack(sid: int) -> tuple[str, ...]:
        out = []
        while sid:
            top, sid = nodes[sid]
            out.append(top)
        return tuple(out)

    return {Configuration(q, stack(sid)): v for (q, sid), v in merged.items()}


@dataclass(frozen=True)
class Bpda:
    """Pushdown machine with Buchi final states."""

    machine: Pdm
    final: frozenset[str]

    def __post_init__(self):
        if not self.final <= self.machine.states:
            raise ValueError("final states must be machine states")

    def bounded_runs(self, x: Word, lambda_budget: int) -> dict[Configuration, int]:
        return bounded_runs(self.machine, x, lambda_budget, self.final)

    def accepts_lasso(self, w: Lasso) -> bool:
        """Exact: is u.v^omega in the machine's omega-language?"""
        return _saturate(*_lasso_system(self, w))


def inert_stack_bpda(aut: BuchiAutomaton) -> Bpda:
    """A finite Buchi automaton as a pushdown machine with an inert stack Z0."""
    fsm = aut.machine
    rules = frozenset((q, a, "Z0", p, ("Z0",)) for (q, a, p) in fsm.transitions)
    return Bpda(Pdm(fsm.states, fsm.alphabet, ("Z0",), fsm.initial, "Z0", rules),
                aut.final)


@dataclass(frozen=True)
class Mpda:
    """Pushdown machine with a Muller table.  Only bounded simulation is
    offered for the Muller condition; exact lasso acceptance is not."""

    machine: Pdm
    table: frozenset[frozenset[str]]

    def __post_init__(self):
        for entry in self.table:
            if not entry <= self.machine.states:
                raise ValueError("table entry must be a set of machine states")

    def bounded_runs(self, x: Word, lambda_budget: int) -> dict[Configuration, int]:
        marked = frozenset().union(*self.table) if self.table else frozenset()
        return bounded_runs(self.machine, x, lambda_budget, marked)


# --------------------------------------------------- Buchi pushdown systems

PdsRule = tuple[Hashable, str, Hashable, tuple[str, ...]]


@dataclass(frozen=True)
class BuchiPds:
    """An input-free pushdown system with a set of repeating control states."""

    states: frozenset
    stack_alphabet: tuple[str, ...]
    initial: Hashable
    start_stack: str
    rules: frozenset[PdsRule]
    repeating: frozenset

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state undeclared")
        for p, z, q, push in self.rules:
            if p not in self.states or q not in self.states:
                raise ValueError("rule uses undeclared state")
            if z not in self.stack_alphabet or any(
                    s not in self.stack_alphabet for s in push):
                raise ValueError("rule uses undeclared stack symbol")
            if len(push) > PUSH_CAP:
                raise ValueError(f"pushed word longer than {PUSH_CAP}")
        if not self.repeating <= self.states:
            raise ValueError("repeating states must be states")


def _phase_step(ph: int, target_final: bool, is_input: bool) -> int:
    # phase 0/2: waiting for a final-state visit; phase 1: waiting for an
    # input move; phase 2 marks a completed 0 -> 1 -> 0 round trip.
    if ph in (0, 2):
        return 1 if target_final else 0
    return 2 if is_input else 1


def _lasso_system(m: Bpda, w: Lasso):
    """The product of the machine with the lasso's position graph, as the
    (initial head, successor function, repeating test) that `_saturate`
    takes; successors are built on demand from the machine's rule index.

    Control states are (machine state, lasso position, phase).  The phase
    bits track "a final state was visited, then an input letter was read",
    so a run of the product hits phase 2 infinitely often exactly when it
    both consumes the whole omega-word (rather than diverging on silent
    moves) and visits final states infinitely often.
    """
    if w.alphabet.letters != m.machine.input_alphabet.letters:
        raise ValueError("lasso alphabet differs from machine input alphabet")
    index, final = m.machine.rule_index, m.final
    su, length = len(w.spoke), len(w.spoke) + len(w.cycle)

    def moves(state, z: str) -> list:
        q, i, ph = state
        letter, nxt = w.symbol_at(i), (i + 1 if i + 1 < length else su)
        # a silent move keeps the position, an input move reads its letter
        return [((p, i if a is None else nxt,
                  _phase_step(ph, p in final, a is not None)), push)
                for a, p, push in index.get((q, z), ())
                if a is None or a == letter]
    init = (m.machine.initial, 0, 0)
    return (init, m.machine.start_stack), moves, lambda s: s[2] == 2


def product_with_lasso(m: Bpda, w: Lasso) -> BuchiPds:
    """The system of `_lasso_system`, materialized over the control states
    reachable from its initial one."""
    (init, z0), moves, repeating = _lasso_system(m, w)
    states, rules, todo = {init}, set(), [init]
    while todo:
        src = todo.pop()
        for z in m.machine.stack_alphabet:
            for tgt, push in moves(src, z):
                rules.add((src, z, tgt, push))
                if tgt not in states:
                    states.add(tgt)
                    todo.append(tgt)
    return BuchiPds(frozenset(states), m.machine.stack_alphabet, init, z0,
                    frozenset(rules), frozenset(filter(repeating, states)))


def buchi_pds_empty(pds: BuchiPds) -> bool:
    """True iff no run of the system visits repeating states infinitely often."""
    index: dict[tuple, list[tuple]] = {}
    for p, z, q, push in pds.rules:
        index.setdefault((p, z), []).append((q, push))
    return not _saturate((pds.initial, pds.start_stack),
                         lambda p, z: index.get((p, z), ()),
                         pds.repeating.__contains__)


def _saturate(init_head, moves, is_repeating) -> bool:
    """True iff some run from the head `init_head` (state, top symbol)
    visits repeating control states infinitely often; `moves(p, Z)` lists
    the (successor, pushed word) pairs of head (p, Z).

    Exact and terminating: computes, over the heads reachable from the
    initial one, the pop relation with a "visited a repeating state" flag,
    builds the head reachability graph from it, and looks for a head cycle
    carrying a repeating visit.  A worklist processes a head again only
    when a pop set that it read has grown.
    """
    # pops[(p, Z)][q] = best flag over runs (p, Z-only stack) => (q, empty)
    pops: dict[tuple, dict] = {}
    # edges[h][h'] = best flag over hidden pop excursions between the heads;
    # its keys are the heads reached so far
    edges: dict[tuple, dict[tuple, int]] = {init_head: {}}
    # readers[h] = heads whose processing read the pop set of h
    readers: dict[tuple, set] = {}
    work = {init_head: None}  # an ordered set, popped last-in first-out

    def upd_pop(head, q, flag):
        d = pops.setdefault(head, {})
        if d.get(q, -1) < flag:
            d[q] = flag
            work.update(dict.fromkeys(readers.get(head, ())))

    while work:
        head, _ = work.popitem()
        p, z = head
        base = 1 if is_repeating(p) else 0
        out = edges[head]
        for q, push in moves(p, z):
            if not push:
                upd_pop(head, q, base | (1 if is_repeating(q) else 0))
                continue
            # walk the pushed word left to right, popping a prefix of it
            frontier = {q: 0}
            for sym in push:
                nxt_frontier: dict = {}
                for s, b in frontier.items():
                    h2 = (s, sym)
                    if h2 not in edges:
                        edges[h2] = {}
                        work[h2] = None
                    if out.get(h2, -1) < b:
                        out[h2] = b
                    readers.setdefault(h2, set()).add(head)
                    for t, b2 in pops.get(h2, {}).items():
                        val = b | b2
                        if nxt_frontier.get(t, -1) < val:
                            nxt_frontier[t] = val
                frontier = nxt_frontier
                if not frontier:
                    break
            else:
                for t, b in frontier.items():
                    upd_pop(head, t, base | b)

    return _good_cycle(edges, is_repeating)


def _good_cycle(edges, is_repeating) -> bool:
    for comp in _sccs(edges):
        internal = [(h, h2, f) for h in comp
                    for h2, f in edges[h].items() if h2 in comp]
        if not internal:
            continue
        if any(f == 1 for _, _, f in internal):
            return True
        if any(is_repeating(h[0]) for h in comp):
            return True
    return False
