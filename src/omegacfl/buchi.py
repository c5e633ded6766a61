"""Finite-state machines with Buchi and Muller acceptance, decided exactly
on ultimately periodic words.

Both conditions are decided by one strongly-connected-component search on
the product of the machine with the lasso's position graph, built only over
the (state, position) nodes reachable from (initial, 0).  An accepting
verdict comes with a run witness whose cycle is a closed walk through the
whole accepting component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .words import Alphabet, Lasso

Transition = tuple[str, str, str]  # (state, letter, successor)


@dataclass(frozen=True)
class Fsm:
    """A (possibly nondeterministic) finite state machine."""

    states: frozenset[str]
    alphabet: Alphabet
    initial: str
    transitions: frozenset[Transition]

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state undeclared")
        for q, a, p in self.transitions:
            if q not in self.states or p not in self.states:
                raise ValueError(f"transition {q, a, p} uses undeclared state")
            if a not in self.alphabet:
                raise ValueError(f"transition letter {a!r} undeclared")

    @cached_property
    def transition_index(self) -> dict[tuple[str, str], frozenset[str]]:
        """(state, letter) -> successor states, built on first use."""
        index: dict[tuple[str, str], set[str]] = {}
        for q, a, p in self.transitions:
            index.setdefault((q, a), set()).add(p)
        return {k: frozenset(v) for k, v in index.items()}

    def delta(self, q: str, a: str) -> frozenset[str]:
        return self.transition_index.get((q, a), frozenset())

    @property
    def deterministic(self) -> bool:
        for q in self.states:
            for a in self.alphabet:
                if len(self.delta(q, a)) != 1:
                    return False
        return True


@dataclass(frozen=True)
class RunWitness:
    """A lasso-shaped accepting run: spoke states, then the cycle forever."""

    spoke_states: tuple[str, ...]
    cycle_states: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle_states:
            raise ValueError("witness cycle must be non-empty")

    @property
    def inf_set(self) -> frozenset[str]:
        return frozenset(self.cycle_states)

    def state_at(self, i: int) -> str:
        s, c = self.spoke_states, self.cycle_states
        return s[i] if i < len(s) else c[(i - len(s)) % len(c)]


@dataclass(frozen=True)
class BuchiAutomaton:
    machine: Fsm
    final: frozenset[str]

    def __post_init__(self):
        if not self.final <= self.machine.states:
            raise ValueError("final states must be machine states")

    def decide_lasso(self, w: Lasso) -> tuple[bool, RunWitness | None]:
        """Does some run on w visit a final state infinitely often?"""
        return _decide(self.machine, w, [
            (self.machine.states, lambda states: states & self.final)])

    def accepts_lasso(self, w: Lasso) -> bool:
        return self.decide_lasso(w)[0]


@dataclass(frozen=True)
class MullerAutomaton:
    machine: Fsm
    table: frozenset[frozenset[str]]

    def __post_init__(self):
        for entry in self.table:
            if not entry <= self.machine.states:
                raise ValueError("table entry must be a set of machine states")

    def decide_lasso(self, w: Lasso) -> tuple[bool, RunWitness | None]:
        """Does some run have infinity set exactly equal to a table entry?"""
        return _decide(self.machine, w, [
            (entry, entry.__eq__) for entry in sorted(self.table, key=sorted)])

    def accepts_lasso(self, w: Lasso) -> bool:
        return self.decide_lasso(w)[0]


def _reachable_product(fsm: Fsm, w: Lasso):
    """The (state, lasso position) nodes reachable from (initial, 0): their
    successor lists, and the parent links of the walk that found them."""
    su, length = len(w.spoke), len(w.spoke) + len(w.cycle)
    start = (fsm.initial, 0)
    edges: dict[tuple[str, int], list[tuple[str, int]]] = {}
    parent: dict = {start: None}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        q, i = node
        j = i + 1 if i + 1 < length else su
        edges[node] = [(p, j) for p in sorted(fsm.delta(q, w.symbol_at(i)))]
        for m in edges[node]:
            if m not in parent:
                parent[m] = node
                frontier.append(m)
    return edges, parent


def _decide(fsm: Fsm, w: Lasso, conditions):
    """Search the reachable product for an accepting cycle.

    Each condition is a pair (keep, good): a cycle may use only nodes whose
    state is in keep, and the states of its strongly connected component
    must satisfy good.  The conditions are tried in order; the first
    component that meets one gives the witness, a closed walk through the
    whole component from its least node, reached by the walk's spoke.
    """
    if w.alphabet.letters != fsm.alphabet.letters:
        raise ValueError("lasso alphabet differs from machine alphabet")
    edges, parent = _reachable_product(fsm, w)
    for keep, good in conditions:
        sub = {n: [m for m in succ if m[0] in keep]
               for n, succ in edges.items() if n[0] in keep}
        for comp in _sccs(sub):
            if not any(m in comp for n in comp for m in sub[n]):
                continue
            if not good({q for q, _ in comp}):
                continue
            anchor = min(comp)
            spoke: list[str] = []
            node = parent[anchor]
            while node is not None:
                spoke.append(node[0])
                node = parent[node]
            cycle = _covering_walk(sub, comp, anchor)
            return True, RunWitness(tuple(reversed(spoke)),
                                    tuple(q for q, _ in cycle[:-1]))
    return False, None


def _sccs(graph: dict) -> list[set]:
    """Tarjan's strongly connected components."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[set] = []
    counter = [0]

    def strong(v):
        work = [(v, iter(graph[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for m in it:
                if m not in index:
                    index[m] = low[m] = counter[0]
                    counter[0] += 1
                    stack.append(m)
                    on_stack.add(m)
                    work.append((m, iter(graph[m])))
                    advanced = True
                    break
                elif m in on_stack:
                    low[node] = min(low[node], index[m])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.add(u)
                    if u == node:
                        break
                out.append(comp)

    for v in graph:
        if v not in index:
            strong(v)
    return out


def _covering_walk(sub, comp, anchor):
    """A closed walk from anchor through every node of its SCC."""

    def bfs_path(src, target):
        # shortest path src -> target within comp, length >= 1
        parent: dict = {}
        seen = set()
        frontier = [src]
        while frontier:
            nxt = []
            for n in frontier:
                for m in sub[n]:
                    if m == target:
                        path = [target]
                        cur = n
                        while cur != src:
                            path.append(cur)
                            cur = parent[cur]
                        path.append(src)
                        path.reverse()
                        return path
                    if m in comp and m not in seen:
                        seen.add(m)
                        parent[m] = n
                        nxt.append(m)
            frontier = nxt
        raise AssertionError("SCC not strongly connected")

    walk = [anchor]
    remaining = set(comp) - {anchor}
    cur = anchor
    while remaining:
        target = sorted(remaining)[0]
        seg = bfs_path(cur, target)
        walk.extend(seg[1:])
        remaining -= set(seg)
        cur = target
    seg = bfs_path(cur, anchor)
    walk.extend(seg[1:])
    return walk
