"""Regular infinite binary trees and their level-order word coding.

A coded tree lists its labels level by level, separated by a marker letter;
odd levels run left-to-right, even levels right-to-left, so that the two
children of any node sit exactly "one doubling gap" after the node itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cfg import (alphabet_star_grammar, concat_grammars, finite_words_grammar,
                  gap_too_long, gap_too_short, letters_grammar)
from .words import Alphabet, Lasso, Word, word

# coding_complement_expr imports kleene when called, so that coding a tree
# does not load the expression and pushdown modules
if TYPE_CHECKING:
    from .kleene import OmegaKleeneExpr


# Level n has 2^n nodes, so enumerations and coded prefixes deeper than this
# are refused rather than allowed to exhaust memory.
MAX_LEVEL = 22


@dataclass(frozen=True, eq=True)
class RegularTree:
    """A finitely presented labeling of the full infinite binary tree.

    Walking the two successor maps from the initial node-state along a node
    address (a word over {l, r}) and reading the output map gives the label
    of that node.
    """

    labels: Alphabet
    states: tuple[str, ...]
    initial: str
    left: dict
    right: dict
    output: dict

    def __post_init__(self):
        st = set(self.states)
        if len(st) != len(self.states):
            raise ValueError("duplicate node-states")
        if self.initial not in st:
            raise ValueError("initial node-state undeclared")
        for m, name in ((self.left, "left"), (self.right, "right")):
            if set(m) != st or any(v not in st for v in m.values()):
                raise ValueError(f"{name} successor map must be total on states")
        if set(self.output) != st:
            raise ValueError("output map must be total on states")
        for v in self.output.values():
            if v not in self.labels:
                raise ValueError(f"output label {v!r} not in label alphabet")

    def node_state(self, address: str) -> str:
        s = self.initial
        for c in address:
            if c == "l":
                s = self.left[s]
            elif c == "r":
                s = self.right[s]
            else:
                raise ValueError(f"node address may only contain l/r: {address!r}")
        return s

    def label(self, address: str) -> str:
        return self.output[self.node_state(address)]


@dataclass(frozen=True)
class LevelEnumeration:
    """The nodes of one tree level in a fixed order."""

    level: int
    nodes: tuple[str, ...]

    def __post_init__(self):
        if len(self.nodes) != 2 ** self.level:
            raise ValueError("a level enumeration lists exactly 2^n nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("level enumeration repeats a node")
        for n in self.nodes:
            if len(n) != self.level or any(c not in "lr" for c in n):
                raise ValueError(f"bad node address {n!r}")


def level_nodes(n: int, order: str = "lex") -> LevelEnumeration:
    """All 2^n addresses of level n, in lexicographic (l before r) order or
    its exact reverse."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > MAX_LEVEL:
        raise ValueError("level too large to enumerate")
    if order not in ("lex", "revlex"):
        raise ValueError("order must be 'lex' or 'revlex'")
    nodes = ["".join(t) for t in itertools.product("lr", repeat=n)]
    if order == "revlex":
        nodes.reverse()
    return LevelEnumeration(n, tuple(nodes))


def _level_order(n: int) -> str:
    # level 0 is a single node, listed as lex; odd levels run lex,
    # even levels (from 2 on) reverse
    return "lex" if n % 2 == 1 or n == 0 else "revlex"


def h_prefix(t: RegularTree, levels: int, separator: str = "A") -> Word:
    """The coded tree through level `levels`: each level's labels in its
    parity order, every level followed by the separator."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if levels > MAX_LEVEL:
        raise ValueError(f"levels must be at most {MAX_LEVEL}")
    if separator in t.labels:
        raise ValueError(f"separator {separator!r} occurs in the tree alphabet")
    alpha = t.labels.with_letter(separator)
    out: list[str] = []
    lex_states = [t.initial]
    for n in range(levels + 1):
        block = [t.output[s] for s in lex_states]
        if _level_order(n) == "revlex":
            block.reverse()
        out.extend(block)
        out.append(separator)
        if n < levels:
            nxt = []
            for s in lex_states:
                nxt.append(t.left[s])
                nxt.append(t.right[s])
            lex_states = nxt
    return word(alpha, out)


def coding_complement_expr(sigma: Alphabet, separator: str = "A") -> OmegaKleeneExpr:
    """Expression for all omega-words over sigma+separator that are NOT a
    coded tree.

    A word fails to be a code iff it has a bad five-symbol-scale prefix
    (wrong shape before the second separator) or contains a factor whose
    separator gaps break the doubling law in either direction.
    """
    from .kleene import omega_kleene
    if separator in sigma:
        raise ValueError(f"separator {separator!r} must not be in the alphabet")
    alpha = sigma.with_letter(separator)
    a = separator
    bad_prefixes: list[tuple[str, ...]] = [(a,)]
    bad_prefixes += [(x, y) for x in sigma for y in sigma]
    bad_prefixes += [(x, a, a) for x in sigma]
    bad_prefixes += [(x, a, y, a) for x in sigma for y in sigma]
    bad_prefixes += [(x, a, y, z, w)
                     for x in sigma for y in sigma for z in sigma for w in sigma]
    u1 = finite_words_grammar(alpha, bad_prefixes)
    any_letter = letters_grammar(alpha)
    u2 = concat_grammars(alphabet_star_grammar(alpha), gap_too_short(sigma, a))
    u3 = concat_grammars(alphabet_star_grammar(alpha), gap_too_long(sigma, a))
    return omega_kleene([(u1, any_letter), (u2, any_letter), (u3, any_letter)])


def f_embed(w: Lasso, separator: str = "A") -> RegularTree:
    """The tree with w as leftmost path and the separator everywhere else."""
    if separator in w.alphabet:
        raise ValueError(f"separator {separator!r} occurs in the word alphabet")
    w = w.normalize()
    alpha = w.alphabet.with_letter(separator)
    su, sv = len(w.spoke), len(w.cycle)
    length = su + sv
    states = tuple(f"p{i}" for i in range(length)) + ("sink",)
    left = {f"p{i}": f"p{i + 1 if i + 1 < length else su}" for i in range(length)}
    left["sink"] = "sink"
    right = {s: "sink" for s in states}
    output = {f"p{i}": w.symbol_at(i) for i in range(length)}
    output["sink"] = separator
    return RegularTree(alpha, states, "p0", left, right, output)


def j_leftmost(t: RegularTree) -> Lasso:
    """The leftmost path of the tree as a normalized lasso.

    The walk through the finitely many node-states must cycle, so the path
    is always ultimately periodic."""
    seen: dict[str, int] = {}
    seq: list[str] = []
    s = t.initial
    while s not in seen:
        seen[s] = len(seq)
        seq.append(s)
        s = t.left[s]
    start = seen[s]
    spoke = tuple(t.output[q] for q in seq[:start])
    cycle = tuple(t.output[q] for q in seq[start:])
    return Lasso(Word(t.labels, spoke), Word(t.labels, cycle)).normalize()


def level_homogeneous_tree(w: Lasso) -> RegularTree:
    """The tree labeling every depth-d node with the d-th symbol of w; all
    its paths equal w's omega-word."""
    w = w.normalize()
    su, sv = len(w.spoke), len(w.cycle)
    length = su + sv
    states = tuple(f"p{i}" for i in range(length))
    nxt = {f"p{i}": f"p{i + 1 if i + 1 < length else su}" for i in range(length)}
    output = {f"p{i}": w.symbol_at(i) for i in range(length)}
    return RegularTree(w.alphabet, states, "p0", dict(nxt), dict(nxt), output)
