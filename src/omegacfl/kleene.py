"""Omega-Kleene expressions: finite unions of U.V^omega over context-free
grammars, their conversion to Buchi pushdown machines, closure operations,
and an independent factorization oracle for lasso membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .cfg import (Cfg, Substitution, apply_substitution, cfg_empty,
                  cfg_generates_lambda, lambda_grammar, strip_lambda, _fresh)
from .pushdown import PUSH_CAP, Bpda, Pdm
from .words import Alphabet, Lasso

Verdict = Literal["yes", "no", "unknown"]


@dataclass(frozen=True)
class KcPair:
    """One U.V^omega component; v is stored lambda-stripped."""

    u: Cfg
    v: Cfg
    v_was_lambda_only: bool


@dataclass(frozen=True)
class OmegaKleeneExpr:
    """A non-empty union of U_i.V_i^omega components over one alphabet."""

    alphabet: Alphabet
    pairs: tuple[KcPair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("expression needs at least one pair")
        for p in self.pairs:
            if (p.u.terminals.letters != self.alphabet.letters
                    or p.v.terminals.letters != self.alphabet.letters):
                raise ValueError("all component grammars must share the "
                                 "expression alphabet")


def omega_kleene(pairs: list[tuple[Cfg, Cfg]]) -> OmegaKleeneExpr:
    """Build an expression; each V is replaced by V minus the empty word."""
    if not pairs:
        raise ValueError("expression needs at least one pair")
    alpha = pairs[0][0].terminals
    out = []
    for u, v in pairs:
        had_lambda = cfg_generates_lambda(v)
        v2 = strip_lambda(v)
        out.append(KcPair(u, v2, had_lambda and cfg_empty(v2)))
    return OmegaKleeneExpr(alpha, tuple(out))


def kc_union(e1: OmegaKleeneExpr, e2: OmegaKleeneExpr) -> OmegaKleeneExpr:
    if e1.alphabet.letters != e2.alphabet.letters:
        raise ValueError("union across different alphabets")
    return OmegaKleeneExpr(e1.alphabet, e1.pairs + e2.pairs)


def kc_substitute(e: OmegaKleeneExpr, f: Substitution) -> OmegaKleeneExpr:
    """Apply a lambda-free substitution letter-wise to the denotation."""
    if not f.is_lambda_free():
        raise ValueError("omega-word substitution must be lambda-free")
    if sorted(f.domain.letters) != sorted(e.alphabet.letters):
        raise ValueError("substitution domain must equal the expression alphabet")
    return omega_kleene([(apply_substitution(f, p.u), apply_substitution(f, p.v))
                         for p in e.pairs])


def omega_power(v: Cfg) -> OmegaKleeneExpr:
    """The expression for V^omega (a single pair with U = {lambda})."""
    e = omega_kleene([(lambda_grammar(v.terminals), v)])
    if e.pairs[0].v_was_lambda_only:
        raise ValueError("the cycle language contains only the empty word")
    return e


# ------------------------------------------------------ machine conversion

def _expansion(g: Cfg, t: str, body: tuple[str, ...]):
    """(letter read or None, word pushed) for one production body: a leading
    terminal is read and the rest pushed, otherwise the whole body is
    pushed silently; pushed symbols carry the tag t."""
    lead = body[0] in g.terminals
    return (body[0] if lead else None,
            tuple(t + s for s in (body[1:] if lead else body)))


def _pushed_terminals(g: Cfg) -> list[str]:
    """The terminals that can be on the stack: those after a body's head."""
    return sorted({s for _, b in g.productions for s in b[1:]
                   if s in g.terminals})


def kc_to_bpda(e: OmegaKleeneExpr) -> Bpda:
    """A Buchi pushdown machine accepting the union of the U_i.V_i^omega.

    Each component is parsed top-down with the grammar symbols, tagged by
    component and side, on the stack.  A production whose body starts with
    a terminal is one input move that reads it and pushes the rest of the
    body; any other production is a silent expansion that pushes the whole
    body, and a terminal on top is popped by reading it.  So only
    nonterminal-leading productions give silent moves, and grammars already
    in Greibach normal form give a machine with none.  The machine has at
    most a constant times the grammars' size in rules, and its initial state
    is never re-entered.  U is run lambda-stripped, and when U derives the
    empty word the first V block starts straight from the initial state.
    Block starts (an exposed bottom symbol) pass through a per-component
    final state, which therefore recurs exactly on words that factor into U
    followed by infinitely many V blocks; silent cycles never pass through
    it, because every V block reads at least one letter.
    """
    start_state = "q0"
    bottom = "Z0"
    states = {start_state}
    stack_syms = [bottom]
    rules: set = set()
    final = set()
    fresh_counter = [0]

    def new_chain_state() -> str:
        name = f"push{fresh_counter[0]}"
        fresh_counter[0] += 1
        states.add(name)
        return name

    def add_move(src, letter, top, tgt, push):
        # factor pushes beyond the cap through fresh silent chain states,
        # installing the word bottom-up
        push = tuple(push)
        if len(push) <= PUSH_CAP:
            rules.add((src, letter, top, tgt, push))
            return
        remaining = list(push[:-PUSH_CAP])
        bottom_chunk = push[-PUSH_CAP:]
        cur_top = bottom_chunk[0]
        cur_state = new_chain_state()
        rules.add((src, letter, top, cur_state, bottom_chunk))
        while remaining:
            take = min(PUSH_CAP - 1, len(remaining))
            chunk = tuple(remaining[-take:])
            del remaining[-take:]
            nxt_state = tgt if not remaining else new_chain_state()
            rules.add((cur_state, None, cur_top, nxt_state, chunk + (cur_top,)))
            cur_top = chunk[0]
            cur_state = nxt_state

    def parse_moves(g, t, src, tgt):
        # expand the nonterminal on top, or read the terminal on top
        for h, b in sorted(g.productions):
            a, push = _expansion(g, t, b)
            add_move(src, a, t + h, tgt, push)
        for a in _pushed_terminals(g):
            add_move(src, a, t + a, tgt, ())

    for idx, pair in enumerate(e.pairs):
        if pair.v_was_lambda_only:
            raise ValueError(f"component {idx}: cycle language is {{lambda}}")
        gu, gv = strip_lambda(pair.u), pair.v
        if not gv.productions:
            continue  # V empty: the component denotes the empty set
        st_u, st_v, st_f = f"u{idx}", f"v{idx}", f"f{idx}"
        states.update({st_u, st_v, st_f})
        final.add(st_f)

        tu, tv = f"u{idx}:", f"v{idx}:"
        for g, t in ((gu, tu), (gv, tv)):
            stack_syms.extend(t + s for s in sorted(g.nonterminals))
            stack_syms.extend(t + s for s in _pushed_terminals(g))
        u_starts = [_expansion(gu, tu, b) for h, b in sorted(gu.productions)
                    if h == gu.start]
        v_starts = [_expansion(gv, tv, b) for h, b in sorted(gv.productions)
                    if h == gv.start]

        # choose this component and start reading U (or, with lambda in U,
        # start the first V block straight away)
        for a, alpha_push in u_starts:
            add_move(start_state, a, bottom, st_u, alpha_push + (bottom,))
        if cfg_generates_lambda(pair.u):
            for a, alpha_push in v_starts:
                add_move(start_state, a, bottom, st_f, alpha_push + (bottom,))

        # parsing moves inside the U word
        parse_moves(gu, tu, st_u, st_u)
        # U finished (bottom exposed): begin the first V block
        for a, alpha_push in v_starts:
            add_move(st_u, a, bottom, st_f, alpha_push + (bottom,))

        # parsing moves inside a V block, from the block-start state too
        parse_moves(gv, tv, st_v, st_v)
        parse_moves(gv, tv, st_f, st_v)
        # block finished: start the next one through the final state
        for a, alpha_push in v_starts:
            add_move(st_v, a, bottom, st_f, alpha_push + (bottom,))
            add_move(st_f, a, bottom, st_f, alpha_push + (bottom,))

    machine = Pdm(frozenset(states), e.alphabet, tuple(stack_syms),
                  start_state, bottom, frozenset(rules))
    return Bpda(machine, frozenset(final))


# ------------------------------------------------------------------ oracle

def _binarized(g: Cfg):
    """Bodies of length <= 2 (fresh chain heads); lambda bodies preserved."""
    taken = set(g.terminals.letters) | set(g.nonterminals)
    bodies: list[tuple[str, tuple[str, ...]]] = []
    for h, b in sorted(g.productions):
        while len(b) > 2:
            chain = _fresh(f"{h};bin", taken)
            bodies.append((h, (b[0], chain)))
            h, b = chain, b[1:]
        bodies.append((h, b))
    return bodies


def _mat_mul(a: list[int], b: list[int]) -> list[int]:
    """Boolean product of two matrices stored as row bitsets."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc |= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _reach_matrices(g: Cfg, letter_mats: dict[str, list[int]], size: int):
    """M[X][s] has bit t iff some word derivable from X walks the automaton
    s -> t (matrices are lists of row bitsets).

    The empty word contributes the diagonal (only derivable where the
    grammar allows it).  The least fixpoint is computed with a worklist: a
    body is recomputed only when a nonterminal it reads has grown."""
    bodies = _binarized(g)
    mats = {h: [0] * size for h, _ in bodies}
    eye = [1 << i for i in range(size)]

    def sym_mat(s):
        return letter_mats[s] if s in g.terminals else mats.get(s)

    readers: dict[str, list[int]] = {}
    for k, (_, b) in enumerate(bodies):
        for s in set(b) & mats.keys():
            readers.setdefault(s, []).append(k)
    work = list(range(len(bodies)))
    queued = set(work)
    while work:
        k = work.pop()
        queued.discard(k)
        h, b = bodies[k]
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
            for r in readers.get(h, ()):
                if r not in queued:
                    queued.add(r)
                    work.append(r)
    return mats


def _transitive_plus(m: list[int]) -> list[int]:
    """Transitive closure (Warshall) of a row-bitset relation."""
    t = list(m)
    for k in range(len(t)):
        bit, row_k = 1 << k, t[k]
        for i, row in enumerate(t):
            if row & bit:
                t[i] = row | row_k
    return t


def _lasso_letter_mats(w: Lasso):
    su, sv = len(w.spoke), len(w.cycle)
    size = su + sv
    mats = {a: [0] * size for a in w.alphabet}
    for i in range(size):
        j = i + 1 if i + 1 < size else su
        mats[w.symbol_at(i)][i] |= 1 << j
    return mats, size


def _line_letter_mats(w: Lasso, bound: int):
    size = bound + 1
    mats = {a: [0] * size for a in w.alphabet}
    for i in range(bound):
        mats[w.symbol_at(i)][i] |= 1 << (i + 1)
    return mats, size


def _block_relations(pair: KcPair, mats: dict[str, list[int]], size: int):
    """The positions one U word reaches from position 0, and the transitive
    closure of the one-V-block relation; None when U or V derives nothing."""
    mu = _reach_matrices(pair.u, mats, size)
    mv = _reach_matrices(pair.v, mats, size)
    if pair.u.start not in mu or pair.v.start not in mv:
        return None
    return mu[pair.u.start][0], _transitive_plus(mv[pair.v.start])


def _component_unbounded_member(pair: KcPair, w: Lasso) -> bool:
    """Exact membership of the lasso in U.V^omega via the boundary-phase
    closure over the lasso's position automaton."""
    rel = _block_relations(pair, *_lasso_letter_mats(w))
    if rel is None:
        return False
    b_u, t = rel
    cyc = sum(1 << i for i, row in enumerate(t) if row >> i & 1)
    good = cyc | sum(1 << i for i, row in enumerate(t) if row & cyc)
    return bool(b_u & good)


def _component_pumping(pair: KcPair, w: Lasso, bound: int) -> bool:
    """Bounded search for a pumpable factorization of a prefix."""
    su, sv = len(w.spoke), len(w.cycle)
    rel = _block_relations(pair, *_line_letter_mats(w, bound))
    if rel is None:
        return False
    b_u, t = rel
    reach = b_u | _mat_mul([b_u], t)[0]
    # bits sv, 2sv, ...: the cycle-aligned block ends after k1
    periods = sum(1 << j for j in range(sv, bound + 1, sv))
    return any(reach >> k1 & 1 and t[k1] >> k1 & periods
               for k1 in range(su, bound + 1))


def lasso_in_kc(e: OmegaKleeneExpr, w: Lasso, bound: int) -> Verdict:
    """Three-valued factorization oracle for membership of w in e.

    "yes" is justified by a pumpable factorization of a prefix of length at
    most `bound`; "no" by closure of the boundary-phase reachability
    relation (no component admits an infinite block decomposition);
    "unknown" remains possible when the bound is too small to exhibit a
    pumping pair.  Independent of the machine conversion and saturation.
    """
    w = w.normalize()
    if bound < len(w.spoke) + len(w.cycle):
        raise ValueError("bound must be at least the lasso length")
    if w.alphabet.letters != e.alphabet.letters:
        raise ValueError("lasso alphabet differs from expression alphabet")
    if any(_component_pumping(p, w, bound) for p in e.pairs):
        return "yes"
    if not any(_component_unbounded_member(p, w) for p in e.pairs):
        return "no"
    return "unknown"
