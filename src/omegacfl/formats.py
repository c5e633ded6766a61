"""Textual file formats for grammars, automata, pushdown machines,
expressions, trees and substitutions.

All formats are line oriented with space-separated symbol tokens.  `#`
stands for the empty word (grammar right-hand sides, silent input, empty
push).  Grammar files name the start symbol by putting its productions
first; a `start:` header is also accepted and is emitted for grammars whose
start symbol has no productions.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .cfg import Cfg, Substitution, single_word_grammar, substitution
from .words import Alphabet

# the parsers import the machine, tree and expression modules when called,
# so that reading one kind of file loads only the modules that kind needs
if TYPE_CHECKING:
    from .branching import BranchGuessMachine
    from .buchi import BuchiAutomaton, Fsm, MullerAutomaton
    from .kleene import OmegaKleeneExpr
    from .pushdown import Bpda, Mpda, Pdm
    from .trees import RegularTree


class ParseError(ValueError):
    """Malformed input file."""


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _header(line: str, key: str) -> list[str] | None:
    if line.startswith(key + ":"):
        return line[len(key) + 1:].split()
    return None


# ----------------------------------------------------------------- grammars

def format_grammar(g: Cfg) -> str:
    out = ["terminals: " + " ".join(g.terminals.letters),
           "nonterminals: " + " ".join(sorted(g.nonterminals))]
    by_head = g.by_head()
    heads = [g.start] + [n for n in sorted(g.nonterminals) if n != g.start]
    if not by_head[g.start]:
        out.append("start: " + g.start)
    for h in heads:
        bodies = by_head[h]
        if not bodies:
            continue
        alts = " | ".join(" ".join(b) if b else "#" for b in bodies)
        out.append(f"{h} -> {alts}")
    return "\n".join(out) + "\n"


def parse_grammar(text: str) -> Cfg:
    terminals: list[str] | None = None
    nonterminals: list[str] | None = None
    start: str | None = None
    prods: list[tuple[str, tuple[str, ...]]] = []
    for ln in _lines(text):
        for key in ("terminals", "nonterminals", "start"):
            got = _header(ln, key)
            if got is not None:
                if key == "terminals":
                    terminals = got
                elif key == "nonterminals":
                    nonterminals = got
                else:
                    if len(got) != 1:
                        raise ParseError("start: wants exactly one symbol")
                    start = got[0]
                break
        else:
            if "->" not in ln:
                raise ParseError(f"unrecognized grammar line: {ln!r}")
            head, rhs = ln.split("->", 1)
            head = head.strip()
            if len(head.split()) != 1:
                raise ParseError(f"bad production head: {ln!r}")
            if start is None:
                start = head
            for alt in rhs.split("|"):
                toks = alt.split()
                if toks == ["#"]:
                    prods.append((head, ()))
                elif "#" in toks:
                    raise ParseError(f"'#' must stand alone: {ln!r}")
                else:
                    prods.append((head, tuple(toks)))
    if terminals is None or nonterminals is None:
        raise ParseError("grammar needs terminals: and nonterminals: headers")
    if start is None:
        raise ParseError("grammar has no productions and no start: header")
    try:
        return Cfg(Alphabet(tuple(terminals)), frozenset(nonterminals), start,
                   frozenset(prods))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ----------------------------------------------------- finite automata

def _format_fsm(fsm: Fsm) -> list[str]:
    out = ["states: " + " ".join(sorted(fsm.states)),
           "alphabet: " + " ".join(fsm.alphabet.letters),
           "initial: " + fsm.initial]
    for q, a, p in sorted(fsm.transitions):
        out.append(f"trans: {q} {a} -> {p}")
    return out


def format_buchi_automaton(aut: BuchiAutomaton) -> str:
    out = _format_fsm(aut.machine)
    out.insert(3, "final: " + " ".join(sorted(aut.final)))
    return "\n".join(out) + "\n"


def format_muller_automaton(aut: MullerAutomaton) -> str:
    out = _format_fsm(aut.machine)
    tables = ["table: " + " ".join(sorted(entry)) for entry in
              sorted(aut.table, key=sorted)]
    return "\n".join(out[:3] + tables + out[3:]) + "\n"


def parse_automaton(text: str) -> BuchiAutomaton | MullerAutomaton:
    from .buchi import BuchiAutomaton, Fsm, MullerAutomaton
    states = alphabet = initial = final = None
    tables: list[frozenset[str]] = []
    trans: set = set()
    for ln in _lines(text):
        if (got := _header(ln, "states")) is not None:
            states = got
        elif (got := _header(ln, "alphabet")) is not None:
            alphabet = got
        elif (got := _header(ln, "initial")) is not None:
            if len(got) != 1:
                raise ParseError("initial: wants exactly one state")
            initial = got[0]
        elif (got := _header(ln, "final")) is not None:
            final = got
        elif (got := _header(ln, "table")) is not None:
            tables.append(frozenset(got))
        elif (got := _header(ln, "trans")) is not None:
            if len(got) != 4 or got[2] != "->":
                raise ParseError(f"bad transition line: {ln!r}")
            trans.add((got[0], got[1], got[3]))
        else:
            raise ParseError(f"unrecognized automaton line: {ln!r}")
    if states is None or alphabet is None or initial is None:
        raise ParseError("automaton needs states:, alphabet:, initial:")
    if final is None and not tables:
        raise ParseError("automaton needs final: (Buchi) or table: (Muller)")
    if final is not None and tables:
        raise ParseError("automaton cannot have both final: and table:")
    try:
        fsm = Fsm(frozenset(states), Alphabet(tuple(alphabet)), initial,
                  frozenset(trans))
        if final is not None:
            return BuchiAutomaton(fsm, frozenset(final))
        return MullerAutomaton(fsm, frozenset(tables))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ------------------------------------------------------- pushdown machines

def _format_pdm(m: Pdm) -> list[str]:
    out = ["states: " + " ".join(sorted(m.states)),
           "alphabet: " + " ".join(m.input_alphabet.letters),
           "stack: " + " ".join(m.stack_alphabet),
           "initial: " + m.initial,
           "startstack: " + m.start_stack]
    def key(rule):
        q, a, z, p, push = rule
        return (q, a or "", z, p, push)
    for q, a, z, p, push in sorted(m.rules, key=key):
        a_tok = "#" if a is None else a
        push_tok = " ".join(push) if push else "#"
        out.append(f"trans: {q} {a_tok} {z} -> {p} push({push_tok})")
    return out


def format_bpda(m: Bpda) -> str:
    out = _format_pdm(m.machine)
    out.insert(5, "final: " + " ".join(sorted(m.final)))
    return "\n".join(out) + "\n"


def format_mpda(m: Mpda) -> str:
    out = _format_pdm(m.machine)
    tables = ["table: " + " ".join(sorted(entry)) for entry in
              sorted(m.table, key=sorted)]
    return "\n".join(out[:5] + tables + out[5:]) + "\n"


def parse_pushdown(text: str) -> Bpda | Mpda:
    from .pushdown import Bpda, Mpda, Pdm
    states = alphabet = stack = initial = startstack = final = None
    tables: list[frozenset[str]] = []
    rules: set = set()
    for ln in _lines(text):
        if (got := _header(ln, "states")) is not None:
            states = got
        elif (got := _header(ln, "alphabet")) is not None:
            alphabet = got
        elif (got := _header(ln, "stack")) is not None:
            stack = got
        elif (got := _header(ln, "initial")) is not None:
            initial = got[0] if len(got) == 1 else None
            if initial is None:
                raise ParseError("initial: wants exactly one state")
        elif (got := _header(ln, "startstack")) is not None:
            if len(got) != 1:
                raise ParseError("startstack: wants exactly one symbol")
            startstack = got[0]
        elif (got := _header(ln, "final")) is not None:
            final = got
        elif (got := _header(ln, "table")) is not None:
            tables.append(frozenset(got))
        elif ln.startswith("trans:"):
            # token-based split, so letters like "~>" cannot be mistaken
            # for the arrow
            toks = ln[len("trans:"):].split()
            if len(toks) < 6 or toks[3] != "->" or \
                    not toks[5].startswith("push(") or not toks[-1].endswith(")"):
                raise ParseError(f"bad pushdown transition: {ln!r}")
            q, a_tok, z = toks[0], toks[1], toks[2]
            p = toks[4]
            push_body = " ".join(toks[5:])[len("push("):-1]
            push_toks = push_body.split()
            push = () if push_toks == ["#"] else tuple(push_toks)
            a = None if a_tok == "#" else a_tok
            rules.add((q, a, z, p, push))
        else:
            raise ParseError(f"unrecognized pushdown line: {ln!r}")
    if None in (states, alphabet, stack, initial, startstack):
        raise ParseError("pushdown needs states:, alphabet:, stack:, "
                         "initial:, startstack:")
    if final is None and not tables:
        raise ParseError("pushdown needs final: (Buchi) or table: (Muller)")
    if final is not None and tables:
        raise ParseError("pushdown cannot have both final: and table:")
    try:
        m = Pdm(frozenset(states), Alphabet(tuple(alphabet)), tuple(stack),
                initial, startstack, frozenset(rules))
        if final is not None:
            return Bpda(m, frozenset(final))
        return Mpda(m, frozenset(tables))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_machine(text: str):
    """Dispatch on the file content: pushdown when a stack: header appears,
    finite automaton otherwise."""
    if any(ln.startswith("stack:") for ln in _lines(text)):
        return parse_pushdown(text)
    return parse_automaton(text)


# -------------------------------------------------------------------- trees

def format_tree(t: RegularTree) -> str:
    out = ["labels: " + " ".join(t.labels.letters),
           "nodes: " + " ".join(t.states),
           "initial: " + t.initial]
    for s in t.states:
        out.append(f"node: {s} label {t.output[s]} left {t.left[s]} "
                   f"right {t.right[s]}")
    return "\n".join(out) + "\n"


def parse_tree(text: str) -> RegularTree:
    from .trees import RegularTree
    labels = nodes = initial = None
    left: dict = {}
    right: dict = {}
    output: dict = {}
    for ln in _lines(text):
        if (got := _header(ln, "labels")) is not None:
            labels = got
        elif (got := _header(ln, "nodes")) is not None:
            nodes = got
        elif (got := _header(ln, "initial")) is not None:
            if len(got) != 1:
                raise ParseError("initial: wants exactly one node-state")
            initial = got[0]
        elif (got := _header(ln, "node")) is not None:
            if (len(got) != 7 or got[1] != "label" or got[3] != "left"
                    or got[5] != "right"):
                raise ParseError(f"bad node line: {ln!r}")
            s = got[0]
            output[s] = got[2]
            left[s] = got[4]
            right[s] = got[6]
        else:
            raise ParseError(f"unrecognized tree line: {ln!r}")
    if labels is None or nodes is None or initial is None:
        raise ParseError("tree needs labels:, nodes:, initial:")
    try:
        return RegularTree(Alphabet(tuple(labels)), tuple(nodes), initial,
                           left, right, output)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -------------------------------------------------------------- expressions

def write_expression(e: OmegaKleeneExpr, path: str) -> list[str]:
    """Write the expression file plus one grammar file per component part;
    returns every path written."""
    base, _ = os.path.splitext(path)
    stem = os.path.basename(base)
    out_lines = []
    written = []
    for i, pair in enumerate(e.pairs):
        u_name = f"{stem}.u{i}.grammar"
        v_name = f"{stem}.v{i}.grammar"
        for name, g in ((u_name, pair.u), (v_name, pair.v)):
            p = os.path.join(os.path.dirname(path) or ".", name)
            with open(p, "w") as fh:
                fh.write(format_grammar(g))
            written.append(p)
        out_lines += ["pair:", f"U: {u_name}", f"V: {v_name}"]
    with open(path, "w") as fh:
        fh.write("\n".join(out_lines) + "\n")
    return [path] + written


def read_expression(path: str) -> OmegaKleeneExpr:
    from .kleene import omega_kleene
    with open(path) as fh:
        text = fh.read()
    base_dir = os.path.dirname(path) or "."
    pairs: list[tuple[str, str]] = []
    current: dict = {}
    for ln in _lines(text):
        if ln == "pair:":
            if current:
                raise ParseError("pair: block missing U: or V:")
            current = {"open": True}
        elif ln[:2] in ("U:", "V:"):
            got = ln[2:].split()
            if not got:
                raise ParseError(f"{ln[:2]} names no grammar file")
            current[ln[0].lower()] = " ".join(got)
        else:
            raise ParseError(f"unrecognized expression line: {ln!r}")
        if "u" in current and "v" in current:
            pairs.append((current["u"], current["v"]))
            current = {}
    if current:
        raise ParseError("trailing incomplete pair: block")
    if not pairs:
        raise ParseError("expression file lists no pairs")
    loaded = []
    for u_file, v_file in pairs:
        with open(os.path.join(base_dir, u_file)) as fh:
            u = parse_grammar(fh.read())
        with open(os.path.join(base_dir, v_file)) as fh:
            v = parse_grammar(fh.read())
        loaded.append((u, v))
    try:
        return omega_kleene(loaded)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ------------------------------------------------------------ substitutions

def read_substitution(path: str) -> Substitution:
    """Substitution file: a `domain:` header, then per letter either
    `word: a -> b a b` (single-word image) or `grammar: a -> file`."""
    with open(path) as fh:
        text = fh.read()
    base_dir = os.path.dirname(path) or "."
    domain: list[str] | None = None
    word_images: dict[str, tuple[str, ...]] = {}
    grammar_images: dict[str, Cfg] = {}
    for ln in _lines(text):
        if (got := _header(ln, "domain")) is not None:
            domain = got
        elif (got := _header(ln, "word")) is not None:
            if len(got) < 3 or got[1] != "->":
                raise ParseError(f"bad word image line: {ln!r}")
            image = tuple(got[2:])
            word_images[got[0]] = () if image == ("#",) else image
        elif (got := _header(ln, "grammar")) is not None:
            if len(got) != 3 or got[1] != "->":
                raise ParseError(f"bad grammar image line: {ln!r}")
            with open(os.path.join(base_dir, got[2])) as fh:
                grammar_images[got[0]] = parse_grammar(fh.read())
        else:
            raise ParseError(f"unrecognized substitution line: {ln!r}")
    if domain is None:
        raise ParseError("substitution needs a domain: header")
    try:
        dom = Alphabet(tuple(domain))
        target_letters: list[str] = []
        for g in grammar_images.values():
            target_letters.extend(g.terminals.letters)
        for img in word_images.values():
            target_letters.extend(img)
        target_letters = list(dict.fromkeys(target_letters))
        if not target_letters:
            raise ParseError("substitution images name no letters")
        target = Alphabet(tuple(target_letters))
        images = dict(grammar_images)
        for a, img in word_images.items():
            images[a] = single_word_grammar(target, img, tag=a)
        if word_images and not grammar_images:
            return Substitution(dom, tuple(sorted(images.items())),
                                tuple(sorted(word_images.items())))
        return substitution(dom, images)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# --------------------------------------------------------------- provenance

def format_provenance(bm: BranchGuessMachine) -> str:
    """One line per transition: group, source, input, stack, target, push."""
    out = []

    def key(item):
        rule, group = item
        q, a, z, p, push = rule
        return (group, q, a or "", z, p, push)

    for (q, a, z, p, push), group in sorted(bm.rule_group.items(), key=key):
        a_tok = "#" if a is None else a
        push_tok = " ".join(push) if push else "#"
        out.append(f"{group} {q} {a_tok} {z} -> {p} push({push_tok})")
    return "\n".join(out) + "\n"
