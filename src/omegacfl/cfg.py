"""Context-free grammars: exact membership, emptiness, substitution, and the
builder grammars used throughout the library (gap fillers, gap-defect
witnesses, letter-block encodings).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import Alphabet, Word, Lasso

Production = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Cfg:
    """A context-free grammar.  The empty right-hand side encodes lambda."""

    terminals: Alphabet
    nonterminals: frozenset[str]
    start: str
    productions: frozenset[Production]

    def __post_init__(self):
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        overlap = self.nonterminals & set(self.terminals.letters)
        if overlap:
            raise ValueError(f"symbols both terminal and nonterminal: {overlap}")
        for head, body in self.productions:
            if head not in self.nonterminals:
                raise ValueError(f"production head {head!r} undeclared")
            for sym in body:
                if sym not in self.nonterminals and sym not in self.terminals:
                    raise ValueError(f"undeclared symbol {sym!r} in production")

    def by_head(self) -> dict[str, list[tuple[str, ...]]]:
        out: dict[str, list[tuple[str, ...]]] = {n: [] for n in self.nonterminals}
        for head, body in sorted(self.productions):
            out[head].append(body)
        return out


def cfg(terminals: Alphabet, start: str,
        productions: list[tuple[str, tuple[str, ...]]]) -> Cfg:
    nts = frozenset({start} | {h for h, _ in productions})
    return Cfg(terminals, nts, start, frozenset(productions))


# ---------------------------------------------------------------- fixpoints

def nullable_set(g: Cfg) -> frozenset[str]:
    """Nonterminals deriving the empty word."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            if head not in nullable and all(s in nullable for s in body):
                nullable.add(head)
                changed = True
    return frozenset(nullable)


def productive_set(g: Cfg) -> frozenset[str]:
    """Nonterminals deriving at least one terminal word."""
    prod: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            if head not in prod and all(
                    s in g.terminals or s in prod for s in body):
                prod.add(head)
                changed = True
    return frozenset(prod)


def cfg_empty(g: Cfg) -> bool:
    """True iff the grammar generates no word at all."""
    return g.start not in productive_set(g)


def cfg_generates_lambda(g: Cfg) -> bool:
    return g.start in nullable_set(g)


def min_lengths(g: Cfg) -> dict[str, int]:
    """Shortest derivable terminal length per nonterminal (absent: none)."""
    best: dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            total = 0
            ok = True
            for s in body:
                if s in g.terminals:
                    total += 1
                elif s in best:
                    total += best[s]
                else:
                    ok = False
                    break
            if ok and (head not in best or total < best[head]):
                best[head] = total
                changed = True
    return best


def remove_useless(g: Cfg) -> Cfg:
    """Drop unproductive and unreachable nonterminals.

    If the start symbol itself is unproductive the result keeps it with no
    productions, so the grammar object stays well formed (and empty).
    """
    prod = productive_set(g)
    kept = {(h, b) for h, b in g.productions
            if h in prod and all(s in g.terminals or s in prod for s in b)}
    reach = {g.start}
    frontier = [g.start]
    by_head: dict[str, list[tuple[str, ...]]] = {}
    for h, b in kept:
        by_head.setdefault(h, []).append(b)
    while frontier:
        n = frontier.pop()
        for body in by_head.get(n, []):
            for s in body:
                if s not in g.terminals and s not in reach:
                    reach.add(s)
                    frontier.append(s)
    kept = {(h, b) for h, b in kept if h in reach}
    nts = frozenset(reach | {g.start})
    return Cfg(g.terminals, nts, g.start, frozenset(kept))


def strip_lambda(g: Cfg) -> Cfg:
    """A grammar for L(g) minus the empty word, with no lambda productions."""
    nullable = nullable_set(g)
    new_prods: set[Production] = set()
    for head, body in g.productions:
        opt = [i for i, s in enumerate(body) if s in nullable]
        if len(opt) > 14:
            raise ValueError("right-hand side too nullable to strip")
        for drop in itertools.chain.from_iterable(
                itertools.combinations(opt, k) for k in range(len(opt) + 1)):
            kept = tuple(s for i, s in enumerate(body) if i not in drop)
            if kept:
                new_prods.add((head, kept))
    return remove_useless(Cfg(g.terminals, g.nonterminals, g.start,
                              frozenset(new_prods)))


# ---------------------------------------------------------------- membership

def cfg_member(g: Cfg, x: Word) -> bool:
    """Exact membership via an Earley recognizer (handles lambda rules)."""
    for s in x.symbols:
        if s not in g.terminals:
            raise ValueError(f"word symbol {s!r} outside grammar terminals")
    return _member_symbols(g, x.symbols)


def _member_symbols(g: Cfg, syms: tuple[str, ...]) -> bool:
    by_head, nullable = g.by_head(), nullable_set(g)
    n = len(syms)
    top = ("$start$", (g.start,))
    # item: (head, body, dot, origin)
    charts: list[set] = [set() for _ in range(n + 1)]
    charts[0].add((top[0], top[1], 0, 0))
    for i in range(n + 1):
        work = list(charts[i])
        while work:
            item = work.pop()
            head, body, dot, origin = item
            if dot < len(body):
                sym = body[dot]
                if sym in g.terminals:
                    if i < n and syms[i] == sym:
                        nxt = (head, body, dot + 1, origin)
                        if nxt not in charts[i + 1]:
                            charts[i + 1].add(nxt)
                else:
                    for b in by_head.get(sym, []):
                        nxt = (sym, b, 0, i)
                        if nxt not in charts[i]:
                            charts[i].add(nxt)
                            work.append(nxt)
                    if sym in nullable:
                        nxt = (head, body, dot + 1, origin)
                        if nxt not in charts[i]:
                            charts[i].add(nxt)
                            work.append(nxt)
            else:
                for it2 in list(charts[origin]):
                    h2, b2, d2, o2 = it2
                    if d2 < len(b2) and b2[d2] == head:
                        nxt = (h2, b2, d2 + 1, o2)
                        if nxt not in charts[i]:
                            charts[i].add(nxt)
                            work.append(nxt)
    return (top[0], top[1], 1, 0) in charts[n]


# ------------------------------------------------------------- substitution

@dataclass(frozen=True)
class Substitution:
    """A map letter -> grammar, extended letter-wise to words and omega-words.

    When every image is a single word the substitution is a morphism and
    `word_map` records the images directly.
    """

    domain: Alphabet
    images: tuple[tuple[str, Cfg], ...]
    word_map: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def __post_init__(self):
        keys = [a for a, _ in self.images]
        if sorted(keys) != sorted(self.domain.letters):
            raise ValueError("substitution must cover exactly the domain alphabet")

    def image(self, letter: str) -> Cfg:
        for a, g in self.images:
            if a == letter:
                return g
        raise KeyError(letter)

    @property
    def target_alphabet(self) -> Alphabet:
        alpha = self.images[0][1].terminals
        for _, g in self.images[1:]:
            alpha = alpha.union(g.terminals)
        return alpha

    def is_lambda_free(self) -> bool:
        return all(not cfg_generates_lambda(g) for _, g in self.images)

    def is_morphism(self) -> bool:
        return self.word_map is not None

    def image_word(self, letter: str) -> tuple[str, ...]:
        if self.word_map is None:
            raise ValueError("not a single-word-per-letter substitution")
        for a, w in self.word_map:
            if a == letter:
                return w
        raise KeyError(letter)

    def apply_to_word(self, x: Word) -> Word:
        out: list[str] = []
        for s in x.symbols:
            out.extend(self.image_word(s))
        return Word(self.target_alphabet, tuple(out))

    def apply_to_lasso(self, w: Lasso) -> Lasso:
        if not self.is_lambda_free():
            raise ValueError("omega-extension needs a lambda-free substitution")
        return Lasso(self.apply_to_word(w.spoke),
                     self.apply_to_word(w.cycle)).normalize()


def substitution(domain: Alphabet, images: dict[str, Cfg]) -> Substitution:
    return Substitution(domain, tuple(sorted(images.items())))


def word_substitution(domain: Alphabet, words: dict[str, tuple[str, ...]],
                      target: Alphabet) -> Substitution:
    """The morphism letter -> single word, as a substitution."""
    images = {a: single_word_grammar(target, w, tag=a) for a, w in words.items()}
    return Substitution(domain, tuple(sorted(images.items())),
                        tuple(sorted(words.items())))


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def apply_substitution(f: Substitution, g: Cfg) -> Cfg:
    """Grammar for the substitution image f(L(g))."""
    if sorted(f.domain.letters) != sorted(g.terminals.letters):
        raise ValueError("substitution domain must equal the grammar terminals")
    target = f.target_alphabet
    taken = set(target.letters)
    rename: dict[tuple[str, str], str] = {}

    def nt(tag: str, name: str) -> str:
        key = (tag, name)
        if key not in rename:
            rename[key] = _fresh(f"{tag}:{name}", taken)
        return rename[key]

    prods: set[Production] = set()
    for head, body in g.productions:
        new_body = tuple(
            nt("img_" + s, f.image(s).start) if s in g.terminals else nt("sub", s)
            for s in body)
        prods.add((nt("sub", head), new_body))
    for a in g.terminals:
        img = f.image(a)
        for head, body in img.productions:
            new_body = tuple(s if s in img.terminals else nt("img_" + a, s)
                             for s in body)
            prods.add((nt("img_" + a, head), new_body))
    start = nt("sub", g.start)
    nts = frozenset(rename.values())
    return Cfg(target, nts, start, frozenset(prods))


# ------------------------------------------------------------- combinators

def _nt_pool(terminals: Alphabet, wanted: list[str]) -> list[str]:
    taken = set(terminals.letters)
    return [_fresh(w, taken) for w in wanted]


def empty_grammar(alpha: Alphabet) -> Cfg:
    (s,) = _nt_pool(alpha, ["S"])
    return Cfg(alpha, frozenset({s}), s, frozenset())


def lambda_grammar(alpha: Alphabet) -> Cfg:
    (s,) = _nt_pool(alpha, ["S"])
    return Cfg(alpha, frozenset({s}), s, frozenset({(s, ())}))


def single_word_grammar(alpha: Alphabet, w: tuple[str, ...], tag: str = "") -> Cfg:
    (s,) = _nt_pool(alpha, [f"W{tag}" if tag else "W"])
    return Cfg(alpha, frozenset({s}), s, frozenset({(s, tuple(w))}))


def finite_words_grammar(alpha: Alphabet, words: list[tuple[str, ...]]) -> Cfg:
    (s,) = _nt_pool(alpha, ["S"])
    return Cfg(alpha, frozenset({s}), s,
               frozenset((s, tuple(w)) for w in words))


def letters_grammar(alpha: Alphabet) -> Cfg:
    """All single-letter words of the alphabet."""
    (s,) = _nt_pool(alpha, ["S"])
    return Cfg(alpha, frozenset({s}), s,
               frozenset((s, (a,)) for a in alpha))


def alphabet_star_grammar(alpha: Alphabet) -> Cfg:
    """All finite words over the alphabet."""
    (s,) = _nt_pool(alpha, ["S"])
    prods = {(s, ())} | {(s, (a, s)) for a in alpha}
    return Cfg(alpha, frozenset({s}), s, frozenset(prods))


def concat_grammars(g1: Cfg, g2: Cfg) -> Cfg:
    """Grammar for L(g1).L(g2); alphabets are unioned."""
    alpha = g1.terminals.union(g2.terminals)
    taken = set(alpha.letters)
    ren1 = {n: _fresh("l:" + n, taken) for n in sorted(g1.nonterminals)}
    ren2 = {n: _fresh("r:" + n, taken) for n in sorted(g2.nonterminals)}
    start = _fresh("S", taken)
    prods: set[Production] = {(start, (ren1[g1.start], ren2[g2.start]))}
    for head, body in g1.productions:
        prods.add((ren1[head], tuple(ren1.get(s, s) for s in body)))
    for head, body in g2.productions:
        prods.add((ren2[head], tuple(ren2.get(s, s) for s in body)))
    nts = frozenset({start} | set(ren1.values()) | set(ren2.values()))
    return Cfg(alpha, nts, start, frozenset(prods))


# ----------------------------------------------------- the builder grammars

def doubling_filler(sigma: Alphabet, separator: str = "A") -> Cfg:
    """Words u.sep.v with u, v over sigma and |v| = 2|u| or |v| = 2|u|+1.

    These are exactly the words a branch-guessing reader may skip between two
    consecutive path labels of a level-coded binary tree.
    """
    if separator in sigma:
        raise ValueError(f"separator {separator!r} must not be in the alphabet")
    alpha = sigma.with_letter(separator)
    s, t = _nt_pool(alpha, ["S", "T"])
    prods: set[Production] = {(t, (separator,)), (s, (t,))}
    for x in sigma:
        prods.add((s, (t, x)))
        for y in sigma:
            for z in sigma:
                prods.add((t, (x, t, y, z)))
    return Cfg(alpha, frozenset({s, t}), s, frozenset(prods))


def gap_too_short(sigma: Alphabet, separator: str = "A") -> Cfg:
    """Words sep.u.sep.v.sep with u, v over sigma and |v| < 2|u|.

    A factor of this shape witnesses that two consecutive complete separator
    gaps fail the doubling law from below.
    """
    if separator in sigma:
        raise ValueError(f"separator {separator!r} must not be in the alphabet")
    alpha = sigma.with_letter(separator)
    s, n, p = _nt_pool(alpha, ["S", "N", "P"])
    prods: set[Production] = {(s, (separator, n, separator)), (p, (separator,))}
    for x in sigma:
        prods.add((n, (x, p)))
        prods.add((p, (x, p)))
        for y in sigma:
            prods.add((n, (x, p, y)))
            prods.add((p, (x, p, y)))
            for z in sigma:
                prods.add((p, (x, p, y, z)))
    return Cfg(alpha, frozenset({s, n, p}), s, frozenset(prods))


def gap_too_long(sigma: Alphabet, separator: str = "A") -> Cfg:
    """Words sep.u.sep.v with u, v over sigma and |v| > 2|u|.

    A factor of this shape witnesses a separator gap overshooting the
    doubling law (or a word with no further separator at all).
    """
    if separator in sigma:
        raise ValueError(f"separator {separator!r} must not be in the alphabet")
    alpha = sigma.with_letter(separator)
    s, q = _nt_pool(alpha, ["S", "Q"])
    prods: set[Production] = {(q, (separator,))}
    for y in sigma:
        prods.add((s, (separator, q, y)))
        prods.add((q, (q, y)))
        for x in sigma:
            for z in sigma:
                prods.add((q, (x, q, y, z)))
    return Cfg(alpha, frozenset({s, q}), s, frozenset(prods))


def filler_insertion(sigma: Alphabet, separator: str = "A") -> Substitution:
    """The substitution a -> a . filler over sigma.

    Applying it to a language inserts one doubling-gap filler word after
    every letter; this is the grammar-level description of what the
    branch-guessing machine reads between two path labels.
    """
    filler = doubling_filler(sigma, separator)
    images = {}
    for a in sigma:
        one = single_word_grammar(filler.terminals, (a,), tag=a)
        images[a] = concat_grammars(one, filler)
    return substitution(sigma, images)


BLOCK_SOURCE_LETTERS = ("a", "b", "c", "~>", "d", "A")


def block_encoding_morphism() -> Substitution:
    """The lambda-free morphism collapsing six letters to the two-letter
    alphabet {a, b}: the i-th source letter maps to b a^i b."""
    source = Alphabet(BLOCK_SOURCE_LETTERS)
    target = Alphabet(("a", "b"))
    words = {letter: ("b",) + ("a",) * (i + 1) + ("b",)
             for i, letter in enumerate(BLOCK_SOURCE_LETTERS)}
    return word_substitution(source, words, target)
