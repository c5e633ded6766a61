"""Seeded inputs for the four workloads.

Each builder is one workload's set-up: it makes the machines, expressions
and input files the timed phase uses, and returns `block(b)`, which makes
the operations of round b.  Every round has the same families and sizes
with fresh seeded letters, so a run averages over many distinct inputs while
failing exactly the same share of operations.  The set-up probe and the
benchmark both call the builder and `block(0)`, so `setup_s` times exactly
that plus interpreter start and import.

Each operation carries the answer the benchmark's own checks expect
(`expect` fills it in, outside any timed region) and whether it belongs to
the family that shows a known fault of the program.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field

import omegacfl as oc
from omegacfl.oracles import pds_explicit_empty

import checks

BITS = oc.alphabet("0", "1")
BITS_SEP = oc.alphabet("0", "1", "A")
LAMBDA_BUDGET = 4

# (|u|, |v|) of the seeded lassos the suites draw (|u|, |v| <= 6); the
# letters are seeded, the lengths fixed, so that every seed gives the same
# mix of product and matrix sizes
SUITE_SIZES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 6),
               (2, 5), (4, 2), (6, 3), (0, 4), (3, 1)]
SHORT_SIZES = [(u, v) for u in range(5) for v in range(1, 5)]
LONG_SIZES = [(u, v) for u in range(5, 9) for v in range(5, 9)]

# the filler-image members of 1^w that the transform of a base with a silent
# first move rejects (see CHANGES.md), and non-members it rightly rejects;
# fixed, so that every run fails the same share of operations
SILENT_START_MEMBERS = [("", "1A"), ("", "1A1"), ("", "10A00"),
                        ("1A", "11A001")]
SILENT_START_OTHERS = [("", "0A"), ("", "1A111"), ("", "1AA"), ("", "1A0A")]


@dataclass
class Op:
    family: str
    kind: str          # accepts | empty | oracle | evidence | cli
    args: tuple
    known_fault: bool = False
    expected: object = None
    info: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, family: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{family}")


def _letters(rng, letters, n):
    return tuple(rng.choice(letters) for _ in range(n))


def _filler_block(rng, x, k, extra):
    """x.u.A.v with |u| = k and |v| = 2k + extra, extra in {0, 1}."""
    return ((x,) + _letters(rng, "01", k) + ("A",)
            + _letters(rng, "01", 2 * k + extra))


# (spoke blocks, cycle blocks) as (|u|, |v| - 2|u|) per block: the built
# filler-image members have these fixed lengths, so every seed builds words
# of the same sizes; the long one has length 23, a matrix side of 105
FILLER_SHAPES = [([], [(1, 0), (0, 1)]), ([(0, 0)], [(1, 1), (0, 0)]),
                 ([(0, 1)], [(2, 0)]), ([(1, 1)], [(0, 0), (1, 0), (0, 1)])]
LONG_FILLER_SHAPE = ([], [(2, 1), (1, 0), (1, 1), (0, 1)])


def _filler_member(rng, shape):
    """A lasso in the filler image of (0*1)^w of the given shape: random
    letters, with a 1 among the cycle's x-letters."""
    spoke_shape, cycle_shape = shape
    cycle_shape = rng.sample(cycle_shape, len(cycle_shape))
    xs = [rng.choice("01") for _ in cycle_shape]
    xs[rng.randrange(len(xs))] = "1"
    spoke = sum((_filler_block(rng, rng.choice("01"), k, e)
                 for k, e in spoke_shape), ())
    cycle = sum((_filler_block(rng, x, k, e)
                 for x, (k, e) in zip(xs, cycle_shape)), ())
    return spoke, cycle


def _perturbed(rng, spoke, cycle):
    """One letter of the cycle changed: mostly a non-member."""
    i = rng.randrange(len(cycle))
    c = list(cycle)
    c[i] = rng.choice([a for a in "01A" if a != c[i]])
    return spoke, tuple(c)


# block lengths n of the built (0^n 1^n)^w members, as (spoke, cycle); every
# member has length 6, and the seed picks which shape and the rotation
BLOCK_SHAPES = [([1], [2]), ([], [1, 2]), ([2], [1]), ([], [3]),
                ([1], [1, 1]), ([], [1, 1, 1])]


def _blocks_member(rng):
    spoke, cycle = rng.choice(BLOCK_SHAPES)
    cycle = rng.sample(cycle, len(cycle))
    return (sum((("0",) * n + ("1",) * n for n in spoke), ()),
            sum((("0",) * n + ("1",) * n for n in cycle), ()))


def _seeded(rng, alpha, sizes):
    return [(_letters(rng, alpha.letters, u), _letters(rng, alpha.letters, v))
            for u, v in sizes]


def _one_counter(rng):
    """A seeded input-free one-counter system, biased to shallow stacks."""
    n = rng.randint(1, 4)
    states = tuple(f"p{i}" for i in range(n))
    rules = set()
    for _ in range(rng.randint(2, 9)):
        p, q = rng.choice(states), rng.choice(states)
        if rng.random() < 0.5:
            rules.add((p, "Z0", q, rng.choice((("Z0",), ("E", "Z0")))))
        else:
            rules.add((p, "E", q, rng.choice(((), (), ("E",), ("E", "E")))))
    rep = frozenset(s for s in states if rng.random() < 0.4)
    return oc.BuchiPds(frozenset(states), ("Z0", "E"), "p0", "Z0",
                       frozenset(rules), rep)


def zero_star_one():
    return oc.cfg(BITS, "S", [("S", ("0", "S")), ("S", ("1",))])


def matched_blocks():
    return oc.cfg(BITS, "S", [("S", ("0", "S", "1")), ("S", ("0", "1"))])


def silent_start_base():
    """q0 -#-> q1, q1 -1-> q1, q1 final: the language 1^w."""
    m = oc.Pdm(frozenset({"q0", "q1"}), BITS, ("Z0",), "q0", "Z0",
               frozenset({("q0", None, "Z0", "q1", ("Z0",)),
                          ("q1", "1", "Z0", "q1", ("Z0",))}))
    return oc.Bpda(m, frozenset({"q1"}))


def fa_bpda(delta, q0, final):
    """A complete finite automaton written as an inert-stack pushdown
    machine, the form the evidence recurrence recognises."""
    states = frozenset({q0} | {q for q, _ in delta} |
                       {p for ps in delta.values() for p in ps})
    rules = frozenset((q, a, "Z0", p, ("Z0",))
                      for (q, a), ps in delta.items() for p in ps)
    return oc.Bpda(oc.Pdm(states, BITS, ("Z0",), q0, "Z0", rules),
                   frozenset(final))


# ------------------------------------------------------------ workloads

def lasso_decide(seed, tracer):
    w = "lasso-decide"
    with tracer.span("kleene.kc_to_bpda") as t:
        complement = oc.kc_to_bpda(oc.coding_complement_expr(BITS))
        zso = oc.kc_to_bpda(oc.omega_power(zero_star_one()))
        blocks = oc.kc_to_bpda(oc.omega_power(matched_blocks()))
        t.count("kleene.machine_rules", sum(
            len(m.machine.rules) for m in (complement, zso, blocks)))
    with tracer.span("branching.transform") as t:
        bar = oc.branch_guess_machine(zso, "A").bpda
        silent = oc.branch_guess_machine(silent_start_base(), "A").bpda
        t.count("branching.transform_rules",
                len(bar.machine.rules) + len(silent.machine.rules))

    def block(b):
        ops = []

        def decide(family, m, alpha, words, fault=False):
            for u, v in words:
                ops.append(Op(family, "accepts", (m, oc.lasso(alpha, u, v)),
                              known_fault=fault, info={"u": u, "v": v}))

        decide("complement-short", complement, BITS_SEP,
               _seeded(_rng(seed, w, f"cs{b}"), BITS_SEP, SHORT_SIZES * 2))
        decide("complement-long", complement, BITS_SEP,
               _seeded(_rng(seed, w, f"cl{b}"), BITS_SEP, LONG_SIZES * 3))
        decide("zero-star-one", zso, BITS,
               _seeded(_rng(seed, w, f"z{b}"), BITS, SHORT_SIZES))
        rng = _rng(seed, w, f"b{b}")
        decide("matched-blocks", blocks, BITS,
               _seeded(rng, BITS, SUITE_SIZES) + [_blocks_member(rng)
                                                  for _ in range(8)])
        decide("transform-seeded", bar, BITS_SEP,
               _seeded(_rng(seed, w, f"ts{b}"), BITS_SEP, SUITE_SIZES))
        rng = _rng(seed, w, f"tb{b}")
        members = [_filler_member(rng, shape) for shape in FILLER_SHAPES * 3]
        decide("transform-built", bar, BITS_SEP,
               members + [_perturbed(rng, u, v) for u, v in members])
        decide("silent-start", silent, BITS_SEP, SILENT_START_MEMBERS,
               fault=True)
        decide("silent-start", silent, BITS_SEP, SILENT_START_OTHERS)

        rng = _rng(seed, w, f"oc{b}")
        systems = 0
        while systems < 20:
            pds = _one_counter(rng)
            empty, closed = pds_explicit_empty(pds, 8)
            if closed:
                ops.append(Op("one-counter", "empty", (pds,), expected=empty))
                systems += 1
        return ops
    return block


def kc_oracle(seed, tracer):
    w = "kc-oracle"
    e1 = oc.omega_power(zero_star_one())
    e2 = oc.omega_power(matched_blocks())
    e3 = oc.omega_power(oc.apply_substitution(
        oc.filler_insertion(BITS, "A"), zero_star_one()))
    e4 = oc.coding_complement_expr(BITS)
    e5 = oc.filler_image_expr(e1, "A")

    def block(b):
        ops = []

        def ask(family, e, alpha, words):
            for u, v in words:
                bound = 4 * (len(u) + len(v)) + 12
                ops.append(Op(family, "oracle",
                              (e, oc.lasso(alpha, u, v), bound),
                              info={"u": u, "v": v, "side": bound + 1}))

        rng = _rng(seed, w, f"e1:{b}")
        ask("zero-star-one", e1, BITS, _seeded(rng, BITS, SUITE_SIZES) + [
            (_letters(rng, "01", 2), _letters(rng, "01", 3) + ("1",))
            for _ in range(20)])
        rng = _rng(seed, w, f"e2:{b}")
        ask("matched-blocks", e2, BITS, _seeded(rng, BITS, SUITE_SIZES) +
            [_blocks_member(rng) for _ in range(20)])
        rng = _rng(seed, w, f"e3:{b}")
        ask("filler-power", e3, BITS_SEP,
            _seeded(rng, BITS_SEP, SUITE_SIZES[:6])
            + [_filler_member(rng, shape) for shape in FILLER_SHAPES[:3]]
            + [_filler_member(rng, LONG_FILLER_SHAPE)])
        rng = _rng(seed, w, f"e4:{b}")
        ask("complement", e4, BITS_SEP,
            _seeded(rng, BITS_SEP, SUITE_SIZES[:8]))
        rng = _rng(seed, w, f"e5:{b}")
        ask("filler-image", e5, BITS_SEP,
            _seeded(rng, BITS_SEP, SUITE_SIZES[:6])
            + [_filler_member(rng, shape) for shape in FILLER_SHAPES[:3]])
        return ops
    return block


def _homogeneous_tree(spoke, cycle):
    word = spoke + cycle
    n = len(word)
    states = tuple(f"p{i}" for i in range(n))
    nxt = {f"p{i}": f"p{i + 1 if i + 1 < n else len(spoke)}" for i in range(n)}
    output = {f"p{i}": word[i] for i in range(n)}
    return oc.RegularTree(BITS, states, "p0", dict(nxt), dict(nxt), output)


def _inhomogeneous_tree(rng):
    """Three node-states whose root children differ in label, so that no
    level from 1 on is depth-homogeneous."""
    states = ("s0", "s1", "s2")
    while True:
        left = {s: rng.choice(states) for s in states}
        right = {s: rng.choice(states) for s in states}
        output = {s: rng.choice("01") for s in states}
        if output[left["s0"]] != output[right["s0"]]:
            return oc.RegularTree(BITS, states, "s0", left, right, output)


# complete finite-automaton bases over {0,1}: (delta, initial, final)
ONES_ACCEPTOR = ({("q0", "0"): ("q0",), ("q0", "1"): ("qf",),
                  ("qf", "0"): ("q0",), ("qf", "1"): ("qf",)}, "q0", {"qf"})
ONES_MOD_3 = ({(f"m{i}", a): (f"m{(i + int(a)) % 3}",)
               for i in range(3) for a in "01"}, "m0", {"m0"})
ENDS_01 = ({("e0", "0"): ("e1",), ("e0", "1"): ("e0",),
            ("e1", "0"): ("e1",), ("e1", "1"): ("e2",),
            ("e2", "0"): ("e1",), ("e2", "1"): ("e0",)}, "e0", {"e2"})


def tree_evidence(seed, tracer):
    w = "tree-evidence"
    automata = [ONES_ACCEPTOR, ONES_MOD_3, ENDS_01]
    with tracer.span("branching.transform") as t:
        machines = [oc.branch_guess_machine(fa_bpda(*a), "A")
                    for a in automata]
        t.count("branching.transform_rules",
                sum(len(bm.bpda.machine.rules) for bm in machines))

    def block(b):
        rng = _rng(seed, w, f"trees{b}")
        homogeneous = [_homogeneous_tree(*l) for l in _seeded(
            rng, BITS, [(0, 1), (1, 2), (2, 3), (1, 3)])]
        inhomogeneous = [_inhomogeneous_tree(rng) for _ in range(3)]
        ops = []
        for automaton, bm in zip(automata, machines):
            for t in homogeneous:
                for level in (10, 11, 12):
                    ops.append(Op("recurrence", "evidence", (bm, t, level),
                                  info={"automaton": automaton}))
            for t in inhomogeneous:
                for level in (5, 6, 7):
                    ops.append(Op("enumeration", "evidence", (bm, t, level),
                                  info={"automaton": automaton}))
        return ops
    return block


BUILDERS = {"lasso-decide": lasso_decide, "kc-oracle": kc_oracle,
            "tree-evidence": tree_evidence}


def cli_argv(*args):
    return [sys.executable, "-m", "omegacfl.cli", *args]


def cli_cold(seed, root, pushdown_path):
    automaton = os.path.join(root, "data", "ones-acceptor.automaton")
    tree = os.path.join(root, "data", "constant-a.tree")
    sizes = [(0, 2), (2, 3), (3, 1), (1, 4)]

    def block(b):
        rng = _rng(seed, "cli-cold", f"words{b}")
        ops = []
        for (u, v), (u2, v2), levels in zip(
                _seeded(rng, BITS, sizes), _seeded(rng, BITS, sizes),
                (6, 8, 9, 10)):
            ops.append(Op("check-lasso-automaton", "cli", (
                "check-lasso", "--machine", automaton,
                "--word", f"{''.join(u)}({''.join(v)})^w"),
                info={"u": u, "v": v}))
            ops.append(Op("check-lasso-pushdown", "cli", (
                "check-lasso", "--machine", pushdown_path,
                "--word", f"{''.join(u2)}({''.join(v2)})^w"),
                info={"u": u2, "v": v2}))
            ops.append(Op("code-tree", "cli", (
                "code-tree", "--tree", tree, "--levels", str(levels)),
                info={"tree": tree, "levels": levels}))
        return ops
    return block


# ------------------------------------------------------- expected answers

def _parse_tree_file(path):
    """The tree format read by the benchmark's own code."""
    left, right, output, initial = {}, {}, {}, None
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[:1] == ["initial:"]:
                initial = parts[1]
            elif parts[:1] == ["node:"]:
                _, s, _, label, _, l, _, r = parts
                output[s], left[s], right[s] = label, l, r
    return initial, left, right, output


def _tree_parts(t):
    return t.initial, t.left, t.right, t.output


def expect(ops):
    """Fill in each operation's expected answer from checks.py."""
    deciders = {
        "complement-short": checks.coding_complement_member,
        "complement-long": checks.coding_complement_member,
        "complement": checks.coding_complement_member,
        "zero-star-one": checks.zero_star_one_member,
        "check-lasso-automaton": checks.zero_star_one_member,
        "check-lasso-pushdown": checks.zero_star_one_member,
        "matched-blocks": checks.matched_blocks_member,
        "transform-seeded": checks.zero_star_one_filler_member,
        "transform-built": checks.zero_star_one_filler_member,
        "filler-power": checks.zero_star_one_filler_member,
        "filler-image": checks.zero_star_one_filler_member,
        "silent-start": checks.ones_filler_member,
    }
    prefixes = {}
    for op in ops:
        if op.kind == "empty":
            continue  # filled in with the round, by the explicit-state search
        if op.kind == "evidence":
            bm, t, level = op.args
            op.expected = checks.evidence_score(
                *_tree_parts(t), *op.info["automaton"], level)
            key = (id(t), level)
            if key not in prefixes:
                prefixes[key] = checks.coded_prefix(*_tree_parts(t), level)
            op.info["prefix"] = prefixes[key]
        elif op.family == "code-tree":
            op.expected = ".".join(checks.coded_prefix(
                *_parse_tree_file(op.info["tree"]), op.info["levels"]))
        else:
            op.expected = deciders[op.family](op.info["u"], op.info["v"])
