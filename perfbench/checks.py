"""Answers computed apart from the library.

Every function here decides one question on plain tuples of letters and plain
dicts, with no import from omegacfl, so a fault in the library's algorithms
cannot hide in the expected answers.  `self_test` pins each check on cases
worked out by hand; the benchmark runs it before every run and stops when it
fails.  Run this file directly to see the self-test pass.
"""

from __future__ import annotations

import itertools

SIGMA = ("0", "1")
SEP = "A"


def zero_star_one_member(spoke, cycle) -> bool:
    """(0*1)^w over {0,1}: infinitely many 1s, i.e. the cycle holds a 1."""
    return "1" in cycle


def matched_blocks_member(spoke, cycle) -> bool:
    """(0^n 1^n)^w over {0,1}, by a run-length check on the unrolled lasso.

    With both letters in the cycle every maximal run in the periodic part is
    shorter than the cycle, and the sequence of (0-run, 1-run) pairs repeats
    within two cycles once the spoke is passed, so eight unrolled cycles
    cover every pair that can fail."""
    if set(cycle) != {"0", "1"}:
        return False  # an infinite run of one letter ends the blocks
    word = tuple(spoke) + tuple(cycle) * 8
    runs = [len(list(g)) for _, g in itertools.groupby(word)]
    if word[0] != "0":
        return False
    runs.pop()  # the last run may be cut short by the unrolling
    return all(runs[i] == runs[i + 1] for i in range(0, len(runs) - 1, 2))


def filler_image_member(spoke, cycle, allowed, accepting) -> bool:
    """Is spoke.cycle^w in the filler image of a base language of the form
    "x-letters from `allowed`, infinitely many from `accepting`"?

    The filler image writes each base letter x followed by u.A.v with u, v
    over {0,1} and |v| in {2|u|, 2|u|+1}.  The search runs over nodes
    (lasso position, phase, |u|, |v| so far); it is finite because a cycle
    with a separator bounds every gap half by the lasso length, and a cycle
    without one cannot close infinitely many gaps.  The word is a member iff
    a reachable node cycle reads an accepting x-letter.
    """
    if SEP not in cycle:
        return False
    spoke, cycle = tuple(spoke), tuple(cycle)
    length = len(spoke) + len(cycle)

    def sym(i):
        return spoke[i] if i < len(spoke) else cycle[i - len(spoke)]

    def nxt(i):
        return i + 1 if i + 1 < length else len(spoke)

    def succ(node):
        """(successor, reads an accepting x-letter) pairs."""
        i, phase, k, j = node
        a = sym(i)
        if phase == "x":
            if a in allowed:
                yield (nxt(i), "u", 0, 0), a in accepting
        elif phase == "u":
            if a in SIGMA:
                yield (nxt(i), "u", k + 1, 0), False
            elif a == SEP:
                yield (nxt(i), "v", k, 0), False
        else:
            if j in (2 * k, 2 * k + 1):
                yield (i, "x", 0, 0), False  # the gap may close here
            if a in SIGMA and j < 2 * k + 1:
                yield (nxt(i), "v", k, j + 1), False

    def reach(src):
        seen, todo = {src}, [src]
        while todo:
            for m, _ in succ(todo.pop()):
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        return seen

    for node in reach((0, "x", 0, 0)):
        for m, acc in succ(node):
            if acc and node in reach(m):
                return True
    return False


def zero_star_one_filler_member(spoke, cycle) -> bool:
    """The filler image of (0*1)^w: the transform's language and the kc
    suite's filler-power expression."""
    return filler_image_member(spoke, cycle, {"0", "1"}, {"1"})


def ones_filler_member(spoke, cycle) -> bool:
    """The filler image of 1^w."""
    return filler_image_member(spoke, cycle, {"1"}, {"1"})


def coding_complement_member(spoke, cycle) -> bool:
    """Every lasso lies in the complement of the tree coding: the separator
    gaps of a coded tree double, and no ultimately periodic word has gaps
    that grow without bound."""
    return True


def coded_prefix(initial, left, right, output, levels, sep=SEP) -> tuple:
    """Level-order coding through `levels`, by walking every node address:
    level 0 and odd levels in lexicographic order (l before r), even levels
    from 2 on reversed, each level followed by the separator."""
    out = []
    for n in range(levels + 1):
        addresses = list(itertools.product("lr", repeat=n))
        if n >= 2 and n % 2 == 0:
            addresses.reverse()
        for address in addresses:
            s = initial
            for c in address:
                s = left[s] if c == "l" else right[s]
            out.append(output[s])
        out.append(sep)
    return tuple(out)


def evidence_score(initial, left, right, output, delta, q0, final,
                   levels) -> int:
    """Most final-state visits of a complete finite automaton over all tree
    branches through `levels`, by a DP over (tree state, automaton state).

    `delta` maps (state, letter) to successor states; the root label is read
    from q0, and each later depth adds one visit when the reached state is
    final."""
    best = {}
    for p in delta.get((q0, output[initial]), ()):
        best[(initial, p)] = max(best.get((initial, p), 0), int(p in final))
    for _ in range(levels):
        nxt = {}
        for (s, q), c in best.items():
            for s2 in (left[s], right[s]):
                for p in delta.get((q, output[s2]), ()):
                    v = c + (p in final)
                    if nxt.get((s2, p), -1) < v:
                        nxt[(s2, p)] = v
        best = nxt
    return max(best.values(), default=0)


def self_test() -> list[str]:
    """Hand-worked cases; returns the ones that fail."""
    bad = []

    def want(name, got, expected):
        if got != expected:
            bad.append(f"{name}: got {got!r}, want {expected!r}")

    z = zero_star_one_member
    want("(01)^w in (0*1)^w", z((), "01"), True)
    want("000(100)^w in (0*1)^w", z("000", "100"), True)
    want("1(0)^w not in (0*1)^w", z("1", "0"), False)

    m = matched_blocks_member
    for u, v, expected in [("", "01", True), ("", "0011", True),
                           ("01", "0011", True), ("", "01010011", True),
                           ("", "001", False), ("0", "01", False),
                           ("", "0", False), ("", "10", False),
                           ("0011", "1", False), ("", "0101", True),
                           ("", "000111", True), ("", "0010", False)]:
        want(f"{u}({v})^w in (0^n1^n)^w", m(tuple(u), tuple(v)), expected)

    f = zero_star_one_filler_member
    for u, v, expected in [("", "1A1", True), ("", "1A111", False),
                           ("", "1A", True), ("", "0A", False),
                           ("", "0A1A", True), ("", "01A00", False),
                           ("", "11A00", True), ("", "A1", False),
                           ("0A", "11A001", True), ("", "11A0", True),
                           ("", "1A0000", False), ("", "1", False),
                           ("1A", "1AA", False)]:
        want(f"{u}({v})^w in filler image of (0*1)^w",
             f(tuple(u), tuple(v)), expected)

    o = ones_filler_member
    for u, v, expected in [("", "1A", True), ("", "1A1", True),
                           ("", "10A00", True), ("1A", "11A001", True),
                           ("", "0A", False), ("", "1A0A", False),
                           ("", "1A111", False), ("", "1AA", False)]:
        want(f"{u}({v})^w in filler image of 1^w",
             o(tuple(u), tuple(v)), expected)

    # s0 (label 0) has left child s1 and right child s0; s1 (label 1) loops
    left, right = {"s0": "s1", "s1": "s1"}, {"s0": "s0", "s1": "s1"}
    output = {"s0": "0", "s1": "1"}
    want("coded prefix of the two-state tree",
         coded_prefix("s0", left, right, output, 2),
         tuple("0A10A0111A"))
    want("coded prefix of the constant tree",
         coded_prefix("n", {"n": "n"}, {"n": "n"}, {"n": "a"}, 2),
         tuple("aAaaAaaaaA"))

    ones = {("q0", "0"): ("q0",), ("q0", "1"): ("qf",),
            ("qf", "0"): ("q0",), ("qf", "1"): ("qf",)}
    fin = {"qf"}
    want("evidence of the ones acceptor on the two-state tree, level 3",
         evidence_score("s0", left, right, output, ones, "q0", fin, 3), 3)
    want("evidence on the all-1 tree, level 3",
         evidence_score("n", {"n": "n"}, {"n": "n"}, {"n": "1"}, ones,
                        "q0", fin, 3), 4)
    want("evidence on the all-0 tree, level 3",
         evidence_score("n", {"n": "n"}, {"n": "n"}, {"n": "0"}, ones,
                        "q0", fin, 3), 0)
    return bad


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print(line)
    print("self-test:", "FAIL" if failures else "ok")
    raise SystemExit(1 if failures else 0)
