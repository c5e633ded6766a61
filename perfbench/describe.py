"""Make-up of the workloads' inputs over a range of seeds, from rounds 0
and 1 of each: per family the operations per round, lasso lengths, matrix
sides, tree levels, the share of accepting answers the checks expect
(for one-counter systems: non-empty), and the oracle's
yes/no/unknown counts (one oracle call per input, so this takes a few
seconds per seed).

Usage: python3 perfbench/describe.py [first_seed last_seed]   (default 1 10)
"""

import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import omegacfl as oc  # noqa: E402
import inputs  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402


def describe(seeds):
    for workload, build in inputs.BUILDERS.items():
        rows = defaultdict(lambda: defaultdict(list))
        for seed in seeds:
            block = build(seed, NULL_TRACER)
            ops = block(0) + block(1)
            inputs.expect(ops)
            for op in ops:
                r = rows[op.family]
                r["ops"].append(seed)
                if "u" in op.info:
                    r["|u|"].append(len(op.info["u"]))
                    r["|v|"].append(len(op.info["v"]))
                if "side" in op.info:
                    r["side"].append(op.info["side"])
                if op.kind == "oracle":
                    r["verdict"].append(oc.lasso_in_kc(*op.args))
                if op.kind == "evidence":
                    r["level"].append(op.args[2])
                elif op.kind == "empty":
                    r["accept"].append(not op.expected)
                else:
                    r["accept"].append(bool(op.expected))
        print(f"{workload} (seeds {seeds[0]}-{seeds[-1]})")
        for family, r in rows.items():
            parts = [f"{len(r['ops']) // (2 * len(seeds))} per round"]
            for key in ("|u|", "|v|", "side", "level"):
                if r[key]:
                    parts.append(f"{key} {min(r[key])}-{max(r[key])}")
            if r["accept"]:
                parts.append(f"accepting {sum(r['accept'])}/{len(r['accept'])}")
            if r["verdict"]:
                parts.append(" ".join(f"{v} {r['verdict'].count(v)}"
                                      for v in ("yes", "no", "unknown")))
            print(f"  {family}: " + ", ".join(parts))


if __name__ == "__main__":
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 \
        else (1, 10)
    describe(list(range(first, last + 1)))
