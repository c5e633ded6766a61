"""The omegacfl benchmark: four closed-loop workloads, one operation at a time
from one process and one thread (cli-cold: one child process at a time).

    python3 perfbench/run.py --workload lasso-decide --seed 1 --seconds 25 --trace 0

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run on
the same inputs.  Every output is checked against answers computed by
perfbench/checks.py; see perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lasso-decide", "kc-oracle", "tree-evidence", "cli-cold")
SETUP_PROBES = 9
IMPORT_PROBES = 5
MIN_OPS = 100  # so that ten samples lie beyond op_p90_ms
REFERENCE_MS = 2.0  # reported times are scaled to this reference-loop time

PER_LAYER = [
    ("pushdown.product_s", "s"), ("pushdown.product_states", "count"),
    ("pushdown.product_rules", "count"), ("pushdown.saturation_s", "s"),
    ("pushdown.bounded_runs_s", "s"), ("pushdown.bounded_runs_configs", "count"),
    ("kleene.oracle_s", "s"), ("kleene.oracle_yes", "count"),
    ("kleene.oracle_no", "count"), ("kleene.oracle_unknown", "count"),
    ("kleene.kc_to_bpda_s", "s"), ("kleene.machine_rules", "count"),
    ("branching.transform_s", "s"), ("branching.transform_rules", "count"),
    ("branching.evidence_fast_s", "s"), ("trees.h_prefix_s", "s"),
    ("trees.h_prefix_symbols", "count"), ("formats.parse_s", "s"),
    ("buchi.decide_s", "s"), ("cli.import_s", "s"), ("trace.overhead_s", "s"),
    ("host.reference_ms", "ms"),
]
# set-up spans and their counts are reported once per run (one set-up);
# every other layer metric per round
SETUP_LAYERS = {"kleene.kc_to_bpda", "branching.transform"}
SETUP_COUNTS = {"kleene.machine_rules", "branching.transform_rules"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def time_child(argv, until_line=None):
    """Wall time of one child process: until it prints `until_line`, or
    until it exits."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        if until_line is not None:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        else:
            proc.stdout.read()
        code = proc.wait()
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if until_line is None:
        elapsed = perf_counter() - t0
    elif line != until_line:
        fail(f"child {argv} printed {line!r}, want {until_line!r}")
    if code != 0:
        fail(f"child {argv} exited {code}")
    return elapsed


def host_reference(samples=20):
    """Times of a fixed pure-Python loop, in seconds: the speed of the
    shared host at the moment.  Taken between rounds, never inside a timed
    region."""
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        x = 0
        for i in range(20000):  # allocates nothing the collector tracks
            x = (x * 31 + i) % 1000003
        out.append(perf_counter() - t0)
    return out


def host_scale(host):
    """Factor that turns a time measured in this run into one on a host
    where the reference loop takes REFERENCE_MS: the host's speed drifts by
    a fifth or more over minutes, and the program's times drift with it."""
    return REFERENCE_MS / (statistics.median(host) * 1e3)


# ------------------------------------------------------------ operations

class Runner:
    """Runs operations, plain or traced, and judges their outputs."""

    def __init__(self, oc, inputs, tracer):
        self.oc, self.inputs, self.tracer = oc, inputs, tracer
        self.env = child_env()

    def plain(self, op):
        oc, a = self.oc, op.args
        if op.kind == "accepts":
            return a[0].accepts_lasso(a[1])
        if op.kind == "empty":
            return oc.buchi_pds_empty(a[0])
        if op.kind == "oracle":
            return oc.lasso_in_kc(*a)
        if op.kind == "evidence":
            return oc.branch_evidence(*a, self.inputs.LAMBDA_BUDGET)
        return self._cli(op)

    def _cli(self, op):
        proc = subprocess.run(self.inputs.cli_argv(*op.args), cwd=ROOT,
                              env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def traced(self, op):
        """The same answer as `plain`, with a span around each call into a
        layer: accepts_lasso split into product and saturation, the generic
        evidence path into h_prefix and bounded_runs."""
        oc, a, tr = self.oc, op.args, self.tracer
        if op.kind == "accepts":
            with tr.span("pushdown.product") as s:
                pds = oc.product_with_lasso(a[0], a[1])
                s.count("pushdown.product_states", len(pds.states))
                s.count("pushdown.product_rules", len(pds.rules))
            with tr.span("pushdown.saturation"):
                return not oc.buchi_pds_empty(pds)
        if op.kind == "empty":
            with tr.span("pushdown.saturation"):
                return oc.buchi_pds_empty(a[0])
        if op.kind == "oracle":
            with tr.span("kleene.oracle") as s:
                verdict = oc.lasso_in_kc(*a)
                s.count(f"kleene.oracle_{verdict}", 1)
            return verdict
        if op.kind == "evidence":
            bm, t, level = a
            with tr.span("trees.h_prefix", op.family) as s:
                prefix = oc.h_prefix(t, level, bm.separator)
                s.count("trees.h_prefix_symbols", len(prefix.symbols))
            if prefix.symbols != op.info["prefix"]:
                return ("h_prefix differs from the address walk",)
            if op.family == "recurrence":
                with tr.span("branching.evidence"):
                    return oc.branch_evidence(bm, t, level,
                                              self.inputs.LAMBDA_BUDGET)
            x = oc.Word(bm.bpda.machine.input_alphabet, prefix.symbols)
            with tr.span("pushdown.bounded_runs") as s:
                reached = oc.bounded_runs(bm.bpda.machine, x,
                                          self.inputs.LAMBDA_BUDGET,
                                          bm.bpda.final)
                s.count("pushdown.bounded_runs_configs", len(reached))
            return max(reached.values(), default=0)
        with tr.span("cli.call"):
            out = self._cli(op)
        if op.args[0] == "check-lasso":
            with open(op.args[2]) as fh:
                text = fh.read()
            with tr.span("formats.parse"):
                machine = oc.formats.parse_machine(text)
            if isinstance(machine, oc.BuchiAutomaton):
                w = oc.parse_lasso(op.args[4], machine.machine.alphabet)
                with tr.span("buchi.decide"):
                    machine.decide_lasso(w)
        return out

    @staticmethod
    def judge(op, out):
        """"ok", "fault" (a known fault of the program) or "wrong"."""
        exp = op.expected
        if op.kind == "oracle":
            good = out == "unknown" or out == ("yes" if exp else "no")
        elif op.kind == "cli":
            code, stdout = out
            if op.family == "code-tree":
                good = code == 0 and stdout.strip() == exp
            else:
                first = stdout.split()[:1]
                good = (code, first) == ((0, ["ACCEPT"]) if exp
                                         else (1, ["REJECT"]))
        else:
            good = out == exp
        if good:
            return "ok"
        return "fault" if op.known_fault else "wrong"


def run_round(ops, execute, judge, tally, times=None):
    """One round, one operation at a time; returns its wall time."""
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = execute(op)
        except Exception as exc:  # a crash is a wrong answer, reported
            out = ("raised", repr(exc))
        dt = perf_counter() - t0
        if times is not None:
            times.append(dt)
        tally(op, out, judge(op, out))
    return perf_counter() - start


def rounds(block, inputs, seconds, min_ops=MIN_OPS):
    """Round after round of fresh inputs until `seconds` of timed work and
    at least `min_ops` operations are done; expected answers are computed
    between rounds, outside the timed regions."""
    timed, done, b = 0.0, 0, 0
    while b == 0 or timed < seconds or done < min_ops:
        ops = block(b)
        inputs.expect(ops)
        t = yield b, ops
        timed += t
        done += len(ops)
        b += 1


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = []

    def __call__(self, op, out, verdict):
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
        if verdict == "wrong":
            self.wrong.append((op.family, op.info.get("u"), op.info.get("v"),
                               out, op.expected))


# ------------------------------------------------------------- workloads

def setup(workload, seed, inputs, tracer, run_dir):
    """Set-up probes (fresh processes) and this process's own set-up;
    returns (probe times, round maker)."""
    if workload == "cli-cold":
        pushdown = os.path.join(run_dir, "zero-star-one.pushdown")
        samples = [time_child(inputs.cli_argv(
            "kc-to-bpda", "--expr",
            os.path.join(ROOT, "data", "zero-star-one.expr"),
            "--out", pushdown)) for _ in range(SETUP_PROBES)]
        return samples, inputs.cli_cold(seed, ROOT, pushdown)
    probe = [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(seed)]
    samples = [time_child(probe, "ready") for _ in range(SETUP_PROBES)]
    return samples, inputs.BUILDERS[workload](seed, tracer)


def end_to_end(workload, seed, seconds, oc, inputs, tracing, run_dir):
    samples, block = setup(workload, seed, inputs, tracing.NULL_TRACER,
                           run_dir)
    runner = Runner(oc, inputs, tracing.NULL_TRACER)
    tally, times, elapsed, host = Tally(), [], 0.0, []
    gen = rounds(block, inputs, seconds)
    _, ops = next(gen)
    while True:
        t = run_round(ops, runner.plain, runner.judge, tally, times)
        elapsed += t
        host += host_reference()
        try:
            _, ops = gen.send(t)
        except StopIteration:
            break
    who = (resource.RUSAGE_CHILDREN if workload == "cli-cold"
           else resource.RUSAGE_SELF)
    peak_kb = resource.getrusage(who).ru_maxrss
    raw = {
        "setup_s": statistics.median(samples),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "ops_per_s": len(times) / elapsed,
    }
    scale = host_scale(host)
    metrics = {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_p90_ms": (raw["op_p90_ms"] * scale, "ms"),
        "ops_per_s": (raw["ops_per_s"] / scale, "ops/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    summary = {"operations": len(times), "timed_s": round(elapsed, 3),
               "host_reference_ms": round(statistics.median(host) * 1e3, 4),
               "unscaled": {k: round(v, 4) for k, v in raw.items()}}
    return tally, metrics, summary


def traced(workload, seed, seconds, oc, inputs, tracing, run_dir):
    """Each round runs plain, then traced on the same inputs; per-layer
    metrics are per traced round, set-up spans per set-up."""
    tracer = tracing.Tracer()
    imports = [time_child([sys.executable, "-c", "import omegacfl.cli"])
               for _ in range(IMPORT_PROBES)]
    _, block = setup(workload, seed, inputs, tracer, run_dir)
    runner = Runner(oc, inputs, tracer)
    tally = Tally()
    plain_s = traced_s = 0.0
    pairs = 0
    plain_out, host = {}, []

    def keep(op, out, verdict):
        plain_out[id(op)] = out
        tally(op, out, verdict)

    def compare(op, out, verdict):
        tally(op, out, verdict)
        if out != plain_out[id(op)]:
            tally.wrong.append(("traced differs from plain", op.family,
                                out, plain_out[id(op)]))

    gen = rounds(block, inputs, seconds / 2, min_ops=1)
    b, ops = next(gen)
    while True:
        plain_out.clear()
        t = run_round(ops, runner.plain, runner.judge, keep)
        plain_s += t
        for i, op in enumerate(ops):
            tracer.op = (b, i)
            traced_s += run_round([op], runner.traced, runner.judge, compare)
        pairs += 1
        host += host_reference()
        try:
            b, ops = gen.send(t)
        except StopIteration:
            break
    self_time = tracer.self_times()

    def layer_s(span, tag=None):
        total = sum(t for (name, g), t in self_time.items()
                    if name == span and tag in (None, g))
        return total if span in SETUP_LAYERS else total / pairs

    special = {
        "branching.evidence_fast_s": layer_s("branching.evidence")
        - layer_s("trees.h_prefix", "recurrence"),
        "cli.import_s": statistics.median(imports),
        "trace.overhead_s": (traced_s - plain_s) / pairs,
        "host.reference_ms": statistics.median(host) * 1e3,
    }
    scale = host_scale(host)
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif unit == "s":
            value = layer_s(name[:-2])
        else:
            value = tracer.counts.get(name, 0)
            if name not in SETUP_COUNTS:
                value /= pairs
        if unit == "s":
            value *= scale
        metrics[name] = (value, unit)
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl"))
    summary = {"round_pairs": pairs, "plain_s": round(plain_s, 3),
               "traced_s": round(traced_s, 3), "host_scale": round(scale, 4)}
    return tally, metrics, summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "omegacfl", "__init__.py")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    for name in ("ones-acceptor.automaton", "zero-star-one.expr",
                 "constant-a.tree"):
        if not os.path.isfile(os.path.join(ROOT, "data", name)):
            fail(f"missing input file data/{name}")
    import checks
    failures = checks.self_test()
    if failures:
        fail("checks self-test failed: " + "; ".join(failures))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import omegacfl as oc
    import omegacfl.formats  # noqa: F401  (Runner.traced parses files)
    import inputs
    import tracing

    measure = traced if args.trace else end_to_end
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        # compile the library's bytecode once, outside every timed region
        time_child([sys.executable, "-c", "import omegacfl.cli"])
        tally, metrics, summary = measure(args.workload, args.seed,
                                          args.seconds, oc, inputs, tracing,
                                          run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for item in tally.wrong[:5]:
        print(f"perfbench: wrong answer {item}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {summary}; "
          f"{tally.attempted} attempted, {tally.failed} failed, "
          f"{len(tally.wrong)} wrong", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
