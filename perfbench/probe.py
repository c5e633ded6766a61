"""Set-up probe: a fresh process that imports the library, builds one
workload's inputs and prints "ready".  The benchmark times it from spawn to
that line, so `setup_s` covers interpreter start, import and set-up.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402  (needs the library on the path first)
from tracing import NULL_TRACER  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs.BUILDERS[workload](seed, NULL_TRACER)(0)
    print("ready", flush=True)
