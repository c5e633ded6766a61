"""Acceptance criteria.

Each test prints one PASS/FAIL line and asserts the corresponding property
at its exact tolerance.  All checks are seeded and reproducible; the heavy
lifting lives in omegacfl.verify so the command-line `verify` verb runs the
same batteries.

Criterion 5 compares the branch-guessing transform with the filler-image
expression.  The transform makes its first move from a fresh boot state
(see the README), so it accepts no boot words: words with one extra leading
filler block that skip a first gap and then start the simulation from the
base initial state.  Criterion 5a characterizes any divergence that does
appear as such a boot run.
"""

import os

import pytest

from omegacfl.cli import main
from omegacfl.formats import parse_machine, read_expression

SEED = 7
DATA = os.path.join(os.path.dirname(__file__), "..", "data")


@pytest.fixture(scope="module")
def coding(suite_results):
    return suite_results("coding", SEED)


@pytest.fixture(scope="module")
def complement(suite_results):
    return suite_results("complement", SEED)


@pytest.fixture(scope="module")
def bar(suite_results):
    return suite_results("bar", SEED)


@pytest.fixture(scope="module")
def kc(suite_results):
    return suite_results("kc", SEED)


@pytest.fixture(scope="module")
def emptiness(suite_results):
    return suite_results("emptiness", SEED)


def _one(results, prefix):
    found = [r for r in results if r.name.startswith(prefix)]
    assert len(found) == 1, f"expected one check named {prefix}*"
    return found[0]


def _report(number, label, checks):
    ok = all(c.passed for c in checks)
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    for c in checks:
        assert c.passed, f"criterion {number} ({c.name}): {c.detail}"


def test_criterion_01_coding_structure(coding):
    _report(1, "coded prefixes match brute-force enumeration",
            [_one(coding, "coding-structure")])


def test_criterion_02_level_order_identity(coding):
    _report(2, "reverse enumeration is the index-mirrored one",
            [_one(coding, "level-order-identity")])


def test_criterion_03_complement_totality(complement):
    _report(3, "every lasso is a non-code; coded prefixes are witness-free",
            complement)


def test_criterion_04_bar_structure(bar):
    _report(4, "transform sizes and rule groups re-derive exactly",
            [_one(bar, "bar-structure"), _one(bar, "bar-reject-sink")])


def test_criterion_05_two_descriptions(bar):
    _report(5, "machine vs substitution description on seeded lassos",
            [_one(bar, "bar-two-descriptions")])


def test_criterion_05a_divergence_characterization(bar):
    # companion to criterion 5: should a divergence appear, it must be a
    # boot run, i.e. the machine's extra word carries exactly one leading
    # filler block; with the boot state there are none to characterize
    found = [r for r in bar if r.name.startswith("bar-divergence")]
    if not found:
        print("PASS criterion 5a: no divergences to characterize")
        return
    _report("5a", "all divergences carry one extra leading filler block",
            found)


def test_criterion_06_path_correspondence(bar):
    _report(6, "evidence score tracks base-machine acceptance",
            [_one(bar, "bar-path-correspondence")])


def test_criterion_07_kc_conversion(kc):
    _report(7, "expression-to-machine conversion matches its oracles",
            [_one(kc, "kc-regular"), _one(kc, "kc-blocks")])


def test_criterion_08_pds_emptiness(emptiness):
    _report(8, "saturation matches explicit-state emptiness",
            emptiness)


def test_criterion_09_omega_power(kc):
    _report(9, "omega power of the filler-image grammar",
            [_one(kc, "kc-power")])


def test_criterion_10_round_trips(coding, tmp_path, capsys):
    checks = [_one(coding, "embed-roundtrip"), _one(coding, "format-roundtrip")]
    # command-line artifacts re-parse to structurally equal objects
    out_file = str(tmp_path / "m.pushdown")
    assert main(["kc-to-bpda",
                 "--expr", os.path.join(DATA, "zero-star-one.expr"),
                 "--out", out_file]) == 0
    expr = read_expression(os.path.join(DATA, "zero-star-one.expr"))
    from omegacfl.kleene import kc_to_bpda
    cli_ok = parse_machine(open(out_file).read()) == kc_to_bpda(expr)
    bar_file = str(tmp_path / "bar.pushdown")
    assert main(["build-bar",
                 "--machine", os.path.join(DATA, "ones-acceptor.automaton"),
                 "--out", bar_file]) == 0
    cli_ok = cli_ok and parse_machine(open(bar_file).read()) is not None
    capsys.readouterr()
    ok = all(c.passed for c in checks) and cli_ok
    print(f"{'PASS' if ok else 'FAIL'} criterion 10: "
          "embeddings and file formats round-trip")
    for c in checks:
        assert c.passed, f"criterion 10 ({c.name}): {c.detail}"
    assert cli_ok, "criterion 10: CLI artifact did not re-parse equal"


def test_oracle_soundness_property(kc):
    # module-level soundness battery for the factorization oracle
    _report("S", "oracle conclusive verdicts equal the exact decision",
            [_one(kc, "kc-oracle-soundness")])
