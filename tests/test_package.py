"""The package's export contract: names, identities, lazy loading."""

import pytest

import omegacfl

EXPORTS = [
    "Alphabet", "Bpda", "BranchGuessMachine", "BuchiAutomaton", "BuchiPds",
    "Cfg", "Configuration", "Fsm", "Lasso", "LevelEnumeration", "Mpda",
    "MullerAutomaton", "OmegaKleeneExpr", "Pdm", "RegularTree", "RunWitness",
    "Substitution", "Word", "alphabet", "apply_substitution",
    "block_encoding_morphism", "bounded_runs", "branch_evidence",
    "branch_guess_machine", "branching", "buchi", "buchi_pds_empty", "cfg",
    "cfg_empty", "cfg_generates_lambda", "cfg_member",
    "coding_complement_expr", "concat", "doubling_filler", "f_embed",
    "filler_image_expr", "filler_insertion", "format_lasso", "gap_too_long",
    "gap_too_short", "h_prefix", "initial_configuration", "j_leftmost",
    "kc_substitute", "kc_to_bpda", "kc_union", "kleene", "lasso",
    "lasso_in_kc", "level_homogeneous_tree", "level_nodes", "omega_kleene",
    "omega_power", "parse_lasso", "product_with_lasso", "pushdown", "step",
    "substitution", "trees", "word", "word_substitution", "words",
]


def test_export_names():
    assert sorted(omegacfl.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(omegacfl))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        omegacfl.no_such_export


# in a new interpreter, so that every export is first reached through the
# package's lazy lookup
FRESH = """
import sys, types
import omegacfl
loaded = sorted(m for m in sys.modules if m.startswith("omegacfl."))
assert loaded == ["omegacfl.cfg", "omegacfl.words"], loaded
for name in omegacfl.__all__:
    value = getattr(omegacfl, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules["omegacfl." + name], name
    else:
        assert getattr(sys.modules[value.__module__], name) is value, name
namespace = {}
exec("from omegacfl import *", namespace)
assert set(namespace) - {"__builtins__"} == set(omegacfl.__all__)
import omegacfl.oracles, omegacfl.verify
assert isinstance(omegacfl.cfg, types.FunctionType), omegacfl.cfg
"""


def test_exports_load_on_first_use(fresh_python):
    # importing loads words and cfg alone; each export is then the module
    # of that name or the object its home module defines, a star import
    # binds every export, and loading the other modules keeps the cfg
    # function
    proc = fresh_python(FRESH)
    assert proc.returncode == 0, proc.stderr
