"""omegacfl: context-free omega-languages at desk scale.

Lasso words, context-free grammars, Buchi/Muller (pushdown) automata with
exact lasso acceptance, omega-Kleene expressions, regular infinite binary
trees with their level-order coding, and the branch-guessing pushdown
transform.

Importing the package loads only `words` and `cfg`.  Every other export,
and the submodules `buchi`, `pushdown`, `kleene`, `trees` and `branching`,
loads its home module on first use; `from omegacfl import *` loads them
all.  Each command-line verb loads `words`, `cfg` and `formats`, and then
only the modules it uses:

    check-lasso                          buchi (and pushdown for a
                                         pushdown file)
    code-tree                            trees
    kc-to-bpda, omega-power, substitute  kleene, pushdown, buchi
    build-bar                            branching, kleene, pushdown,
                                         trees, buchi
    verify                               every module
"""

from importlib import import_module as _import_module

# `cfg` stays eager: the package exports a function of that name, and a
# submodule first loaded after the name is bound would overwrite it with
# the module.
from .words import (Alphabet, Lasso, Word, alphabet, concat, format_lasso,
                    lasso, parse_lasso, word)
from .cfg import (Cfg, Substitution, apply_substitution, cfg, cfg_empty,
                  cfg_generates_lambda, cfg_member, doubling_filler,
                  filler_insertion, gap_too_long, gap_too_short,
                  block_encoding_morphism, substitution, word_substitution)

# the exports loaded on first use, by home module; each module's own name
# is exported too
_LAZY = {
    "buchi": ("BuchiAutomaton", "Fsm", "MullerAutomaton", "RunWitness"),
    "pushdown": ("Bpda", "BuchiPds", "Configuration", "Mpda", "Pdm",
                 "bounded_runs", "buchi_pds_empty", "initial_configuration",
                 "product_with_lasso", "step"),
    "kleene": ("OmegaKleeneExpr", "kc_substitute", "kc_to_bpda", "kc_union",
               "lasso_in_kc", "omega_kleene", "omega_power"),
    "trees": ("LevelEnumeration", "RegularTree", "coding_complement_expr",
              "f_embed", "h_prefix", "j_leftmost", "level_homogeneous_tree",
              "level_nodes"),
    "branching": ("BranchGuessMachine", "branch_evidence",
                  "branch_guess_machine", "filler_image_expr"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")]
    + list(_LAZY) + list(_HOME))


def __getattr__(name):
    if name in _LAZY:
        value = _import_module(f".{name}", __name__)
    elif name in _HOME:
        module = _import_module(f".{_HOME[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
