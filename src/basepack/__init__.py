"""Matroid base-packing toolkit.

Independence oracles over finite ground sets, the standard matroid
constructions and combinators, polynomial intersection/partition
algorithms, a certified two-matroid reduction gadget, the chain of
reductions between not-all-equal SAT, spanning-tree packing, even
factors, 2-factors with cycle lengths divisible by 4, and common-base
packing, plus desk-scale exact solvers, certificate verifiers, and an
oracle-query adversary experiment.

Submodules load on first use: ``import basepack`` imports none of them,
and each public name is read from its submodule the first time it is
used (a PEP 562 module ``__getattr__``), so a command-line stage loads
only the modules its subcommand needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names re-exported from it
_EXPORTS = {
    "core": (
        "AxiomCheck", "AxiomReport", "ElementSet", "GroundSet", "Matroid", "QueryLog",
        "ResourceCapExceeded", "UniverseMismatch", "check_basis_axioms",
        "check_independence_axioms", "enumerate_bases", "is_basis", "is_independent", "rank",
        "with_query_log",
    ),
    "constructions": (
        "HyperplaneFamily", "PartitionOfGroundSet", "direct_sum", "direct_sum_all", "dual",
        "free_matroid", "graphic_matroid", "linear_matroid", "matroid_from_descriptor",
        "parallel_copies", "partition_matroid", "paving_matroid", "relabel",
        "transversal_linear_representation", "transversal_matroid", "truncate",
        "uniform_matroid",
    ),
    "graphs": ("BipartiteGraph", "Digraph", "MultiGraph"),
    "instances": (
        "CnfFormula", "CommonBasesInstance", "ModularInstance", "ModularTreesInstance",
        "ParityInstance",
    ),
    "intersection": (
        "common_bases_necessary_check", "max_common_independent", "partition_into_independent",
    ),
    "gadget": (
        "DEFAULT_LABELING", "BlockLabeling", "GadgetPair", "build_gadget", "default_gadget",
        "search_block_labeling", "verify_gadget",
    ),
    "solvers": (
        "solve_common_bases", "solve_mod4_two_factor", "solve_modular_bases",
        "solve_modular_trees", "solve_naesat", "solve_parity_bases", "solve_perfect_even_factor",
        "verify_certificate",
    ),
    "adversary": (
        "AdversaryPair", "build_adversary", "count_parity_hiding_sets", "run_indistinguishability",
    ),
}
# ``from basepack import *`` exports these submodules too, as it always has.
_SUBMODULES = (*_EXPORTS, "certificates", "fields", "formats")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
