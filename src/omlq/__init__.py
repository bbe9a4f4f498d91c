"""Verification toolkit for finite orthomodular lattices, their
endomorphism quantales, and Sasaki projection structure.

Layers, bottom up: finite lattices and OMLs with exhaustive law checkers
(lattice, catalog); join-preserving maps with adjoints, kernels, and
enumeration (linmap); the endomorphism quantale and quantale law checkers
(quantale); annihilator projections, the projection lattice, and the
representation homomorphism (foulis); module actions (qmodule); JSON/DOT
serialization (serialize); theorem pipelines (verify); and the `omlq`
command-line tool (cli).

The package resolves each public name on first access, importing only
the module that defines it (PEP 562), so a command that needs the lattice
layers alone does not load or compile the quantale layers.  `catalog` is
bound at import: it is also the name of a submodule, and importing that
submodule would otherwise rebind the package attribute to it.
"""

import os

# One OpenBLAS thread unless the caller set a count: the boolean closures
# are small products, and OpenBLAS's worker thread spins while numpy loads
# and after each call, competing with the main thread.  Set before the
# first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from importlib import import_module as _import_module  # noqa: E402

from .catalog import catalog  # noqa: E402

# The public names, by the module that defines them.
_EXPORTS = {
    "catalog": (
        "benzene_oml", "boolean_oml", "catalog", "catalog_names", "horizontal_sum_oml",
        "mo_oml", "product_oml", "zero_oml",
    ),
    "errors": (
        "AmbiguousSai", "CapExceeded", "DomainMismatch", "FormatError",
        "FrontierTooLarge", "NotALattice", "NotAPoset", "NotFoulis", "OmlqError",
        "ParamOutOfRange", "StructureViolation", "TableTooLarge", "UnknownCatalogEntry",
    ),
    "lattice": (
        "CheckReport", "FiniteLattice", "FiniteOML", "SubOML", "Violation",
        "build_lattice", "check_oml", "lattice_from_leq", "make_report",
    ),
    "linmap": (
        "KernelData", "LinMap", "dagger", "is_linear", "kernel", "lin_count", "lin_values",
        "vector_label", "verify_adjoint_pair",
    ),
    "quantale": (
        "FinQuantale", "QElementView", "check_involutive", "check_quantale", "lin_quantale",
    ),
    "foulis": (
        "FoulisQuantale", "SasakiOML", "check_foulis", "check_hom", "check_star_props",
        "derive_sai", "foulis_from_lin", "hom_h", "roundtrip_iso", "sasaki_oml",
        "sasaki_oml_report",
    ),
    "qmodule": (
        "ModuleAction", "check_left_module", "check_right_two_module", "lin_module",
        "sasaki_module",
    ),
    "serialize": (
        "dump_json", "lattice_to_dict", "linmap_to_dict", "load_json", "module_to_dict",
        "oml_to_dict", "parse_lattice", "parse_linmap", "parse_module", "parse_oml",
        "parse_quantale", "parse_structure", "quantale_to_dict", "resolve_oml",
        "resolve_structure", "structure_to_dict", "to_dot",
    ),
    "verify": (
        "SELECTORS", "dagger_kernel_report", "run_verify", "sasaki_facts_report",
        "verify_text",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
