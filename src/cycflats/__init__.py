"""Matroids represented by their cyclic flats and ranks.

A matroid is stored as its lattice of cyclic flats together with the
rank of each flat; this determines the matroid completely.  The package
validates candidate families against the four axioms for this
representation, derives rank/independence/circuit oracles, implements
duality, minors, direct sums, free products (with the Tutte-coefficient
convolution), lattice realization, nested matroids, cyclic width, and a
transversality test.

`import cycflats` runs only the errors module.  Every other submodule
but cli is in sys.modules and bound here from the start, but its code
runs on its first attribute access (importlib.util.LazyLoader), and the
package's public names are looked up in their modules on first use
(PEP 562).  So a CLI command runs only the modules it uses, as long
as no module imports a name from a module its callers may not need:
such a module is bound whole (from . import lattices) and its functions
are read when they are called (lattices.width_of_family).  matroid runs
groundsets but not lattices, and a malformed document runs only cli,
errors, groundsets and io.  The 2^n table kernels are in dense, the one
module that imports numpy, and it serves no public name: matroid and
tutte bind it whole, so only a command that builds a rank table
(cyclic-flats) runs it.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import errors
from .errors import *  # noqa: F401,F403

# module -> the public names the package serves from it
_EXPORTS = {
    "groundsets": ("GroundSet", "bits", "is_chain", "popcount",
                   "subset_key"),
    "lattices": ("FiniteLattice", "lattice_from_covers", "poset_isomorphic",
                 "width_of_family"),
    "matroid": ("AxiomViolation", "Matroid", "RankedFamily",
                "all_violations", "cyclic_flats_recompute", "validate"),
    "ops": ("MinorSpec", "contraction", "direct_sum", "dual", "has_minor",
            "higgs_lift", "is_isomorphic", "minor", "relabel", "relax",
            "restriction", "truncate"),
    "freeprod": ("free_coextension", "free_extension", "free_product"),
    "tutte": ("RankGenMatrix", "rank_gen", "rank_gen_brute",
              "rank_gen_convolution", "tutte_from_rank_gen",
              "tutte_polynomial"),
    "build": ("ChainMinor", "Realization", "all_lattices", "catalog",
              "excluded_minor_pn", "gimenez_family", "nested_from_sequence",
              "nested_sequence_of", "nested_subsequence_minor",
              "random_cw2_matroid", "random_matroid", "realize_lattice",
              "uniform", "uniform_minor_from_chain"),
    "widths": ("bitransversal_cert", "cyclic_width", "ingleton_transversal"),
    "io": (),
    "dense": (),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [name for name in vars(errors) if not name.startswith("_")]
__all__ += _HOME
__version__ = "0.1.0"


def _lazy(module: str):
    """The submodule, put in sys.modules with its code not yet run."""
    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    lazy = module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _lazy(_module)


def __getattr__(name: str):
    """A public name from its module, kept here once looked up."""
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
