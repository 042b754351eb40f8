"""Matroids represented by their cyclic flats and ranks.

A matroid is stored as its lattice of cyclic flats together with the
rank of each flat; this determines the matroid completely.  The package
validates candidate families against the four axioms for this
representation, derives rank/independence/circuit oracles, implements
duality, minors, direct sums, free products (with the Tutte-coefficient
convolution), lattice realization, nested matroids, cyclic width, and a
transversality test.
"""

from .errors import *  # noqa: F401,F403
from .groundsets import GroundSet, bits, popcount, subset_key
from .lattices import (FiniteLattice, family_lattice_tables, is_chain,
                       lattice_from_covers, poset_isomorphic, width_of_family)
from .matroid import (AxiomViolation, BasicStats, Matroid, RankedFamily,
                      all_violations, basic_stats, cyclic_flats_recompute,
                      validate)
from .ops import (MinorSpec, contraction, direct_sum, dual, has_minor,
                  higgs_lift, is_isomorphic, minor, relabel, relax,
                  restriction, truncate)
from .freeprod import free_coextension, free_extension, free_product
from .tutte import (RankGenMatrix, rank_gen, rank_gen_brute,
                    rank_gen_convolution, tutte_from_rank_gen,
                    tutte_polynomial)
from .build import (ChainMinor, Realization, all_lattices, catalog,
                    empty_matroid, excluded_minor_pn, gimenez_family,
                    nested_from_sequence, nested_sequence_of,
                    nested_subsequence_minor, random_cw2_matroid,
                    random_matroid, realize_lattice, uniform,
                    uniform_minor_from_chain)
from .widths import bitransversal_cert, cyclic_width, ingleton_transversal

__version__ = "0.1.0"
