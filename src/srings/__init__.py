"""Schur rings over direct products of elementary abelian groups.

Construction, exhaustive classification, and CI testing of Schur rings,
with a CLI front end (``srings --help``).
"""

from .config import Bounds, DEFAULT_BOUNDS, extended_bounds
from .groups import (GroupAut, GroupSpec, Section, Subgroup, aut_group,
                     complement, enumerate_subgroups, format_group,
                     make_group, parse_group, subgroup_span)
from .permgrp import (PermGroup, from_generators, holomorph, regular_subgroups,
                      right_regular, subgroups_between, two_equivalent)
from .sring import SRing, radical, validate_partition
from .construct import (cyclotomic, decompositions, group_ring,
                        parse_construction, quotient, recognize_construction,
                        schurian, sring_image, tensor, wreath)
from .morphisms import (AlgebraicIso, algebraic_image, algebraic_isos,
                        cayley_auts, cayley_isos, combinatorial_isos,
                        has_combinatorial_iso, induced_algebraic,
                        is_2_minimal, is_cayley_minimal, is_cyclotomic,
                        restrict_perm, scheme_aut)
from .ci import (CIDecider, CIStatus, ci_fastpath, condition_holds, decide_ci,
                 image_sring, is_ci, is_ci_bruteforce, iso_membership,
                 lift_isomorphism, verify_criterion, verify_lift)
from .catalog import (Catalog, Entry, canonical_form, enumerate_srings,
                      load_catalog, rank3_classification, save_catalog)

__version__ = "0.1.0"
