"""Resource bounds.

Every potentially expensive search spends a budget or checks a limit,
and fails loudly with ResourceBoundExceeded instead of running away.
Bounds holds the limits a caller varies; the limits no caller varies are
the named constants below.  The defaults cover groups of order up to ~32
comfortably; larger runs raise the relevant field explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ResourceBoundExceeded

# Output cap for operations that list permutations explicitly.
ISO_LIST_LIMIT = 200_000
# Element budget for listing a permutation group (intermediate subgroup
# search).
BETWEEN_ELEMENT_BUDGET = 1_000_000
# Index cap for the intermediate-subgroup sweep used by the minimality tests.
BETWEEN_INDEX_BOUND = 10_000
# Order cap for full subgroup enumeration of a Cayley automorphism group.
CAYLEY_MINIMAL_ORDER_BOUND = 512
# Degree cap for the all-of-Sym brute force CI check.
BRUTEFORCE_ORDER = 8


@dataclass(frozen=True)
class Bounds:
    # Hard cap on |G| for group construction.
    max_group_order: int = 64
    # Order cap of an "all" enumeration; a p-power enumeration is bounded
    # by max_group_order and enum_node_budget alone.
    enum_all_order: int = 27
    # Node budget for the partition-merge enumeration tree.
    enum_node_budget: int = 50_000_000
    # Node budget of each backtracking search over maps: scheme and
    # Cayley automorphisms, isomorphisms, canonical labelings.
    backtrack_node_budget: int = 5_000_000


DEFAULT_BOUNDS = Bounds()


class _Budget:
    """Countdown of one search's nodes, shared by its branches; what
    names the bound in the error raised when it runs out."""

    __slots__ = ("limit", "left", "what")

    def __init__(self, limit, what="backtracking nodes"):
        self.limit = limit
        self.left = limit
        self.what = what

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceBoundExceeded(self.what, self.limit)


def extended_bounds() -> Bounds:
    """Bounds for the hours-scale runs (order-27 full sweeps and similar)."""
    return replace(
        DEFAULT_BOUNDS,
        enum_all_order=32,
        enum_node_budget=2_000_000_000,
        backtrack_node_budget=50_000_000,
    )
