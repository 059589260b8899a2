"""Schur rings: validated partitions of a group with structure constants.

A Schur ring is stored as its cell partition.  Cells are frozensets of
element indices, canonically ordered by (size, smallest element), so the
identity cell always has index 0.  Validation checks the three axioms.

Everything derived from a ring alone (structure constants, cell-union
subgroups, automorphism groups, decompositions, the canonical form) is
computed on first use and kept in the ring's one memo by the memoized
decorator, wherever the deriving function lives.  One product-count loop
and one closure check serve validation, the structure-constant table and
the enumerator's merge search.
"""

from __future__ import annotations

import functools

from .errors import (IdentityNotACell, NotAPartition, NotClosed,
                     NotInverseClosed, SchurMultiplierViolation,
                     SRingsError)
from .groups import GroupSpec, Subgroup, enumerate_subgroups, Section


def memoized(fn):
    """Keep fn(ring, ...) in the ring's memo after the first call.

    The value depends on the ring alone; later calls return the same
    object whatever their other arguments, so bounds only matter until a
    value is cached.  A call that raises caches nothing.
    """
    @functools.wraps(fn)
    def wrapper(ring, *args, **kwargs):
        memo = ring._memo
        if fn not in memo:
            memo[fn] = fn(ring, *args, **kwargs)
        return memo[fn]

    return wrapper


class SRing:
    """A validated Schur ring over a GroupSpec.

    Use validate_partition to construct; the constructor assumes the axioms
    were already checked and the cells canonically ordered, and only builds
    the lookup tables.
    """

    __slots__ = ("spec", "cells", "cell_of", "inverse_cell", "_memo")

    def __init__(self, spec: GroupSpec, cells):
        self.spec = spec
        self.cells = cells
        cell_of = [-1] * spec.order
        for i, cell in enumerate(self.cells):
            for x in cell:
                cell_of[x] = i
        self.cell_of = tuple(cell_of)
        neg = spec.neg_table()
        self.inverse_cell = tuple(self.cell_of[neg[min(c)]] for c in self.cells)
        self._memo = {}

    @property
    def rank(self) -> int:
        return len(self.cells)

    @memoized
    def structure_constants(self) -> dict:
        """Full table {(i, j): counts} with counts[k] = c^{Z_k}_{X_i, X_j}."""
        add = self.spec.add_table()
        reps = [min(Z) for Z in self.cells]
        table = {}
        for i, X in enumerate(self.cells):
            for j in range(i, self.rank):
                counts = _product_counts(add, self.spec.order, X, self.cells[j])
                # the group is abelian: X_j X_i = X_i X_j
                table[(i, j)] = table[(j, i)] = tuple(counts[z] for z in reps)
        return table

    def sc(self, i: int, j: int, k: int) -> int:
        return self.structure_constants()[(i, j)][k]

    def is_a_set(self, elements) -> bool:
        """True if the set is a union of cells."""
        needed = {self.cell_of[x] for x in elements}
        return sum(len(self.cells[i]) for i in needed) == len(set(elements))

    @memoized
    def a_subgroups(self) -> tuple:
        """All subgroups that are unions of cells, sorted canonically."""
        return tuple(H for H in enumerate_subgroups(self.spec)
                     if self.is_a_set(H.elements))

    def a_sections(self) -> list:
        """All pairs (U, L) of nested cell-union subgroups."""
        subs = self.a_subgroups()
        out = []
        for U in subs:
            for L in subs:
                if U.contains_subgroup(L):
                    out.append(Section(U, L))
        out.sort(key=lambda s: (s.U.sort_key(), s.L.sort_key()))
        return out

    def thin_radical(self) -> Subgroup:
        """Union of the singleton cells, as a subgroup."""
        singles = [min(c) for c in self.cells if len(c) == 1]
        try:
            return Subgroup.from_elements(self.spec, singles)
        except ValueError as exc:
            raise SRingsError(
                "singleton cells do not form a subgroup; the partition is "
                "not a valid Schur ring") from exc

    def power_map_cell(self, cell_index: int, m: int) -> int:
        """Index of the cell {x^m : x in X}; m must be coprime to |G|."""
        spec = self.spec
        if any(m % p == 0 for p, _ in spec.factors):
            raise ValueError(f"{m} is not coprime to the group order")
        image = {spec.scale(m, x) for x in self.cells[cell_index]}
        target = self.cell_of[min(image)]
        if image != self.cells[target]:
            raise SchurMultiplierViolation(
                f"power map m={m} breaks cell {sorted(self.cells[cell_index])}")
        return target

    def is_p_sring(self, p: int) -> bool:
        if len(self.spec.factors) != 1 or self.spec.factors[0][0] != p:
            raise ValueError(f"the group is not a {p}-group")
        return all(_is_p_power(len(c), p) for c in self.cells)

    def key(self):
        return (self.spec.factors, self.cells)

    def __eq__(self, other):
        return isinstance(other, SRing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"SRing(group={self.spec!r}, rank={self.rank}, "
                f"sizes={sorted(len(c) for c in self.cells)})")


def _is_p_power(s, p):
    while s % p == 0:
        s //= p
    return s == 1


def _product_counts(add, n, X, Y):
    """counts[z] = number of pairs (x, y) in X x Y with x + y = z."""
    counts = [0] * n
    for x in X:
        row = add[x]
        for y in Y:
            counts[row[y]] += 1
    return counts


def _split_pair(counts, cells):
    """The first pair (cell[0], z) inside one cell with counts[z] !=
    counts[cell[0]], or None when the counts are constant on every cell.
    Cells are sequences: indexing them is the enumerator's hot path."""
    for cell in cells:
        want = counts[cell[0]]
        for z in cell:
            if counts[z] != want:
                return cell[0], z
    return None


def validate_partition(spec: GroupSpec, cells) -> SRing:
    """Check the Schur ring axioms and return the validated ring.

    Raises NotAPartition, IdentityNotACell, NotInverseClosed or NotClosed
    (the latter two with witnesses).
    """
    cells = tuple(sorted((frozenset(c) for c in cells),
                         key=lambda c: (len(c), min(c))))
    total = 0
    union = 0
    for cell in cells:
        if not cell:
            raise NotAPartition("empty cell")
        m = 0
        for x in cell:
            if not 0 <= x < spec.order:
                raise NotAPartition(f"element {x} out of range")
            m |= 1 << x
        if union & m:
            raise NotAPartition("cells overlap")
        union |= m
        total += len(cell)
    if total != spec.order or union != (1 << spec.order) - 1:
        raise NotAPartition("cells do not cover the group")
    if frozenset([spec.identity]) not in cells:
        raise IdentityNotACell("the identity is not a singleton cell")

    neg = spec.neg_table()
    cell_set = set(cells)
    for cell in cells:
        if frozenset(neg[x] for x in cell) not in cell_set:
            raise NotInverseClosed(cell)

    add = spec.add_table()
    seqs = [tuple(cell) for cell in cells]
    # the group is abelian, so (Y, X) fails exactly when (X, Y) does and
    # the first failing ordered pair has X before or equal to Y
    for i, X in enumerate(cells):
        for Y in cells[i:]:
            split = _split_pair(_product_counts(add, spec.order, X, Y), seqs)
            if split is not None:
                raise NotClosed((X, Y) + split)
    return SRing(spec, cells)


def radical(spec: GroupSpec, elements) -> Subgroup:
    """Largest subgroup H with X + H = X, for a nonempty X."""
    elements = frozenset(elements)
    if not elements:
        raise ValueError("radical of the empty set")
    add = spec.add_table()
    mask = 0
    for x in elements:
        mask |= 1 << x
    stab = []
    for g in range(spec.order):
        if all(mask >> add[x][g] & 1 for x in elements):
            stab.append(g)
    return Subgroup.from_elements(spec, stab)
