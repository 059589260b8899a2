"""Schur rings: validated partitions of a group with structure constants.

A Schur ring is stored as its cell partition.  Cells are frozensets of
element indices, canonically ordered by (size, smallest element), so the
identity cell always has index 0.  Validation checks the three axioms;
the structure-constant table is computed on first use, from the same
product counts.
"""

from __future__ import annotations

from .errors import (IdentityNotACell, NotAPartition, NotClosed,
                     NotInverseClosed, PartitionError, SchurMultiplierViolation,
                     SRingsError)
from .groups import GroupSpec, Subgroup, enumerate_subgroups, Section


def _canonical_cells(cells):
    return tuple(sorted((frozenset(c) for c in cells),
                        key=lambda c: (len(c), min(c))))


class SRing:
    """A validated Schur ring over a GroupSpec.

    Use validate_partition to construct; the constructor assumes the axioms
    were already checked and only builds the lookup tables.
    """

    __slots__ = ("spec", "cells", "masks", "cell_of", "inverse_cell",
                 "_constants", "_a_subgroups", "_scheme_aut", "_cayley",
                 "_canonical", "_decompositions")

    def __init__(self, spec: GroupSpec, cells, constants=None):
        self.spec = spec
        self.cells = _canonical_cells(cells)
        masks = []
        cell_of = [-1] * spec.order
        for i, cell in enumerate(self.cells):
            m = 0
            for x in cell:
                m |= 1 << x
                cell_of[x] = i
            masks.append(m)
        self.masks = tuple(masks)
        self.cell_of = tuple(cell_of)
        neg = spec.neg_table()
        self.inverse_cell = tuple(self.cell_of[neg[min(c)]] for c in self.cells)
        self._constants = constants
        self._a_subgroups = None
        self._scheme_aut = None
        self._cayley = None
        self._canonical = None
        self._decompositions = None

    @property
    def rank(self) -> int:
        return len(self.cells)

    def structure_constants(self) -> dict:
        """Full table {(i, j): counts} with counts[k] = c^{Z_k}_{X_i, X_j}."""
        if self._constants is None:
            self._constants = _count_table(self.spec, self.cells)
        return self._constants

    def sc(self, i: int, j: int, k: int) -> int:
        return self.structure_constants()[(i, j)][k]

    def cell_index(self, x: int) -> int:
        return self.cell_of[x]

    def is_a_set(self, elements) -> bool:
        """True if the set is a union of cells."""
        needed = {self.cell_of[x] for x in elements}
        return sum(len(self.cells[i]) for i in needed) == len(set(elements))

    def a_subgroups(self) -> list:
        """All subgroups that are unions of cells, sorted canonically."""
        if self._a_subgroups is None:
            out = [H for H in enumerate_subgroups(self.spec)
                   if self.is_a_set(H.elements)]
            self._a_subgroups = out
        return list(self._a_subgroups)

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

    def restriction(self, U: Subgroup):
        """The cells inside U as a Schur ring over U's own spec.

        Returns (sring, chart) where chart maps between ambient indices and
        subgroup indices.
        """
        chart = SubgroupChart(U)
        cells = []
        for cell in self.cells:
            if cell <= U.elements:
                cells.append(frozenset(chart.to_sub[x] for x in cell))
            elif cell & U.elements:
                raise PartitionError("subgroup is not a union of cells")
        return validate_partition(chart.spec, cells), chart

    def key(self):
        return (self.spec.factors, self.cells)

    def __eq__(self, other):
        return isinstance(other, SRing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"SRing(group={self.spec!r}, rank={self.rank}, "
                f"sizes={sorted(len(c) for c in self.cells)})")


class SubgroupChart:
    """Relabeling between a subgroup's ambient indices and its own spec."""

    __slots__ = ("subgroup", "spec", "to_sub", "from_sub")

    def __init__(self, U: Subgroup):
        self.subgroup = U
        # With a trivial bottom the section projection is an isomorphism
        # whose coordinates are computed against U's echelon basis, which is
        # exactly the chart we need.
        section = Section(U, _trivial(U.spec))
        self.spec = section.quotient
        self.to_sub = {u: section.proj[u] for u in U.elements}
        self.from_sub = section.lift


def _trivial(spec):
    from .groups import trivial_subgroup

    return trivial_subgroup(spec)


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


def _count_table(spec, cells):
    add = spec.add_table()
    reps = [min(Z) for Z in cells]
    table = {}
    for i, X in enumerate(cells):
        for j, Y in enumerate(cells):
            counts = _product_counts(add, spec.order, X, Y)
            table[(i, j)] = tuple(counts[z] for z in reps)
    return table


def validate_partition(spec: GroupSpec, cells) -> SRing:
    """Check the Schur ring axioms and return the validated ring.

    Raises NotAPartition, IdentityNotACell, NotInverseClosed or NotClosed
    (the latter two with witnesses).
    """
    cells = _canonical_cells(cells)
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

    cell_of = [-1] * spec.order
    for i, cell in enumerate(cells):
        for x in cell:
            cell_of[x] = i
    neg = spec.neg_table()
    for cell in cells:
        inv = frozenset(neg[x] for x in cell)
        if inv not in set(cells):
            raise NotInverseClosed(cell)

    add = spec.add_table()
    for X in cells:
        for Y in cells:
            counts = _product_counts(add, spec.order, X, Y)
            for Z in cells:
                it = iter(Z)
                z0 = next(it)
                want = counts[z0]
                for z in it:
                    if counts[z] != want:
                        raise NotClosed((X, Y, z0, z))
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


def generated_subgroup(spec: GroupSpec, elements) -> Subgroup:
    return Subgroup.span(spec, list(elements))
