"""Exact arithmetic for direct products of elementary abelian groups.

A group C_{p1}^{n1} x ... x C_{pk}^{nk} (distinct primes) is described by a
GroupSpec.  Elements are plain integers in ``range(order)``: the coordinate
vector lists one residue per coordinate, least significant first, so the
prefix ``range(p1**k)`` is exactly the span of the first k basis vectors.
Subgroups, sections and automorphisms are all built on this encoding.

Specs, subgroups and sections are shared: group_spec (and so make_group,
parse_group and every Section's quotient) hands out one GroupSpec per
factor tuple, Subgroup.from_elements one Subgroup per element set of a
spec, and Section one section per pair of element sets.  Each spec holds
the tables and listings derived from it, built on first use, so each
runs once per process.  None of these objects, nor any table or listing
it hands out, may be mutated.
"""

from __future__ import annotations

import itertools
from functools import reduce

from .config import DEFAULT_BOUNDS, _Budget
from .errors import GroupSpecError, ResourceBoundExceeded, SRingsError

DEFAULT_MAX_ORDER = DEFAULT_BOUNDS.max_group_order


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


class GroupSpec:
    """A direct product of elementary abelian groups, elements as ints.

    Built only by group_spec, which keeps one spec per factor tuple."""

    __slots__ = ("factors", "order", "radices", "exponent", "_coords", "_add",
                 "_neg", "_index_weights", "_candidates", "_subgroups",
                 "_subgroup_of_mask", "_sections", "_auts")

    def __init__(self, factors, max_order=DEFAULT_MAX_ORDER):
        factors = tuple((int(p), int(n)) for p, n in factors)
        for p, n in factors:
            if not _is_prime(p):
                raise GroupSpecError(f"{p} is not prime")
            if n < 1:
                raise GroupSpecError(f"rank must be at least 1, got {n}")
        primes = [p for p, _ in factors]
        if len(set(primes)) != len(primes):
            raise GroupSpecError(f"duplicate prime in {factors}")
        self.factors = tuple(sorted(factors))
        order = 1
        for p, n in self.factors:
            order *= p**n
        if max_order is not None and order > max_order:
            raise ResourceBoundExceeded("group order", max_order, order)
        self.order = order
        self.radices = tuple(p for p, n in self.factors for _ in range(n))
        self.exponent = reduce(lambda a, b: a * b, primes, 1) if primes else 1
        weights = []
        w = 1
        for r in self.radices:
            weights.append(w)
            w *= r
        self._index_weights = tuple(weights)
        coords = []
        for x in range(order):
            c = []
            for r in self.radices:
                x, rem = divmod(x, r)
                c.append(rem)
            coords.append(tuple(c))
        self._coords = tuple(coords)
        self._add = None
        self._neg = None
        self._candidates = None
        self._subgroups = None
        self._subgroup_of_mask = {}
        self._sections = {}
        self._auts = None

    # -- basic arithmetic ------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def coords(self, x: int):
        return self._coords[x]

    def index(self, coords) -> int:
        return sum(c % r * w for c, r, w in
                   zip(coords, self.radices, self._index_weights))

    def _tables(self):
        if self._add is None:
            n = self.order
            coords = self._coords
            radices = self.radices
            add = []
            for a in range(n):
                ca = coords[a]
                row = [self.index([x + y for x, y in zip(ca, coords[b])])
                       for b in range(n)]
                add.append(tuple(row))
            self._add = tuple(add)
            self._neg = tuple(self.index([-c for c in coords[a]])
                              for a in range(n))
        return self._add, self._neg

    def add(self, a: int, b: int) -> int:
        return self._tables()[0][a][b]

    def neg(self, a: int) -> int:
        return self._tables()[1][a]

    def sub(self, a: int, b: int) -> int:
        add, neg = self._tables()
        return add[a][neg[b]]

    def scale(self, m: int, a: int) -> int:
        """The m-th power of a in multiplicative notation."""
        return self.index([m * c for c in self._coords[a]])

    def add_table(self):
        return self._tables()[0]

    def neg_table(self):
        return self._tables()[1]

    def translation(self, g: int):
        """Right translation x -> x + g as an image tuple."""
        add = self._tables()[0]
        return tuple(add[x][g] for x in range(self.order))

    # -- coordinate structure ---------------------------------------------

    def prime_blocks(self):
        """(prime, rank, first coordinate position) per factor."""
        pos = 0
        out = []
        for p, n in self.factors:
            out.append((p, n, pos))
            pos += n
        return out

    def basis(self):
        """Indices of the coordinate unit vectors, in coordinate order."""
        return [self._index_weights[i] for i in range(len(self.radices))]

    def basis_image_candidates(self):
        """The images an automorphism may give each coordinate basis
        vector (the nonzero elements of its prime block, ascending), and
        the mixed-radix weights: fixing the images of the first j basis
        vectors fixes the automorphism on the indices below weights[j].
        Tuples, built once per spec."""
        if self._candidates is None:
            candidates = []
            for _p, nn, pos in self.prime_blocks():
                members = tuple(v for v in range(1, self.order)
                                if all(c == 0 for i, c in
                                       enumerate(self.coords(v))
                                       if not pos <= i < pos + nn))
                candidates += [members] * nn
            self._candidates = (tuple(candidates),
                                self._index_weights + (self.order,))
        return self._candidates

    def block_element(self, pos: int, row) -> int:
        """The element with coordinates row from position pos on, zero
        elsewhere."""
        return self.index([0] * pos + list(row))

    def combinations(self, gens, radices):
        """x_1 g_1 + ... + x_k g_k for every x, in mixed-radix index order
        over radices (x_1 least significant): the image table of the
        homomorphism sending the i-th coordinate vector to gens[i]."""
        add = self._tables()[0]
        table = [0]
        for g, r in zip(gens, radices):
            step = table
            for _ in range(r - 1):
                step = [add[y][g] for y in step]
                table += step
        return table

    def multipliers(self):
        """Residues coprime to the exponent, one per power map."""
        return [m for m in range(1, self.exponent) if
                all(m % p for p, _ in self.factors)]

    # -- identity/comparison ----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"GroupSpec({format_group(self)!r})"


_specs: dict = {}


def group_spec(factors, max_order=DEFAULT_MAX_ORDER) -> GroupSpec:
    """The one spec of the group with these (prime, rank) factors, in any
    order; no factors give the trivial group.  max_order is checked on
    every call, and a spec is kept only once its factors are valid."""
    key = tuple(sorted((int(p), int(n)) for p, n in factors))
    spec = _specs.get(key)
    if spec is None:
        spec = _specs[key] = GroupSpec(key, max_order=max_order)
    elif max_order is not None and spec.order > max_order:
        raise ResourceBoundExceeded("group order", max_order, spec.order)
    return spec


def make_group(factors, max_order=DEFAULT_MAX_ORDER) -> GroupSpec:
    if not factors:
        raise GroupSpecError("at least one factor required")
    return group_spec(factors, max_order=max_order)


def parse_group(text: str, max_order=DEFAULT_MAX_ORDER) -> GroupSpec:
    """Parse a spec string like "3^3" or "2^2x3" (no whitespace)."""
    if not text or text != text.strip() or " " in text:
        raise GroupSpecError(f"bad group string {text!r}")
    factors = []
    for token in text.split("x"):
        if "^" in token:
            base, _, exp = token.partition("^")
        else:
            base, exp = token, "1"
        if not base.isdigit() or not exp.isdigit():
            raise GroupSpecError(f"bad group string {text!r}")
        factors.append((int(base), int(exp)))
    return make_group(factors, max_order=max_order)


def format_group(spec: GroupSpec) -> str:
    parts = []
    for p, n in spec.factors:
        parts.append(f"{p}^{n}" if n > 1 else f"{p}")
    return "x".join(parts) if parts else "1"


# -- linear algebra over a prime field -------------------------------------


def rref(rows, p):
    """Reduced row echelon form over F_p; returns a canonical row tuple."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, p)
        mat[pivot_row] = [v * inv % p for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def extend_basis(rows, candidates, p):
    """The candidates that extend the independent rows, taken in order:
    each one added lies outside the span of the rows and of the
    candidates added before it."""
    rows = list(rows)
    start = len(rows)
    for c in candidates:
        if len(rref(rows + [c], p)) > len(rows):
            rows.append(c)
    return rows[start:]


def unit_rows(n):
    """The rows of the n x n identity matrix."""
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


# -- subgroups --------------------------------------------------------------


class Subgroup:
    """Subgroup in canonical form: one reduced echelon basis per prime."""

    __slots__ = ("spec", "bases", "order", "elements", "mask")

    def __init__(self, spec: GroupSpec, bases):
        self.spec = spec
        self.bases = tuple(rref(b, p) for (p, n), b in zip(spec.factors, bases))
        radices = [p for (p, _n), basis in zip(spec.factors, self.bases)
                   for _row in basis]
        els = spec.combinations(self.basis_elements(), radices)
        self.order = len(els)
        self.elements = frozenset(els)
        mask = 0
        for e in els:
            mask |= 1 << e
        self.mask = mask

    @classmethod
    def span(cls, spec: GroupSpec, gens) -> "Subgroup":
        blocks = spec.prime_blocks()
        bases = []
        for bi, (p, n, pos) in enumerate(blocks):
            rows = [spec.coords(g)[pos:pos + n] for g in gens]
            bases.append(rref(rows, p))
        return cls(spec, bases)

    @classmethod
    def from_elements(cls, spec: GroupSpec, elements) -> "Subgroup":
        """The one subgroup of spec with exactly these elements; a set that
        is not a subgroup raises ValueError and is not kept."""
        mask = 0
        for e in elements:
            mask |= 1 << e
        sub = spec._subgroup_of_mask.get(mask)
        if sub is None:
            sub = cls.span(spec, list(elements))
            if sub.mask != mask:
                raise ValueError("element set is not a subgroup")
            spec._subgroup_of_mask[mask] = sub
        return sub

    def basis_elements(self) -> list:
        """The element indices of the echelon rows, prime block by block."""
        spec = self.spec
        return [spec.block_element(pos, row)
                for (_p, _n, pos), basis in zip(spec.prime_blocks(), self.bases)
                for row in basis]

    def contains(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other.mask & ~self.mask == 0

    def meet(self, other: "Subgroup") -> "Subgroup":
        return Subgroup.from_elements(self.spec, self.elements & other.elements)

    def join(self, other: "Subgroup") -> "Subgroup":
        return Subgroup.span(self.spec, sorted(self.elements | other.elements))

    def sort_key(self):
        return (self.order, tuple(sorted(self.elements)))

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.spec == other.spec
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.spec.factors, self.bases))

    def __repr__(self):
        gens = [list(row) for basis in self.bases for row in basis]
        return f"Subgroup(order={self.order}, basis={gens})"


def trivial_subgroup(spec: GroupSpec) -> Subgroup:
    return Subgroup(spec, [() for _ in spec.factors])


def full_subgroup(spec: GroupSpec) -> Subgroup:
    return Subgroup(spec, [unit_rows(n) for _p, n in spec.factors])


def subgroup_span(spec: GroupSpec, gens) -> Subgroup:
    return Subgroup.span(spec, list(gens))


def enumerate_subspaces(p, n):
    """All subspaces of F_p^n as canonical echelon bases."""
    out = [()]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_positions = []
            for row_i, pc in enumerate(pivots):
                for col in range(pc + 1, n):
                    if col not in pivots:
                        free_positions.append((row_i, col))
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for row_i, pc in enumerate(pivots):
                    rows[row_i][pc] = 1
                for (row_i, col), v in zip(free_positions, values):
                    rows[row_i][col] = v
                out.append(tuple(tuple(r) for r in rows))
    return out


def enumerate_subgroups(spec: GroupSpec) -> tuple:
    """All subgroups, sorted by (order, element list); listed once per
    group, as the objects Subgroup.from_elements hands out."""
    if spec._subgroups is None:
        per_prime = [enumerate_subspaces(p, n) for p, n in spec.factors]
        shared = spec._subgroup_of_mask
        subs = (Subgroup(spec, combo)
                for combo in itertools.product(*per_prime))
        spec._subgroups = tuple(sorted(
            (shared.setdefault(sub.mask, sub) for sub in subs),
            key=Subgroup.sort_key))
    return spec._subgroups


def complement(U: Subgroup, spec: GroupSpec) -> Subgroup:
    """Deterministic direct complement: extend U's echelon basis by unit
    vectors and take the added ones."""
    return Subgroup(spec, [extend_basis(basis, unit_rows(n), p)
                           for (p, n), basis in zip(spec.factors, U.bases)])


# -- sections ---------------------------------------------------------------


class Section:
    """A pair of nested subgroups L <= U with the quotient U/L realised as
    its own GroupSpec, a projection from U, and canonical coset lifts.

    L defaults to the trivial group, and Section(U) is then U's chart: proj
    and lift relabel U's elements as those of its own spec.  The spec
    keeps one Section per pair (U, L), built on first use, so sections
    compare by identity.
    """

    __slots__ = ("spec", "U", "L", "quotient", "proj", "lift")

    def __new__(cls, U: Subgroup, L: Subgroup | None = None):
        spec = U.spec
        if L is None:
            L = trivial_subgroup(spec)
        if spec != L.spec:
            raise GroupSpecError("subgroups of different groups")
        self = spec._sections.get((U.mask, L.mask))
        if self is not None:
            return self
        if not U.contains_subgroup(L):
            raise GroupSpecError("L is not contained in U")
        self = super().__new__(cls)
        self.spec = spec
        self.U = U
        self.L = L
        factors = []
        reps = []
        for (p, n, pos), ubasis, lbasis in zip(spec.prime_blocks(), U.bases,
                                               L.bases):
            w_rows = extend_basis(lbasis, ubasis, p)
            reps += [spec.block_element(pos, row) for row in w_rows]
            if w_rows:
                factors.append((p, len(w_rows)))
        self.quotient = group_spec(factors, max_order=None)
        # quotient element q is the coset of the q-th combination of the
        # complement rows
        add = spec.add_table()
        proj = [-1] * spec.order
        lift = []
        for q, w in enumerate(spec.combinations(reps, self.quotient.radices)):
            coset = [add[w][x] for x in L.elements]
            for u in coset:
                proj[u] = q
            lift.append(min(coset))
        self.proj = tuple(proj)
        self.lift = tuple(lift)
        spec._sections[U.mask, L.mask] = self
        return self

    def __repr__(self):
        return f"Section(|U|={self.U.order}, |L|={self.L.order})"


# -- automorphisms -----------------------------------------------------------


class GroupAut:
    """Group automorphism as one invertible matrix per prime block.

    Acts on the right: the image of x is (row vector of x) * M per block.
    Composition a.compose(b) applies a first, then b.
    """

    __slots__ = ("spec", "mats", "_perm")

    def __init__(self, spec: GroupSpec, mats, perm=None):
        """With the image tuple perm given, mats must be nested tuples of
        reduced residues that agree with it; neither is checked."""
        self.spec = spec
        self.mats = mats if perm is not None else tuple(
            tuple(tuple(v % p for v in row) for row in m)
            for (p, _), m in zip(spec.factors, mats))
        self._perm = perm

    @classmethod
    def identity(cls, spec: GroupSpec) -> "GroupAut":
        return cls(spec, [unit_rows(n) for _p, n in spec.factors])

    @classmethod
    def from_images(cls, spec: GroupSpec, pairs) -> "GroupAut":
        """Automorphism sending src -> dst for (src, dst) pairs whose
        sources form a basis of prime-order elements; each image is read
        in its source's prime block."""
        srcs, dsts, radices = [], [], []
        for s, d in pairs:
            blocks = [(p, n, pos) for p, n, pos in spec.prime_blocks()
                      if any(spec.coords(s)[pos:pos + n])]
            if len(blocks) != 1:
                raise GroupSpecError("sources are not a basis of "
                                     "prime-order elements")
            p, n, pos = blocks[0]
            srcs.append(s)
            dsts.append(spec.block_element(pos, spec.coords(d)[pos:pos + n]))
            radices.append(p)
        src_table = spec.combinations(srcs, radices)
        dst_table = spec.combinations(dsts, radices)
        if sorted(src_table) != list(spec.elements()):
            raise GroupSpecError("sources are not a basis of "
                                 "prime-order elements")
        if len(set(dst_table)) != spec.order:
            raise GroupSpecError("images do not define an automorphism")
        perm = [0] * spec.order
        for x, y in zip(src_table, dst_table):
            perm[x] = y
        return cls.from_perm(spec, perm)

    @classmethod
    def from_perm(cls, spec: GroupSpec, perm) -> "GroupAut":
        """The automorphism with the given image tuple, which must be the
        image tuple of an automorphism."""
        basis = spec.basis()
        mats = tuple(tuple(spec.coords(perm[basis[pos + i]])[pos:pos + n]
                           for i in range(n))
                     for _p, n, pos in spec.prime_blocks())
        return cls(spec, mats, tuple(perm))

    @property
    def perm(self):
        """The image of every element: x * M is the combination of M's
        rows with x's coordinates as coefficients."""
        if self._perm is None:
            spec = self.spec
            rows = [spec.block_element(pos, row)
                    for (_p, _n, pos), m in zip(spec.prime_blocks(), self.mats)
                    for row in m]
            self._perm = tuple(spec.combinations(rows, spec.radices))
        return self._perm

    def compose(self, other: "GroupAut") -> "GroupAut":
        """Apply self first, then other."""
        after = other.perm
        return GroupAut.from_perm(self.spec, [after[y] for y in self.perm])

    def inverse(self) -> "GroupAut":
        inv = [0] * self.spec.order
        for x, y in enumerate(self.perm):
            inv[y] = x
        return GroupAut.from_perm(self.spec, inv)

    def sort_key(self):
        return self.mats

    def __eq__(self, other):
        return (isinstance(other, GroupAut) and self.spec == other.spec
                and self.mats == other.mats)

    def __hash__(self):
        return hash((self.spec.factors, self.mats))

    def __repr__(self):
        return f"GroupAut({[list(map(list, m)) for m in self.mats]})"


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1


def aut_generators(spec: GroupSpec) -> list:
    """Generators of Aut(G): standard GL generators per prime block."""
    gens = []
    ident = GroupAut.identity(spec)
    for bi, (p, n) in enumerate(spec.factors):
        block_mats = []
        units = unit_rows(n)
        if n >= 2:
            t = [list(row) for row in units]
            t[0][1] = 1
            block_mats.append(t)
            # row i is the unit vector i + 1, cyclically
            block_mats.append(units[1:] + units[:1])
        if p > 2:
            d = [list(row) for row in units]
            d[0][0] = _primitive_root(p)
            block_mats.append(d)
        for m in block_mats:
            mats = list(ident.mats)
            mats[bi] = tuple(tuple(row) for row in m)
            gens.append(GroupAut(spec, mats))
    return gens


def aut_order(spec: GroupSpec) -> int:
    total = 1
    for p, n in spec.factors:
        for j in range(n):
            total *= p**n - p**j
    return total


def cell_maps(spec: GroupSpec, cell_of, target, cell_map, budget):
    """The automorphisms g, in matrix order, with target[g(x)] ==
    m[cell_of[x]] for every x != 0, where m extends cell_map: an entry of
    -1 is bound when the search first meets that label and unbound on
    backtrack.  With 0 alone in its cell on both sides and equally many
    labels, m is a bijection on the others at every leaf, as g is onto.

    A lazy backtrack over the images of the coordinate basis vectors:
    fixing the first j of them fixes the map on the indices below the
    j-th mixed-radix weight, and each of those must agree with m.  Images
    are scanned by block coordinates, so the maps come out in matrix
    order.  Each node reached spends one unit of budget.
    """
    add = spec.add_table()
    candidates, weights = spec.basis_image_candidates()
    blocks = spec.prime_blocks()
    m = list(cell_map)
    options = [sorted((spec.coords(v)[pos:pos + nn], v)
                      for v in candidates[ci]
                      if m[cell_of[weights[ci]]] in (-1, target[v]))
               for _p, nn, pos in blocks for ci in range(pos, pos + nn)]
    img = [0] * spec.order

    def rec(ci, used_mask, rows):
        budget.spend()
        if ci == len(options):
            mats = tuple(rows[pos:pos + nn] for _p, nn, pos in blocks)
            yield GroupAut(spec, mats, tuple(img))
            return
        lo, hi = weights[ci], weights[ci + 1]
        unbound = m[:]
        for row, v in options[ci]:
            new_used = used_mask
            for x in range(lo, hi):
                y = add[img[x - lo]][v]
                c = cell_of[x]
                if m[c] != target[y]:
                    if m[c] >= 0:
                        break
                    m[c] = target[y]
                if new_used >> y & 1:
                    break
                new_used |= 1 << y
                img[x] = y
            else:
                yield from rec(ci + 1, new_used, rows + (row,))
            m[:] = unbound

    return rec(0, 1, ())


def all_auts(spec: GroupSpec, limit: int | None = None) -> list:
    """Every automorphism, sorted by matrix entries, listed once per group.
    Guarded by limit."""
    expected = aut_order(spec)
    if limit is not None and expected > limit:
        raise ResourceBoundExceeded("automorphism enumeration", limit, expected)
    if spec._auts is None:
        auts = list(cell_maps(spec, [0] * spec.order, [0] * spec.order, [0],
                              _Budget(DEFAULT_BOUNDS.backtrack_node_budget)))
        if len(auts) != expected:
            raise SRingsError(f"{len(auts)} automorphisms listed, "
                              f"expected {expected}")
        spec._auts = auts
    return spec._auts


def aut_group(spec: GroupSpec):
    """Aut(G) as a permutation group on element indices."""
    from .permgrp import PermGroup

    gens = [a.perm for a in aut_generators(spec)]
    group = PermGroup(spec.order, gens)
    expected = aut_order(spec)
    if group.order() != expected:
        raise SRingsError(f"automorphism generators span order "
                          f"{group.order()}, expected {expected}")
    return group
