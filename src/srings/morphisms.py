"""Isomorphisms of Schur rings in all three senses, automorphism groups,
section restrictions, and the two minimality notions.

The pair coloring of a ring assigns color cell_of[y - x] to the pair
(x, y); combinatorial maps are exactly the color-preserving bijections.
All searches are deterministic: candidates are scanned in ascending order
and branch variables are chosen by smallest candidate set.
"""

from __future__ import annotations

import itertools

from .config import (CAYLEY_MINIMAL_ORDER_BOUND, DEFAULT_BOUNDS,
                     ISO_LIST_LIMIT, _Budget)
from .errors import (PartitionError, ResourceBoundExceeded,
                     SectionNotPreserved, SRingsError)
from .groups import GroupAut, Section, cell_maps
from .permgrp import (PermGroup, _cyclic_extensions, group_of_listing,
                      is_identity, orbit, right_regular)
from .sring import SRing, memoized


class AlgebraicIso:
    """A structure-constant preserving bijection between cell index sets."""

    __slots__ = ("source", "target", "cell_map")

    def __init__(self, source: SRing, target: SRing, cell_map):
        self.source = source
        self.target = target
        self.cell_map = tuple(cell_map)
        self._check()

    def _check(self):
        a, b = self.source, self.target
        m = self.cell_map
        if sorted(m) != list(range(a.rank)) or a.rank != b.rank:
            raise SRingsError("cell map is not a bijection")
        if m[0] != 0:
            raise SRingsError("identity cell must map to the identity cell")
        for i in range(a.rank):
            if len(a.cells[i]) != len(b.cells[m[i]]):
                raise SRingsError("cell sizes differ")
            if m[a.inverse_cell[i]] != b.inverse_cell[m[i]]:
                raise SRingsError("cell map ignores inverse pairing")
        ca = a.structure_constants()
        cb = b.structure_constants()
        for i in range(a.rank):
            for j in range(a.rank):
                va = ca[(i, j)]
                vb = cb[(m[i], m[j])]
                for k in range(a.rank):
                    if va[k] != vb[m[k]]:
                        raise SRingsError("structure constants differ")

    def image_set(self, elements):
        """Image of a cell-union set, as a set of target elements."""
        a, b = self.source, self.target
        elements = frozenset(elements)
        if not a.is_a_set(elements):
            raise PartitionError("not a union of cells")
        out = set()
        for i in range(a.rank):
            if a.cells[i] <= elements:
                out |= b.cells[self.cell_map[i]]
        return frozenset(out)

    def image_section(self, section: Section) -> Section:
        from .groups import Subgroup

        u_img = Subgroup.from_elements(self.target.spec,
                                       self.image_set(section.U.elements))
        l_img = Subgroup.from_elements(self.target.spec,
                                       self.image_set(section.L.elements))
        return Section(u_img, l_img)

    def inverse(self) -> "AlgebraicIso":
        inv = [0] * len(self.cell_map)
        for i, j in enumerate(self.cell_map):
            inv[j] = i
        return AlgebraicIso(self.target, self.source, inv)

    def __eq__(self, other):
        return (isinstance(other, AlgebraicIso)
                and self.cell_map == other.cell_map
                and self.source.key() == other.source.key()
                and self.target.key() == other.target.key())

    def __hash__(self):
        return hash(self.cell_map)

    def __repr__(self):
        return f"AlgebraicIso({list(self.cell_map)})"


def algebraic_image(phi: AlgebraicIso, obj):
    """Image of a cell-union set or a section under an algebraic iso."""
    if isinstance(obj, Section):
        return phi.image_section(obj)
    return phi.image_set(obj)


def induced_algebraic(a: SRing, b: SRing, f) -> AlgebraicIso | None:
    """The algebraic iso induced by the point bijection f, or None if f is
    not an isomorphism from a onto b.

    The image cell of X is {f(x+g) - f(g)}; it must not depend on g.
    """
    spec = a.spec
    if b.spec != spec or a.rank != b.rank:
        return None
    add = spec.add_table()
    sub = spec.neg_table()
    cell_map = [-1] * a.rank
    n = spec.order
    bco = b.cell_of
    for i, cell in enumerate(a.cells):
        target = -1
        for x in cell:
            for g in range(n):
                d = add[f[add[x][g]]][sub[f[g]]]
                if target < 0:
                    target = bco[d]
                elif bco[d] != target:
                    return None
        if len(b.cells[target]) != len(cell):
            return None
        cell_map[i] = target
    if sorted(cell_map) != list(range(a.rank)):
        return None
    return AlgebraicIso(a, b, cell_map)


# -- color-consistent point backtracking -------------------------------------


class _PairColoring:
    """Precomputed pair colors and per-point allowed-image masks.

    Only rows are masked: (v, u) has the inverse color of (u, v), and
    every map searched keeps inverse cells paired (an algebraic iso does),
    so a column mask would repeat the row mask."""

    __slots__ = ("n", "colors", "row_allowed")

    def __init__(self, ring: SRing):
        spec = ring.spec
        n = spec.order
        add = spec.add_table()
        neg = spec.neg_table()
        cell_of = ring.cell_of
        self.n = n
        colors = []
        for x in range(n):
            nx = neg[x]
            colors.append(tuple(cell_of[add[y][nx]] for y in range(n)))
        self.colors = colors
        rank = ring.rank
        row_allowed = []
        for w in range(n):
            rows = [0] * rank
            for x in range(n):
                rows[colors[w][x]] |= 1 << x
            row_allowed.append(rows)
        self.row_allowed = row_allowed


def _search_maps(src: _PairColoring, dst: _PairColoring, src_colors,
                 fixed, budget):
    """Color-preserving bijections extending the fixed partial map, as a
    generator: a caller takes as many as it needs.

    src_colors gives the required target color of each source pair, so the
    same engine covers automorphisms (identity recoloring) and isomorphisms
    along an algebraic iso (relabeled colors).
    """
    n = src.n
    full = (1 << n) - 1
    cand = [full] * n
    assigned = [-1] * n
    used = 0

    def restrict(u, w):
        nonlocal used
        assigned[u] = w
        used |= 1 << w
        row_u = src_colors[u]
        row_allowed = dst.row_allowed[w]
        touched = []
        for v in range(n):
            if assigned[v] >= 0:
                continue
            old = cand[v]
            new = old & row_allowed[row_u[v]]
            if new != old:
                touched.append((v, old))
                cand[v] = new
        return touched

    def undo(u, w, touched):
        nonlocal used
        assigned[u] = -1
        used &= ~(1 << w)
        for v, old in touched:
            cand[v] = old

    for u, w in fixed:
        if not (cand[u] >> w & 1) or (used >> w & 1):
            return
        restrict(u, w)

    def dfs():
        budget.spend()
        best_u = -1
        best_count = n + 1
        for v in range(n):
            if assigned[v] >= 0:
                continue
            options = cand[v] & ~used
            c = options.bit_count()
            if c == 0:
                return
            if c < best_count:
                best_count = c
                best_u = v
                if c == 1:
                    break
        if best_u < 0:
            yield tuple(assigned)
            return
        options = cand[best_u] & ~used
        while options:
            bit = options & -options
            options ^= bit
            w = bit.bit_length() - 1
            touched = restrict(best_u, w)
            yield from dfs()
            undo(best_u, w, touched)

    yield from dfs()


@memoized
def scheme_aut(a: SRing, bounds=DEFAULT_BOUNDS) -> PermGroup:
    """The full automorphism group of the ring's pair coloring.

    Builds strong generators level by level: at level k it looks for an
    automorphism fixing 0..k-1 and moving k to each candidate outside the
    orbit of the group found so far, exactly once per candidate orbit.
    A candidate y is searched only when y > k and each pair (y, i), i < k,
    has the color of (k, i) (then (i, y) has that of (i, k), the inverse
    cell): every such automorphism needs that, and without it the search
    fails before its first node.

    So the maps found that fix 0..k-1 reach the whole orbit of k under
    the pointwise stabilizer of 0..k-1, and by downward induction on k
    they generate it: the maps found are a strong generating set for the
    base 0..n-1, and the chain is built from them with no sifting.

    Every permutation keeps the two colors of a rank-2 ring, so there the
    search's hits are known without a search: for each k >= 1 and each
    y > k, the least map fixing 0..k-1 with k -> y, which then sends
    k+1, ..., y to k, ..., y-1 and fixes the rest.
    """
    spec = a.spec
    n = spec.order
    found = [spec.translation(b) for b in spec.basis()]
    if a.rank == 2:
        found += [tuple(range(k)) + (y,) + tuple(range(k, y))
                  + tuple(range(y + 1, n))
                  for k in range(1, n) for y in range(k + 1, n)]
        return PermGroup.from_strong_generators(n, found)
    coloring = _PairColoring(a)
    colors = coloring.colors
    budget = _Budget(bounds.backtrack_node_budget)

    for k in range(n):
        level_gens = [g for g in found
                      if all(g[i] == i for i in range(k))]
        reached = orbit(k, level_gens)
        for y in range(k + 1, n):
            if y in reached or colors[y][:k] != colors[k][:k]:
                continue
            fixed = [(i, i) for i in range(k)] + [(k, y)]
            sol = next(_search_maps(coloring, coloring, colors, fixed,
                                    budget), None)
            if sol is not None:
                found.append(sol)
                level_gens.append(sol)
                reached = orbit(k, level_gens)
    return PermGroup.from_strong_generators(n, found)


def _realizations(a: SRing, b: SRing, phi: AlgebraicIso, bounds):
    """The point bijections realizing the algebraic iso phi from a onto b,
    as a generator."""
    if phi.source.key() != a.key() or phi.target.key() != b.key():
        raise ValueError("algebraic iso does not connect these rings")
    src = _PairColoring(a)
    src_colors = [tuple(phi.cell_map[c] for c in row) for row in src.colors]
    return _search_maps(src, _PairColoring(b), src_colors, [],
                        _Budget(bounds.backtrack_node_budget))


def has_combinatorial_iso(a: SRing, b: SRing, phi: AlgebraicIso,
                          bounds=DEFAULT_BOUNDS) -> bool:
    """Whether any point bijection realizes the given algebraic iso."""
    return next(_realizations(a, b, phi, bounds), None) is not None


def combinatorial_isos(a: SRing, b: SRing, phi: AlgebraicIso,
                       bounds=DEFAULT_BOUNDS, limit=ISO_LIST_LIMIT) -> list:
    """All point bijections realizing the given algebraic iso; more than
    limit of them raise ResourceBoundExceeded."""
    out = list(itertools.islice(_realizations(a, b, phi, bounds), limit + 1))
    if len(out) > limit:
        raise ResourceBoundExceeded("isomorphism listing", limit)
    out.sort()
    return out


# -- Cayley isomorphisms -------------------------------------------------------


def least_labeling(spec, cell_of, budget):
    """Least cell labeling of a partition over its Aut(G) orbit.

    An automorphism g labels x by the cell of g(x), numbering cells by
    first occurrence in index order; this is the labeling of the image of
    the partition under g^-1.  Branch and bound over the images of the
    coordinate basis vectors: fixing the first j of them determines g, and
    so the labeling, on the index prefix below the j-th mixed-radix
    weight, which prunes against the best labeling known, at first the
    partition's own.

    First-path pruning (McKay 1981): let a leaf g tie with a leaf g0 that
    the search visited earlier and that reaches best.  Equal labelings
    make sigma = g g0^-1 a group automorphism permuting the cells.  If d
    is the first basis vector whose images differ, sigma fixes the images
    of vectors 0..d-1 and maps g0's level-d subtree, already finished,
    onto g's, keeping every labeling; so the search returns to level d
    and tries the next image.  The partition's own path counts as g0 only
    once visited.
    """
    n = spec.order
    add = spec.add_table()
    candidates, weights = spec.basis_image_candidates()
    ncoords = len(candidates)

    first = {}
    best = [first.setdefault(c, len(first)) for c in cell_of]
    img = [0] * n
    labels = [0] * n
    # the basis images on the current path, those of a visited leaf
    # reaching best, and the level that deeper frames return to
    choice = [0] * ncoords
    best_choice = None
    cut = ncoords

    def rec(ci, used_mask, remap, strictly_better):
        nonlocal best, best_choice, cut
        budget.spend()
        if ci == ncoords:
            if strictly_better:
                best = labels[:]
                best_choice = choice[:]
                return True
            if best_choice is None:
                best_choice = choice[:]
            else:
                cut = next(d for d in range(ncoords)
                           if choice[d] != best_choice[d])
            return False
        improved = False
        lo, hi = weights[ci], weights[ci + 1]
        for v in candidates[ci]:
            if used_mask >> v & 1:
                continue
            choice[ci] = v
            new_used = used_mask
            new_remap = dict(remap)
            better = strictly_better
            ok = True
            for x in range(lo, hi):
                y = add[img[x - lo]][v]
                if new_used >> y & 1:
                    ok = False
                    break
                new_used |= 1 << y
                img[x] = y
                c = cell_of[y]
                lab = new_remap.get(c)
                if lab is None:
                    lab = len(new_remap)
                    new_remap[c] = lab
                labels[x] = lab
                if not better:
                    if lab > best[x]:
                        ok = False
                        break
                    if lab < best[x]:
                        better = True
            if ok and rec(ci + 1, new_used, new_remap, better):
                # the new best shares this prefix, so later siblings
                # must be compared against it
                improved = True
                strictly_better = False
            if cut < ci:
                return improved
            cut = ncoords
        return improved

    rec(0, 1, {cell_of[0]: 0}, False)
    return best


def cayley_isos(a: SRing, b: SRing, bounds=DEFAULT_BOUNDS) -> list:
    """All group automorphisms carrying the cells of a onto the cells of b,
    in matrix order: with equal ranks, those sending each into one."""
    if a.spec != b.spec:
        raise ValueError("rings live over different groups")
    if a.rank != b.rank or sorted(map(len, a.cells)) != sorted(map(len, b.cells)):
        return []
    return list(cell_maps(a.spec, a.cell_of, b.cell_of, [-1] * a.rank,
                          _Budget(bounds.backtrack_node_budget)))


@memoized
def cayley_auts(a: SRing, bounds=DEFAULT_BOUNDS):
    """The permutation group of the group automorphisms fixing every cell
    setwise, i.e. those that are scheme automorphisms, and the maps
    themselves, sorted by matrix.  (A self Cayley isomorphism may permute
    the cells; a Cayley automorphism may not.)"""
    auts = tuple(cell_maps(a.spec, a.cell_of, a.cell_of, range(a.rank),
                           _Budget(bounds.backtrack_node_budget)))
    return group_of_listing(a.spec.order, [g.perm for g in auts]), auts


@memoized
def cyclotomic_generators(a: SRing, bounds=DEFAULT_BOUNDS):
    """The matrices of the shortest prefix of the non-identity Cayley
    automorphisms, in matrix order, whose orbits are the cells; None if
    no prefix has them.  Orbits of cell-fixing maps refine the cells, so
    the stream is read only until the orbits, merged map by map, are as
    many as the cells."""
    orbit_of, chosen = list(range(a.spec.order)), []
    for g in cell_maps(a.spec, a.cell_of, a.cell_of, range(a.rank),
                       _Budget(bounds.backtrack_node_budget)):
        if not is_identity(g.perm):
            chosen.append(g.mats)
        for x, y in enumerate(g.perm):
            keep, drop = orbit_of[x], orbit_of[y]
            if keep != drop:
                orbit_of = [keep if o == drop else o for o in orbit_of]
        if len(set(orbit_of)) == a.rank:
            return tuple(chosen)
    return None


def is_cyclotomic(a: SRing, bounds=DEFAULT_BOUNDS) -> bool:
    """Whether the cells are exactly the orbits of the Cayley automorphisms."""
    return cyclotomic_generators(a, bounds) is not None


def algebraic_isos(a: SRing, b: SRing, bounds=DEFAULT_BOUNDS) -> list:
    """All structure-constant preserving cell bijections."""
    if a.rank != b.rank:
        return []
    ca = a.structure_constants()
    cb = b.structure_constants()
    rank = a.rank
    order = sorted(range(rank), key=lambda i: (len(a.cells[i]), i))
    budget = _Budget(bounds.backtrack_node_budget)
    out = []
    mapping = [-1] * rank
    used = [False] * rank

    def ok_so_far(i, done):
        mi = mapping[i]
        for j in done:
            mj = mapping[j]
            # structure constants are symmetric: (j, i) repeats (i, j)
            va, vb = ca[(i, j)], cb[(mi, mj)]
            for k in done:
                if va[k] != vb[mapping[k]]:
                    return False
        return True

    def extend(pos, done):
        budget.spend()
        if pos == rank:
            out.append(AlgebraicIso(a, b, mapping))
            return
        i = order[pos]
        for j in range(rank):
            if used[j] or len(b.cells[j]) != len(a.cells[i]):
                continue
            mapping[i] = j
            used[j] = True
            if ok_so_far(i, done):
                done.append(i)
                extend(pos + 1, done)
                done.pop()
            used[j] = False
            mapping[i] = -1

    extend(0, [])
    out.sort(key=lambda phi: phi.cell_map)
    return out


# -- section restrictions ------------------------------------------------------


def restrict_perm(f, section: Section):
    """The permutation induced on U/L by f; f must stabilize the section."""
    spec = section.spec
    U = section.U
    quotient = section.quotient
    image = [-1] * quotient.order
    for u in U.elements:
        fu = f[u]
        if not U.contains(fu):
            raise SectionNotPreserved("image leaves the top group")
        q = section.proj[u]
        fq = section.proj[fu]
        if image[q] == -1:
            image[q] = fq
        elif image[q] != fq:
            raise SectionNotPreserved("cosets of the bottom group are mixed")
    if sorted(image) != list(range(quotient.order)):
        raise SectionNotPreserved("induced map is not a bijection")
    return tuple(image)


def delta_section(perms, section: Section) -> list:
    """{f^S : f stabilizes S}, deduplicated and sorted."""
    out = set()
    for f in perms:
        if isinstance(f, GroupAut):
            f = f.perm
        try:
            out.add(restrict_perm(f, section))
        except SectionNotPreserved:
            continue
    return sorted(out)


# -- minimality ----------------------------------------------------------------


def _has_smaller_with_orbits(H: PermGroup, K: PermGroup, orbits_of) -> bool:
    """Whether some M with H <= M < K has K's orbits, orbits_of(M) ==
    orbits_of(K); the walk up from H stops at the first such M."""
    target = orbits_of(K)
    return any(M.order() < K.order() and orbits_of(M) == target
               for M in _cyclic_extensions(H, K))


def is_2_minimal(a: SRing, bounds=DEFAULT_BOUNDS) -> bool:
    """No proper overgroup of the translations below Aut has the same
    orbits on ordered pairs as Aut itself."""
    return not _has_smaller_with_orbits(right_regular(a.spec),
                                        scheme_aut(a, bounds),
                                        PermGroup.orbits_pairs)


def is_cayley_minimal(a: SRing, bounds=DEFAULT_BOUNDS) -> bool:
    """No proper subgroup of the Cayley automorphism group has the same
    orbits on the group."""
    group, _ = cayley_auts(a, bounds)
    if group.order() > CAYLEY_MINIMAL_ORDER_BOUND:
        raise ResourceBoundExceeded("Cayley minimality",
                                    CAYLEY_MINIMAL_ORDER_BOUND, group.order())
    return not _has_smaller_with_orbits(
        PermGroup(group.degree), group, lambda M: set(M.orbits()))
