"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own machinery: subgroup
counting by subset closure, permutation-group order by naive closure,
Cayley minimality by closing every subset-generated subgroup,
conjugacy classes of regular subgroups by walking conjugation orbits,
the classes of the translations alone by the level search itself,
the merge of conjugate subgroups by conjugating 256-byte tables, the
semiregular extensions by building every one of every representative,
fixed-point-free prime-order elements by streaming every element and by
a point-by-point backtrack over the stabilizer chain, a chain level's
transversal by repeated passes over its whole orbit,
scheme automorphisms by filtering all of Sym(n), and their generators by
a search for every unreached candidate at every level, canonical
labelings by filtering all of Aut(G), Cayley isomorphisms by filtering
Aut(G) as the Schreier-Sims chain of its generators lists it, Cayley
automorphisms by filtering the self Cayley isomorphisms, the generators
of a cyclotomic label by a greedy pass over their full listing, the
relabeling of an enumeration leaf one label at a time, Aut(G) itself
by filtering all square matrices, Schur ring validity by integer-span
membership, wreath sections by the radical of every cell outside U,
and the groups layer's element tables
(section projections, automorphism images, tensor embeddings) by
coordinate linear algebra, one element at a time.
"""

import functools
import itertools

import pytest

from srings.groups import (GroupAut, Section, all_auts, aut_group,
                           full_subgroup, parse_group, subgroup_span)
from srings.sring import validate_partition
from srings.construct import group_ring, wreath
from srings.catalog import enumerate_srings


@pytest.fixture(scope="session")
def c2():
    return parse_group("2")


@pytest.fixture(scope="session")
def c3():
    return parse_group("3")


@pytest.fixture(scope="session")
def c8():
    return parse_group("2^3")


@pytest.fixture(scope="session")
def c9():
    return parse_group("3^2")


@pytest.fixture(scope="session")
def c12():
    return parse_group("2^2x3")


@pytest.fixture(scope="session")
def c27():
    return parse_group("3^3")


@pytest.fixture(scope="session")
def c16():
    return parse_group("2^4")


def make_plain_wreath(spec, top_gens, bottom_gens):
    """Wreath of two group rings over span(top_gens)/span(bottom_gens)."""
    U = subgroup_span(spec, top_gens)
    L = subgroup_span(spec, bottom_gens)
    glq = Section(full_subgroup(spec), L)
    return wreath(group_ring(Section(U).quotient), group_ring(glq.quotient),
                  Section(U, L))


@pytest.fixture(scope="session")
def table_rings(c27):
    """The six classification templates over C_3^3, keyed by row number."""
    from srings.catalog import rank3_templates

    _spec, templates = rank3_templates(3)
    return {i + 1: ring for i, (_name, ring) in enumerate(templates)}


@pytest.fixture(scope="session")
def catalog_c8(c8):
    return enumerate_srings(c8, "all", label=False)


@pytest.fixture(scope="session")
def catalog_c9(c9):
    return enumerate_srings(c9, "all", label=False)


@pytest.fixture(scope="session")
def catalog_c12(c12):
    return enumerate_srings(c12, "all", label=False)


@pytest.fixture(scope="session")
def catalog_c27_p(c27):
    return enumerate_srings(c27, "p-srings", label=False)


@pytest.fixture(scope="session")
def catalog_c16(c16):
    return enumerate_srings(c16, "all", label=False)


@pytest.fixture(scope="session")
def catalog_c18():
    return enumerate_srings(parse_group("2x3^2"), "all", label=False)


@pytest.fixture
def holomorph_k_over_c8(monkeypatch, c8):
    """Fault injection for the NotCI paths, which no desk catalog reaches:
    the ci module's scheme_aut answers the holomorph of 2^3, which has two
    classes of regular subgroups, for every ring over 2^3, and the true K
    for any other ring, so wreath factors keep their CI verdicts."""
    from srings import ci
    from srings.permgrp import holomorph

    real = ci.scheme_aut
    monkeypatch.setattr(ci, "scheme_aut", lambda a, bounds: holomorph(
        a.spec) if a.spec == c8 else real(a, bounds))


# -- independent oracles -----------------------------------------------------


def closure_subgroups(spec):
    """All subgroups by brute force: subsets containing 0 closed under
    addition.  Only sensible for tiny groups."""
    n = spec.order
    out = []
    elements = list(range(n))
    for r in range(n + 1):
        for subset in itertools.combinations(elements, r):
            if 0 not in subset:
                continue
            s = set(subset)
            if all(spec.add(a, b) in s for a in s for b in s):
                out.append(frozenset(s))
    return out


def naive_perm_closure(gens, degree):
    """All elements of the generated permutation group, by multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        g = frontier.pop()
        for h in gens:
            prod = tuple(h[x] for x in g)
            if prod not in seen:
                seen.add(prod)
                frontier.append(prod)
    return seen


def cayley_minimal_by_closure(ring):
    """Cayley minimality by brute force: every subgroup of the Cayley
    automorphism group, reached from the trivial group by adjoining one
    element at a time and closing by multiplication; the ring is minimal
    when no proper one has the same orbits as the whole group."""
    from srings.morphisms import cayley_auts

    group, _ = cayley_auts(ring)
    n = group.degree
    elements = sorted(group.elements())

    def orbit_partition(sub):
        return {frozenset(g[x] for g in sub) for x in range(n)}

    target = orbit_partition(elements)
    trivial = frozenset([tuple(range(n))])
    subgroups = {trivial: ()}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        for g in elements:
            if g in sub:
                continue
            gens = subgroups[sub] + (g,)
            new = frozenset(naive_perm_closure(gens, n))
            if new not in subgroups:
                subgroups[new] = gens
                frontier.append(new)
    return not any(len(sub) < len(elements)
                   and orbit_partition(sub) == target
                   for sub in subgroups)


def regular_classes_by_orbit(K, spec):
    """The classes of regular_subgroups by conjugation orbits, built level
    by level as the generator search builds them: each level extends the
    subgroups kept at the level before (extend_by_element_test), and keeps
    the subgroups, in sorted key order, that lie outside every earlier
    one's K-conjugation orbit of sorted element tuples, each orbit walked
    in full.  At the final level the class whose orbit holds the
    translations' key is the translation class.  The candidate generators
    are fpf_elements_by_chain's, which fpf_elements_by_streaming
    checks."""
    from srings.permgrp import PermGroup, RegularClass, identity_perm, pinv

    translations = [spec.translation(b) for b in spec.basis()]
    t_key = tuple(sorted(PermGroup(K.degree, translations).elements()))
    conj = [(c, pinv(c)) for c in K.gens]
    cands = {p: as_tuples(fpf_elements_by_chain(K, p), K.degree)
             for p, _ in spec.factors}
    reps = [(frozenset([identity_perm(K.degree)]), ())]
    *inner, last = spec.radices
    for prime in inner:
        found = extend_by_element_test(reps, cands[prime], prime)
        reps = [found[key] for key, _orbit in conjugacy_orbits(found, conj)]
    found = extend_by_element_test(reps, cands[last], last)
    return [RegularClass(found[key][1], found[key][0], t_key in orbit)
            for key, orbit in conjugacy_orbits(found, conj)]


def regular_subgroups_by_search(K, spec):
    """The classes of regular_subgroups by its level search, with the
    shortcut that answers a K of order n (the translations) bypassed."""
    from srings.config import DEFAULT_BOUNDS
    from srings.permgrp import _search_classes

    return _search_classes(K, spec, DEFAULT_BOUNDS)


def extend_by_element_test(reps, cands, prime):
    """Every semiregular subgroup <gens, r>, for (element set, gens) in
    reps and r in cands of order prime commuting with gens and outside the
    subgroup, keyed by sorted element tuple, the first gens found for a
    key kept: every element of the extension is tested for a fixed
    point."""
    from srings.permgrp import is_identity, pmul

    new = {}
    for elset, gens in reps:
        for r in cands:
            if r in elset or any(pmul(r, h) != pmul(h, r) for h in gens):
                continue
            powers = [r]
            for _ in range(prime - 2):
                powers.append(pmul(powers[-1], r))
            newels = set(elset)
            ok = True
            for h in elset:
                for rp in powers:
                    e2 = pmul(h, rp)
                    if not is_identity(e2) and any(
                            e2[i] == i for i in range(len(e2))):
                        ok = False
                        break
                    newels.add(e2)
                if not ok:
                    break
            if not ok:
                continue
            key = tuple(sorted(newels))
            if key not in new:
                new[key] = (frozenset(newels), gens + (r,))
    return new


def conjugacy_orbits(subgroups, conj):
    """(least key, orbit) for each conjugation orbit of the keys of
    subgroups, in key order; each orbit is walked in full over sorted
    element tuples, also outside subgroups."""
    from srings.permgrp import pmul

    seen = set()
    out = []
    for key in sorted(subgroups):
        if key in seen:
            continue
        orbit = {key}
        frontier = [key]
        while frontier:
            k0 = frontier.pop()
            for c, cinv in conj:
                k1 = tuple(sorted(pmul(pmul(cinv, h), c) for h in k0))
                if k1 not in orbit:
                    orbit.add(k1)
                    frontier.append(k1)
        seen |= orbit
        out.append((key, orbit))
    return out


def centralizer_fpf_by_filter(K, gens, p):
    """The fixed-point-free elements of order p of K that commute with
    every one of gens (tuples or tables), sorted, as tuples:
    fpf_elements_by_chain, which fpf_elements_by_streaming checks, filtered
    one by one."""
    from srings.permgrp import pmul

    gens = as_tuples(gens, K.degree)
    return [r for r in as_tuples(fpf_elements_by_chain(K, p), K.degree)
            if all(pmul(r, h) == pmul(h, r) for h in gens)]


def as_tuples(perms, n):
    """Permutations of degree n, as image tuples or as the 256-byte tables
    of the regular-subgroup search, as image tuples."""
    return [tuple(g[:n]) for g in perms]


def fpf_elements_by_streaming(K, p):
    """The fixed-point-free elements of order p of K, sorted, by streaming
    every element of K and keeping those whose cycles all have length p."""
    return sorted(g for g in K.elements()
                  if all(_cycle_length(g, x) == p for x in range(len(g))))


def _prime_order_fpf(g, p, n):
    """True if the table g has order exactly p and no fixed point below n
    (all its cycles on 0..n-1 have length p, for the prime p)."""
    from operator import eq

    from srings.permgrp import IDENT

    power = g
    for _ in range(p - 1):
        power = power.translate(g)
    return power == IDENT and not any(map(eq, g[:n], range(n)))


def fpf_elements_by_chain(K, p, budget=None) -> list:
    """The fixed-point-free elements of order p of K, sorted, as tables.

    A backtrack over K's stabilizer chain, without listing K.  Choosing
    x_0..x_i at the nontrivial levels 0..i leaves the elements
    h u_(x_i) ... u_(x_0), h in the stabilizer K_(i+1) of the first base
    points; they all agree with q = u_(x_i) ... u_(x_0) on every point
    K_(i+1) fixes.  The branch is pruned when that partial map has a fixed
    point, a closed cycle whose length is not p, or an open path of p or
    more arrows.  The base point's image is tested before q is composed;
    each leaf is tested exactly by _prime_order_fpf.  Each node spends one
    of budget, by default a fresh backtrack_node_budget."""
    from srings.config import DEFAULT_BOUNDS, _Budget
    from srings.permgrp import IDENT, _table

    budget = budget or _Budget(DEFAULT_BOUNDS.backtrack_node_budget)
    n = K.degree
    levels = []
    settled = set()
    for i, lvl in enumerate(K._levels):
        if len(lvl.transversal) == 1:
            continue
        below = K._levels[i + 1].gens if i + 1 < n else ()
        # the points K_(i+1) fixes that K_(i) moves, other than the base point
        now = [x for x in range(n) if x != lvl.point and x not in settled
               and all(g[x] == x for g in below)]
        settled.update(now)
        settled.add(lvl.point)
        levels.append((lvl.point, sorted(
            (x, _table(u)) for x, u in lvl.transversal.items()), now))
    img = [-1] * n
    pre = [-1] * n
    out = []

    def admissible(b, y):
        """Whether the arrow b -> y keeps the partial map extendable; b has
        no image yet and y no preimage."""
        if y == b:
            return False
        arrows = 1
        z = img[y]
        while z >= 0:
            arrows += 1
            if z == b:
                return arrows == p
            z = img[z]
        z = pre[b]
        while z >= 0:
            arrows += 1
            z = pre[z]
        return arrows < p

    def rec(i, q):
        budget.spend()
        if i == len(levels):
            if _prime_order_fpf(q, p, n):
                out.append(q)
            return
        b, transversal, now = levels[i]
        for x, u in transversal:
            y = q[x]
            if not admissible(b, y):
                continue
            img[b], pre[y] = y, b
            q2 = u.translate(q)
            done = []
            for t in now:
                z = q2[t]
                if not admissible(t, z):
                    break
                img[t], pre[z] = z, t
                done.append(t)
            else:
                rec(i + 1, q2)
            for t in done:
                pre[img[t]] = -1
                img[t] = -1
            img[b] = pre[y] = -1

    rec(0, IDENT)
    out.sort()
    return out


def merged_roots_by_tables(found, K) -> list:
    """The least key of each set of keys of found that the generators of K
    conjugate onto each other, in key order, as the regular-subgroup search
    once merged them: every element of a key is conjugated as a 256-byte
    table, and the sorted image is looked up among the keys as it is."""
    from srings.permgrp import IDENT, _table

    conj = [(c, bytes.maketrans(c, IDENT))
            for c in map(_table, K.reduced_generators())]
    seen = set()
    roots = []
    for key in sorted(found):
        if key in seen:
            continue
        roots.append(key)
        seen.add(key)
        frontier = [key]
        for k0 in frontier:
            for c, cinv in conj:
                # k0[0] is the identity, the only element that fixes 0
                image = (k0[0],) + tuple(sorted(
                    [cinv.translate(h).translate(c) for h in k0[1:]]))
                if image in found and image not in seen:
                    seen.add(image)
                    frontier.append(image)
    return roots


def extend_semiregular_by_parent(reps, K, spec, prime, least, budget) -> dict:
    """permgrp._extend_semiregular as it was before it dropped the
    subgroups that lie in no regular one, skipped the r that give a
    subgroup already built from the same representative and read P's
    orbits from its layout: every extension of every representative is
    built, P's orbits are walked, and the first gens found for a key are
    kept."""
    from operator import eq, itemgetter

    from srings.permgrp import (IDENT, _fpf_search, _orbit_minima,
                                _transporter_chain)

    n = K.degree
    new = {}
    for key, gens, pool, entry in reps:
        if gens and pool[0] == prime:
            g = gens[-1]
            g_n = g[:n]
            pool = [r for r in pool[1]
                    if r[:n].translate(g) == g_n.translate(r)]
        else:
            if entry[1] is None:
                entry[1] = _transporter_chain(K, entry[0])
            pool = _fpf_search(gens, spec, prime, budget, entry[1])
        if not gens:
            extending = [r for r in pool if least[r[0]] == r[0]]
        else:
            # r fixes the P-orbit with least point x iff lab[r[x]] == x;
            # P has at least two orbits, so at_lows gives a tuple
            lab = bytes(_orbit_minima(gens, n)) + IDENT[n:]
            lows = sorted(set(lab[:n]))
            at_lows = itemgetter(*lows)
            extending = [r for r in pool if not any(
                map(eq, at_lows(r[:n].translate(lab)), lows))]
        for r in extending:
            elements = list(key)
            rp = r
            for _ in range(prime - 1):
                elements += [h.translate(rp) for h in key]
                rp = rp.translate(r)
            elements.sort()
            new.setdefault(tuple(elements), (gens + (r,), (prime, pool)))
    return new


def close_orbit_by_passes(transversal, gens):
    """Extend transversal (point -> image tuple, None for the identity) to
    the orbit of gens (tuples), as the chain levels once did: passes over
    the whole orbit, sorted, by every generator, until a pass finds no new
    point; each new point y = g[x] gets the element transversal[x] then
    g.  Returns the number of passes that found a point."""
    from srings.permgrp import pmul

    passes = -1
    changed = True
    while changed:
        passes += 1
        changed = False
        for x in sorted(transversal):
            ux = transversal[x]
            for g in gens:
                y = g[x]
                if y not in transversal:
                    transversal[y] = pmul(ux, g)
                    changed = True
    return passes


def _cycle_length(g, x):
    length = 1
    y = g[x]
    while y != x:
        y = g[y]
        length += 1
    return length


def op_preserving_bijections(spec):
    """Count bijections f with f(a+b) = f(a)+f(b), by brute force."""
    n = spec.order
    count = 0
    for perm in itertools.permutations(range(1, n)):
        f = (0,) + perm
        good = True
        for a in range(n):
            for b in range(a, n):
                if f[spec.add(a, b)] != spec.add(f[a], f[b]):
                    good = False
                    break
            if not good:
                break
        if good:
            count += 1
    return count


def brute_scheme_aut(ring):
    """All pair-color preserving permutations, by filtering Sym(n)."""
    spec = ring.spec
    n = spec.order
    color = [[ring.cell_of[spec.sub(y, x)] for y in range(n)]
             for x in range(n)]
    out = []
    for f in itertools.permutations(range(n)):
        good = True
        for x in range(n):
            cx = color[x]
            fx = f[x]
            for y in range(n):
                if color[fx][f[y]] != cx[y]:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(f)
    return out


def scheme_aut_by_full_level_search(ring):
    """The strong generators scheme_aut finds, by its level loop with no
    color test: at level k a search starts for every y outside the orbit
    of k under the generators found so far that fix 0..k-1."""
    from srings.config import DEFAULT_BOUNDS, _Budget
    from srings.morphisms import _PairColoring, _search_maps
    from srings.permgrp import orbit

    spec = ring.spec
    n = spec.order
    coloring = _PairColoring(ring)
    budget = _Budget(DEFAULT_BOUNDS.backtrack_node_budget)
    found = [spec.translation(b) for b in spec.basis()]
    for k in range(n):
        level_gens = [g for g in found if all(g[i] == i for i in range(k))]
        reached = orbit(k, level_gens)
        for y in range(n):
            if y in reached:
                continue
            fixed = [(i, i) for i in range(k)] + [(k, y)]
            sol = next(_search_maps(coloring, coloring, coloring.colors,
                                    fixed, budget), None)
            if sol is not None:
                found.append(sol)
                level_gens.append(sol)
                reached = orbit(k, level_gens)
    return found


def least_labeling_by_filter(spec, cells):
    """The least first-occurrence cell labeling over all of Aut(G), as
    bytes: the automorphism g labels x by the cell of g(x)."""
    cell_of = [0] * spec.order
    for i, cell in enumerate(cells):
        for x in cell:
            cell_of[x] = i
    best = None
    for g in all_auts(spec):
        first = {}
        labels = bytes(first.setdefault(cell_of[y], len(first))
                       for y in g.perm)
        if best is None or labels < best:
            best = labels
    return best


@functools.lru_cache(maxsize=None)
def auts_by_chain(spec):
    """Every automorphism of G, streamed from the Schreier-Sims chain of
    Aut(G) on its standard generators, sorted by matrix."""
    return sorted((GroupAut.from_perm(spec, perm)
                   for perm in aut_group(spec).elements()),
                  key=GroupAut.sort_key)


def cayley_isos_by_filter(a, b):
    """Every automorphism of G carrying the cells of a onto cells of b, in
    matrix order."""
    b_cells = set(b.cells)
    return [g for g in auts_by_chain(a.spec)
            if all(frozenset(g.perm[x] for x in cell) in b_cells
                   for cell in a.cells)]


def cayley_auts_by_cell_fixing_isos(ring):
    """The Cayley automorphisms the long way round: every self Cayley
    isomorphism, filtered to the maps that fix every cell."""
    from srings.morphisms import cayley_isos

    cell_of = ring.cell_of
    return [g for g in cayley_isos(ring, ring)
            if all(cell_of[y] == cell_of[x] for x, y in enumerate(g.perm))]


def cyclotomic_generators_by_listing(ring):
    """The cyclotomic label's generators the long way round: list every
    Cayley automorphism and, when their orbits are the cells, add the
    non-identity maps in matrix order, rebuilding the orbit ring after
    each, until it is the ring; None when the orbits are not the cells."""
    from srings.construct import cyclotomic
    from srings.groups import GroupAut
    from srings.morphisms import cayley_auts

    group, auts = cayley_auts(ring)
    if set(group.orbits()) != set(ring.cells):
        return None
    identity = GroupAut.identity(ring.spec).mats
    chosen = []
    for aut in auts:
        if aut.mats == identity:
            continue
        chosen.append(aut)
        if cyclotomic(chosen, ring.spec).cells == ring.cells:
            break
    return tuple(g.mats for g in chosen)


def renumbered_by_first_occurrence(labels):
    """The labeling with its labels renumbered by first occurrence, one
    label at a time."""
    first = {}
    return bytes([first.setdefault(v, len(first)) for v in labels])


def relabeled_by_list(g, lab):
    """The labeling lab read through the permutation g, renumbered."""
    return renumbered_by_first_occurrence([lab[i] for i in g])


def span_closure_holds(spec, cells):
    """Integer-span closure oracle: the product of any two cell indicator
    vectors must be an integer combination of cell indicators, i.e.
    constant on every cell with the leftover exactly zero."""
    cells = [sorted(c) for c in cells]
    n = spec.order
    for X in cells:
        for Y in cells:
            vec = [0] * n
            for x in X:
                for y in Y:
                    vec[spec.add(x, y)] += 1
            rebuilt = [0] * n
            for Z in cells:
                coeff = vec[Z[0]]
                for z in Z:
                    rebuilt[z] += coeff
            if rebuilt != vec:
                return False
    return True


def all_partitions(items):
    """Every set partition of the given list (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def image_partition_is_sring(ring, f):
    """Definition-level isomorphism oracle: the image pair coloring must be
    the coloring of a valid ring, rebuilt from difference sets."""
    from srings.errors import PartitionError

    spec = ring.spec
    n = spec.order
    cells = set()
    for cell in ring.cells:
        image = set()
        for x in cell:
            for g in range(n):
                image.add(spec.sub(f[spec.add(x, g)], f[g]))
        cells.add(frozenset(image))
    if sum(len(c) for c in cells) != n:
        return False
    try:
        candidate = validate_partition(spec, cells)
    except PartitionError:
        return False
    # the induced cell map must be well defined: the image color of a pair
    # may depend only on its source color
    mapping = {}
    for x in range(n):
        for y in range(n):
            src = ring.cell_of[spec.sub(y, x)]
            dst = candidate.cell_of[spec.sub(f[y], f[x])]
            if mapping.setdefault(src, dst) != dst:
                return False
    return len(set(mapping.values())) == ring.rank


def is_wreath_for_by_radicals(a, section):
    """Wreath-section oracle: U and L are unions of cells, and every cell
    X outside U has L inside its radical, that is X + L = X."""
    U, L = section.U, section.L
    if not (a.is_a_set(U.elements) and a.is_a_set(L.elements)):
        return False
    return all(a.spec.add(x, l) in cell
               for cell in a.cells if not cell <= U.elements
               for x in cell for l in L.elements)


THIN_WREATH_FACTS = ("radical-nontrivial", "wreath-section",
                     "group-ring-parts", "decided-by-section")


def thin_wreath_facts(ring):
    """Why the section loop decides a p-ring whose thin radical T has
    index p: L, the radical of a cell outside T, is nontrivial; T/L is a
    wreath section (by the radical oracle and in decompositions); both
    wreath factors and the section ring are group rings; and the decider
    answers CI from a section, whose section ring is a group ring.  Maps
    each name in THIN_WREATH_FACTS to whether it holds."""
    from srings.ci import CIDecider, SectionContext
    from srings.construct import decompositions
    from srings.sring import radical

    thin = ring.thin_radical()
    outside = next(c for c in ring.cells if not c <= thin.elements)
    section = Section(thin, radical(ring.spec, outside))
    wreath_section = (is_wreath_for_by_radicals(ring, section)
                      and section in decompositions(ring))
    parts = ()
    if wreath_section:
        ctx = SectionContext(ring, section)
        parts = (ctx.top, ctx.quot, ctx.sec_ring)
    status = CIDecider().decide(ring)
    return {"radical-nontrivial": section.L.order > 1,
            "wreath-section": wreath_section,
            "group-ring-parts": bool(parts) and all(
                r.rank == r.spec.order for r in parts),
            "decided-by-section": status.verdict == "CI"
            and status.method == "fastpath-trivial"}


# -- coordinate oracles for the groups layer's element tables ----------------


def solve_in_basis(rows, vec, p):
    """Coefficients expressing vec in the given independent rows, or None,
    by back-substitution on the reduced echelon form of [rows^T | vec]."""
    from srings.groups import rref

    k = len(rows)
    aug = [[r[i] for r in rows] + [v] for i, v in enumerate(vec)]
    coeffs = [0] * k
    for row in rref(aug, p):
        col = next(c for c, v in enumerate(row) if v)
        if col == k:
            return None
        coeffs[col] = row[k]
    return tuple(coeffs)


def section_by_solving(U, L):
    """(proj, lift) of the section U/L by one solve per element of U: per
    prime block, L's echelon rows are extended by U's rows that leave the
    span, and an element's quotient digits are its coefficients on those
    added rows; the lift of a quotient element is its least preimage."""
    spec = U.spec
    blocks = []
    radices = []
    for (p, n, pos), ubasis, lbasis in zip(spec.prime_blocks(), U.bases,
                                           L.bases):
        rows = list(lbasis)
        for row in ubasis:
            if solve_in_basis(rows, row, p) is None:
                rows.append(row)
        blocks.append((p, n, pos, rows, len(lbasis)))
        radices += [p] * (len(rows) - len(lbasis))
    proj = [-1] * spec.order
    for u in sorted(U.elements):
        digits = []
        for p, n, pos, rows, skip in blocks:
            coeffs = solve_in_basis(rows, spec.coords(u)[pos:pos + n], p)
            digits += coeffs[skip:]
        q, weight = 0, 1
        for d, r in zip(digits, radices):
            q += d * weight
            weight *= r
        proj[u] = q
    lift = {}
    for u in sorted(U.elements):
        lift.setdefault(proj[u], u)
    return tuple(proj), tuple(lift[q] for q in range(len(lift)))


def aut_mats_by_filter(spec):
    """Every automorphism's matrices, sorted: the tuples of one square
    matrix per prime block whose map v -> vM on F_p^n is one-to-one."""
    per_block = []
    for p, n in spec.factors:
        vectors = list(itertools.product(range(p), repeat=n))
        mats = []
        for entries in itertools.product(range(p), repeat=n * n):
            m = tuple(entries[i * n:(i + 1) * n] for i in range(n))
            images = {tuple(sum(v[i] * m[i][j] for i in range(n)) % p
                            for j in range(n)) for v in vectors}
            if len(images) == len(vectors):
                mats.append(m)
        per_block.append(mats)
    return sorted(itertools.product(*per_block))


def aut_perm_by_matrices(aut):
    """The image of every element as its coordinate row vector times the
    automorphism's matrix, prime block by prime block."""
    spec = aut.spec
    images = []
    for x in range(spec.order):
        out = []
        for (p, n, pos), m in zip(spec.prime_blocks(), aut.mats):
            vec = spec.coords(x)[pos:pos + n]
            out += [sum(c * m[i][j] for i, c in enumerate(vec)) % p
                    for j in range(n)]
        images.append(spec.index(out))
    return tuple(images)


def tensor_cells_by_coordinates(a1, a2, spec):
    """The product cells of a1 and a2 in spec, each pair of elements
    embedded by concatenating their coordinates prime block by prime
    block, a1's first."""
    def embed(x1, x2):
        coords = []
        for p, _n in spec.factors:
            for s, x in ((a1.spec, x1), (a2.spec, x2)):
                for q, n, pos in s.prime_blocks():
                    if q == p:
                        coords += s.coords(x)[pos:pos + n]
        return spec.index(coords)

    return {frozenset(embed(x1, x2) for x1 in c1 for x2 in c2)
            for c1 in a1.cells for c2 in a2.cells}
