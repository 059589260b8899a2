"""Permutation groups on the element set of a group spec.

Permutations are image tuples acting on the right: the image of x under g
is g[x], and pmul(a, b) applies a first, then b.  PermGroup keeps a
deterministic stabilizer chain whose base is always the full point set in
a fixed order; its API takes and returns tuples.

The degree n is at most 256, and inside the chains and the
regular-subgroup search the loops run in C on bytes: a.translate(b)
applies a, then b; bytes.maketrans(a, IDENT) inverts a; a.translate(b) ==
b.translate(a) tests that they commute.  translate needs a 256-byte table
only as its argument b, and returns a string as long as a.  So a
permutation that is stored (chain levels, regular-subgroup keys and pools)
or passed to translate is a table, the identity beyond n, and a product
that is only read (indexed, compared, sorted, hashed, or translated
further) is the n-byte string of its first n bytes.  Strings of one length
and tables alike sort in tuple order and cache their hash.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from operator import eq, getitem, itemgetter

from .config import (BETWEEN_ELEMENT_BUDGET, BETWEEN_INDEX_BOUND,
                     DEFAULT_BOUNDS, _Budget)
from .errors import ResourceBoundExceeded, SRingsError


def pmul(a, b):
    """Compose: apply a, then b.  None stands for the identity."""
    if a is None:
        return b
    if b is None:
        return a
    return tuple([b[x] for x in a])


def pinv(a):
    if a is None:
        return None
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


@functools.cache
def identity_perm(n):
    return tuple(range(n))


def is_identity(p):
    return p is None or p == identity_perm(len(p))


IDENT = bytes(range(256))


def _table(g):
    """The table of a permutation tuple; None is the identity."""
    return IDENT if g is None else bytes(g) + IDENT[len(g):]


def orbit(x, gens, act=getitem):
    """The orbit of x under the group generated by gens, where act(g, y)
    is the image of y under g: by default the point g[y]."""
    seen = {x}
    frontier = [x]
    for y in frontier:
        for g in gens:
            z = act(g, y)
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return frozenset(seen)


def orbits(gens, n):
    """The orbits of the group generated by gens on 0..n-1, each listed
    once, in order of their least point."""
    seen = set()
    out = []
    for x in range(n):
        if x not in seen:
            orb = orbit(x, gens)
            seen |= orb
            out.append(orb)
    return out


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverse", "closed",
                 "pairs_done")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {point: IDENT}
        self.inverse = {point: IDENT}  # x -> the inverse of transversal[x]
        self.closed = 0  # the orbit is closed under gens[:closed]
        self.pairs_done = {}  # x -> i: pairs (x, g), g in gens[:i], done

    def close_orbit(self):
        """Extend the transversal, and its inverses, to the orbit of the
        level's generators: the sorted orbit by the generators added since
        the last call, then each pass's new points, sorted, by every one.
        Passes over the whole sorted orbit by every generator find the
        points in that order too, and the order fixes each element."""
        transversal, inverse = self.transversal, self.inverse
        gens = self.gens[self.closed:]
        frontier = sorted(transversal)
        while frontier:
            found = []
            for x in frontier:
                ux = transversal[x]
                for g in gens:
                    y = g[x]
                    if y not in transversal:
                        transversal[y] = uy = ux.translate(g)
                        inverse[y] = bytes.maketrans(uy, IDENT)
                        found.append(y)
            frontier = sorted(found)
            gens = self.gens
        self.closed = len(self.gens)


class PermGroup:
    """Immutable permutation group with a full-base stabilizer chain of
    tables; each level's base point maps to IDENT."""

    def __init__(self, degree, gens=(), base_prefix=()):
        self.degree = int(degree)
        if self.degree > len(IDENT):
            raise ValueError(f"degree {self.degree} is above {len(IDENT)}, "
                             f"the most a permutation table holds")
        seen_prefix = set(base_prefix)
        base = list(base_prefix) + [x for x in range(degree)
                                    if x not in seen_prefix]
        self._base = tuple(base)
        self._levels = [_Level(b) for b in base]
        self.gens = ()
        self._order = 1
        self._tables = None
        for g in gens:
            self._adjoin(g)
        self._pair_orbits = None
        self._reduced = None

    @classmethod
    def from_strong_generators(cls, degree, gens) -> "PermGroup":
        """The group of gens, a strong generating set for the base
        0..degree-1: for each k, the gens that fix 0..k-1 generate the
        pointwise stabilizer of those points.  Each chain level is those
        gens with its orbit closed; no Schreier generator is sifted."""
        group = cls(degree)
        group.gens = tuple(gens)
        for g in map(_table, group.gens):
            for lvl in group._levels[:group._depth(g) + 1]:
                lvl.gens.append(g)
        for lvl in group._levels:
            lvl.close_orbit()
        group._order = math.prod(len(lvl.transversal)
                                 for lvl in group._levels)
        return group

    # -- chain construction ------------------------------------------------

    def _adjoin(self, g):
        """Append g to the generators, unless it is the identity or already
        one, and sift it into the chain."""
        g = tuple(g)
        if len(g) != self.degree:
            raise ValueError(
                f"degree mismatch: permutation of length {len(g)} in a "
                f"group of degree {self.degree}")
        if not is_identity(g) and g not in self.gens:
            self.gens += (g,)
            self._insert(bytes(g))
            self._order = math.prod(len(lvl.transversal)
                                    for lvl in self._levels)
            self._tables = None

    def _sift(self, g):
        """The residue of g, a table or its n-byte string, through the
        chain, as a table; None for the identity.  The base holds every
        point, so a g that passes every level is the identity."""
        for lvl in self._levels:
            x = g[lvl.point]
            if x != lvl.point:
                u_inv = lvl.inverse.get(x)
                if u_inv is None:
                    return g + IDENT[len(g):]
                g = g.translate(u_inv)
        return None

    def _depth(self, g):
        for i, lvl in enumerate(self._levels):
            if g[lvl.point] != lvl.point:
                return i
        return len(self._levels)

    def _insert(self, g):
        queue = [g]
        while queue:
            h = self._sift(queue.pop())
            if h is None:
                continue
            d = self._depth(h)
            for i in range(d + 1):
                self._levels[i].gens.append(h)
            for i in range(d + 1):
                queue.extend(self._close_level(i))

    def _close_level(self, i):
        """Close level i's orbit; its new Schreier generators other than
        the identity, as n-byte strings."""
        lvl = self._levels[i]
        if not lvl.gens:
            return []
        lvl.close_orbit()
        ident = IDENT[:self.degree]
        out = []
        for x in sorted(lvl.transversal):
            ux = lvl.transversal[x][:self.degree]
            for g in lvl.gens[lvl.pairs_done.get(x, 0):]:
                s = ux.translate(g).translate(lvl.inverse[g[x]])
                if s != ident:
                    out.append(s)
            lvl.pairs_done[x] = len(lvl.gens)
        return out

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        return self._order

    def contains(self, g) -> bool:
        g = tuple(g)
        if len(g) != self.degree:
            return False
        return self._sift(bytes(g)) is None

    def is_symmetric(self) -> bool:
        return self._order == math.factorial(self.degree)

    def strong_generators(self):
        return tuple(tuple(g[:self.degree]) for lvl in self._levels[:1]
                     for g in lvl.gens)

    def _transversals(self):
        """The transversal tables of each level with more than one point,
        in order of their points; built once."""
        if self._tables is None:
            self._tables = [[u for _, u in sorted(lvl.transversal.items())]
                            for lvl in self._levels
                            if len(lvl.transversal) > 1]
        return self._tables

    def elements(self):
        """Yield every element once, deterministically.  Identity included."""
        nontrivial = self._transversals()

        def rec(idx):
            if idx == len(nontrivial):
                yield IDENT[:self.degree]
                return
            for rest in rec(idx + 1):
                for u in nontrivial[idx]:
                    yield rest.translate(u)

        yield from map(tuple, rec(0))

    def _random_string(self, rng):
        """A random element, as its n-byte string."""
        g = IDENT[:self.degree]
        for us in self._transversals():
            g = g.translate(rng.choice(us))
        return g

    def random_element(self, rng):
        return tuple(self._random_string(rng))

    def reduced_generators(self):
        """A greedily thinned generating list with the same closure."""
        if self._reduced is None:
            self._reduced = _greedy_group(self.degree, self.gens,
                                          self._order).gens
        return self._reduced

    def orbit(self, x):
        return orbit(x, self.gens)

    def orbits(self):
        return orbits(self.gens, self.degree)

    def orbits_pairs(self):
        """Orbits on ordered pairs, as a frozenset of frozensets; the pair
        (x, y) is the point x*n + y."""
        if self._pair_orbits is None:
            n = self.degree
            pair_gens = [tuple(g[x] * n + g[y] for x in range(n)
                               for y in range(n)) for g in self.gens]
            self._pair_orbits = frozenset(orbits(pair_gens, n * n))
        return self._pair_orbits

    def point_stabilizer(self, x) -> "PermGroup":
        chain = self
        if not (self._base and x == self._base[0]):
            chain = PermGroup(self.degree, self.strong_generators(),
                              base_prefix=(x,))
        gens = chain._levels[1].gens if len(chain._levels) > 1 else ()
        return PermGroup(self.degree, [g[:self.degree] for g in gens])

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self._order})"


def _greedy_group(degree, perms, order) -> PermGroup:
    """The group generated by each of perms in turn that is not yet a
    member, until its order reaches order."""
    group = PermGroup(degree)
    for g in perms:
        if group.order() >= order:
            break
        if not group.contains(g):
            group._adjoin(g)
    return group


def group_of_listing(degree, perms) -> PermGroup:
    """The group whose elements are exactly perms; SRingsError if they
    are not a group."""
    group = _greedy_group(degree, perms, len(perms))
    listed = set(perms)
    if group.order() != len(perms) or \
            any(g not in listed for g in group.elements()):
        raise SRingsError(f"{len(perms)} permutations are not a group")
    return group


def from_generators(perms, degree=None) -> PermGroup:
    perms = [tuple(p) for p in perms]
    if degree is None:
        if not perms:
            raise ValueError("degree required for an empty generator list")
        degree = len(perms[0])
    return PermGroup(degree, perms)


def right_regular(spec) -> PermGroup:
    gens = [spec.translation(b) for b in spec.basis()]
    group = PermGroup(spec.order, gens)
    if group.order() != spec.order:
        raise SRingsError(
            f"the basis translations generate a group of order "
            f"{group.order()}, not the right regular group of order "
            f"{spec.order}")
    return group


def holomorph(spec) -> PermGroup:
    from .groups import aut_generators

    gens = [spec.translation(b) for b in spec.basis()]
    gens += [a.perm for a in aut_generators(spec)]
    return PermGroup(spec.order, gens)


def two_equivalent(k1: PermGroup, k2: PermGroup) -> bool:
    if k1.degree != k2.degree:
        raise ValueError("degree mismatch")
    return k1.orbits_pairs() == k2.orbits_pairs()


def _element_set(group: PermGroup):
    if group.order() > BETWEEN_ELEMENT_BUDGET:
        raise ResourceBoundExceeded("subgroup element listing",
                                    BETWEEN_ELEMENT_BUDGET, group.order())
    return frozenset(group.elements())


def subgroups_between(H: PermGroup, K: PermGroup) -> list:
    """All subgroups M with H <= M <= K, by cyclic extension."""
    return sorted(_cyclic_extensions(H, K),
                  key=lambda m: (m.order(), tuple(sorted(m.gens))))


def _cyclic_extensions(H: PermGroup, K: PermGroup):
    """Yield each subgroup M with H <= M <= K once, H first, then each
    <M, g> as it is found, breadth first: a caller may stop early."""
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    for g in H.gens:
        if not K.contains(g):
            raise ValueError("H is not contained in K")
    if K.order() % H.order():
        raise ValueError("H is not contained in K")
    index = K.order() // H.order()
    if index > BETWEEN_INDEX_BOUND:
        raise ResourceBoundExceeded("intermediate subgroup index",
                                    BETWEEN_INDEX_BOUND, index)
    k_elements = sorted(_element_set(K))
    h_set = _element_set(H)
    found = {h_set}
    frontier = [(h_set, H)]
    yield H
    for m_set, M in frontier:
        if len(m_set) == K.order():
            continue
        covered = set(m_set)
        for g in k_elements:
            if g in covered:
                continue
            # one representative per M-coset is enough
            covered.update(pmul(m, g) for m in m_set)
            M2 = PermGroup(K.degree, tuple(M.gens) + (g,))
            m2_set = _element_set(M2)
            if m2_set not in found:
                found.add(m2_set)
                frontier.append((m2_set, M2))
                yield M2


@dataclass(frozen=True)
class RegularClass:
    """One conjugacy class of regular subgroups, by a representative."""

    gens: tuple
    elements: frozenset
    is_translation_class: bool


def _fpf_search(gens, spec, p, budget, chain) -> list:
    """The fixed-point-free elements of order p of K that commute with
    P = <gens>, sorted, as tables, where chain is K's chain on P's layout
    pos (_transporter_chain on _regular_positions); with no gens, P = 1.
    The product q of a path is a table, the argument of the next step's
    translate; its inverse is only read, so it is an n-byte string.

    Such an element maps pos[k m + x] -> pos[l_k m + (y_k + x)] for each
    P-orbit k, whose points are the chain's levels k m .. k m + m - 1.
    The backtrack branches over the transversal of each orbit's base
    point, whose image under the product q so far names the arrow
    (l_k, y_k), and forces the orbit's other points through q's inverse
    and their levels.  The cycles of k -> l_k have length 1 or p: a second
    arrow into l or an open path of p arrows prunes, a fixed orbit needs a
    shift of order p, and the shifts of a p-cycle sum to 0, so each leaf
    is fixed-point-free of order p.  After each orbit, the later orbits
    whose base points the stabilizer fixes (its now list) get their arrows
    at once; they are not branched over, and with P = 1 not visited.
    Each branching orbit spends one node of budget."""
    pos = chain._base
    forward = [lvl.transversal for lvl in chain._levels]
    inverse = [lvl.inverse for lvl in chain._levels] if gens else None
    n, m = len(pos), math.prod(spec.radices[:len(gens)])
    t = n // m
    # arrow[pos[k m + y]] = (k, y)
    arrow = [divmod(i, m) for i in sorted(range(n), key=pos.__getitem__)]
    add, neg = spec.add_table(), spec.neg_table()
    of_order_p = {y for y in range(1, m) if not spec.scale(p, y)}
    img, pre, shift = [-1] * t, [-1] * t, [0] * t
    steps, settled = [], set()
    for k in range(t):
        if gens or k not in settled:
            below = chain._levels[(k + 1) * m].gens if k + 1 < t else ()
            now = [j for j in range(k + 1, t) if j not in settled
                   and all(g[pos[j * m]] == pos[j * m] for g in below)]
            steps.append((k, k * m, forward[k * m], now))
            settled.update(now)
    others = range(1, m)
    out = []

    def admissible(k, l, y):
        """Whether the arrow k -> l with shift y keeps the orbit map
        extendable; k has no image yet."""
        if pre[l] >= 0:
            return False
        if l == k:
            return y in of_order_p
        arrows = 1
        while img[l] >= 0:
            y, l, arrows = add[y][shift[l]], img[l], arrows + 1
        if l == k:
            return arrows == p and y == 0
        while pre[k] >= 0:
            k, arrows = pre[k], arrows + 1
        return arrows < p

    def rec(s, q, qinv):
        if s == len(steps):
            out.append(q)
            return
        k, base, level, now = steps[s]
        placed = img[k]
        if placed >= 0:  # by a now list: lifted, to be placed again below
            img[k] = pre[placed] = -1
        else:
            budget.spend()
        branches = level.items()
        if pre[k] >= 0:  # k ends a path, which with p - 1 arrows it closes
            z, total, arrows = k, 0, 1
            while pre[z] >= 0:
                z, arrows = pre[z], arrows + 1
                total = add[total][shift[z]]
            if arrows == p:
                x = q.index(pos[z * m + neg[total]])
                branches = [(x, level[x])] if x in level else ()
        for x, u in branches:
            l, y = arrow[q[x]]
            if not admissible(k, l, y):
                continue
            img[k], pre[l], shift[k] = l, k, y
            q2 = u.translate(q)
            qinv2 = qinv and qinv.translate(inverse[base][x])
            for j in others:
                z = qinv2[pos[l * m + add[y][j]]]
                if z != pos[base + j]:
                    if z not in forward[base + j]:
                        break
                    q2 = forward[base + j][z].translate(q2)
                    qinv2 = qinv2.translate(inverse[base + j][z])
            else:
                done = []
                for j in now:
                    l2, y2 = arrow[q2[pos[j * m]]]
                    if not admissible(j, l2, y2):
                        break
                    img[j], pre[l2], shift[j] = l2, j, y2
                    done.append(j)
                else:
                    rec(s + 1, q2, qinv2)
                for j in done:
                    pre[img[j]] = -1
                    img[j] = -1
            img[k] = pre[l] = -1
        if placed >= 0:
            img[k], pre[placed] = placed, k

    # q is carried with its inverse only when orbits have other points
    rec(0, IDENT, IDENT[:n] if gens else None)
    out.sort()
    return out


def regular_subgroups(K: PermGroup, spec, bounds=DEFAULT_BOUNDS) -> list:
    """Regular subgroups of K of the same abstract type as the group spec,
    one representative per K-conjugacy class, with the class of the
    translations flagged.

    Two K answer at once with the translations T alone: the symmetric
    group, in which all regular subgroups of one abstract type are
    conjugate, and K of order n, which is T itself.  Any other K is
    searched (_search_classes)."""
    n = K.degree
    if n != spec.order:
        raise ValueError("degree does not match the group order")
    translations = [spec.translation(b) for b in spec.basis()]
    for t in translations:
        if not K.contains(t):
            raise ValueError("K does not contain the right translations")
    if K.is_symmetric() or K.order() == n:
        t_set = frozenset(map(spec.translation, spec.elements()))
        return [RegularClass(tuple(translations), t_set, True)]
    return _search_classes(K, spec, bounds)


def _search_classes(K: PermGroup, spec, bounds) -> list:
    """The classes of regular_subgroups, searched level by level.

    Builds commuting generator tuples (one batch of generators of order p
    per prime factor) level by level: each level extends the subgroups
    kept by the last one by fixed-point-free prime-order elements of K
    (_extend_semiregular), found without listing K by one chain search
    (_fpf_search), and keeps one subgroup per K-conjugacy class
    (_class_reps).  A level's record of a subgroup is (sorted element
    tuple, generators in coordinate order, (prime, pool), bucket entry).
    A subgroup that lies in no regular one may be dropped unextended.
    Each class is represented by its least element tuple, with the
    generators first found for it.  All searches share one
    backtrack_node_budget and one table of Stab_K(0)'s orbits.  The search
    runs on tables, built once from K's chain, so the degree is at most
    256; the classes it returns hold tuples.
    """
    n = K.degree
    budget = _Budget(bounds.backtrack_node_budget)
    least = _stabilizer_orbit_minima(K)
    reps = [((IDENT,), (), None, [range(n), None])]
    for prime in spec.radices:
        found = _extend_semiregular(reps, K, spec, prime, least, budget)
        reps = _class_reps(found, K, spec, least, budget)
    # the translations t_x: 0 -> x put point x at position x
    t_chain = _transporter_chain(K, range(n))
    out = []
    for key, gens, _pool, entry in reps:
        if len(orbit(0, gens)) != n or len(key) != n:
            raise SRingsError("each representative is regular")
        out.append(RegularClass(
            tuple(tuple(g[:n]) for g in gens),
            frozenset(tuple(h[:n]) for h in key),
            _transporter_exists(t_chain, entry[0], spec, budget)))
    if sum(c.is_translation_class for c in out) != 1:
        raise SRingsError("exactly one translation class")
    return out


def _extend_semiregular(reps, K, spec, prime, least, budget) -> dict:
    """Every semiregular subgroup <gens, r>, for (key, gens, pool, bucket
    entry) in reps and r in K fixed-point-free of order prime, commuting
    with gens and outside the subgroup, keyed by sorted element tuple, as
    (gens + (r,), (prime, the r that commute with gens)); the first gens
    found for a key are kept.  The r of the pool's own prime are filtered
    from it by the last generator (cheaper than a chain search); otherwise
    they come from _fpf_search on the entry's chain, built here unless
    _class_reps built it.

    An r commuting with P = <gens> permutes P's orbits, and <P, r> is
    semiregular of order p|P| exactly when r fixes none: if r fixes an
    orbit O, r|O centralizes the regular abelian P|O, so r|O = h|O for an
    h in P, and h^-1 r is trivial or has a fixed point.  Then the cosets
    P r^i are disjoint.

    With no gens (level 1) the orbits are points, which no r fixes, and
    only the r with r[0] least in its Stab_K(0)-orbit (least[r[0]] ==
    r[0]) get a key, though the whole pool is carried: conjugating by h in
    Stab_K(0) sends r[0] to h(r[0]), so the least key of each K-class of
    <r>, whose first generator is its least element, is among them, with
    that generator.

    Keys, generators and pools hold tables; the commuting and fixed-orbit
    tests read the n-byte strings r[:n].

    From level 2 on, P is dropped unless the extending r send 0 into at
    least p^later - 1 P-orbits, later counting this prime's coordinates not
    yet placed, the current one included.  For if P lies in a regular
    R ~ G, each r in R_p \\ P_p is fixed-point-free of order p, commutes
    with P and lies outside P, so it is in the pool; it fixes no P-orbit,
    or h^-1 r in R would fix a point for some h in P; and R being regular,
    the p^later - 1 cosets P r != P send 0 into distinct P-orbits.  So the
    subgroups that lie in a regular one are built from the same reps, in
    the same order, as without the test, and a K-class holds only such
    subgroups or none.  An r in <P, r'> \\ P for an r' already extended
    from P gives <P, r'> again, so it is skipped."""
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
            # P's orbits are the blocks of |P| points of the layout
            # entry[0], each led by its least point: r fixes the P-orbit
            # led by x iff lab[r[x]] == x.  P has at least two orbits, so
            # at_lows gives a tuple
            pos, m = entry[0], len(key)
            lows = pos[::m]
            lab = bytes.maketrans(bytes(pos),
                                  bytes(x for x in lows for _ in range(m)))
            at_lows = itemgetter(*lows)
            extending = [r for r in pool if not any(
                map(eq, at_lows(r[:n].translate(lab)), lows))]
            later = spec.radices[len(gens):].count(prime)
            if len({lab[r[0]] for r in extending}) < prime ** later - 1:
                continue
        covered = set()
        for r in extending:
            if r in covered:
                continue
            elements = list(key)
            rp = r
            for _ in range(prime - 1):
                elements += [h.translate(rp) for h in key]
                rp = rp.translate(r)
            covered.update(elements)
            elements.sort()
            new.setdefault(tuple(elements), (gens + (r,), (prime, pool)))
    return new


def _class_reps(found: dict, K: PermGroup, spec, least, budget) -> list:
    """One record (key, gens, pool, bucket entry) per K-conjugacy class of
    the keys of found, taken at the least key of the class, in key order,
    where found[key] is (gens, pool) and the bucket entry is [positions,
    K's chain on them (_transporter_chain)], the chain built on first use,
    by the transporter or by the next level's _fpf_search.

    Keys that a generator of K conjugates onto each other are merged
    first (_merged_roots, which conjugates n-byte strings; the keys kept
    hold tables).  Then each merged set's least key is kept only if the
    transporter finds it K-conjugate to no kept one within its bucket of a
    K-invariant: over h in the subgroup, the multisets of K's pair orbits
    of the pairs (x, x^h).  K holds the translations, so the pair (x, z)
    lies in the K-orbit of (0, z - x): K's pair orbits are the
    Stab_K(0)-orbits of z - x, named by their least point (least)."""
    add, neg = spec.add_table(), spec.neg_table()
    # color[x][z]: the pair orbit of (x, z)
    color = [[least[add[z][neg[x]]] for z in range(K.degree)]
             for x in range(K.degree)]
    buckets = {}
    reps = []
    for key in _merged_roots(found, K):
        gens, pool = found[key]
        pos = _regular_positions(gens, spec)
        invariant = tuple(sorted(tuple(sorted(map(getitem, color, h)))
                                 for h in key))
        bucket = buckets.setdefault(invariant, [])
        for kept in bucket:
            if kept[1] is None:  # a kept subgroup's chain, built on first use
                kept[1] = _transporter_chain(K, kept[0])
            if _transporter_exists(kept[1], pos, spec, budget, len(gens)):
                break
        else:
            bucket.append([pos, None])
            reps.append((key, gens, pool, bucket[-1]))
    return reps


def _merged_roots(found, K: PermGroup) -> list:
    """The least key of each set of keys of found that the generators of K
    conjugate onto each other, in key order.  The keys are sorted tuples of
    tables, the identity first; an image of a key is conjugated as n-byte
    strings and looked up by the keys' strings."""
    n = K.degree
    conj = [(c, bytes.maketrans(c, IDENT)[:n])
            for c in map(_table, K.reduced_generators())]
    by_strings = {tuple(h[:n] for h in key): key for key in found}
    ident = IDENT[:n]
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
                image = by_strings.get((ident,) + tuple(sorted(
                    [cinv.translate(h).translate(c) for h in k0[1:]])))
                if image is not None and image not in seen:
                    seen.add(image)
                    frontier.append(image)
    return roots


def _stabilizer_orbit_minima(K: PermGroup) -> list:
    """least[x]: the least point of x's orbit under Stab_K(0), which level 1
    of K's chain generates when the base starts at 0."""
    if K._base[0] == 0 and K.degree > 1:
        stabilizer = K._levels[1].gens
    else:
        stabilizer = K.point_stabilizer(0).gens
    return _orbit_minima(stabilizer, K.degree)


def _orbit_minima(gens, n) -> list:
    """least[x]: the least point of x's orbit under gens."""
    least = list(range(n))
    for orb in orbits(gens, n):
        low = min(orb)
        for x in orb:
            least[x] = low
    return least


def _regular_positions(gens, spec) -> list:
    """pos[k m + x] = c_k^(r_1^x_1 ... r_j^x_j), x_i the coordinates of x,
    for generators r_i of the orders of G's first j coordinates that
    generate a semiregular group P of order m, and c_k the least point of
    the k-th P-orbit in order of least points: a bijection from t = n/m
    copies of C_(radices[:j]) onto the points."""
    pos, seen = [], set()
    for c in range(spec.order):
        if c not in seen:
            orb = [c]
            for r, p in zip(gens, spec.radices):
                w = len(orb)
                for _ in range(p - 1):
                    orb += [r[y] for y in orb[-w:]]
            seen.update(orb)
            pos += orb
    return pos


def _transporter_chain(K: PermGroup, pos) -> PermGroup:
    """K's stabilizer chain on the base pos: K itself if pos is its base.

    Otherwise seeded random elements of K are sifted, and each residue
    joins the generators of its level and those above, until the orbits
    multiply to |K|: each lies in the true one, so each is whole."""
    chain = K
    if K._base != tuple(pos):
        chain = PermGroup(K.degree, base_prefix=pos)
        rng = random.Random(0)
        while math.prod(len(lvl.transversal)
                        for lvl in chain._levels) < K.order():
            h = chain._sift(K._random_string(rng))
            if h is not None:
                for lvl in chain._levels[:chain._depth(h) + 1]:
                    lvl.gens.append(h)
                    lvl.close_orbit()
    return chain


def _transporter_exists(chain, pos, spec, budget, rank=None) -> bool:
    """Whether K holds a map pos1[k m + x] -> pos[l_k m + (y_k + A x)], where
    chain is K's chain on the base pos1 (_transporter_chain), pos1 and pos
    lay out semiregular groups P and Q of order m generated by rank
    generators (all of G's coordinates by default; _regular_positions), A
    is an automorphism of C_(radices[:rank]), the l_k are distinct Q-orbits
    and y_0 = 0: that is, whether P and Q are K-conjugate.  Composing a
    conjugator with an element of Q moves the image of pos1[0] anywhere in
    its Q-orbit, which is why y_0 = 0 may be fixed.

    Branches on l_0, then on A's images of the basis vectors, as
    least_labeling does (fixing the first j of them fixes A below
    weights[j]), then on (l_k, y_k) for each later P-orbit.  Each point
    fixed is sifted through the chain, and a map that does not sift
    prunes the branch; a map that is not injective never sifts.  The
    sifted maps are only read, so they are n-byte strings."""
    inverse = [lvl.inverse for lvl in chain._levels]
    candidates, weights = spec.basis_image_candidates()
    rank = len(candidates) if rank is None else rank
    m = weights[rank]
    t = len(pos) // m
    add = spec.add_table()
    img = [0] * m  # A x
    free = [True] * t  # the Q-orbits not yet images

    def sift(h, base, start, y, xs):
        # h sifted on by pos1[base + x] -> pos[start + y + A x], x in xs
        row = add[y]
        for x in xs:
            z = h[pos[start + row[img[x]]]]
            level = inverse[base + x]
            if z not in level:
                return None
            h = h.translate(level[z])
        return h

    def rec(ci, start, h):
        budget.spend()
        if ci < rank:
            lo, hi = weights[ci], weights[ci + 1]
            for v in candidates[ci]:
                if v >= m:  # outside C_(radices[:rank]); the rest are too
                    break
                for x in range(lo, hi):
                    img[x] = add[img[x - lo]][v]
                h2 = sift(h, 0, start, 0, range(lo, hi))
                if h2 is not None and rec(ci + 1, start, h2):
                    return True
            return False
        k = ci - rank + 1  # the P-orbit placed next
        if k == t:
            return True
        for l in range(t):
            if free[l]:
                free[l] = False
                for y in range(m):
                    h2 = sift(h, k * m, l * m, y, range(m))
                    if h2 is not None and rec(ci + 1, start, h2):
                        return True
                free[l] = True
        return False

    ident = IDENT[:len(pos)]
    for l in range(t):
        h = sift(ident, 0, l * m, 0, (0,))
        if h is not None:
            free[l] = False
            if rec(0, l * m, h):
                return True
            free[l] = True
    return False

