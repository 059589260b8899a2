"""Permutation groups on the element set of a group spec.

Permutations are image tuples acting on the right: the image of x under g
is g[x], and pmul(a, b) applies a first, then b.  PermGroup keeps a
deterministic stabilizer chain whose base is always the full point set in
a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_BOUNDS, _Budget
from .errors import ResourceBoundExceeded, SRingsError


def pmul(a, b):
    """Compose: apply a, then b.  None stands for the identity."""
    if a is None:
        return b
    if b is None:
        return a
    return tuple(b[x] for x in a)


def pinv(a):
    if a is None:
        return None
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def identity_perm(n):
    return tuple(range(n))


def is_identity(p):
    return p is None or all(i == j for i, j in enumerate(p))


def orbit(x, gens):
    """The orbit of the point x under the group generated by gens."""
    seen = {x}
    frontier = [x]
    for y in frontier:
        for g in gens:
            z = g[y]
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
    __slots__ = ("point", "gens", "transversal", "pairs_done")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {point: None}
        self.pairs_done = set()


class PermGroup:
    """Immutable permutation group with a full-base stabilizer chain."""

    def __init__(self, degree, gens=(), base_prefix=()):
        self.degree = int(degree)
        seen_prefix = set(base_prefix)
        base = list(base_prefix) + [x for x in range(degree)
                                    if x not in seen_prefix]
        self._base = tuple(base)
        self._levels = [_Level(b) for b in base]
        clean = []
        seen = set()
        for g in gens:
            g = tuple(g)
            if len(g) != self.degree:
                raise ValueError(
                    f"degree mismatch: permutation of length {len(g)} in a "
                    f"group of degree {self.degree}")
            if not is_identity(g) and g not in seen:
                seen.add(g)
                clean.append(g)
        self.gens = tuple(clean)
        for g in self.gens:
            self._insert(g)
        order = 1
        for lvl in self._levels:
            order *= len(lvl.transversal)
        self._order = order
        self._pair_orbits = None
        self._reduced = None

    # -- chain construction ------------------------------------------------

    def _sift(self, g):
        for lvl in self._levels:
            if g is None:
                return None
            x = g[lvl.point]
            if x == lvl.point:
                continue
            u = lvl.transversal.get(x)
            if u is None:
                return g
            g = pmul(g, pinv(u))
        return None if is_identity(g) else g

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
        lvl = self._levels[i]
        if not lvl.gens:
            return []
        changed = True
        while changed:
            changed = False
            for x in sorted(lvl.transversal):
                ux = lvl.transversal[x]
                for g in lvl.gens:
                    y = g[x]
                    if y not in lvl.transversal:
                        lvl.transversal[y] = pmul(ux, g)
                        changed = True
        out = []
        for x in sorted(lvl.transversal):
            ux = lvl.transversal[x]
            for gi, g in enumerate(lvl.gens):
                if (x, gi) in lvl.pairs_done:
                    continue
                lvl.pairs_done.add((x, gi))
                y = g[x]
                s = pmul(pmul(ux, g), pinv(lvl.transversal[y]))
                if not is_identity(s):
                    out.append(s)
        return out

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        return self._order

    def contains(self, g) -> bool:
        g = tuple(g)
        if len(g) != self.degree:
            return False
        return self._sift(g) is None

    def is_symmetric(self) -> bool:
        return self._order == math.factorial(self.degree)

    def strong_generators(self):
        return tuple(self._levels[0].gens) if self._levels else ()

    def elements(self):
        """Yield every element once, deterministically.  Identity included."""
        nontrivial = [lvl for lvl in self._levels if len(lvl.transversal) > 1]

        def rec(idx):
            if idx == len(nontrivial):
                yield None
                return
            lvl = nontrivial[idx]
            keys = sorted(lvl.transversal)
            for rest in rec(idx + 1):
                for x in keys:
                    yield pmul(rest, lvl.transversal[x])

        ident = identity_perm(self.degree)
        for g in rec(0):
            yield ident if g is None else g

    def random_element(self, rng):
        g = None
        for lvl in self._levels:
            if len(lvl.transversal) > 1:
                x = rng.choice(sorted(lvl.transversal))
                g = pmul(g, lvl.transversal[x])
        return identity_perm(self.degree) if g is None else g

    def reduced_generators(self):
        """A greedily thinned generating list with the same closure."""
        if self._reduced is None:
            chosen = []
            group = PermGroup(self.degree)
            for g in self.gens:
                if not group.contains(g):
                    chosen.append(g)
                    group = PermGroup(self.degree, chosen)
                    if group.order() == self._order:
                        break
            self._reduced = tuple(chosen)
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
        if self._base and x == self._base[0]:
            gens = self._levels[1].gens if len(self._levels) > 1 else ()
            return PermGroup(self.degree, gens)
        chain = PermGroup(self.degree, self.strong_generators(),
                          base_prefix=(x,))
        gens = chain._levels[1].gens if len(chain._levels) > 1 else ()
        return PermGroup(self.degree, gens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self._order})"


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


def _element_set(group: PermGroup, budget):
    if group.order() > budget:
        raise ResourceBoundExceeded("subgroup element listing", budget,
                                    group.order())
    return frozenset(group.elements())


def subgroups_between(H: PermGroup, K: PermGroup,
                      bounds=DEFAULT_BOUNDS) -> list:
    """All subgroups M with H <= M <= K, by cyclic extension."""
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    for g in H.gens:
        if not K.contains(g):
            raise ValueError("H is not contained in K")
    if K.order() % H.order():
        raise ValueError("H is not contained in K")
    index = K.order() // H.order()
    if index > bounds.between_index_bound:
        raise ResourceBoundExceeded("intermediate subgroup index",
                                    bounds.between_index_bound, index)
    k_elements = sorted(_element_set(K, bounds.between_element_budget))
    h_set = _element_set(H, bounds.between_element_budget)
    found = {h_set: H}
    frontier = [(h_set, H)]
    while frontier:
        m_set, M = frontier.pop(0)
        if len(m_set) == K.order():
            continue
        covered = set(m_set)
        for g in k_elements:
            if g in covered:
                continue
            # one representative per M-coset is enough
            covered.update(pmul(m, g) for m in m_set)
            M2 = PermGroup(K.degree, tuple(M.gens) + (g,))
            m2_set = _element_set(M2, bounds.between_element_budget)
            if m2_set not in found:
                found[m2_set] = M2
                frontier.append((m2_set, M2))
    return sorted(found.values(),
                  key=lambda m: (m.order(), tuple(sorted(m.gens))))


@dataclass(frozen=True)
class RegularClass:
    """One conjugacy class of regular subgroups, by a representative."""

    gens: tuple
    elements: frozenset
    is_translation_class: bool


def _prime_order_fpf(g, p):
    """True if g has order exactly p and no fixed point (all cycles length p)."""
    n = len(g)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 1
        x = g[start]
        seen[start] = True
        while x != start:
            seen[x] = True
            x = g[x]
            length += 1
        if length != p:
            return False
    return True


def _fpf_elements(K: PermGroup, p) -> list:
    """The fixed-point-free elements of order p of K, sorted.

    A backtrack over K's stabilizer chain, without listing K.  Choosing
    x_0..x_i at the nontrivial levels 0..i leaves the elements
    h u_(x_i) ... u_(x_0), h in the stabilizer K_(i+1) of the first base
    points; they all agree with q = u_(x_i) ... u_(x_0) on every point
    K_(i+1) fixes.  The branch is pruned when that partial map has a fixed
    point, a closed cycle whose length is not p, or an open path of p or
    more arrows.  The base point's image is tested before q is composed;
    each leaf is tested exactly by _prime_order_fpf."""
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
        levels.append((lvl.point, sorted(lvl.transversal.items()), now))
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
        if i == len(levels):
            if _prime_order_fpf(q, p):
                out.append(q)
            return
        b, transversal, now = levels[i]
        for x, u in transversal:
            y = x if q is None else q[x]
            if not admissible(b, y):
                continue
            img[b], pre[y] = y, b
            q2 = pmul(u, q)
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

    rec(0, None)
    out.sort()
    return out


def _commutes(a, b):
    for i in range(len(a)):
        if a[b[i]] != b[a[i]]:
            return False
    return True


def regular_subgroups(K: PermGroup, spec, bounds=DEFAULT_BOUNDS) -> list:
    """Regular subgroups of K of the same abstract type as the group spec,
    one representative per K-conjugacy class, with the class of the
    translations flagged.

    Builds commuting generator tuples (one batch of generators of order p
    per prime factor) from the fixed-point-free prime-order elements of K,
    pruning partial tuples up to K-conjugacy of the generated subgroup.
    Those elements are found by a backtrack over K's stabilizer chain
    (_fpf_elements), which never lists K; the regular_element_budget bound
    on |K| still applies.
    The regular subgroups this reaches are split into classes by a
    transporter search: every bijection conjugating R = <r_1..r_k> onto
    S = <s_1..s_k> is 0^(r^x) -> 0^(s^(Ax)) for an automorphism A of G,
    times an element of R, so R and S are K-conjugate exactly when one of
    these maps lies in K.  Each class is represented by its least sorted
    element tuple, with the generators first found for it.
    """
    n = K.degree
    if n != spec.order:
        raise ValueError("degree does not match the group order")
    translations = [spec.translation(b) for b in spec.basis()]
    for t in translations:
        if not K.contains(t):
            raise ValueError("K does not contain the right translations")
    if K.is_symmetric():
        # all regular subgroups of a fixed abstract type are conjugate in
        # the full symmetric group
        t_set = frozenset(PermGroup(n, translations).elements())
        return [RegularClass(tuple(translations), t_set, True)]
    if K.order() > bounds.regular_element_budget:
        raise ResourceBoundExceeded("regular subgroup search",
                                    bounds.regular_element_budget, K.order())

    found = _regular_extensions(K, spec, bounds)
    budget = _Budget(bounds.backtrack_node_budget)
    reps = []
    for key in sorted(found):
        elset, gens = found[key]
        pos = _regular_positions(gens, spec)
        if any(_transporter_exists(chain, pos, spec, budget)
               for _elset, _gens, chain in reps):
            continue
        if len(orbit(0, gens)) != n or len(elset) != n:
            raise SRingsError("each representative is regular")
        reps.append((elset, gens, _transporter_chain(K, pos)))
    # the translations t_x: 0 -> x put point x at position x
    t_pos = range(n)
    out = [RegularClass(gens, elset,
                        _transporter_exists(chain, t_pos, spec, budget))
           for elset, gens, chain in reps]
    if sum(c.is_translation_class for c in out) != 1:
        raise SRingsError("exactly one translation class")
    return out


def _regular_extensions(K: PermGroup, spec, bounds) -> dict:
    """The regular subgroups of K of the abstract type of G that the
    generator search reaches, keyed by sorted element tuple, as (element
    set, generators in coordinate order).  Every K-conjugacy class of them
    is reached.

    The candidate generators of each prime p are the fixed-point-free
    elements of order p of K, found by _fpf_elements; each semiregular
    level but the last keeps one subgroup per K-conjugation orbit."""
    n = K.degree
    cands = {p: _fpf_elements(K, p) for p, _ in spec.factors}
    conj_pairs = [(c, pinv(c)) for c in K.reduced_generators()]
    reps = [(frozenset([identity_perm(n)]), ())]
    *inner, last = spec.radices
    for prime in inner:
        reps = _conjugacy_reps(_extend_semiregular(reps, cands[prime], prime),
                               conj_pairs, bounds)
    return _extend_semiregular(reps, cands[last], last)


def _extend_semiregular(reps, cands, prime) -> dict:
    """Every semiregular subgroup <gens, r>, for (element set, gens) in
    reps and r in cands of order prime commuting with gens and outside the
    subgroup, keyed by sorted element tuple; the first gens found for a
    key are kept."""
    new = {}
    for elset, gens in reps:
        for r in cands:
            if any(not _commutes(r, h) for h in gens) or r in elset:
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


def _conjugate_key(key, c, cinv):
    """Image of a sorted element tuple under conjugation by c."""
    return tuple(sorted(pmul(pmul(cinv, h), c) for h in key))


def _conjugacy_reps(subgroups: dict, conj_pairs, bounds) -> list:
    """One value of subgroups per conjugation orbit of its keys, taken at
    the least key of the orbit that subgroups holds."""
    seen = set()
    reps = []
    budget = bounds.regular_element_budget
    for key in sorted(subgroups):
        if key in seen:
            continue
        orbit = {key}
        frontier = [key]
        while frontier:
            k0 = frontier.pop()
            for c, cinv in conj_pairs:
                k1 = _conjugate_key(k0, c, cinv)
                if k1 not in orbit:
                    if len(orbit) > budget:
                        raise ResourceBoundExceeded(
                            "conjugacy orbit of subgroups", budget,
                            len(orbit) + 1)
                    orbit.add(k1)
                    frontier.append(k1)
        seen |= orbit
        reps.append(subgroups[key])
    return reps


def _regular_positions(gens, spec) -> list:
    """pos[x] = 0^(r_1^x_1 ... r_k^x_k), x_i the coordinates of x, for
    generators r_i of the orders of G's coordinates: a bijection from G
    onto the points when they generate a regular group."""
    pos = [0]
    for r, p in zip(gens, spec.radices):
        w = len(pos)
        for x in range(w, p * w):
            pos.append(r[pos[x - w]])
    return pos


def _transporter_chain(K: PermGroup, pos) -> list:
    """K's stabilizer chain on the base pos, one map per base point from
    each point of its transversal to the inverse transversal element."""
    chain = PermGroup(K.degree, K.strong_generators(), base_prefix=pos)
    return [{x: pinv(u) for x, u in lvl.transversal.items()}
            for lvl in chain._levels]


def _transporter_exists(chain, pos, spec, budget) -> bool:
    """Whether K holds a map pos1[x] -> pos[A x] for some automorphism A of
    G, where chain is K's chain on the base pos1 (_transporter_chain).

    Branches on A's images of the basis vectors, as least_labeling does:
    fixing the first j of them fixes the map on the base points below
    weights[j], and a prefix that does not sift through the chain prunes
    the branch.  A map that is not injective never sifts."""
    candidates, weights = spec.basis_image_candidates()
    add = spec.add_table()
    img = [0] * spec.order

    def rec(ci, residue):
        budget.spend()
        if ci == len(candidates):
            return True
        lo, hi = weights[ci], weights[ci + 1]
        for v in candidates[ci]:
            h = residue
            for x in range(lo, hi):
                y = add[img[x - lo]][v]
                img[x] = y
                z = pos[y] if h is None else h[pos[y]]
                level = chain[x]
                if z not in level:
                    break
                h = pmul(h, level[z])
            else:
                if rec(ci + 1, h):
                    return True
        return False

    return rec(0, None)
