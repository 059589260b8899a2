"""Permutation groups on the element set of a group spec.

Permutations are image tuples acting on the right: the image of x under g
is g[x], and pmul(a, b) applies a first, then b.  PermGroup keeps a
deterministic stabilizer chain whose base is always the full point set in
a fixed order, so prefix stabilizers come straight off the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_BOUNDS
from .errors import ResourceBoundExceeded


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
        gens = self._levels[0].gens if self._levels else []
        seen = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = g[y]
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
        return frozenset(seen)

    def orbits(self):
        remaining = set(range(self.degree))
        out = []
        while remaining:
            x = min(remaining)
            orb = self.orbit(x)
            out.append(orb)
            remaining -= orb
        return out

    def orbits_pairs(self, bounds=DEFAULT_BOUNDS):
        """Orbits on ordered pairs, as a frozenset of frozensets."""
        if self._pair_orbits is not None:
            return self._pair_orbits
        n = self.degree
        gens = self._levels[0].gens if self._levels else []
        seen = [False] * (n * n)
        orbits = []
        for start in range(n * n):
            if seen[start]:
                continue
            seen[start] = True
            orb = [start]
            frontier = [start]
            while frontier:
                pair = frontier.pop()
                x, y = divmod(pair, n)
                for g in gens:
                    q = g[x] * n + g[y]
                    if not seen[q]:
                        seen[q] = True
                        orb.append(q)
                        frontier.append(q)
            orbits.append(frozenset(orb))
        self._pair_orbits = frozenset(orbits)
        return self._pair_orbits

    def point_stabilizer(self, x) -> "PermGroup":
        if self._base and x == self._base[0]:
            gens = self._levels[1].gens if len(self._levels) > 1 else ()
            return PermGroup(self.degree, gens)
        chain = PermGroup(self.degree, self.strong_generators(),
                          base_prefix=(x,))
        gens = chain._levels[1].gens if len(chain._levels) > 1 else ()
        return PermGroup(self.degree, gens)

    def prefix_stabilizer(self, k) -> "PermGroup":
        """Pointwise stabilizer of 0..k-1 (requires the natural base)."""
        if self._base[:k] != tuple(range(k)):
            raise ValueError("chain was not built with the natural base")
        if k >= len(self._levels):
            return PermGroup(self.degree)
        return PermGroup(self.degree, self._levels[k].gens)

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
    assert group.order() == spec.order
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


def _commutes(a, b):
    for i in range(len(a)):
        if a[b[i]] != b[a[i]]:
            return False
    return True


def regular_subgroups(K: PermGroup, spec, bounds=DEFAULT_BOUNDS) -> list:
    """Regular subgroups of K of the same abstract type as the group spec,
    one representative per K-conjugacy class.

    Builds commuting generator tuples (one batch of generators of order p
    per prime factor) from the fixed-point-free prime-order elements of K,
    pruning partial tuples up to K-conjugacy of the generated subgroup.
    """
    n = K.degree
    if n != spec.order:
        raise ValueError("degree does not match the group order")
    translations = [spec.translation(b) for b in spec.basis()]
    for t in translations:
        if not K.contains(t):
            raise ValueError("K does not contain the right translations")
    t_set = frozenset(PermGroup(n, translations).elements())
    if K.is_symmetric():
        # all regular subgroups of a fixed abstract type are conjugate in
        # the full symmetric group
        return [RegularClass(tuple(translations), t_set, True)]
    if K.order() > bounds.regular_element_budget:
        raise ResourceBoundExceeded("regular subgroup search",
                                    bounds.regular_element_budget, K.order())

    cands = {p: [] for p, _ in spec.factors}
    for g in K.elements():
        if is_identity(g):
            continue
        for p in cands:
            if _prime_order_fpf(g, p):
                cands[p].append(g)
                break
    for p in cands:
        cands[p].sort()

    ident = identity_perm(n)
    conj_pairs = [(c, pinv(c)) for c in K.reduced_generators()]
    reps = [(frozenset([ident]), ())]
    sequence = [p for p, rank in spec.factors for _ in range(rank)]
    for prime in sequence:
        new = {}
        for elset, gens in reps:
            for r in cands[prime]:
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
                                e2[i] == i for i in range(n)):
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
        reps = _conjugacy_reps(new, conj_pairs, bounds)
    out = []
    for elset, gens in reps:
        orbit0 = PermGroup(n, gens).orbit(0)
        assert len(orbit0) == n and len(elset) == spec.order
        flagged = _orbit_contains(elset, conj_pairs, t_set, bounds)
        out.append(RegularClass(gens, elset, flagged))
    flagged = [c for c in out if c.is_translation_class]
    assert len(flagged) == 1, "translation class must appear exactly once"
    return out


def _conjugate_key(key, c, cinv):
    """Image of a sorted element tuple under conjugation by c."""
    return tuple(sorted(pmul(pmul(cinv, h), c) for h in key))


def _conjugacy_reps(subgroups: dict, conj_pairs, bounds):
    """One representative per conjugation orbit of the given subgroups."""
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


def _orbit_contains(elset, conj_pairs, target_set, bounds):
    """Whether the conjugation orbit of elset reaches target_set."""
    target = tuple(sorted(target_set))
    key0 = tuple(sorted(elset))
    if key0 == target:
        return True
    orbit = {key0}
    frontier = [key0]
    budget = bounds.regular_element_budget
    while frontier:
        k0 = frontier.pop()
        for c, cinv in conj_pairs:
            k1 = _conjugate_key(k0, c, cinv)
            if k1 == target:
                return True
            if k1 not in orbit:
                if len(orbit) > budget:
                    raise ResourceBoundExceeded(
                        "conjugacy orbit of subgroups", budget,
                        len(orbit) + 1)
                orbit.add(k1)
                frontier.append(k1)
    return False
