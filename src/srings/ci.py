"""The CI decision procedure and the constructive certificate machinery.

A ring over G is CI when every isomorphism onto a ring over the same group
is the composition of a scheme automorphism and a group automorphism.
Decision strategy, in order: the thin-radical path, the paper's
section-factorization condition over each wreath section with CI
factors, and the regular-subgroup criterion on the full automorphism
group.  An overrun of that criterion's budget is an Undecided verdict.
Filtering all of Sym(G) (is_ci_bruteforce, for tiny groups) is an
independent check, not part of the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import BRUTEFORCE_ORDER, DEFAULT_BOUNDS, _Budget
from .errors import (PreconditionFailed, ResourceBoundExceeded,
                     SectionNotPreserved, SRingsError)
from .groups import (GroupAut, Section, all_auts, aut_order, cell_maps,
                     complement)
from .morphisms import (cayley_auts, induced_algebraic, restrict_perm,
                        scheme_aut)
from .permgrp import PermGroup, pinv, pmul, regular_subgroups
from .sring import SRing, radical, validate_partition
from .construct import (decompositions, is_wreath_for, quotient, sring_image,
                        wreath_parts)

@dataclass
class CIStatus:
    verdict: str  # "CI" | "NotCI" | "Undecided"
    method: str | None = None
    witness: object = None
    resource: dict | None = None

    def __post_init__(self):
        if self.verdict == "NotCI" and self.witness is None:
            raise ValueError("NotCI needs a witness")
        if self.verdict == "Undecided" and self.resource is None:
            raise ValueError("Undecided needs a resource record")

    @property
    def is_ci(self):
        return self.verdict == "CI"


def iso_membership(f, a: SRing, bounds=DEFAULT_BOUNDS) -> bool:
    """Whether f maps the ring onto a ring over the same group.

    Equivalent to the image pair coloring being translation invariant:
    f t f^-1 must be a scheme automorphism for every translation t.
    """
    spec = a.spec
    if len(f) != spec.order:
        raise ValueError("degree mismatch")
    aut = scheme_aut(a, bounds)
    finv = pinv(f)
    for b in spec.basis():
        t = spec.translation(b)
        if not aut.contains(pmul(pmul(f, t), finv)):
            return False
    return True


def image_sring(a: SRing, f) -> SRing:
    """The ring f maps a onto; f must pass iso_membership.

    Cell through x: all differences f(x+g) - f(g).
    """
    spec = a.spec
    add = spec.add_table()
    neg = spec.neg_table()
    n = spec.order
    cells = set()
    for cell in a.cells:
        image = set()
        for x in cell:
            row = add[x]
            for g in range(n):
                image.add(add[f[row[g]]][neg[f[g]]])
        cells.add(frozenset(image))
    return validate_partition(spec, cells)


def is_ci_bruteforce(a: SRing, bounds=DEFAULT_BOUNDS) -> CIStatus:
    """Filter all of Sym(G) through the isomorphism test."""
    import itertools

    spec = a.spec
    n = spec.order
    if n > BRUTEFORCE_ORDER:
        raise ResourceBoundExceeded("brute-force CI", BRUTEFORCE_ORDER, n)
    aut = scheme_aut(a, bounds)
    cay_group, _ = cayley_auts(a, bounds)
    product_size = aut.order() * aut_order(spec) // cay_group.order()
    isos = [f for f in itertools.permutations(range(n))
            if iso_membership(f, a, bounds)]
    if len(isos) == product_size:
        return CIStatus("CI", "bruteforce")
    # n <= BRUTEFORCE_ORDER keeps Aut(G) small: at most 168 maps for n = 8
    aut_perms = [g.perm for g in all_auts(spec)]
    witness = next((f for f in isos if not _in_product(f, aut, aut_perms)),
                   None)
    if witness is None:
        raise SRingsError(
            f"{len(isos)} isomorphisms against a product of size "
            f"{product_size}, yet every one lies in Aut(A)*Aut(G)")
    return CIStatus("NotCI", "bruteforce", witness={"isomorphism": witness})


def _in_product(f, aut: PermGroup, aut_perms) -> bool:
    return any(aut.contains(pmul(f, pinv(phi))) for phi in aut_perms)


def is_ci(a: SRing, bounds=DEFAULT_BOUNDS) -> CIStatus:
    """Regular-subgroup criterion: the ring is CI exactly when all regular
    subgroups of its automorphism group K of the right abstract type are
    conjugate to the translations.

    Every bijection conjugating one regular subgroup onto another is a
    map 0^(r^x) -> 0^(s^(Ax)), for an automorphism A of G, times an
    element of the first subgroup.  So two of them are K-conjugate
    exactly when a search over A finds such a map in K (see
    regular_subgroups)."""
    try:
        aut = scheme_aut(a, bounds)
        classes = regular_subgroups(aut, a.spec, bounds)
    except ResourceBoundExceeded as exc:
        return CIStatus("Undecided", "regular-subgroups",
                        resource={"what": exc.what, "limit": exc.limit,
                                  "needed": exc.needed})
    if len(classes) == 1:
        return CIStatus("CI", "regular-subgroups",
                        witness={"classes": [c.gens for c in classes]})
    other = next(c for c in classes if not c.is_translation_class)
    return CIStatus("NotCI", "regular-subgroups",
                    witness={"classes": [c.gens for c in classes],
                             "non_conjugate": other.gens})


# -- the section factorization condition ---------------------------------------


class SectionContext:
    """The three quotients of a wreath decomposition over the section U/L.

    top = A_U over U's chart Section(U), quot = A_{G/L} over the chart
    G/L, and sec_ring = A_{U/L}.  A factor automorphism acts on G through
    its chart; restricting that action to U/L gives its projection.
    """

    def __init__(self, a: SRing, section: Section, bounds=DEFAULT_BOUNDS):
        if not is_wreath_for(a, section):
            raise PreconditionFailed("wreath",
                                     "the ring is not a wreath over this section")
        self.section = section
        self.bounds = bounds
        self.top, self.top_sec, self.quot, self.quot_sec = \
            wreath_parts(a, section)
        self.sec_ring = quotient(a, section)

    def on_section(self, g: GroupAut, chart: Section):
        """g's map on U/L, for an automorphism g of chart's quotient, or
        None when g does not stabilize U/L."""
        try:
            return restrict_perm(_ambient(g, chart), self.section)
        except SectionNotPreserved:
            return None

    def factor_aut_projections(self):
        """Per factor, top then quotient, each projection onto U/L of its
        Cayley automorphisms with the first automorphism giving it."""
        sides = ({}, {})
        for side, ring, chart in zip(sides, (self.top, self.quot),
                                     (self.top_sec, self.quot_sec)):
            for g in cayley_auts(ring, self.bounds)[1]:
                perm = self.on_section(g, chart)
                if perm is not None:
                    side.setdefault(perm, g)
        return sides


def _ambient(g: GroupAut, chart: Section):
    """g's action on G through chart, x -> lift(g(proj x)); -1 off chart.U."""
    perm, lift = g.perm, chart.lift
    return tuple(-1 if q < 0 else lift[perm[q]] for q in chart.proj)


def condition_holds(a: SRing, section: Section, bounds=DEFAULT_BOUNDS,
                    context: SectionContext | None = None) -> bool:
    """Whether the section's Cayley automorphisms factor through the two
    wreath factors: Aut_S = (top projections) * (quotient projections)."""
    ctx = context or SectionContext(a, section, bounds)
    # group_of_listing proved the listed maps to be the group's elements
    target = frozenset(g.perm for g in cayley_auts(ctx.sec_ring, bounds)[1])
    top_side, quot_side = ctx.factor_aut_projections()
    product = set()
    for f in top_side:
        for h in quot_side:
            product.add(pmul(f, h))
    if not product <= target:
        raise SRingsError("factor projections do not act on the section ring")
    return frozenset(product) == target


# -- constructive lift ----------------------------------------------------------


def lift_isomorphism(a: SRing, b: SRing, f, section: Section | None = None,
                     bounds=DEFAULT_BOUNDS) -> GroupAut:
    """Build a group automorphism inducing the same algebraic iso as f.

    Requires a wreath decomposition of a over a section with CI factors
    satisfying the factorization condition.  Stages: align the image
    section with a group automorphism, lift both factor isomorphisms to
    canonical Cayley isomorphisms phi (over U) and psi (over G/L), correct
    them to agree on the section U/L, and glue them over basis images.

    The glued alpha maps U's basis through phi and each basis element x
    of a complement of U to any element of the coset psi(x + L).  That
    choice is free: cells outside U are unions of L-cosets, so alpha's
    action on them is fixed by the map it induces on G/L, which is psi;
    cells inside U are fixed by alpha restricted to U, which is phi.
    """
    spec = a.spec
    # translations are scheme automorphisms, so normalizing f(e) = e keeps
    # the induced algebraic iso while making pointwise subgroup images
    # coincide with algebraic ones
    f = pmul(f, spec.translation(spec.neg(f[spec.identity])))
    phi_f = induced_algebraic(a, b, f)
    if phi_f is None:
        raise PreconditionFailed("input", "f is not an isomorphism onto b")
    if section is None:
        decs = decompositions(a)
        if not decs:
            raise PreconditionFailed("wreath", "the ring is indecomposable")
        section = decs[0]
    U, L = section.U, section.L

    # stage 1: normalize so that f fixes U and L setwise
    flag = (U.elements, L.elements)
    theta = _flag_aut(spec, flag, tuple(map(phi_f.image_set, flag)), bounds)
    theta_inv_perm = pinv(theta.perm)
    b1 = sring_image(b, theta_inv_perm)
    f1 = pmul(f, theta_inv_perm)
    ctx = SectionContext(a, section, bounds)

    # stage 2: canonical Cayley isomorphisms matching both factor isos
    top_b = quotient(b1, ctx.top_sec)
    quot_b = quotient(b1, ctx.quot_sec)
    try:
        f_top = restrict_perm(f1, ctx.top_sec)
        f_quot = restrict_perm(f1, ctx.quot_sec)
    except SectionNotPreserved:
        raise PreconditionFailed("quotient",
                                 "f does not respect the cosets") from None
    phi0 = _matching_cayley(ctx.top, top_b, f_top, bounds, "top factor")
    psi0 = _matching_cayley(ctx.quot, quot_b, f_quot, bounds, "quotient factor")

    # stage 3: correct so both act identically on the section
    phi0_s = ctx.on_section(phi0, ctx.top_sec)
    psi0_s = ctx.on_section(psi0, ctx.quot_sec)
    if phi0_s is None or psi0_s is None:
        raise PreconditionFailed("section", "factor lifts do not fix the section")
    mismatch = pmul(phi0_s, pinv(psi0_s))
    top_side, quot_side = ctx.factor_aut_projections()
    s1_perm = next((s for s in sorted(top_side)
                    if pmul(pinv(s), mismatch) in quot_side), None)
    if s1_perm is None:
        raise PreconditionFailed(
            "condition", "the section factorization condition fails")
    sigma1 = top_side[s1_perm]
    sigma2 = quot_side[pmul(pinv(s1_perm), mismatch)]
    phi = sigma1.inverse().compose(phi0)
    psi = sigma2.compose(psi0)
    if ctx.on_section(phi, ctx.top_sec) != ctx.on_section(psi, ctx.quot_sec):
        raise SRingsError("corrected factor lifts disagree on the section")

    # stage 4: glue phi's action on U's basis to psi's on a complement's
    phi_g = _ambient(phi, ctx.top_sec)
    psi_g = _ambient(psi, ctx.quot_sec)
    pairs = [(u, phi_g[u]) for u in U.basis_elements()]
    pairs += [(x, psi_g[x]) for x in complement(U, spec).basis_elements()]
    alpha = GroupAut.from_images(spec, pairs)

    # verify against b1, then compose the section alignment back in
    phi_alpha = induced_algebraic(a, b1, alpha.perm)
    phi_f1 = induced_algebraic(a, b1, f1)
    if phi_alpha is None or phi_alpha.cell_map != phi_f1.cell_map:
        raise PreconditionFailed("assembly", "lift verification failed")
    return alpha.compose(theta)


def _flag_aut(spec, flag, image, bounds) -> GroupAut:
    """The least automorphism carrying the element sets flag = (U, L) onto
    image = (U', L'): L onto L', U - L onto U' - L', the rest onto the
    rest.  For subgroups L <= U one exists when the orders match, since in
    a squarefree-exponent abelian group the order fixes the type."""
    cell_of, target = ([0 if x in low else 1 if x in top else 2
                        for x in spec.elements()]
                       for top, low in (flag, image))
    theta = next(cell_maps(spec, cell_of, target, (0, 1, 2),
                           _Budget(bounds.backtrack_node_budget)), None)
    if theta is None:
        raise PreconditionFailed("align", "image subgroups have wrong orders")
    return theta


def _matching_cayley(src: SRing, dst: SRing, f_perm, bounds, stage):
    """The least Cayley isomorphism inducing the same algebraic iso as f,
    i.e. carrying each cell onto its image cell under that iso."""
    phi_f = induced_algebraic(src, dst, f_perm)
    if phi_f is None:
        raise PreconditionFailed(stage, "restriction is not an isomorphism")
    aut = next(cell_maps(src.spec, src.cell_of, dst.cell_of, phi_f.cell_map,
                         _Budget(bounds.backtrack_node_budget)), None)
    if aut is None:
        raise PreconditionFailed(stage, "no Cayley isomorphism matches; the "
                                        "factor is not CI for this instance")
    return aut


def verify_lift(a: SRing, b: SRing, f, alpha: GroupAut) -> bool:
    """Independent check of a lift: alpha is a group automorphism carrying
    cells onto cells and inducing the same algebraic iso as f."""
    spec = a.spec
    perm = alpha.perm
    for x in range(spec.order):
        for y in range(spec.order):
            if perm[spec.add(x, y)] != spec.add(perm[x], perm[y]):
                return False
    b_cells = set(b.cells)
    for cell in a.cells:
        if frozenset(perm[x] for x in cell) not in b_cells:
            return False
    phi_alpha = induced_algebraic(a, b, perm)
    phi_f = induced_algebraic(a, b, f)
    return (phi_alpha is not None and phi_f is not None
            and phi_alpha.cell_map == phi_f.cell_map)


# -- the thin-radical path ------------------------------------------------------


def ci_fastpath(a: SRing) -> CIStatus | None:
    """The thin-radical path, which needs no section: a p-ring whose thin
    radical has index p is CI."""
    spec = a.spec
    if len(spec.factors) == 1:
        p = spec.factors[0][0]
        if a.is_p_sring(p):
            thin = a.thin_radical()
            if thin.order * p == spec.order:
                _check_thin_structure(a, thin)
                return CIStatus("CI", "fastpath-thin")
    return None


def _check_thin_structure(a: SRing, thin):
    """A p-ring whose thin radical has index p must be the wreath of the
    thin group ring with a full quotient group ring."""
    outside = [c for c in a.cells if not c <= thin.elements]
    if not outside:
        raise SRingsError("thin radical of index p leaves no cell outside")
    L = radical(a.spec, outside[0])
    add = a.spec.add_table()
    # the wreath condition: X + L = X for every cell X outside the thin group
    if any(add[x][h] not in cell for cell in outside for x in cell
           for h in L.elements):
        raise SRingsError("expected thin-radical wreath structure")
    top, _, quot, _ = wreath_parts(a, Section(thin, L))
    if top.rank != top.spec.order or quot.rank != quot.spec.order:
        raise SRingsError("thin-radical wreath factors must be group rings")


# -- the full decision strategy --------------------------------------------------


@dataclass
class CIDecider:
    """Memoizing decision strategy over a family of rings: the thin
    radical, else the section condition over a section with CI factors,
    taken at once when the section ring is a group ring, else is_ci."""

    bounds: object = field(default_factory=lambda: DEFAULT_BOUNDS)
    cache: dict = field(default_factory=dict)

    def decide(self, a: SRing) -> CIStatus:
        key = (a.spec.factors, a.cells)
        status = self.cache.get(key)
        if status is not None:
            return status
        # the thin path once per ring, then the condition per section
        status = ci_fastpath(a)
        for section in () if status else decompositions(a):
            try:
                ctx = SectionContext(a, section, self.bounds)
                top_ci, quot_ci = self.decide(ctx.top), self.decide(ctx.quot)
                if not (top_ci.is_ci and quot_ci.is_ci):
                    continue
                # only the identity fixes the singleton cells of a group
                # ring, so there the condition holds at once
                if ctx.sec_ring.rank == ctx.sec_ring.spec.order:
                    status = CIStatus("CI", "fastpath-trivial")
                elif condition_holds(a, section, self.bounds, context=ctx):
                    status = CIStatus("CI", "section-condition")
            except ResourceBoundExceeded:
                continue
            if status is not None:
                break
        status = status or is_ci(a, self.bounds)
        self.cache[key] = status
        return status


def decide_ci(a: SRing, bounds=DEFAULT_BOUNDS) -> CIStatus:
    return CIDecider(bounds=bounds).decide(a)


# -- criterion verification -------------------------------------------------------


def verify_criterion(catalog, bounds=DEFAULT_BOUNDS) -> dict:
    """Check that the factorization condition matches the CI property over
    every decomposable catalog entry whose wreath factors are CI.

    Ground truth CI is the regular-subgroup criterion alone (is_ci); the
    decider, which answers by the condition itself, only decides the
    factors, so the equivalence test cannot become circular.  Reports
    both quantifier readings: the condition holding for every witnessing
    section and for at least one.
    """
    parts = CIDecider(bounds=bounds)
    records = []
    soundness_violations = []
    undecided = []
    criterion_every = True
    criterion_some = True
    for idx, a in enumerate(catalog):
        decs = decompositions(a)
        if not decs:
            continue
        status = is_ci(a, bounds)
        sections = []
        for section in decs:
            try:
                ctx = SectionContext(a, section, bounds)
                top_ci = parts.decide(ctx.top)
                quot_ci = parts.decide(ctx.quot)
                both = top_ci.is_ci and quot_ci.is_ci
                cond = condition_holds(a, section, bounds, context=ctx) \
                    if both else None
            except ResourceBoundExceeded as exc:
                sections.append({"U": sorted(section.U.elements),
                                 "L": sorted(section.L.elements),
                                 "parts_ci": None, "condition": None,
                                 "resource": str(exc)})
                continue
            sections.append({"U": sorted(section.U.elements),
                             "L": sorted(section.L.elements),
                             "parts_ci": both, "condition": cond})
        record = {"entry": idx, "rank": a.rank,
                  "ci": status.verdict, "method": status.method,
                  "sections": sections}
        records.append(record)
        counted = [s for s in sections if s["parts_ci"]]
        if status.verdict == "Undecided":
            undecided.append(idx)
            continue
        if status.verdict == "NotCI":
            for s in counted:
                if s["condition"]:
                    soundness_violations.append(
                        {"entry": idx, "U": s["U"], "L": s["L"]})
        elif counted:
            if not all(s["condition"] for s in counted):
                criterion_every = False
            if not any(s["condition"] for s in counted):
                criterion_some = False
    return {
        "records": records,
        "soundness_violations": soundness_violations,
        "criterion_every_section": criterion_every and not soundness_violations,
        "criterion_some_section": criterion_some and not soundness_violations,
        "undecided_entries": undecided,
    }
