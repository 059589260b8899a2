import dataclasses
import itertools
import random
import traceback
from pathlib import Path

import pytest

from srings.config import DEFAULT_BOUNDS, _Budget
from srings.errors import (PreconditionFailed, ResourceBoundExceeded,
                           SRingsError)
from srings.groups import (Section, all_auts, aut_group, cell_maps,
                           enumerate_subgroups, parse_group, subgroup_span)
from srings.permgrp import pmul, regular_subgroups
from srings.sring import validate_partition
from srings.catalog import enumerate_srings, load_catalog
from srings.construct import decompositions, group_ring
from srings.morphisms import (algebraic_isos, cayley_isos,
                              combinatorial_isos, has_combinatorial_iso,
                              induced_algebraic, is_2_minimal,
                              is_cayley_minimal, is_cyclotomic, scheme_aut)
from srings.ci import (CIDecider, CIStatus, SectionContext, _flag_aut,
                       _matching_cayley, condition_holds, decide_ci,
                       image_sring, is_ci, is_ci_bruteforce, iso_membership,
                       lift_isomorphism, verify_criterion, verify_lift)

from conftest import (THIN_WREATH_FACTS, cayley_isos_by_filter,
                      image_partition_is_sring, make_plain_wreath,
                      thin_wreath_facts)

PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_cistatus_invariants():
    with pytest.raises(ValueError):
        CIStatus("NotCI")
    with pytest.raises(ValueError):
        CIStatus("Undecided")
    assert CIStatus("CI", "bruteforce").is_ci


def test_iso_membership_translations_and_auts(c8):
    ring = make_plain_wreath(c8, [1, 2], [1])
    for g in (1, 5):
        assert iso_membership(ring.spec.translation(g), ring)
    for aut in all_auts(c8)[:20]:
        assert iso_membership(aut.perm, ring)


def test_iso_membership_against_definition_oracle(c8):
    rng = random.Random(3)
    ring = make_plain_wreath(c8, [1, 2], [1])
    hits = 0
    for _ in range(60):
        f = list(range(8))
        rng.shuffle(f)
        f = tuple(f)
        expected = image_partition_is_sring(ring, f)
        assert iso_membership(f, ring) == expected
        hits += expected
    # the sample must exercise both outcomes
    assert 0 < hits < 60


def test_image_sring_of_affine_map(c8):
    ring = make_plain_wreath(c8, [1, 2], [1])
    aut = all_auts(c8)[17]
    image = image_sring(ring, aut.perm)
    assert image.cells == tuple(
        sorted((frozenset(aut.perm[x] for x in c) for c in ring.cells),
               key=lambda c: (len(c), min(c))))


def test_is_ci_bruteforce_group_ring(c8):
    assert is_ci_bruteforce(group_ring(c8)).verdict == "CI"


def test_is_ci_bruteforce_never_takes_an_unchecked_witness(monkeypatch):
    # with |Aut(G)| misreported as 1 the isomorphisms outnumber the
    # product, yet every one of them lies inside Aut(A)*Aut(G)
    monkeypatch.setattr("srings.ci.aut_order", lambda spec: 1)
    with pytest.raises(SRingsError):
        is_ci_bruteforce(group_ring(parse_group("2^2")))


def test_is_ci_matches_bruteforce_everywhere(catalog_c8, c8):
    for entry in catalog_c8.entries:
        ring = entry.ring(c8)
        fast = is_ci(ring)
        slow = is_ci_bruteforce(ring)
        assert fast.verdict == slow.verdict == "CI"


def test_is_ci_names_the_transporter_node_bound():
    # |K| = 8: the candidate search spends 3 nodes, so a budget of 4 runs
    # out in the transporter.  A group ring no longer searches, and on any
    # other ring the candidate search alone spends more than 2 nodes
    c4 = parse_group("2^2")
    ring = validate_partition(c4, [{0}, {1, 2}, {3}])
    K = scheme_aut(ring)  # kept in the ring's memo: only the search runs
    tiny = dataclasses.replace(DEFAULT_BOUNDS, backtrack_node_budget=4)
    with pytest.raises(ResourceBoundExceeded) as info:
        regular_subgroups(K, c4, tiny)
    assert "_transporter_exists" in [
        frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
    status = is_ci(ring, tiny)
    assert status.verdict == "Undecided"
    assert status.resource == {"what": "backtracking nodes", "limit": 4,
                               "needed": None}


def test_is_ci_all_p_rings_over_c27(catalog_c27_p, c27):
    for entry in catalog_c27_p.entries:
        status = is_ci(entry.ring(c27))
        assert status.verdict == "CI"


def test_is_ci_searches_a_large_automorphism_group(c16):
    # |Aut(A)| = 10,321,920: the regular-subgroup search lists no group,
    # so no bound on |Aut(A)| applies
    from srings.sring import validate_partition

    ring = validate_partition(c16, [{0}, {15}, set(range(1, 15))])
    assert scheme_aut(ring).order() == 10_321_920
    assert is_ci(ring).verdict == decide_ci(ring).verdict == "CI"


@pytest.mark.parametrize("entry, order", [(3, 2_239_488_000),
                                          (4, 1_119_744_000)])
def test_is_ci_decides_2x3_2_rings_with_huge_groups(catalog_c18, entry,
                                                    order):
    # only the elements of order 2 are listed; those of order 3 come from
    # the centralizer of each representative in K
    spec = catalog_c18.spec
    ring = catalog_c18.entries[entry].ring(spec)
    assert scheme_aut(ring).order() == order
    status = is_ci(ring)
    assert (status.verdict, status.method) == ("CI", "regular-subgroups")
    translations = tuple(spec.translation(b) for b in spec.basis())
    assert status.witness == {"classes": [translations]}


def test_condition_u_equals_l(c27):
    ring = make_plain_wreath(c27,
                             [c27.index((1, 0, 0)), c27.index((0, 1, 0))],
                             [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    section = next(s for s in decompositions(ring)
                   if s.U.order == 9 and s.L.order == 9)
    assert condition_holds(ring, section)


def test_condition_holds_rejects_projections_off_the_section_ring(
        monkeypatch, table_rings):
    """A factor projection outside Aut of the section ring is an internal
    fault, raised whatever python -O says."""
    ring = table_rings[5]
    section = next(s for s in decompositions(ring)
                   if s.U.order == 9 and s.L.order == 3)
    # the section ring is the group ring of C_3: only the identity fixes
    # its cells, so the swap of the two non-identity elements is foreign
    monkeypatch.setattr(SectionContext, "factor_aut_projections",
                        lambda self: ({(0, 2, 1): None}, {(0, 1, 2): None}))
    with pytest.raises(SRingsError):
        condition_holds(ring, section)


def test_thin_radical_wreath_is_over_the_cell_radical(table_rings):
    # cells outside the thin radical T are cosets of an L of order 3, so
    # the ring is a wreath over T/L; with T itself as L they are not
    # unions of L-cosets, so T/T is no wreath section
    ring = table_rings[4]
    thin = ring.thin_radical()
    assert thin_wreath_facts(ring) == dict.fromkeys(THIN_WREATH_FACTS, True)
    assert Section(thin, thin) not in decompositions(ring)


def test_condition_trivial_section_ring(c27, table_rings):
    ring = table_rings[5]
    section = next(s for s in decompositions(ring)
                   if s.U.order == 9 and s.L.order == 3)
    ctx = SectionContext(ring, section)
    assert ctx.sec_ring.rank == 3  # full group ring on the section
    assert condition_holds(ring, section, context=ctx)


def test_condition_computed_both_sides(c27, table_rings):
    ring = table_rings[3]
    for section in decompositions(ring):
        ctx = SectionContext(ring, section)
        top_side, quot_side = ctx.factor_aut_projections()
        sec_group, _ = ctx and __import__("srings.morphisms",
                                          fromlist=["cayley_auts"]
                                          ).cayley_auts(ctx.sec_ring)
        product = {pmul(f, h) for f in top_side for h in quot_side}
        assert product <= set(sec_group.elements())
        assert condition_holds(ring, section, context=ctx) == \
            (product == set(sec_group.elements()))


def test_thin_radical_ring_is_decided_by_a_section(c27, table_rings):
    """A thin radical of index p makes the ring a wreath of group rings
    over a group-ring section, which the section loop decides."""
    ring = table_rings[2]
    assert ring.thin_radical().order * 3 == 27
    assert thin_wreath_facts(ring) == dict.fromkeys(THIN_WREATH_FACTS, True)


def _section_ring(ring, section):
    return SectionContext(ring, section).sec_ring


def _is_group_ring(ring):
    return ring.rank == ring.spec.order


def test_fastpath_trivial(c27, table_rings):
    """Table ring 5 has no thin radical of index 3, so the decider answers
    it by a section whose section ring is a group ring."""
    ring = table_rings[5]
    assert ring.thin_radical().order * 3 != 27
    assert CIDecider().decide(ring).method == "fastpath-trivial"


@pytest.mark.parametrize("name, index", [("c12", 19), ("c16", 23)])
def test_decider_answers_minimal_section_rings_by_the_condition(name, index):
    """Each of these rings has a section whose section ring is Cayley
    minimal or 2-minimal, a known CI case; the paper's condition covers
    it, so the decider answers by that condition."""
    catalog = load_catalog(PERFBENCH_DATA / f"{name}.cat")
    ring = catalog.entries[index].ring(catalog.spec)
    sec_rings = [_section_ring(ring, s) for s in decompositions(ring)]
    assert any(is_cayley_minimal(r) or is_2_minimal(r)
               for r in sec_rings if not _is_group_ring(r))
    status = CIDecider().decide(ring)
    assert status.verdict == "CI" and status.method == "section-condition"


@pytest.mark.parametrize("index", [23, 24])
def test_condition_passes_an_overrun_on(index):
    """The condition lists Cayley automorphisms of three rings.  Under one
    backtracking node that listing raises, and condition_holds must raise
    too, not read the overrun as "the condition fails".  Each section
    gets a fresh ring, so no earlier search under the default bounds can
    answer for the tight one."""
    catalog = load_catalog(PERFBENCH_DATA / "c16.cat")
    cells = catalog.entries[index].cells
    tight = dataclasses.replace(DEFAULT_BOUNDS, backtrack_node_budget=1)
    checked = 0
    for section in decompositions(validate_partition(catalog.spec, cells)):
        a = validate_partition(catalog.spec, cells)
        if _is_group_ring(_section_ring(a, section)):
            continue
        with pytest.raises(ResourceBoundExceeded):
            condition_holds(a, section, tight)
        assert condition_holds(a, section) is True
        checked += 1
    assert checked


def test_decider_strategies(c27, table_rings, catalog_c27_p):
    decider = CIDecider()
    for i in (1, 2, 3, 4, 5, 6):
        assert decider.decide(table_rings[i]).verdict == "CI"
    with_fast = {k: v.method for k, v in decider.cache.items()}
    assert any(m.startswith("fastpath") or m == "section-condition"
               for m in with_fast.values())
    for i in (1, 2, 3, 4, 5, 6):
        status = is_ci(table_rings[i])
        assert status.verdict == "CI"
        assert status.method == "regular-subgroups"


DECIDER_METHODS = {"fastpath-trivial", "section-condition",
                   "regular-subgroups"}


@pytest.mark.parametrize("fixture", ["catalog_c8", "catalog_c12",
                                     "catalog_c27_p", "catalog_c16"])
def test_decider_agrees_with_regular_subgroups(fixture, request):
    """On every catalog entry the decider gives the verdict of the
    regular-subgroup criterion, by the section condition (a group ring as
    section ring is its trivial case) or that criterion itself."""
    catalog = request.getfixturevalue(fixture)
    for ring in catalog.rings():
        status = decide_ci(ring)
        assert status.method in DECIDER_METHODS
        assert status.verdict == is_ci(ring).verdict


def test_section_loop_passes_over_sections_it_cannot_use(monkeypatch):
    """Under four backtracking nodes the decider meets both sections it
    must pass over: one with a wreath factor that is not CI, and one
    whose search runs out.  Neither makes up a verdict: each ring is CI,
    as under the default bounds, or Undecided.  Every ring is fresh, so
    no search under the default bounds answers for the tight one."""
    rings = load_catalog(PERFBENCH_DATA / "c16.cat").rings()
    default = [decide_ci(ring) for ring in rings]
    real = CIDecider.evaluate_section
    passed_over = {"factor not CI": 0, "search ran out": 0}

    def spy(self, a, section):
        try:
            found = real(self, a, section)
        except ResourceBoundExceeded:
            passed_over["search ran out"] += 1
            raise
        if found is None:
            passed_over["factor not CI"] += 1
        return found

    monkeypatch.setattr(CIDecider, "evaluate_section", spy)
    tight = CIDecider(dataclasses.replace(DEFAULT_BOUNDS,
                                          backtrack_node_budget=4))
    rings = load_catalog(PERFBENCH_DATA / "c16.cat").rings()
    verdicts = [tight.decide(ring) for ring in rings]
    assert passed_over == {"factor not CI": 9, "search ran out": 21}
    assert {s.verdict for s in verdicts} == {"CI", "Undecided"}
    assert all(want.verdict == "CI" for want, status in zip(default, verdicts)
               if status.is_ci)


@pytest.mark.parametrize("fixture", ["catalog_c8", "catalog_c12",
                                     "catalog_c27_p", "catalog_c16"])
def test_condition_holds_on_group_ring_sections(fixture, request):
    """The decider's group-ring shortcut is the condition's trivial case:
    only the identity fixes the singleton cells of a group ring, so the
    condition holds on every such section."""
    catalog = request.getfixturevalue(fixture)
    checked = 0
    for ring in catalog.rings():
        for section in decompositions(ring):
            ctx = SectionContext(ring, section)
            if _is_group_ring(ctx.sec_ring):
                assert condition_holds(ring, section, context=ctx)
                checked += 1
    assert checked


@pytest.mark.parametrize("budget", [1, 5, 20])
def test_decider_turns_a_tight_budget_into_undecided(budget, catalog_c8):
    """Under a backtracking budget too small for the searches, deciding
    any ring over 2^3 gives a verdict, never an overrun: each Undecided
    record names the bound that was hit.  Fresh rings keep the memo of
    an earlier, larger budget out of the way."""
    tight = dataclasses.replace(DEFAULT_BOUNDS, backtrack_node_budget=budget)
    decider = CIDecider(bounds=tight)
    statuses = [decider.decide(validate_partition(catalog_c8.spec, e.cells))
                for e in catalog_c8.entries]
    assert len(statuses) == 9
    assert all(isinstance(s, CIStatus) for s in statuses)
    undecided = [s for s in statuses if s.verdict == "Undecided"]
    assert undecided
    assert all(s.resource["what"] == "backtracking nodes" for s in undecided)


def test_ci2_direction_sampled(c8, catalog_c8):
    """Whenever a ring is CI, every sampled isomorphism is matched by a
    Cayley isomorphism inducing the same algebraic iso."""
    rng = random.Random(9)
    for entry in catalog_c8.entries[:6]:
        ring = entry.ring(c8)
        aut = scheme_aut(ring)
        for _ in range(5):
            f = pmul(aut.random_element(rng),
                     rng.choice(all_auts(c8)).perm)
            target = image_sring(ring, f)
            phi_f = induced_algebraic(ring, target, f)
            assert phi_f is not None
            matches = [c for c in cayley_isos(ring, target)
                       if induced_algebraic(ring, target, c.perm).cell_map
                       == phi_f.cell_map]
            assert matches, "CI ring must admit a matching Cayley iso"


@pytest.mark.parametrize("text, catalog", [("2^3", "catalog_c8"),
                                           ("2^2x3", "catalog_c12")])
def test_ci2_direction_searched_isos(text, catalog, request):
    """Isomorphisms found by search onto a relabeled ring, not built as
    k*sigma: each is matched by a Cayley isomorphism inducing the same
    algebraic iso.  The search lists all |Aut(A)| maps realizing a sampled
    algebraic iso, so rings with |Aut(A)| above 100,000 are left out."""
    spec = parse_group(text)
    rng = random.Random(31)
    auts = all_auts(spec)
    checked = permuting = 0
    for entry in request.getfixturevalue(catalog).entries:
        a = entry.ring(spec)
        order = scheme_aut(a).order()
        if order > 100_000:
            continue
        b = image_sring(a, rng.choice(auts).perm)
        phi = rng.choice(algebraic_isos(a, b))
        if not has_combinatorial_iso(a, b, phi):
            continue
        maps = combinatorial_isos(a, b, phi, limit=order)
        assert len(maps) == order
        f = rng.choice(maps)
        phi_f = induced_algebraic(a, b, f)
        assert phi_f is not None and phi_f.cell_map == phi.cell_map
        assert any(induced_algebraic(a, b, c.perm).cell_map == phi.cell_map
                   for c in cayley_isos(a, b)), \
            "CI ring must admit a matching Cayley iso"
        checked += 1
        permuting += phi.cell_map != tuple(range(a.rank))
    assert checked >= 5 and permuting >= 3


def _random_instances(spec, seed, count, builders):
    rng = random.Random(seed)
    auts = all_auts(spec)
    out = []
    while len(out) < count:
        ring, section = builders[rng.randrange(len(builders))]
        aut_group = scheme_aut(ring)
        f = pmul(aut_group.random_element(rng), rng.choice(auts).perm)
        out.append((ring, section, f))
    return out


def test_is_ci_names_the_non_conjugate_class(catalog_c8,
                                             holomorph_k_over_c8):
    """With K the holomorph, every ring over 2^3 is NotCI, and the witness
    names the class other than the translations'.  T is normal in the
    holomorph, so its class holds T alone."""
    spec = catalog_c8.spec
    t_set = set(map(spec.translation, spec.elements()))
    for ring in catalog_c8.rings():
        status = is_ci(ring)
        assert status.verdict == "NotCI"
        classes = status.witness["classes"]
        other = status.witness["non_conjugate"]
        assert len(classes) == 2 and other in classes
        assert [set(gens) <= t_set for gens in classes].count(True) == 1
        assert not set(other) <= t_set


def test_lift_isomorphism_random_instances(c27, c16):
    """Acceptance-grade randomized check of the constructive lift."""
    builders27 = []
    u_full = [c27.index((1, 0, 0)), c27.index((0, 1, 0))]
    l_gen = [c27.index((1, 0, 0))]
    ring = make_plain_wreath(c27, u_full, l_gen)
    builders27.append((ring, Section(subgroup_span(c27, u_full),
                                     subgroup_span(c27, l_gen))))
    ring2 = make_plain_wreath(c27, u_full, u_full)
    builders27.append((ring2, Section(subgroup_span(c27, u_full),
                                      subgroup_span(c27, u_full))))
    builders16 = []
    ring3 = make_plain_wreath(c16, [1, 2, 4], [1])
    builders16.append((ring3, Section(subgroup_span(c16, [1, 2, 4]),
                                      subgroup_span(c16, [1]))))
    ring4 = make_plain_wreath(c16, [1, 2], [1, 2])
    builders16.append((ring4, Section(subgroup_span(c16, [1, 2]),
                                      subgroup_span(c16, [1, 2]))))

    total = 0
    for spec, builders, count in ((c27, builders27, 60), (c16, builders16, 60)):
        for ring, section, f in _random_instances(spec, 42, count, builders):
            assert condition_holds(ring, section)
            target = image_sring(ring, f)
            alpha = lift_isomorphism(ring, target, f, section)
            assert verify_lift(ring, target, f, alpha)
            total += 1
    assert total == 120


def test_lift_isomorphism_mixed_primes(c12):
    # sections whose U or G/L has both primes: the alignment and the glued
    # basis run over two prime blocks
    builders = []
    for top, bottom in (([1, 4], [1]), ([1, 2, 4], [4]), ([1, 4], [1, 4])):
        builders.append((make_plain_wreath(c12, top, bottom),
                         Section(subgroup_span(c12, top),
                                 subgroup_span(c12, bottom))))
    for ring, section, f in _random_instances(c12, 5, 30, builders):
        assert condition_holds(ring, section)
        target = image_sring(ring, f)
        alpha = lift_isomorphism(ring, target, f, section)
        assert verify_lift(ring, target, f, alpha)


def test_lift_contract_cases(c27, table_rings):
    ring = table_rings[5]
    section = next(s for s in decompositions(ring)
                   if s.U.order == 9 and s.L.order == 3)
    # f already a group automorphism
    aut = next(a for a in all_auts(c27)
               if cayley_isos(ring, ring) and a.perm != tuple(range(27)))
    f = cayley_isos(ring, ring)[1].perm
    target = image_sring(ring, f)
    alpha = lift_isomorphism(ring, target, f, section)
    assert verify_lift(ring, target, f, alpha)
    # f a scheme automorphism: the lift induces the trivial algebraic iso
    g = scheme_aut(ring).random_element(random.Random(5))
    alpha = lift_isomorphism(ring, ring, g, section)
    ind = induced_algebraic(ring, ring, alpha.perm)
    assert ind.cell_map == tuple(range(ring.rank))


@pytest.mark.parametrize("group", ["3^2", "2^2x3"])
def test_matching_cayley_is_the_least_map_inducing_each_cell_map(group):
    """Over every pair of catalog rings and relabeled copies: for each cell
    map a Cayley isomorphism induces, the first map of the search and the
    lift's factor match are the least oracle map inducing it; a cell map
    of equal cell sizes that no Cayley isomorphism induces yields nothing
    (checked up to rank 5)."""
    spec = parse_group(group)
    rings = enumerate_srings(spec, "all", label=False).rings()
    chain = aut_group(spec)
    rng = random.Random(5)
    rings += [image_sring(a, chain.random_element(rng)) for a in rings]
    for a in rings:
        for b in rings:
            def search(cm):
                return cell_maps(spec, a.cell_of, b.cell_of, cm,
                                 _Budget(DEFAULT_BOUNDS.backtrack_node_budget))

            least = {}
            for g in cayley_isos_by_filter(a, b):
                cm = tuple(b.cell_of[g.perm[min(cell)]] for cell in a.cells)
                least.setdefault(cm, g)
            for cm, g in least.items():
                got = next(search(cm))
                assert got.perm == g.perm
                matched = _matching_cayley(a, b, g.perm, DEFAULT_BOUNDS, "t")
                assert matched.perm == g.perm
            if a.rank != b.rank or a.rank > 5:
                continue
            for cm in itertools.permutations(range(a.rank)):
                if cm not in least and all(len(a.cells[i]) == len(b.cells[j])
                                           for i, j in enumerate(cm)):
                    assert next(search(cm), None) is None


@pytest.mark.parametrize("group", ["2^4", "2^2x3"])
def test_flag_aut_carries_the_flag_onto_its_image(group):
    """Random nested L <= U and their images under random automorphisms:
    the lift's stage-1 map is an automorphism carrying L onto the image of
    L and U onto the image of U."""
    spec = parse_group(group)
    subgroups = enumerate_subgroups(spec)
    chain = aut_group(spec)
    rng = random.Random(7)
    for _ in range(60):
        U = rng.choice(subgroups)
        L = rng.choice([s for s in subgroups if U.contains_subgroup(s)])
        g = chain.random_element(rng)
        u_img = frozenset(g[x] for x in U.elements)
        l_img = frozenset(g[x] for x in L.elements)
        theta = _flag_aut(spec, (U.elements, L.elements), (u_img, l_img),
                          DEFAULT_BOUNDS).perm
        assert {theta[x] for x in L.elements} == l_img
        assert {theta[x] for x in U.elements} == u_img
        assert all(theta[spec.add(x, y)] == spec.add(theta[x], theta[y])
                   for x in spec.elements() for y in spec.elements())


def test_flag_aut_rejects_images_of_the_wrong_order(c12):
    U = subgroup_span(c12, [1, 4])
    L = subgroup_span(c12, [1])
    for u_img, l_img in ((subgroup_span(c12, [1, 2, 4]), L),
                         (U, subgroup_span(c12, [4])),
                         (U, subgroup_span(c12, [1, 2]))):
        with pytest.raises(PreconditionFailed) as info:
            _flag_aut(c12, (U.elements, L.elements),
                      (u_img.elements, l_img.elements), DEFAULT_BOUNDS)
        assert info.value.stage == "align"


def test_lift_rejects_non_isomorphism(c27, table_rings):
    ring = table_rings[5]
    other = table_rings[3]
    with pytest.raises(PreconditionFailed):
        lift_isomorphism(ring, other, tuple(range(27)))


def test_lift_rejects_indecomposable(c27, table_rings):
    ring = table_rings[6]
    with pytest.raises(PreconditionFailed):
        lift_isomorphism(ring, ring, tuple(range(27)))


def test_thin_index_p_structure(catalog_c27_p, c27):
    """Thin radical of index p forces: a wreath of group rings over a
    group-ring section, which the decider answers, cyclotomic, Cayley
    minimal, CI."""
    for entry in catalog_c27_p.entries:
        ring = entry.ring(c27)
        thin = ring.thin_radical()
        if thin.order * 3 != 27:
            continue
        assert thin_wreath_facts(ring) == \
            dict.fromkeys(THIN_WREATH_FACTS, True)
        assert is_cyclotomic(ring)
        assert is_cayley_minimal(ring)
        assert is_ci(ring).verdict == "CI"


def test_index_p_subgroup_lemmas(catalog_c27_p, c27):
    """For p-rings: a cell of size |G|/p forces the index-p wreath, every
    cell sits inside a coset of an index-p cell-union subgroup, and the
    thin-radical size bound forces nontrivial radicals."""
    from srings.construct import is_wreath_for
    from srings.sring import radical

    for entry in catalog_c27_p.entries:
        ring = entry.ring(c27)
        big_cells = [c for c in ring.cells if len(c) == 9]
        if big_cells:
            hit = False
            for U in ring.a_subgroups():
                if U.order == 9 and is_wreath_for(ring, Section(U, U)):
                    hit = True
            assert hit
        for U in ring.a_subgroups():
            if U.order != 9:
                continue
            thin = ring.thin_radical()
            for cell in ring.cells:
                # each cell lies inside one U-coset
                cosets = {c27.sub(x, min(cell)) in U.elements for x in cell}
                assert all(U.contains(c27.sub(x, min(cell))) for x in cell)
                inter = thin.meet(U)
                if inter.order * len(cell) > 9:
                    rad = radical(c27, cell)
                    assert thin.meet(rad).order > 1


def test_verify_criterion_small(catalog_c8, c8):
    report = verify_criterion([e.ring(c8) for e in catalog_c8.entries])
    assert not report["soundness_violations"]
    assert report["criterion_every_section"]
    assert report["criterion_some_section"]
    assert not report["undecided_entries"]
