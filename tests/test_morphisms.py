import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from srings.config import DEFAULT_BOUNDS, _Budget
from srings.errors import ResourceBoundExceeded, SectionNotPreserved
from srings.groups import (GroupAut, Section, all_auts, aut_order,
                           full_subgroup, parse_group, subgroup_span)
from srings.permgrp import right_regular
from srings.sring import validate_partition
from srings.construct import (decompositions, group_ring,
                              recognize_construction, wreath_parts)
from srings.catalog import enumerate_srings, load_catalog
from srings import morphisms
from srings.morphisms import (algebraic_image, algebraic_isos, cayley_auts,
                              cayley_isos, combinatorial_isos,
                              cyclotomic_generators, delta_section,
                              induced_algebraic, is_2_minimal,
                              is_cayley_minimal, is_cyclotomic, restrict_perm,
                              scheme_aut)

from conftest import (brute_scheme_aut, cayley_auts_by_cell_fixing_isos,
                      cayley_isos_by_filter, cayley_minimal_by_closure,
                      cyclotomic_generators_by_listing,
                      make_plain_wreath, scheme_aut_by_full_level_search)

PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_cayley_isos_group_ring(c8):
    ring = group_ring(c8)
    assert len(cayley_isos(ring, ring)) == aut_order(c8)


def test_cayley_isos_distinct_classes(c9):
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    assert cayley_isos(group_ring(c9), wr) == []


@pytest.mark.parametrize("group", ["2^3", "3^2", "2^2x3", "3^3"])
def test_cayley_isos_agree_with_aut_filter(group, table_rings):
    """Same list, order and permutations as filtering all of Aut(G), on
    (a, a), (a, relabeled a) and every cross-class pair."""
    spec = parse_group(group)
    if group == "3^3":
        rings = list(table_rings.values())
    else:
        rings = enumerate_srings(spec, "all", label=False).rings()
    rng = random.Random(11)
    auts = all_auts(spec)
    for a in rings:
        perm = rng.choice(auts).perm
        relabeled = validate_partition(
            spec, [frozenset(perm[x] for x in cell) for cell in a.cells])
        for b in rings + [relabeled]:
            got = cayley_isos(a, b)
            want = cayley_isos_by_filter(a, b)
            assert got == want
            assert [g.perm for g in got] == [g.perm for g in want]


def test_backtracking_bound_reports_its_limit(table_rings):
    tiny = replace(DEFAULT_BOUNDS, backtrack_node_budget=7)
    ring = table_rings[6]
    with pytest.raises(ResourceBoundExceeded) as info:
        cayley_isos(ring, ring, tiny)
    assert info.value.limit == 7
    # a fresh ring, because scheme_aut memoizes its result on the ring
    fresh = validate_partition(ring.spec, ring.cells)
    with pytest.raises(ResourceBoundExceeded) as info:
        scheme_aut(fresh, tiny)
    assert info.value.limit == 7


def test_memo_keeps_first_result_whatever_the_bounds(table_rings):
    """A ring's memo answers later calls without searching again, so a
    budget too small to recompute the group neither raises nor changes
    the result."""
    tiny = replace(DEFAULT_BOUNDS, backtrack_node_budget=1)
    ring = table_rings[6]
    with pytest.raises(ResourceBoundExceeded):
        scheme_aut(validate_partition(ring.spec, ring.cells), tiny)
    fresh = validate_partition(ring.spec, ring.cells)
    group = scheme_aut(fresh)
    assert scheme_aut(fresh, tiny) is group


def test_cayley_auts_orders(c27, table_rings):
    assert cayley_auts(group_ring(c27))[0].order() == 1
    assert cayley_auts(table_rings[3])[0].order() == 9
    assert cayley_auts(table_rings[5])[0].order() == 27
    assert cayley_auts(table_rings[6])[0].order() == 3


@pytest.mark.parametrize("group, sring_filter", [
    ("2^3", "all"), ("3^2", "all"), ("2^2x3", "all"), ("3^3", "p-srings"),
    ("2^4", "all")])
def test_cayley_auts_agree_with_cell_fixing_isos(group, sring_filter):
    """Same maps in the same (matrix) order, and a group of the same
    order, as filtering the self Cayley isomorphisms, on every catalog
    ring and on the group ring."""
    spec = parse_group(group)
    rings = enumerate_srings(spec, sring_filter, label=False).rings()
    for ring in rings + [group_ring(spec)]:
        got_group, got = cayley_auts(ring)
        want = cayley_auts_by_cell_fixing_isos(ring)
        assert [g.mats for g in got] == [g.mats for g in want]
        assert [g.perm for g in got] == [g.perm for g in want]
        assert got_group.order() == len(want)


def test_scheme_aut_group_ring_is_translations(c27):
    group = scheme_aut(group_ring(c27))
    assert group.order() == 27
    reg = right_regular(c27)
    for g in group.gens:
        assert reg.contains(g)


def test_scheme_aut_row6(table_rings):
    group = scheme_aut(table_rings[6])
    assert group.order() == 81
    assert group.point_stabilizer(0).order() == 3


def test_scheme_aut_wreath_9_points(c9):
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    group = scheme_aut(wr)
    assert group.order() == 81
    brute = brute_scheme_aut(wr)
    assert len(brute) == 81
    for f in brute:
        assert group.contains(f)


def test_scheme_aut_against_brute_force(c8, catalog_c8):
    picked = [catalog_c8.entries[i] for i in (0, 2, 4, 8)]
    for entry in picked:
        ring = entry.ring(c8)
        group = scheme_aut(ring)
        brute = brute_scheme_aut(ring)
        assert group.order() == len(brute)
        for f in brute[:200]:
            assert group.contains(f)


def test_scheme_aut_gens_agree_with_full_level_search(c8, c9, catalog_c8,
                                                      catalog_c12,
                                                      catalog_c27_p):
    c16_catalog = load_catalog(PERFBENCH_DATA / "c16.cat")
    rings = (catalog_c8.rings()
             + enumerate_srings(c9, "all", label=False).rings()
             + catalog_c12.rings() + catalog_c27_p.rings()
             + c16_catalog.rings())
    assert len(rings) == 9 + 10 + 33 + 6 + 43
    for ring in rings:
        want = tuple(scheme_aut_by_full_level_search(ring))
        assert scheme_aut(ring).gens == want


@pytest.mark.parametrize("text", ["3^3", "2^5"])
def test_rank_2_scheme_aut_gens_agree_with_full_level_search(text):
    # the rank-2 ring's generators are written down, not searched for
    spec = parse_group(text)
    ring = validate_partition(spec, [{0}, set(range(1, spec.order))])
    want = tuple(scheme_aut_by_full_level_search(ring))
    assert scheme_aut(ring).gens == want
    assert scheme_aut(ring).is_symmetric()


def test_scheme_aut_starts_only_searches_that_succeed(monkeypatch,
                                                      catalog_c12):
    real = morphisms._search_maps
    started, failed = [], []

    def counted(*args):
        started.append(args[3])
        sols = real(*args)
        first = next(sols, None)
        if first is None:
            failed.append(args[3])
            return
        yield first
        yield from sols

    monkeypatch.setattr(morphisms, "_search_maps", counted)
    orders = [scheme_aut(ring).order() for ring in catalog_c12.rings()]
    assert 1036800 in orders
    assert 0 < len(started) <= 300
    assert failed == []


def test_scheme_aut_contains_translations_and_intersects_to_cayley(
        c27, table_rings):
    reg = right_regular(c27)
    for ring in (table_rings[2], table_rings[6]):
        aut = scheme_aut(ring)
        for g in reg.gens:
            assert aut.contains(g)
        cay, _auts = cayley_auts(ring)
        expected = sum(1 for a in all_auts(c27)
                       if aut.contains(a.perm))
        assert cay.order() == expected


def test_algebraic_isos_group_ring_c4():
    c4 = parse_group("2^2")
    ring = group_ring(c4)
    isos = algebraic_isos(ring, ring)
    assert len(isos) == 6  # cell bijections = automorphisms of the group
    ident = tuple(range(ring.rank))
    assert any(phi.cell_map == ident for phi in isos)


def test_algebraic_isos_rank_mismatch(c9):
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    assert algebraic_isos(group_ring(c9), wr) == []


def test_combinatorial_isos_group_rings(c8):
    ring = group_ring(c8)
    phi = algebraic_isos(ring, ring)[0]
    maps = combinatorial_isos(ring, ring, phi)
    assert len(maps) == 8  # one coset of the translations
    ident_phi = next(p for p in algebraic_isos(ring, ring)
                     if p.cell_map == tuple(range(ring.rank)))
    auts = combinatorial_isos(ring, ring, ident_phi)
    assert sorted(auts) == sorted(right_regular(c8).elements())


def test_every_combinatorial_iso_induces_its_algebraic_iso(c9):
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    isos = algebraic_isos(wr, wr)
    for phi in isos[:4]:
        for f in combinatorial_isos(wr, wr, phi)[:10]:
            induced = induced_algebraic(wr, wr, f)
            assert induced is not None and induced.cell_map == phi.cell_map


def test_algebraic_image_wreath_sections(c27, table_rings):
    """Algebraic isomorphisms carry wreath sections to wreath sections."""
    from srings.construct import is_wreath_for

    for ring in (table_rings[3], table_rings[5]):
        sections = decompositions(ring)
        for phi in algebraic_isos(ring, ring)[:6]:
            for section in sections:
                image = algebraic_image(phi, section)
                assert is_wreath_for(ring, image)


def test_algebraic_image_sets(table_rings):
    ring = table_rings[6]
    phi = algebraic_isos(ring, ring)[0]
    full = frozenset(range(27))
    assert algebraic_image(phi, frozenset([0])) == frozenset([0])
    assert algebraic_image(phi, full) == full


def test_restrict_perm(c27):
    U = subgroup_span(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    L = subgroup_span(c27, [c27.index((1, 0, 0))])
    section = Section(U, L)
    ident = tuple(range(27))
    assert restrict_perm(ident, section) == tuple(range(9 // 3))
    u = c27.index((0, 1, 0))
    trans = c27.translation(u)
    induced = restrict_perm(trans, section)
    assert induced == tuple(section.proj[c27.add(section.lift[q], u)]
                            for q in range(3))
    swap = c27.translation(c27.index((0, 0, 1)))
    with pytest.raises(SectionNotPreserved):
        restrict_perm(swap, section)


def test_delta_section(c27, table_rings):
    U = subgroup_span(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    section = Section(U, U)
    assert delta_section([GroupAut.identity(c27)], section) == [(0,)]
    # group-ring Cayley automorphisms are trivial, so the projection is too
    _g, auts = cayley_auts(group_ring(c27))
    big = Section(full_subgroup(c27),
                  subgroup_span(c27, [c27.index((1, 0, 0))]))
    assert delta_section(auts, big) == [tuple(range(9))]


def test_delta_section_under_section_ring(c27, table_rings):
    """Projected Cayley automorphisms land inside the section ring's own
    Cayley automorphism group."""
    ring = table_rings[5]
    section = next(s for s in decompositions(ring)
                   if s.U.order == 9 and s.L.order == 3)
    from srings.construct import quotient

    sec_ring = quotient(ring, section)
    sec_group, _ = cayley_auts(sec_ring)
    top, chart, _, _ = wreath_parts(ring, section)
    _g, top_auts = cayley_auts(top)
    inner = Section(full_subgroup(chart.quotient),
                    subgroup_span(chart.quotient,
                                  [chart.proj[x]
                                   for x in section.L.elements
                                   if x != 0][:1]))
    for perm in delta_section(top_auts, inner):
        assert sec_group.contains(perm)


def test_algebraic_realizability_census(catalog_c8, c8):
    """Record how many sampled algebraic isomorphisms admit no point
    realization.  Nothing is asserted about existence either way; the
    census itself is the artifact."""
    from srings.morphisms import has_combinatorial_iso

    rings = [e.ring(c8) for e in catalog_c8.entries]
    unrealized = 0
    total = 0
    for a in rings:
        for b in rings:
            if a.rank != b.rank:
                continue
            for phi in algebraic_isos(a, b)[:2]:
                total += 1
                if not has_combinatorial_iso(a, b, phi):
                    unrealized += 1
    print(f"\nalgebraic isomorphisms without a point realization: "
          f"{unrealized}/{total}")
    assert total > 0


def test_cayley_self_isos_exceed_cell_fixing_auts(table_rings):
    """Self Cayley isomorphisms may permute cells; the cell-fixing group is
    a proper subgroup in general (order 27 against 216 for the tower)."""
    tower = table_rings[5]
    isos = cayley_isos(tower, tower)
    group, _ = cayley_auts(tower)
    assert group.order() == 27
    assert len(isos) == 216
    assert len(isos) % group.order() == 0


def test_combinatorial_isos_listing_bound(table_rings):
    from srings.errors import ResourceBoundExceeded

    tower = table_rings[5]
    ident = next(p for p in algebraic_isos(tower, tower)
                 if p.cell_map == tuple(range(tower.rank)))
    with pytest.raises(ResourceBoundExceeded):
        combinatorial_isos(tower, tower, ident, limit=5)


@pytest.mark.parametrize("ring_name", ["group ring 2^3", "wreath 3^2"])
def test_combinatorial_isos_lists_exactly_limit_maps(ring_name, c8, c9):
    if ring_name == "group ring 2^3":
        ring = group_ring(c8)
    else:
        ring = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    ident = next(p for p in algebraic_isos(ring, ring)
                 if p.cell_map == tuple(range(ring.rank)))
    # the maps realizing the identity algebraic iso are the automorphisms
    expected = sorted(scheme_aut(ring).elements())
    n_maps = len(expected)
    assert combinatorial_isos(ring, ring, ident, limit=n_maps) == expected
    with pytest.raises(ResourceBoundExceeded) as info:
        combinatorial_isos(ring, ring, ident, limit=n_maps - 1)
    assert info.value.limit == n_maps - 1


def test_subgroups_between_jordan_aut(table_rings, c27):
    from srings.permgrp import right_regular, subgroups_between

    between = subgroups_between(right_regular(c27),
                                scheme_aut(table_rings[6]))
    assert len(between) == 2  # prime index leaves no room in between


def test_2_minimality(c27, table_rings):
    assert is_2_minimal(group_ring(c27))
    assert is_2_minimal(table_rings[6])
    bad = make_plain_wreath(c27,
                            [c27.index((1, 0, 0)), c27.index((0, 1, 0))],
                            [c27.index((1, 0, 0))])
    assert not is_2_minimal(bad)


def test_2_minimality_of_indecomposables(catalog_c27_p, c27):
    for entry in catalog_c27_p.entries:
        if not entry.decomposable:
            assert is_2_minimal(entry.ring(c27))


def test_cayley_minimality(c27, c9, table_rings):
    assert is_cayley_minimal(table_rings[3])
    assert not is_cayley_minimal(table_rings[5])
    assert is_cayley_minimal(group_ring(c27))
    # the rank-2 ring over 3^2: GL(2,3), of order 48, has proper subgroups
    # transitive on the 8 non-identity elements
    rank2 = validate_partition(c9, [{0}, set(range(1, 9))])
    assert cayley_auts(rank2)[0].order() == 48
    assert is_cayley_minimal(rank2) is False


@pytest.fixture(scope="module")
def rank2_over_2_3(c8):
    ring = validate_partition(c8, [{0}, set(range(1, 8))])
    assert cayley_auts(ring)[0].order() == 168  # GL(3,2)
    assert scheme_aut(ring).is_symmetric()
    return ring


def test_2_minimality_of_the_rank_2_ring_over_2_3(rank2_over_2_3):
    # Aut = Sym(8) lies 5,040 above the translations; AGL(3,2) is one of
    # the proper subgroups between them that are 2-transitive
    assert is_2_minimal(rank2_over_2_3) is False


def test_cayley_minimality_stops_at_the_first_witness(monkeypatch,
                                                      rank2_over_2_3):
    """GL(3,2) has 179 subgroups; the walk stops at a cyclic subgroup
    transitive on the 7 non-identity elements."""
    from srings import morphisms, permgrp

    built = []

    def counted(H, K):
        for M in permgrp._cyclic_extensions(H, K):
            built.append(M)
            yield M

    monkeypatch.setattr(morphisms, "_cyclic_extensions", counted)
    assert is_cayley_minimal(rank2_over_2_3) is False
    assert built and built[-1].order() == 7
    assert len(built) <= 179 // 4


def test_cayley_minimality_all_but_tower(catalog_c27_p, c27, table_rings):
    from srings.catalog import canonical_form

    tower = canonical_form(table_rings[5])
    for entry in catalog_c27_p.entries:
        expected = entry.canonical != tower
        assert is_cayley_minimal(entry.ring(c27)) == expected


@pytest.mark.parametrize("group,sring_filter",
                         [("2^3", "all"), ("3^2", "all"), ("2^2x3", "all"),
                          ("3^3", "p-srings")])
def test_cayley_minimality_agrees_with_closure_oracle(group, sring_filter):
    """is_cayley_minimal against closing every subgroup of the Cayley
    automorphism group by brute force, on every catalog ring whose Cayley
    group has order at most 48.  That leaves out one ring, the rank-2 ring
    over 2^3 (|GL(3,2)| = 168, with 179 subgroups), which is too slow for
    the oracle to close here."""
    spec = parse_group(group)
    checked = 0
    for ring in enumerate_srings(spec, sring_filter, label=False).rings():
        if cayley_auts(ring)[0].order() <= 48:
            assert is_cayley_minimal(ring) == cayley_minimal_by_closure(ring)
            checked += 1
    assert checked


def test_is_cyclotomic(c27, table_rings):
    for i in (1, 2, 3, 4, 5, 6):
        assert is_cyclotomic(table_rings[i])


@pytest.mark.parametrize("group, sring_filter, unlabeled", [
    ("2^3", "all", []), ("3^2", "all", []), ("2^2x3", "all", [0, 22]),
    ("2^4", "all", []), ("2x3^2", "all", [0, 5, 6]),
    ("3^3", "p-srings", [])])
def test_cyclotomic_generators_agree_with_greedy_listing(group, sring_filter,
                                                         unlabeled):
    """The same generators, or None, as the greedy pass over the full
    listing, on every ring; the indecomposable rings that are not
    cyclotomic keep no label."""
    spec = parse_group(group)
    catalog = enumerate_srings(spec, sring_filter, label=False)
    missing = []
    for i, ring in enumerate(catalog.rings()):
        expected = cyclotomic_generators_by_listing(ring)
        assert cyclotomic_generators(ring) == expected, i
        assert is_cyclotomic(ring) == (expected is not None), i
        if expected is None and not decompositions(ring):
            missing.append(i)
    assert missing == unlabeled


def test_cyclotomic_generators_stop_early_in_the_stream(monkeypatch, c16):
    """The rank-2 ring over 2^4 is the orbit ring of its first 9
    non-identity Cayley automorphisms; all 20,160 elements of GL(4,2)
    are Cayley automorphisms."""
    yielded = []
    original = morphisms.cell_maps

    def counting(*args, **kwargs):
        for g in original(*args, **kwargs):
            yielded.append(g)
            yield g

    monkeypatch.setattr(morphisms, "cell_maps", counting)
    ring = validate_partition(c16, [{0}, set(range(1, 16))])
    assert is_cyclotomic(ring)
    assert len(yielded) <= 10


def test_rank2_ring_over_2_5_gets_a_cyclotomic_label():
    spec = parse_group("2^5")
    ring = validate_partition(spec, [{0}, set(range(1, 32))])
    start = time.process_time()
    label = recognize_construction(ring)
    assert time.process_time() - start < 2
    assert label.startswith("cyc(") and label.count("|") == 384


def test_cyclotomic_overrun_raises_and_drops_the_label(monkeypatch, c16):
    """The prefix of the rank-2 ring over 2^4 costs 14 nodes.  One node
    less raises, caches nothing, and leaves the ring unlabeled."""
    ring = validate_partition(c16, [{0}, set(range(1, 16))])
    for budget in (1, 13):
        with pytest.raises(ResourceBoundExceeded):
            is_cyclotomic(ring, replace(DEFAULT_BOUNDS,
                                        backtrack_node_budget=budget))
    monkeypatch.setattr(morphisms, "_Budget", lambda limit: _Budget(13))
    assert recognize_construction(ring) is None
    monkeypatch.setattr(morphisms, "_Budget", lambda limit: _Budget(14))
    assert len(cyclotomic_generators(ring)) == 9


def test_induced_algebraic_rejects_non_isos(c8):
    ring = group_ring(c8)
    rank2 = validate_partition(c8, [{0}, set(range(1, 8))])
    f = tuple(range(8))
    assert induced_algebraic(ring, rank2, f) is None
    bad = (0, 1, 2, 3, 4, 5, 7, 6)
    wr = make_plain_wreath(c8, [1, 2], [1])
    got = induced_algebraic(wr, wr, bad)
    # bad swaps two points inside one coset cell only if that preserves
    # colors; verify agreement with a direct check
    direct = True
    for x in range(8):
        for y in range(8):
            src = wr.cell_of[c8.sub(y, x)]
            dst = wr.cell_of[c8.sub(bad[y], bad[x])]
            if src != dst:
                direct = False
    assert (got is not None and got.cell_map == tuple(range(wr.rank))) \
        == direct
