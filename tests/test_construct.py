import pytest

from srings.errors import IncompatibleOnSection, PartitionError
from srings.groups import (GroupAut, Section, full_subgroup, parse_group,
                           subgroup_span, trivial_subgroup)
from srings.permgrp import holomorph, right_regular, PermGroup
from srings.sring import SRing, validate_partition
from srings.construct import (cyclotomic, decompositions, group_ring,
                              is_wreath_for, parse_construction, quotient,
                              recognize_construction, schurian, sring_image,
                              tensor, wreath, wreath_parts)

from conftest import (is_wreath_for_by_radicals, make_plain_wreath,
                      tensor_cells_by_coordinates)


def test_group_ring_ranks(c3, c8):
    assert group_ring(c3).rank == 3
    assert group_ring(c8).rank == 8
    assert group_ring(c8).thin_radical().order == 8


def test_cyclotomic_empty_and_full(c27):
    assert cyclotomic([], c27).cells == group_ring(c27).cells
    from srings.groups import aut_generators

    assert cyclotomic(aut_generators(c27), c27).rank == 2


def test_cyclotomic_jordan_block(c27):
    sigma = GroupAut(c27, [((1, 1, 0), (0, 1, 1), (0, 0, 1))])
    ring = cyclotomic([sigma], c27)
    assert ring.rank == 11
    assert ring.thin_radical().order == 3


def test_schurian(c27):
    assert schurian(right_regular(c27), c27).cells == group_ring(c27).cells
    assert schurian(holomorph(c27), c27).rank == 2
    sigma = GroupAut(c27, [((1, 1, 0), (0, 1, 1), (0, 0, 1))])
    gens = [c27.translation(b) for b in c27.basis()] + [sigma.perm]
    k = PermGroup(27, gens)
    assert schurian(k, c27).cells == cyclotomic([sigma], c27).cells


def test_schurian_requires_translations(c27):
    from srings.groups import aut_group

    with pytest.raises(ValueError):
        schurian(aut_group(c27), c27)


def test_tensor_ranks(c3):
    t = tensor(group_ring(c3), group_ring(c3))
    assert t.spec.order == 9
    assert t.rank == 9
    c9 = parse_group("3^2")
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    prod = tensor(wr, group_ring(c3))
    assert prod.rank == wr.rank * 3
    assert prod.thin_radical().order == 9


def test_tensor_mixed_primes(c3):
    c4 = parse_group("2^2")
    t = tensor(group_ring(c4), group_ring(c3))
    assert t.spec.factors == ((2, 2), (3, 1))
    assert t.rank == 12


@pytest.mark.parametrize("g1,g2", [("2^2", "3"), ("3^2", "3"), ("3", "3^2")])
def test_tensor_cells_match_coordinate_embedding(g1, g2):
    from srings.catalog import enumerate_srings

    rings1 = enumerate_srings(parse_group(g1), "all", label=False).rings()
    rings2 = enumerate_srings(parse_group(g2), "all", label=False).rings()
    for a1 in rings1:
        for a2 in rings2:
            t = tensor(a1, a2)
            assert set(t.cells) == tensor_cells_by_coordinates(a1, a2, t.spec)


def test_quotient_cases(c27, table_rings):
    full = full_subgroup(c27)
    U = subgroup_span(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    ring = table_rings[5]
    assert quotient(ring, Section(U, U)).rank == 1
    restr = quotient(ring, Section(U, trivial_subgroup(c27)))
    assert restr == quotient(ring, Section(U))
    L = subgroup_span(c27, [c27.index((1, 0, 0))])
    q = quotient(table_rings[2], Section(full, U))
    assert q.rank == 3  # full group ring of the quotient line


def test_quotient_requires_section(c27, table_rings):
    bad_u = subgroup_span(c27, [c27.index((0, 1, 1))])
    with pytest.raises(PartitionError):
        quotient(table_rings[3], Section(bad_u, trivial_subgroup(c27)))


def test_wreath_rank_formula(c9, c27, table_rings):
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    assert wr.rank == 5
    assert table_rings[5].rank == 7
    # degenerate: L trivial, U = G reproduces the top ring
    chart = Section(full_subgroup(c9))
    glq = Section(full_subgroup(c9), trivial_subgroup(c9))
    ring = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    top = validate_partition(chart.quotient,
                             [frozenset(chart.proj[x] for x in c)
                              for c in ring.cells])
    quot_ring = validate_partition(glq.quotient,
                                   [frozenset(glq.proj[x] for x in c)
                                    for c in ring.cells])
    rebuilt = wreath(top, quot_ring,
                     Section(full_subgroup(c9), trivial_subgroup(c9)))
    assert rebuilt.cells == ring.cells


def test_wreath_incompatible_sections(c27):
    U = subgroup_span(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    L = subgroup_span(c27, [c27.index((1, 0, 0))])
    chart = Section(U)
    glq = Section(full_subgroup(c27), L)
    # top factor fuses U minus the identity; quotient factor is the full
    # group ring, so the two disagree on U/L.  The witness is the top cell
    # that straddles L, in G's coordinates.
    top_cells = [{0}, set(range(1, chart.quotient.order))]
    top_ring = validate_partition(chart.quotient, top_cells)
    with pytest.raises(IncompatibleOnSection) as err:
        wreath(top_ring, group_ring(glq.quotient), Section(U, L))
    assert err.value.cell == U.elements - {0}
    # and a section that is not even a cell union of the quotient factor:
    # the first top cell outside L projects onto a singleton, which is not
    # a cell of the quotient factor
    quot_cells = [{0}, set(range(1, 9))]
    quot_ring = validate_partition(glq.quotient, quot_cells)
    with pytest.raises(IncompatibleOnSection) as err:
        wreath(group_ring(chart.quotient), quot_ring, Section(U, L))
    assert err.value.cell == {c27.index((0, 1, 0))}


@pytest.mark.parametrize("text", [
    "tensor[2^2,3]ZG", "tensor[2^2,3]", "tensor[2^2,3](ZG)",
    "tensor[2^2](ZG,ZG)",
    "wr", "wr(ZG,ZG;U=[(1,0)])", "cyc", "cyc([(1,0);(0,1)]", "ZGZG", ""])
def test_parse_construction_rejects_malformed(c9, text):
    with pytest.raises(ValueError):
        parse_construction(text, c9)


def test_decompositions_match_expected_flags(table_rings):
    flags = {i: bool(decompositions(table_rings[i])) for i in table_rings}
    assert flags == {1: False, 2: True, 3: True, 4: True, 5: True, 6: False}


def test_decomposition_round_trip(c27, table_rings):
    for i in (2, 3, 4, 5):
        ring = table_rings[i]
        for section in decompositions(ring):
            top, chart, quot, glq = wreath_parts(ring, section)
            rebuilt = wreath(top, quot, section)
            assert rebuilt.cells == ring.cells
            assert is_wreath_for(ring, section)


@pytest.mark.parametrize("catalog", ["catalog_c8", "catalog_c12",
                                     "catalog_c16", "catalog_c27_p"])
def test_is_wreath_for_matches_radical_oracle(request, catalog):
    """is_wreath_for answers from decompositions when 1 < |L| and U < G
    and from the A-set test otherwise; both must agree with the radicals
    on every nested pair of cell-union subgroups."""
    catalog = request.getfixturevalue(catalog)
    checked = 0
    for ring in catalog.rings():
        for section in ring.a_sections():
            assert is_wreath_for(ring, section) == \
                is_wreath_for_by_radicals(ring, section)
            checked += 1
    assert checked


def test_decompositions_example_u_equals_l(c27):
    U = subgroup_span(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    ring = make_plain_wreath(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))],
                             [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    secs = decompositions(ring)
    assert any(s.U.order == 9 and s.L.order == 9 for s in secs)


def test_tensor_product_forcing(catalog_c12, c12):
    """If both coordinate factors are cell unions and one restriction is a
    group ring, the ring is forced to be their tensor product."""
    sub2 = subgroup_span(c12, [c12.index((1, 0, 0)), c12.index((0, 1, 0))])
    sub3 = subgroup_span(c12, [c12.index((0, 0, 1))])
    hits = 0
    for entry in catalog_c12.entries:
        ring = entry.ring(c12)
        if not (ring.is_a_set(sub2.elements) and ring.is_a_set(sub3.elements)):
            continue
        r2 = quotient(ring, Section(sub2))
        r3 = quotient(ring, Section(sub3))
        if r2.rank == 4 or r3.rank == 3:
            assert tensor(r2, r3).cells == ring.cells
            hits += 1
    assert hits >= 3


def test_quotient_commutes_with_schurian(c27):
    sigma = GroupAut(c27, [((1, 1, 0), (0, 1, 1), (0, 0, 1))])
    gens = [c27.translation(b) for b in c27.basis()] + [sigma.perm]
    k = PermGroup(27, gens)
    ring = schurian(k, c27)
    U = subgroup_span(c27, [c27.index((0, 1, 0)), c27.index((0, 0, 1))])
    L = subgroup_span(c27, [c27.index((0, 0, 1))])
    for section in (Section(U, L), Section(full_subgroup(c27), L)):
        q = quotient(ring, section)
        # project the subgroup of Sym(G) stabilizing the section
        projected = set()
        for g in k.elements():
            if all(section.U.contains(g[u]) for u in section.U.elements):
                image = [-1] * section.quotient.order
                ok = True
                for u in section.U.elements:
                    s, t = section.proj[u], section.proj[g[u]]
                    if image[s] == -1:
                        image[s] = t
                    elif image[s] != t:
                        ok = False
                        break
                if ok:
                    projected.add(tuple(image))
        kq = PermGroup(section.quotient.order, sorted(projected))
        assert schurian(kq, section.quotient).cells == q.cells


def test_quotient_commutes_with_cyclotomic(c27):
    sigma = GroupAut(c27, [((1, 0, 0), (1, 1, 0), (0, 1, 1))])
    ring = cyclotomic([sigma], c27)
    U = subgroup_span(c27, [c27.index((1, 0, 0)), c27.index((0, 1, 0))])
    for L_gens in ([c27.index((1, 0, 0))],):
        L = subgroup_span(c27, L_gens)
        if not (ring.is_a_set(U.elements) and ring.is_a_set(L.elements)):
            continue
        section = Section(U, L)
        q = quotient(ring, section)
        from srings.morphisms import restrict_perm

        projected = [restrict_perm(sigma.perm, section)]
        assert cyclotomic(projected, section.quotient).cells == q.cells


def test_sring_image_by_automorphism(c27, table_rings):
    from srings.groups import aut_generators

    ring = table_rings[6]
    for aut in aut_generators(c27):
        image = sring_image(ring, aut.perm)
        assert image.rank == ring.rank


def test_construction_labels_round_trip(catalog_c8, c8):
    from srings.catalog import canonical_form

    for entry in catalog_c8.entries:
        label = recognize_construction(entry.ring(c8))
        assert label is not None
        rebuilt = parse_construction(label, c8)
        assert canonical_form(rebuilt) == entry.canonical
