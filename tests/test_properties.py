"""Property tests over random catalog rings and random automorphisms."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from srings.catalog import canonical_form
from srings.ci import CIDecider, image_sring, lift_isomorphism, verify_lift
from srings.construct import decompositions, sring_image
from srings.groups import aut_generators
from srings.morphisms import scheme_aut
from srings.permgrp import pmul, regular_subgroups

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def _catalog_rings(catalog_c8, catalog_c12, catalog_c27_p):
    return catalog_c8.rings() + catalog_c12.rings() + catalog_c27_p.rings()


@PROPERTY_SETTINGS
@given(data=st.data())
def test_structure_constants_commute_and_count_pairs(
        data, catalog_c8, catalog_c12, catalog_c27_p):
    """c^k_ij = c^k_ji over an abelian group, and sum_k c^k_ij |X_k|
    counts all |X_i| |X_j| pairs."""
    ring = data.draw(st.sampled_from(
        _catalog_rings(catalog_c8, catalog_c12, catalog_c27_p)))
    table = ring.structure_constants()
    sizes = [len(c) for c in ring.cells]
    for i in range(ring.rank):
        for j in range(ring.rank):
            assert table[(i, j)] == table[(j, i)]
            assert sum(c * s for c, s in zip(table[(i, j)], sizes)) == \
                sizes[i] * sizes[j]


@PROPERTY_SETTINGS
@given(data=st.data())
def test_canonical_form_is_aut_invariant(
        data, catalog_c8, catalog_c12, catalog_c27_p):
    """The image of a ring under a random group automorphism, a word in
    the generators of Aut(G), has the ring's canonical form."""
    ring = data.draw(st.sampled_from(
        _catalog_rings(catalog_c8, catalog_c12, catalog_c27_p)))
    gens = [g.perm for g in aut_generators(ring.spec)]
    word = data.draw(st.lists(st.sampled_from(gens), max_size=12))
    perm = tuple(range(ring.spec.order))
    for g in word:
        perm = pmul(perm, g)
    assert canonical_form(sring_image(ring, perm)) == canonical_form(ring)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_regular_subgroup_classes_are_aut_invariant(
        data, catalog_c8, catalog_c12):
    """Relabeling a ring by a random group automorphism, a word in the
    generators of Aut(G), conjugates its scheme automorphism group, so the
    regular-subgroup search finds as many classes with the same flags."""
    ring = data.draw(st.sampled_from(catalog_c8.rings() + catalog_c12.rings()))
    gens = [g.perm for g in aut_generators(ring.spec)]
    word = data.draw(st.lists(st.sampled_from(gens), max_size=12))
    perm = tuple(range(ring.spec.order))
    for g in word:
        perm = pmul(perm, g)

    def flags(a):
        return [c.is_translation_class
                for c in regular_subgroups(scheme_aut(a), a.spec)]

    assert flags(sring_image(ring, perm)) == flags(ring)


@pytest.fixture(scope="session")
def liftable_sections(catalog_c8, catalog_c12, catalog_c27_p):
    """Every (ring, section) of the three catalogs whose wreath factors are
    CI and where the section condition holds, as evaluate_section judges."""
    decider = CIDecider()
    pairs = []
    for ring in _catalog_rings(catalog_c8, catalog_c12, catalog_c27_p):
        for section in decompositions(ring):
            judged = decider.evaluate_section(ring, section)
            if judged is not None and judged[0]:
                pairs.append((ring, section))
    return pairs


@PROPERTY_SETTINGS
@given(data=st.data())
def test_lift_of_a_random_isomorphism_verifies(data, liftable_sections):
    """For a scheme automorphism k and a word sigma in the generators of
    Aut(G), f = k sigma maps the ring onto b = image_sring(ring, f); the
    lift over a section with CI factors where the condition holds is a
    group automorphism onto b that induces f's algebraic isomorphism."""
    ring, section = data.draw(st.sampled_from(liftable_sections))
    k = scheme_aut(ring).random_element(data.draw(st.randoms()))
    gens = [g.perm for g in aut_generators(ring.spec)]
    f = k
    for g in data.draw(st.lists(st.sampled_from(gens), max_size=12)):
        f = pmul(f, g)
    b = image_sring(ring, f)
    alpha = lift_isomorphism(ring, b, f, section)
    assert verify_lift(ring, b, f, alpha)
