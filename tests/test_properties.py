"""Property tests over random catalog rings and random automorphisms."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from srings.catalog import canonical_form
from srings.ci import (CIDecider, SectionContext, image_sring,
                       lift_isomorphism, verify_lift)
from srings.construct import decompositions, quotient
from srings.groups import all_auts, aut_generators
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
    assert canonical_form(image_sring(ring, perm)) == canonical_form(ring)


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

    assert flags(image_sring(ring, perm)) == flags(ring)


@pytest.fixture(scope="session")
def liftable_sections(catalog_c8, catalog_c12, catalog_c27_p, catalog_c16):
    """Every (ring, section) of the four catalogs whose wreath factors are
    CI and where the section condition holds, as evaluate_section judges."""
    decider = CIDecider()
    pairs = []
    for ring in (_catalog_rings(catalog_c8, catalog_c12, catalog_c27_p)
                 + catalog_c16.rings()):
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


def test_lift_corrects_factor_lifts_that_disagree_on_the_section(
        liftable_sections, monkeypatch):
    """Over the 30 liftable sections of the 2^4 catalog whose section ring
    is not a group ring, f = k sigma, for a scheme automorphism k and an
    automorphism sigma of G, lifts and verify_lift passes.  The factor
    lifts phi0 and psi0, the first two maps the lift projects onto U/L,
    disagree there in some draws, so the stage-3 correction runs."""
    sections = [(ring, section) for ring, section in liftable_sections
                if ring.spec.order == 16
                and quotient(ring, section).rank < section.quotient.order]
    assert len(sections) == 30
    projected = []
    on_section = SectionContext.on_section

    def spy(ctx, g, chart):
        image = on_section(ctx, g, chart)
        projected.append(image)
        return image

    monkeypatch.setattr(SectionContext, "on_section", spy)
    rng = random.Random(1)
    disagreements = 0
    for ring, section in sections:
        auts = all_auts(ring.spec)
        k_group = scheme_aut(ring)
        for _ in range(6):
            f = pmul(k_group.random_element(rng), rng.choice(auts).perm)
            b = image_sring(ring, f)
            projected.clear()
            alpha = lift_isomorphism(ring, b, f, section)
            assert verify_lift(ring, b, f, alpha)
            disagreements += projected[0] != projected[1]
    assert disagreements
