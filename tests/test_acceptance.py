"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Criteria needing hours-scale budgets only run with
SRINGS_EXTENDED=1 in the environment.
"""

import os
import random
import time

import pytest

from srings.config import extended_bounds
from srings.groups import Section, all_auts, parse_group, subgroup_span
from srings.permgrp import pmul
from srings.sring import radical
from srings.construct import (decompositions, group_ring, is_wreath_for,
                              quotient, tensor)
from srings.morphisms import (algebraic_image, algebraic_isos, cayley_auts,
                              is_2_minimal, is_cayley_minimal, is_cyclotomic,
                              scheme_aut)
from srings.ci import (CIDecider, condition_holds, image_sring, is_ci,
                       is_ci_bruteforce, lift_isomorphism, verify_criterion,
                       verify_lift)
from srings.catalog import enumerate_srings, rank3_classification

from conftest import make_plain_wreath, thin_wreath_facts

EXTENDED = os.environ.get("SRINGS_EXTENDED") == "1"


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_rank3_classification():
    t0 = time.time()
    report = rank3_classification(3)
    elapsed = time.time() - t0
    rows = report["rows"]
    ok = (report["classes"] == 6
          and [r["decomposable"] for r in rows] == [False, True, True, True,
                                                    True, False]
          and [r["thin_radical_order"] for r in rows] == [27, 9, 3, 9, 3, 3]
          and all(r["template"] for r in rows)
          and elapsed < 600)
    _report(1, ok, f"6 classes matched in {elapsed:.1f}s")


def test_criterion_2_jordan_class_aut_orders(table_rings):
    t0 = time.time()
    group = scheme_aut(table_rings[6])
    ok = group.order() == 81 and group.point_stabilizer(0).order() == 3
    _report(2, ok, f"|Aut|={group.order()}, stabilizer="
                   f"{group.point_stabilizer(0).order()} "
                   f"in {time.time() - t0:.1f}s")


def test_criterion_3_minimality_values(c27, table_rings):
    checks = []
    checks.append(cayley_auts(table_rings[5])[0].order() == 27)
    checks.append(is_cayley_minimal(table_rings[5]) is False)
    checks.append(cayley_auts(table_rings[3])[0].order() == 9)
    checks.append(is_cayley_minimal(table_rings[3]) is True)
    checks.append(is_2_minimal(group_ring(c27)) is True)
    checks.append(is_2_minimal(table_rings[6]) is True)
    mixed = make_plain_wreath(c27,
                              [c27.index((1, 0, 0)), c27.index((0, 1, 0))],
                              [c27.index((1, 0, 0))])
    checks.append(is_2_minimal(mixed) is False)
    _report(3, all(checks), f"{sum(checks)}/7 exact values")


def test_criterion_4_criterion_verification_mandatory():
    t0 = time.time()
    results = {}
    for group_text in ("2^3", "2^2x3"):
        spec = parse_group(group_text)
        catalog = enumerate_srings(spec, "all", label=False)
        report = verify_criterion(catalog.rings())
        results[group_text] = report
    elapsed = time.time() - t0
    ok = all(
        not r["soundness_violations"] and not r["undecided_entries"]
        and (r["criterion_every_section"] or r["criterion_some_section"])
        for r in results.values()) and elapsed < 3600
    detail = "; ".join(
        f"{g}: sound={not r['soundness_violations']}, "
        f"every={r['criterion_every_section']}, "
        f"some={r['criterion_some_section']}"
        for g, r in results.items())
    _report(4, ok, f"{detail} in {elapsed:.0f}s")


@pytest.mark.skipif(not EXTENDED, reason="hours-scale run; set "
                                         "SRINGS_EXTENDED=1 to enable")
@pytest.mark.parametrize("group_text", ["3^3", "2x3^2"])
def test_criterion_4_extended(group_text):
    bounds = extended_bounds()
    spec = parse_group(group_text, max_order=bounds.max_group_order)
    catalog = enumerate_srings(spec, "all", bounds, label=False)
    report = verify_criterion(catalog.rings(), bounds)
    ok = not report["soundness_violations"]
    _report("4-extended", ok,
            f"{group_text}: {len(report['records'])} decomposable entries, "
            f"{len(report['undecided_entries'])} undecided")


@pytest.mark.skipif(not EXTENDED, reason="25-s run; set SRINGS_EXTENDED=1 "
                                         "to enable")
def test_ci_of_the_largest_2x3_2_group():
    # |Aut(A)| = 263,363,788,800, decided under the default bounds
    t0 = time.time()
    spec = parse_group("2x3^2")
    catalog = enumerate_srings(spec, "all", label=False)
    status = is_ci(catalog.entries[7].ring(spec))
    translations = tuple(spec.translation(b) for b in spec.basis())
    ok = (status.verdict == "CI"
          and status.witness == {"classes": [translations]})
    _report("2x3^2 entry 7", ok,
            f"{status.verdict} in {time.time() - t0:.1f}s")


def test_criterion_5_oracle_equivalence(catalog_c8, c8):
    t0 = time.time()
    agreements = 0
    for entry in catalog_c8.entries:
        ring = entry.ring(c8)
        if is_ci(ring).verdict == is_ci_bruteforce(ring).verdict:
            agreements += 1
    ok = agreements == len(catalog_c8.entries)
    _report(5, ok, f"{agreements}/{len(catalog_c8.entries)} entries agree "
                   f"in {time.time() - t0:.1f}s")


def test_criterion_6_property_suites(catalog_c8, catalog_c12, catalog_c27_p,
                                     c8, c12, c27):
    violations = []

    def check(name, cond):
        if not cond:
            violations.append(name)

    catalogs = [(catalog_c8, c8), (catalog_c12, c12), (catalog_c27_p, c27)]

    # coprime power maps never break cells
    for catalog, spec in catalogs:
        for entry in catalog.entries:
            ring = entry.ring(spec)
            try:
                for m in spec.multipliers():
                    for i in range(ring.rank):
                        ring.power_map_cell(i, m)
            except Exception:
                check("power-map", False)

    # p-ring lemmas over the order-27 catalog
    for entry in catalog_c27_p.entries:
        ring = entry.ring(c27)
        thin = ring.thin_radical()
        # a cell of size |G|/p forces the index-p wreath
        if any(len(c) == 9 for c in ring.cells):
            check("wreath-forcing",
                  any(U.order == 9 and is_wreath_for(ring, Section(U, U))
                      for U in ring.a_subgroups()))
        for U in ring.a_subgroups():
            if U.order != 9:
                continue
            for cell in ring.cells:
                base = min(cell)
                check("coset-containment",
                      all(U.contains(c27.sub(x, base)) for x in cell))
                if thin.meet(U).order * len(cell) > 9:
                    check("thin-radical-bound",
                          thin.meet(radical(c27, cell)).order > 1)
        # thin radical of index p forces the full structure
        if thin.order * 3 == 27:
            for fact, holds in thin_wreath_facts(ring).items():
                check(f"thin-{fact}", holds)
            check("thin-cyclotomic", is_cyclotomic(ring))
            check("thin-cayley-minimal", is_cayley_minimal(ring))
            check("thin-ci", is_ci(ring).verdict == "CI")

    # tensor forcing over the mixed-prime catalog
    sub2 = subgroup_span(c12, [c12.index((1, 0, 0)), c12.index((0, 1, 0))])
    sub3 = subgroup_span(c12, [c12.index((0, 0, 1))])
    for entry in catalog_c12.entries:
        ring = entry.ring(c12)
        if not (ring.is_a_set(sub2.elements) and ring.is_a_set(sub3.elements)):
            continue
        r2 = quotient(ring, Section(sub2))
        r3 = quotient(ring, Section(sub3))
        if r2.rank == 4 or r3.rank == 3:
            check("tensor-forcing", tensor(r2, r3).cells == ring.cells)

    # algebraic isomorphisms preserve wreath sections
    for entry in catalog_c27_p.entries:
        ring = entry.ring(c27)
        sections = decompositions(ring)
        if not sections:
            continue
        for phi in algebraic_isos(ring, ring)[:4]:
            for section in sections[:3]:
                check("wreath-image",
                      is_wreath_for(ring, algebraic_image(phi, section)))

    # quotient commutes with the orbit constructions (sampled)
    from srings.groups import GroupAut
    from srings.construct import cyclotomic, schurian
    from srings.permgrp import PermGroup
    from srings.morphisms import restrict_perm

    sigma = GroupAut(c27, [((1, 1, 0), (0, 1, 1), (0, 0, 1))])
    gens = [c27.translation(b) for b in c27.basis()] + [sigma.perm]
    k = PermGroup(27, gens)
    ring = schurian(k, c27)
    U = subgroup_span(c27, [c27.index((0, 1, 0)), c27.index((0, 0, 1))])
    L = subgroup_span(c27, [c27.index((0, 0, 1))])
    section = Section(U, L)
    q = quotient(ring, section)
    projected = set()
    for g in k.elements():
        if all(U.contains(g[u]) for u in U.elements):
            try:
                projected.add(restrict_perm(g, section))
            except Exception:
                pass
    kq = PermGroup(section.quotient.order, sorted(projected))
    check("quotient-orbit-stabilizer", schurian(kq, section.quotient).cells
          == q.cells)
    check("quotient-orbit-aut",
          cyclotomic([restrict_perm(sigma.perm, section)],
                     section.quotient).cells == q.cells)

    _report(6, not violations, f"violations: {violations or 'none'}")


def test_criterion_7_constructive_lift(c27, c16):
    t0 = time.time()
    rng = random.Random(2026)
    instances = []
    builders = []
    u27 = [c27.index((1, 0, 0)), c27.index((0, 1, 0))]
    l27 = [c27.index((1, 0, 0))]
    builders.append((c27, make_plain_wreath(c27, u27, l27),
                     Section(subgroup_span(c27, u27),
                             subgroup_span(c27, l27))))
    builders.append((c27, make_plain_wreath(c27, u27, u27),
                     Section(subgroup_span(c27, u27),
                             subgroup_span(c27, u27))))
    builders.append((c16, make_plain_wreath(c16, [1, 2, 4], [1]),
                     Section(subgroup_span(c16, [1, 2, 4]),
                             subgroup_span(c16, [1]))))
    builders.append((c16, make_plain_wreath(c16, [1, 2], [1]),
                     Section(subgroup_span(c16, [1, 2]),
                             subgroup_span(c16, [1]))))
    for spec, ring, section in builders:
        parts = CIDecider()
        ctx_ok = condition_holds(ring, section)
        assert ctx_ok, "builders must satisfy the factorization condition"
        aut = scheme_aut(ring)
        auts = all_auts(spec)
        per = 25
        for _ in range(per):
            f = pmul(aut.random_element(rng), rng.choice(auts).perm)
            instances.append((ring, section, f))
    passed = 0
    for ring, section, f in instances:
        target = image_sring(ring, f)
        alpha = lift_isomorphism(ring, target, f, section)
        if verify_lift(ring, target, f, alpha):
            passed += 1
    elapsed = time.time() - t0
    ok = passed == len(instances) >= 100 and elapsed < 600
    _report(7, ok, f"{passed}/{len(instances)} lifts verified "
                   f"in {elapsed:.1f}s")


def test_criterion_8_out_of_scope_documented():
    # Full-scale reproductions excluded by design: rank-4/5 sweeps and
    # order-243 enumerations stay out; the property suites above stand in.
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = os.path.join(here, "README.md")
    ok = os.path.exists(readme)
    if ok:
        with open(readme, encoding="utf-8") as fh:
            text = fh.read().lower()
        ok = "scope" in text
    _report(8, ok, "desk-scale limits documented in README")
