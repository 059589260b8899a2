import dis
import hashlib
import itertools
import math
import os
import random
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from srings.catalog import enumerate_srings, load_catalog
from srings.config import DEFAULT_BOUNDS, _Budget
from srings.errors import ResourceBoundExceeded, SRingsError
from srings.groups import aut_generators, aut_group, parse_group
from srings.morphisms import scheme_aut
from srings.permgrp import (IDENT, PermGroup, _fpf_search, _greedy_group,
                            _Level, _regular_positions,
                            _stabilizer_orbit_minima, _table,
                            _transporter_chain, _transporter_exists,
                            from_generators, group_of_listing, holomorph,
                            identity_perm, orbit, orbits, pinv, pmul,
                            regular_subgroups, right_regular,
                            subgroups_between, two_equivalent)

from conftest import (_prime_order_fpf, as_tuples,
                      centralizer_fpf_by_filter, close_orbit_by_passes,
                      extend_semiregular_by_parent, fpf_elements_by_chain,
                      fpf_elements_by_streaming, merged_roots_by_tables,
                      naive_perm_closure, regular_classes_by_orbit,
                      regular_subgroups_by_search)

PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_pmul_applies_left_first():
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert pmul(a, b) == (2, 0, 1)
    assert pmul(a, None) == a
    assert pinv((1, 2, 0)) == (2, 0, 1)


def _cycle_lengths(g):
    return {_cycle_length(g, x) for x in range(len(g))}


def _cycle_length(g, x):
    length, y = 1, g[x]
    while y != x:
        length, y = length + 1, g[y]
    return length


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 16, 64]))
def test_table_kernel_agrees_with_tuples(data, n):
    a, b, c = (tuple(data.draw(st.permutations(range(n)))) for _ in "abc")
    if data.draw(st.booleans()):
        b = pmul(a, a)  # commutes with a
    ta, tb, tc = map(_table, (a, b, c))
    assert len(ta) == 256 and ta[:n] == bytes(a) and ta[n:] == IDENT[n:]
    assert _table(None) == IDENT
    assert ta.translate(tb) == _table(pmul(a, b))
    assert bytes.maketrans(ta, IDENT) == _table(pinv(a))
    assert (ta.translate(tb) == tb.translate(ta)) == \
        (pmul(a, b) == pmul(b, a))
    cinv = bytes.maketrans(tc, IDENT)
    assert cinv.translate(ta).translate(tc) == \
        _table(pmul(pmul(pinv(c), a), c))
    # the least-key contract: tables sort in tuple order
    assert sorted([ta, tb, tc]) == [_table(g) for g in sorted([a, b, c])]
    for p in (2, 3):
        assert _prime_order_fpf(ta, p, n) == (_cycle_lengths(a) == {p})
        if n % p == 0:
            # a product of n / p disjoint p-cycles
            cycles = list(a)
            r = list(range(n))
            for i in range(0, n, p):
                for j in range(p):
                    r[cycles[i + j]] = cycles[i + (j + 1) % p]
            assert _prime_order_fpf(_table(r), p, n)


def test_regular_subgroups_refuse_degree_above_256():
    spec = parse_group("2^9", max_order=512)
    with pytest.raises(ValueError, match="above 256"):
        regular_subgroups(PermGroup(512), spec)


def test_right_regular_orders():
    assert right_regular(parse_group("2^3")).order() == 8
    assert right_regular(parse_group("3^3")).order() == 27


def test_right_regular_requires_the_full_group(monkeypatch, c8):
    # translations by a basis that spans less than G generate too little
    from srings.groups import GroupSpec

    real = GroupSpec.basis
    monkeypatch.setattr(GroupSpec, "basis", lambda self: real(self)[:1])
    with pytest.raises(SRingsError, match="right regular group"):
        right_regular(c8)


def test_right_regular_fixed_point_free(c8):
    group = right_regular(c8)
    for g in group.elements():
        if g != identity_perm(8):
            assert all(g[x] != x for x in range(8))
    assert group.orbit(0) == frozenset(range(8))


def test_from_generators_cases():
    assert from_generators([], degree=5).order() == 1
    cycle = tuple([1, 2, 0] + list(range(3, 27)))
    assert from_generators([cycle]).order() == 3
    with pytest.raises(ValueError):
        from_generators([(1, 0), (1, 2, 0)])


def test_order_against_naive_closure():
    rng = random.Random(5)
    for degree, ngens in ((5, 2), (6, 2), (7, 3)):
        for _ in range(5):
            gens = []
            for _ in range(ngens):
                p = list(range(degree))
                rng.shuffle(p)
                gens.append(tuple(p))
            group = PermGroup(degree, gens)
            assert group.order() == len(naive_perm_closure(gens, degree))


def test_contains_and_elements(c9):
    group = right_regular(c9)
    els = list(group.elements())
    assert len(els) == len(set(els)) == 9
    for g in els:
        assert group.contains(g)
    assert not group.contains(tuple([1, 0] + list(range(2, 9))))


def test_group_of_listing_fails_exactly_off_groups(c8):
    """The check passes on a group in any order and fails on a listing
    with an element dropped or repeated, or one that is not closed."""
    sym3 = sorted(naive_perm_closure([(1, 0, 2), (1, 2, 0)], 3))
    assert group_of_listing(3, sym3[::-1]).order() == 6
    cyclic = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert group_of_listing(3, cyclic).order() == 3
    bad = [sym3[:-1], sym3[1:], sym3 + sym3[:1], cyclic[:2] + [(0, 2, 1)],
           [(0, 1, 2), (1, 0, 2), (0, 2, 1)]]
    for listing in bad:
        with pytest.raises(SRingsError, match="are not a group"):
            group_of_listing(3, listing)
    # a big group: Aut(C_2^3) streamed, minus one element
    autg = PermGroup(8, [a.perm for a in aut_generators(c8)])
    elements = list(autg.elements())
    assert group_of_listing(8, elements).order() == 168
    with pytest.raises(SRingsError, match="are not a group"):
        group_of_listing(8, elements[:100] + elements[101:])


def test_reduced_generators_drop_redundant_ones(c27):
    gens = [a.perm for a in aut_generators(c27)]
    group = PermGroup(27, gens + [pmul(gens[0], gens[1])])
    reduced = group.reduced_generators()
    assert set(reduced) < set(group.gens)
    assert PermGroup(27, reduced).order() == group.order() == 11232


def _chain_state(group):
    return [(lvl.point, lvl.gens, lvl.transversal, lvl.inverse,
             lvl.pairs_done) for lvl in group._levels]


def _assert_tables(perms, degree):
    """Each of perms is a 256-byte table, the identity beyond degree."""
    for g in perms:
        assert type(g) is bytes and len(g) == len(IDENT)
        assert g[degree:] == IDENT[degree:]


def _assert_inverses_undo_transversal(levels, degree):
    """Each level's transversal elements and stored inverses are tables
    that undo each other, u maps the base point to x, and the base point
    maps to IDENT."""
    for lvl in levels:
        assert lvl.inverse.keys() == lvl.transversal.keys()
        assert lvl.transversal[lvl.point] == lvl.inverse[lvl.point] == IDENT
        _assert_tables(lvl.gens, degree)
        _assert_tables(lvl.transversal.values(), degree)
        _assert_tables(lvl.inverse.values(), degree)
        for x, u in lvl.transversal.items():
            assert u[lvl.point] == x
            assert u.translate(lvl.inverse[x]) == IDENT


def test_greedy_group_builds_the_chain_of_its_generators(c12, catalog_c12):
    grown = 0
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        greedy = _greedy_group(K.degree, K.gens, K.order())
        assert greedy.order() == K.order()
        assert _chain_state(greedy) == _chain_state(
            PermGroup(K.degree, greedy.gens))
        grown += len(greedy.gens) > 1
    assert grown > len(catalog_c12.entries) // 2


def test_close_orbit_stores_the_inverse_of_each_transversal_element(c12):
    # one level on its own, with no chain: with a wrong inverse, sifting
    # into a chain (and so any PermGroup) may never finish
    level = _Level(0)
    level.gens = [_table(c12.translation(b)) for b in c12.basis()] + [
        _table(a.perm) for a in aut_generators(c12)]
    level.close_orbit()
    assert len(level.transversal) == 12
    _assert_inverses_undo_transversal([level], 12)


def _sparse_perm(rng, n):
    """A random permutation of 0..n-1: a full shuffle, or one or two
    short cycles, whose orbits take several passes to close."""
    g = list(range(n))
    if rng.random() < 0.3:
        rng.shuffle(g)
        return tuple(g)
    for _ in range(rng.randint(1, 2)):
        cycle = rng.sample(range(n), min(n, rng.randint(2, 4)))
        images = [g[x] for x in cycle]
        for x, y in zip(cycle, images[1:] + images[:1]):
            g[x] = y
    return tuple(g)


def test_close_orbit_finds_points_in_the_order_of_repeated_passes():
    """Called after each batch of new generators, as the chain calls it,
    close_orbit builds the transversal of the repeated passes over the
    whole orbit (close_orbit_by_passes), in the same insertion order."""
    rng = random.Random(11)
    passes = set()
    for _ in range(300):
        n = rng.choice([2, 5, 12, 30, 64])
        point = rng.randrange(n)
        level = _Level(point)
        expected = {point: None}
        gens = []
        for _ in range(rng.randint(1, 4)):
            batch = [_sparse_perm(rng, n) for _ in range(rng.randint(0, 3))]
            gens += batch
            level.gens += map(_table, batch)
            level.close_orbit()
            passes.add(close_orbit_by_passes(expected, gens))
            assert list(level.transversal) == list(expected)
            assert level.transversal == {x: _table(u)
                                         for x, u in expected.items()}
            _assert_inverses_undo_transversal([level], n)
    assert passes >= set(range(6))


# random_element x50 from random.Random(7), the first 200 elements() and
# strong_generators() of aut_group over 2^3, 3^2, 2^2x3, 2^4, 2x3^2 and 3^3,
# hashed from their reprs; computed with the chains of image tuples
AUT_CHAINS_DIGEST = \
    "8fcc42bc95f06c761bc289153c2b40b382b779e1f840d3a60a04ef2d831430ca"


def test_aut_group_chains_are_pinned():
    """perfbench relabels its input catalogs by random_element, so a chain
    that changed would silently change the benchmark's inputs."""
    digest = hashlib.sha256()
    for text in ("2^3", "3^2", "2^2x3", "2^4", "2x3^2", "3^3"):
        K = aut_group(parse_group(text))
        rng = random.Random(7)
        draws = [K.random_element(rng) for _ in range(50)]
        first = list(itertools.islice(K.elements(), 200))
        assert all(type(g) is tuple for g in draws + first)
        digest.update(repr((text, draws, first,
                            K.strong_generators())).encode())
    assert digest.hexdigest() == AUT_CHAINS_DIGEST


def test_chains_do_no_tuple_arithmetic(monkeypatch, catalog_c12):
    from srings import permgrp
    from srings.ci import is_ci

    calls = []

    def spy(name):
        real = getattr(permgrp, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("pmul", "pinv"):
        monkeypatch.setattr(permgrp, name, spy(name))
    verdicts = {is_ci(ring).verdict for ring in catalog_c12.rings()}
    assert verdicts == {"CI"}
    assert aut_group(parse_group("2^4")).order() == 20160
    assert calls == []


def test_degree_is_at_most_256():
    with pytest.raises(ValueError, match="above 256"):
        PermGroup(257)
    assert PermGroup(256).order() == 1
    cycle = tuple(range(1, 256)) + (0,)
    group = PermGroup(256, [cycle])
    assert group.order() == 256 and group.contains(cycle)
    assert group.random_element(random.Random(0)) in set(group.elements())


def test_stored_inverses_undo_their_transversal_elements(monkeypatch, c12,
                                                         catalog_c12):
    from srings import permgrp

    built = []

    class Recorded(PermGroup):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(permgrp, "PermGroup", Recorded)
    rng = random.Random(3)
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        _assert_inverses_undo_transversal(K._levels, 12)
        assert _transporter_chain(K, range(12)) is K
        pos = list(range(12))
        while pos == sorted(pos):
            rng.shuffle(pos)
        built.clear()
        chain = _transporter_chain(K, pos)
        (grown,) = built
        assert chain is grown and grown._base == tuple(pos)
        _assert_inverses_undo_transversal(grown._levels, 12)
        assert math.prod(len(lvl.inverse) for lvl in chain._levels) == \
            K.order()
        assert all(K.contains(g[:12]) for g in chain._levels[0].gens)


def test_aut_group_closure_small():
    spec = parse_group("3^2")
    gens = [a.perm for a in aut_generators(spec)]
    group = PermGroup(spec.order, gens)
    assert group.order() == len(naive_perm_closure(gens, spec.order)) == 48


def test_point_stabilizer():
    c8 = parse_group("2^3")
    assert right_regular(c8).point_stabilizer(0).order() == 1
    aut = PermGroup(8, [a.perm for a in aut_generators(c8)])
    assert aut.point_stabilizer(0).order() == aut.order() == 168
    hol = holomorph(c8)
    assert hol.point_stabilizer(0).order() == 168
    assert hol.order() == 8 * 168
    # stabilizer of a non-base point
    assert hol.point_stabilizer(3).order() * len(hol.orbit(3)) == hol.order()


def test_orbits_pairs_counts(c8):
    triv = PermGroup(4)
    assert len(triv.orbits_pairs()) == 16
    singletons = [frozenset([x]) for x in range(4)]
    assert orbits([], 4) == triv.orbits() == singletons
    assert orbit(2, []) == frozenset([2])
    sym3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    assert len(sym3.orbits_pairs()) == 2
    reg = right_regular(c8)
    orbs = reg.orbits_pairs()
    assert len(orbs) == 8
    assert all(len(o) == 8 for o in orbs)


def test_two_equivalent_basics(c8):
    reg = right_regular(c8)
    assert two_equivalent(reg, reg)
    assert not two_equivalent(PermGroup(4), PermGroup(4, [(1, 0, 2, 3)]))
    assert not two_equivalent(reg, holomorph(c8))


def test_two_equivalent_is_equivalence(c8):
    reg = right_regular(c8)
    hol = holomorph(c8)
    reg2 = PermGroup(8, list(reg.elements()))
    groups = [reg, hol, reg2]
    for a in groups:
        assert two_equivalent(a, a)
        for b in groups:
            assert two_equivalent(a, b) == two_equivalent(b, a)
    assert two_equivalent(reg, reg2)


def test_subgroups_between_trivial_and_prime_index(c9):
    reg = right_regular(c9)
    assert [m.order() for m in subgroups_between(reg, reg)] == [9]
    spec = parse_group("3^2")
    # adjoin one automorphism of order 2: index 2, no intermediate group
    aut = aut_generators(spec)[2]
    big = PermGroup(9, list(reg.gens) + [aut.perm])
    assert big.order() == 18
    between = subgroups_between(reg, big)
    assert sorted(m.order() for m in between) == [9, 18]


def test_subgroups_between_contains_ends(c8):
    reg = right_regular(c8)
    hol = holomorph(c8)
    sub = PermGroup(8, list(reg.gens) + [hol.point_stabilizer(0).gens[0]])
    between = subgroups_between(reg, sub)
    orders = [m.order() for m in between]
    assert reg.order() in orders and sub.order() in orders


def test_regular_subgroups_in_regular_group(c8):
    reg = right_regular(c8)
    classes = regular_subgroups(reg, c8)
    assert len(classes) == 1 and classes[0].is_translation_class


@pytest.mark.parametrize("text", ["2^3", "3^2"])
def test_regular_subgroups_flag_one_translation_class(text):
    # the holomorph has a second, non-translation class of regular subgroups
    spec = parse_group(text)
    classes = regular_subgroups(holomorph(spec), spec)
    assert [c.is_translation_class for c in classes] == [True, False]


def test_regular_subgroups_sym4_oracle():
    """All regular Klein subgroups of Sym(4) are conjugate; exhaustive check."""
    import itertools

    c4 = parse_group("2^2")
    sym4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert sym4.order() == 24
    classes = regular_subgroups(sym4, c4)
    assert len(classes) == 1 and classes[0].is_translation_class
    # oracle: count all regular Klein subgroups explicitly
    perms = list(itertools.permutations(range(4)))
    regulars = set()
    for a in perms:
        for b in perms:
            sub = naive_perm_closure([a, b], 4)
            if len(sub) != 4:
                continue
            if any(pmul(g, g) != (0, 1, 2, 3) for g in sub):
                continue  # wrong abstract type (cyclic)
            if any(g != (0, 1, 2, 3) and any(g[x] == x for x in range(4))
                   for g in sub):
                continue
            if any(len({g[x] for g in sub}) != 4 for x in range(4)):
                continue
            regulars.add(frozenset(sub))
    assert len(regulars) == 1


def test_regular_subgroups_outputs_are_regular_and_isomorphic(c12):
    from srings.permgrp import PermGroup as PG

    reg = right_regular(c12)
    hol = holomorph(c12)
    classes = regular_subgroups(hol, c12)
    assert any(c.is_translation_class for c in classes)
    for cls in classes:
        group = PG(12, cls.gens)
        assert group.order() == 12
        assert group.orbit(0) == frozenset(range(12))
        assert group.point_stabilizer(0).order() == 1
        # abstract type: the generator orders follow the factor sequence
        orders = []
        for g in cls.gens:
            k = 1
            h = g
            while h != identity_perm(12):
                h = pmul(h, g)
                k += 1
            orders.append(k)
        assert orders == [2, 2, 3]
        # explicit isomorphism: generator exponents enumerate the subgroup
        els = set()
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    e = None
                    for g, reps in zip(cls.gens, (i, j, k)):
                        for _ in range(reps):
                            e = pmul(e, g)
                    els.add(identity_perm(12) if e is None else e)
        assert els == cls.elements


def test_regular_subgroups_budget():
    import dataclasses

    from srings.config import DEFAULT_BOUNDS

    c8 = parse_group("2^3")
    hol = holomorph(c8)
    tiny = dataclasses.replace(DEFAULT_BOUNDS, backtrack_node_budget=1)
    with pytest.raises(ResourceBoundExceeded) as info:
        regular_subgroups(hol, c8, tiny)
    assert info.value.what == "backtracking nodes"
    assert info.value.limit == 1
    # the one node goes to the first branching orbit of the candidate search
    assert "_fpf_search" in [frame.name for frame in
                             traceback.extract_tb(info.value.__traceback__)]


@pytest.mark.parametrize("catalog, bound", [("catalog_c12", 13_918),
                                            ("catalog_c16", 457_647),
                                            ("catalog_c27_p", 147_141)])
def test_regular_subgroups_nodes_over_catalogs(monkeypatch, request,
                                               catalog, bound):
    """The backtrack nodes of regular_subgroups over a catalog, summed: at
    most the totals spent since the semiregular levels drop the subgroups
    that lie in no regular one (before that 13,918, 473,068 and 181,236;
    17,048, 543,486 and 219,120 when the candidates came from two searches).
    So no verdict within the default budget turns Undecided."""
    from srings import permgrp

    budgets = []

    class Counted(permgrp._Budget):
        __slots__ = ()

        def __init__(self, limit, what="backtracking nodes"):
            super().__init__(limit, what)
            budgets.append(self)

    monkeypatch.setattr(permgrp, "_Budget", Counted)
    catalog = request.getfixturevalue(catalog)
    for ring in catalog.rings():
        regular_subgroups(scheme_aut(ring), catalog.spec)
    assert budgets
    assert sum(b.limit - b.left for b in budgets) <= bound


@pytest.mark.parametrize("catalog, levels, merged",
                         [("catalog_c12", 93, 975),
                          ("catalog_c16", 164, 15_024),
                          ("catalog_c27_p", 15, 13_914)])
def test_merged_roots_agree_with_table_merge(monkeypatch, request, catalog,
                                             levels, merged):
    """The merge on n-byte strings keeps the roots of the merge on 256-byte
    tables at every level of every search over a catalog.  A merge that
    stopped merging would change no output, since the transporter would
    find the same representatives, only more slowly; so the merged keys
    are counted too.  The group rings' K, the translations, are answered
    without a search, so their levels (3, 4 and 3, none merging a key)
    are not counted."""
    from srings import permgrp

    real = permgrp._merged_roots
    seen = []

    def spy(found, K):
        roots = real(found, K)
        assert roots == merged_roots_by_tables(found, K)
        seen.append(len(found) - len(roots))
        return roots

    monkeypatch.setattr(permgrp, "_merged_roots", spy)
    catalog = request.getfixturevalue(catalog)
    for ring in catalog.rings():
        K = scheme_aut(ring)
        if _searched(K):
            regular_subgroups(K, catalog.spec)
    assert (len(seen), sum(seen)) == (levels, merged)


def _traced(fn, tracer):
    """fn, run under the trace function tracer (None: untraced)."""
    def run(*args):
        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            return fn(*args)
        finally:
            sys.settrace(outer)
    return run


def _counting_sorts(fn, counts):
    """fn, wrapped to count how often the line of its one sort call runs:
    in an _extend_semiregular, once per subgroup whose element tuple it
    builds.  Only fn's own frames are traced line by line."""
    code = fn.__code__
    line, = {ins.positions.lineno for ins in dis.get_instructions(code)
             if ins.argval == "sort"}

    def in_fn(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            counts[0] += 1
        return in_fn

    return _traced(fn, lambda frame, event, arg:
                   in_fn if frame.f_code is code else None)


@pytest.mark.parametrize("catalog", [
    "catalog_c12", "catalog_c16", "catalog_c27_p",
    pytest.param("catalog_c18", marks=pytest.mark.skipif(
        os.environ.get("SRINGS_EXTENDED") != "1",
        reason="30-s run; set SRINGS_EXTENDED=1 to enable"))])
def test_extensions_agree_with_building_every_one(monkeypatch, request,
                                                  catalog):
    """regular_subgroups returns the classes (generators, elements and
    translation flag) it returned when every extension of every
    representative was built (extend_semiregular_by_parent): the dropped
    subgroups lie in no regular one, and the skipped r give a subgroup
    already built.  It builds fewer subgroups: over c12, c16, 3^3-p and
    2x3^2, 1,632, 20,228, 14,397 and 145,292 against 2,524, 46,392,
    85,244 and 237,358."""
    from srings import permgrp

    catalog = request.getfixturevalue(catalog)
    groups = [K for K in map(scheme_aut, catalog.rings())
              if not K.is_symmetric()]
    # the candidate searches run untraced, for speed
    monkeypatch.setattr(permgrp, "_fpf_search",
                        _traced(permgrp._fpf_search, None))
    outputs, builds = [], []
    for extend in (extend_semiregular_by_parent, permgrp._extend_semiregular):
        counts = [0]
        monkeypatch.setattr(permgrp, "_extend_semiregular",
                            _counting_sorts(extend, counts))
        outputs.append([regular_subgroups(K, catalog.spec) for K in groups])
        builds.append(counts[0])
    assert outputs[1] == outputs[0]
    assert 0 < builds[1] < builds[0]


@pytest.mark.parametrize("text", ["2^3", "3^2", "2^2x3", "2^4"])
def test_sift_reads_n_byte_strings(text):
    """_sift gives an n-byte string the residue it gives its table: None,
    or the same 256-byte table."""
    spec = parse_group(text)
    A = aut_group(spec)
    n = spec.order
    rng = random.Random(5)
    residues = 0
    for _ in range(40):
        s = A._random_string(rng)
        assert len(s) == n and A._sift(s) is None
        for t in (_table(s), _table(rng.sample(range(n), n))):
            residue = A._sift(t[:n])
            assert residue == A._sift(t)
            if residue is not None:
                _assert_tables([residue], n)
                residues += 1
    assert A._sift(IDENT[:n]) is None
    assert residues > 20


def test_schreier_generators_are_n_byte_non_identities(monkeypatch, c16):
    """_close_level hands back n-byte strings and never the identity: an
    n-byte identity compared with IDENT would pass as a generator."""
    real = PermGroup._close_level
    out = []

    def spy(self, i):
        found = real(self, i)
        out.extend(found)
        return found

    monkeypatch.setattr(PermGroup, "_close_level", spy)
    assert PermGroup(16, holomorph(c16).gens).order() == 16 * 20160
    assert out
    assert all(len(s) == 16 and s != IDENT[:16] for s in out)


def test_regular_subgroup_search_stores_tables(monkeypatch, c12,
                                               catalog_c12):
    """After the searches over c12, every key element, generator, pool
    entry and chain level the search kept is a 256-byte table."""
    from srings import permgrp

    real = permgrp._class_reps
    records = []

    def spy(found, K, spec, least, budget):
        reps = real(found, K, spec, least, budget)
        records.append((found, reps))
        return reps

    monkeypatch.setattr(permgrp, "_class_reps", spy)
    groups = [K for K in (scheme_aut(entry.ring(c12))
                          for entry in catalog_c12.entries)
              if _searched(K)]
    for K in groups:
        regular_subgroups(K, c12)
        _assert_inverses_undo_transversal(K._levels, 12)
    chains = 0
    for found, reps in records:
        for key, (gens, (_prime, pool)) in found.items():
            _assert_tables(key + gens, 12)
            _assert_tables(pool, 12)
        for *_, entry in reps:
            if entry[1] is not None:
                _assert_inverses_undo_transversal(entry[1]._levels, 12)
                chains += 1
    assert len(records) == 3 * len(groups) and chains


def _searched(K):
    """Whether regular_subgroups searches K: it answers the symmetric group
    and the translations (a group ring's K) at once."""
    return not K.is_symmetric() and K.order() != K.degree


def test_symmetric_group_shortcut(c8):
    n = 8
    sym = PermGroup(n, [tuple([1, 0] + list(range(2, n))),
                        tuple(list(range(1, n)) + [0])])
    assert sym.order() == math.factorial(n)
    classes = regular_subgroups(sym, c8)
    assert len(classes) == 1 and classes[0].is_translation_class


def _class_data(classes):
    return [(c.gens, c.elements, c.is_translation_class) for c in classes]


@pytest.mark.parametrize("catalog", [
    "catalog_c8", "catalog_c9", "catalog_c12", "catalog_c16",
    "catalog_c27_p",
    pytest.param("catalog_c18", marks=pytest.mark.skipif(
        os.environ.get("SRINGS_EXTENDED") != "1",
        reason="set SRINGS_EXTENDED=1 to enable"))])
def test_translations_shortcut_agrees_with_the_search(request, catalog):
    """On the group ring of each desk catalog, K is the translations, and
    regular_subgroups answers without a search what the search returns."""
    catalog = request.getfixturevalue(catalog)
    spec = catalog.spec
    K, = [scheme_aut(ring) for ring in catalog.rings()
          if ring.rank == spec.order]
    assert K.order() == spec.order and not _searched(K)
    assert _class_data(regular_subgroups(K, spec)) == \
        _class_data(regular_subgroups_by_search(K, spec))


@pytest.mark.parametrize("text, flags", [("2^3", [True, False]),
                                         ("3^2", [True, False]),
                                         ("2^2x3", [True])])
def test_regular_subgroups_agree_with_orbit_oracle_on_holomorphs(text, flags):
    spec = parse_group(text)
    hol = holomorph(spec)
    expected = _class_data(regular_classes_by_orbit(hol, spec))
    assert [flag for _gens, _elements, flag in expected] == flags
    assert _class_data(regular_subgroups(hol, spec)) == expected


def test_regular_subgroups_agree_with_orbit_oracle_on_sym4():
    # the symmetric group is answered without a search; the oracle searches
    c4 = parse_group("2^2")
    sym4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert _class_data(regular_subgroups(sym4, c4)) == \
        _class_data(regular_classes_by_orbit(sym4, c4))


def test_regular_subgroups_agree_with_orbit_oracle_on_c12(c12, catalog_c12):
    checked = 0
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        if K.order() > 100_000 or K.is_symmetric():
            continue
        assert _class_data(regular_subgroups(K, c12)) == \
            _class_data(regular_classes_by_orbit(K, c12))
        checked += 1
    # all but the rank-2 ring (K = Sym(12)) and one with |K| = 1,036,800
    assert checked == len(catalog_c12.entries) - 2


@pytest.fixture(scope="module")
def scheme_auts(c9, catalog_c8, catalog_c12, catalog_c18, catalog_c27_p):
    """(spec, scheme_aut) for every ring of the 2^3, 3^2, 2^2x3 and 2x3^2
    catalogs, perfbench's 2^4 catalog and the 3^3 p-srings."""
    catalogs = [catalog_c8, enumerate_srings(c9, "all", label=False),
                catalog_c12, catalog_c18,
                load_catalog(PERFBENCH_DATA / "c16.cat"), catalog_c27_p]
    out = [(catalog.spec, scheme_aut(ring)) for catalog in catalogs
           for ring in catalog.rings()]
    assert len(out) == 9 + 10 + 33 + 59 + 43 + 6
    return out


def test_scheme_aut_chain_agrees_with_schreier_sims(scheme_auts):
    """The chain built from scheme_aut's strong generators, against
    Schreier-Sims on the same generators: the same order and basic orbits,
    and each level's generators fix the points above it and lie in the
    other group."""
    for _spec, K in scheme_auts:
        ref = PermGroup(K.degree, K.gens)
        assert ref.gens == K.gens and ref.order() == K.order()
        for i, (lvl, ref_lvl) in enumerate(zip(K._levels, ref._levels)):
            assert lvl.point == ref_lvl.point == i
            assert lvl.transversal.keys() == ref_lvl.transversal.keys()
            for g, other in ([(g, ref) for g in lvl.gens]
                             + [(g, K) for g in ref_lvl.gens]):
                assert all(g[j] == j for j in range(i))
                assert other.contains(tuple(g[:K.degree]))
        _assert_inverses_undo_transversal(K._levels, K.degree)


def test_pair_orbits_are_stabilizer_orbits_of_differences(scheme_auts):
    # K holds the translations, so (x, z) is in the K-orbit of (0, z - x)
    for spec, K in scheme_auts:
        n = K.degree
        least = _stabilizer_orbit_minima(K)
        cells = {}
        for x in range(n):
            for z in range(n):
                cells.setdefault(least[spec.sub(z, x)], set()).add(x * n + z)
        assert set(map(frozenset, cells.values())) == K.orbits_pairs()


def test_stabilizer_orbit_minima_on_any_base(c12):
    hol = holomorph(c12)
    moved = PermGroup(12, hol.gens, base_prefix=(5, 0))
    least = [min(hol.point_stabilizer(0).orbit(x)) for x in range(12)]
    assert _stabilizer_orbit_minima(hol) == \
        _stabilizer_orbit_minima(moved) == least
    assert least != list(range(12))


def test_level_one_keys_over_c12_are_stabilizer_orbit_minima(
        monkeypatch, c12, catalog_c12):
    """Level 1 builds a key only for the r with r[0] least in its
    Stab_K(0)-orbit, and keeps the same classes as a key for every r."""
    from srings import permgrp

    level_one = []
    real = permgrp._class_reps

    def spy(found, K, spec, least, budget):
        reps = real(found, K, spec, least, budget)
        if all(len(gens) == 1 for gens, _pool in found.values()):
            level_one.append((K, found, reps))
        return reps

    monkeypatch.setattr(permgrp, "_class_reps", spy)
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        if _searched(K):
            regular_subgroups(K, c12)
    assert len(level_one) == 31
    # a key for every fixed-point-free involution would be 2,588
    assert sum(len(found) for _K, found, _reps in level_one) <= 800
    assert sum(len(reps) for _K, _found, reps in level_one) == 116
    for K, found, _reps in level_one:
        least = _stabilizer_orbit_minima(K)
        for (r,), _pool in found.values():
            assert least[r[0]] == r[0]


def test_stabilizer_orbits_are_computed_once_per_search(
        monkeypatch, c12, catalog_c12):
    """Both stages of every level read one table of Stab_K(0)'s orbits:
    one computation per search over c12, not one per stage and level."""
    from srings import permgrp

    groups = []
    real = permgrp._stabilizer_orbit_minima

    def spy(K):
        groups.append(K)
        return real(K)

    monkeypatch.setattr(permgrp, "_stabilizer_orbit_minima", spy)
    searched = []
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        if _searched(K):
            regular_subgroups(K, c12)
            searched.append(K)
    assert len(searched) == 31
    assert groups == searched


def test_transporter_candidates_are_built_once_over_c12(
        monkeypatch, c12, catalog_c12):
    """Every transporter test of the searches over c12 reads the same
    candidate tuples: the coordinate scan runs once per group."""
    from srings.groups import GroupSpec

    results = []
    real = GroupSpec.basis_image_candidates

    def spy(spec):
        results.append(real(spec))
        return results[-1]

    monkeypatch.setattr(GroupSpec, "basis_image_candidates", spy)
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        if not K.is_symmetric():
            regular_subgroups(K, c12)
    assert len(results) > 300
    assert len({id(r) for r in results}) == 1


def _fpf_elements(K, spec, p):
    """The search with P = 1 and a fresh budget: all fixed-point-free
    elements of order p of K."""
    budget = _Budget(DEFAULT_BOUNDS.backtrack_node_budget)
    return _fpf_search((), spec, p, budget,
                       _transporter_chain(K, range(spec.order)))


@pytest.mark.parametrize("text", ["2^3", "3^2", "2^2x3", "2^4"])
def test_fpf_elements_agree_with_streaming_on_holomorphs(text):
    spec = parse_group(text)
    hol = holomorph(spec)
    for p, _ in spec.factors:
        streamed = fpf_elements_by_streaming(hol, p)
        assert as_tuples(_fpf_elements(hol, spec, p), hol.degree) == streamed
        assert as_tuples(fpf_elements_by_chain(hol, p), hol.degree) == \
            streamed


def test_fpf_elements_agree_with_streaming_on_c12(c12, catalog_c12):
    checked = 0
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        if K.is_symmetric():
            continue
        for p, _ in c12.factors:
            streamed = fpf_elements_by_streaming(K, p)
            assert as_tuples(_fpf_elements(K, c12, p), 12) == streamed
            assert as_tuples(fpf_elements_by_chain(K, p), 12) == streamed
        checked += 1
    # all but the rank-2 ring (K = Sym(12))
    assert checked == len(catalog_c12.entries) - 1


def test_fpf_elements_agree_with_streaming_on_c27_table(table_rings):
    orders = []
    for ring in table_rings.values():
        K = scheme_aut(ring)
        if K.order() > 200_000:
            continue
        streamed = fpf_elements_by_streaming(K, 3)
        assert as_tuples(_fpf_elements(K, ring.spec, 3), 27) == streamed
        assert as_tuples(fpf_elements_by_chain(K, 3), 27) == streamed
        orders.append(K.order())
    assert sorted(orders) == [27, 81, 243, 2187, 177147]


def test_fpf_elements_edge_cases(c8, c12):
    # in the translations, the elements of order p are the t_x with p x = 0
    T = right_regular(c12)
    for p, _ in c12.factors:
        expected = []
        for x in range(1, c12.order):
            y = 0
            for _ in range(p):
                y = c12.add(y, x)
            if y == 0:
                expected.append(c12.translation(x))
        assert as_tuples(_fpf_elements(T, c12, p), 12) == sorted(expected)
        assert len(expected) == {2: 3, 3: 2}[p]
    # an element of order 3 of the holomorph of 2^3 fixes a point, as 3
    # does not divide 8
    assert _fpf_elements(holomorph(c8), c8, 3) == []


def _recorded_searches(monkeypatch, spec, groups):
    """Run regular_subgroups over groups.  Returns (K, gens, p, pool) for
    each _fpf_search call with gens, K the group searched, and for each
    group the primes that _fpf_search was called with without gens."""
    from srings import permgrp

    calls, listed = [], []
    real = permgrp._fpf_search

    def search(gens, spec, p, budget, chain):
        pool = real(gens, spec, p, budget, chain)
        if gens:
            calls.append((groups[len(listed) - 1], gens, p, pool))
        else:
            listed[-1].append(p)
        return pool

    monkeypatch.setattr(permgrp, "_fpf_search", search)
    for K in groups:
        listed.append([])
        regular_subgroups(K, spec)
    return calls, listed


def test_new_prime_pools_over_c12_come_from_the_centralizer(
        monkeypatch, c12, catalog_c12):
    groups = [K for K in (scheme_aut(entry.ring(c12))
                          for entry in catalog_c12.entries)
              if _searched(K)]
    calls, listed = _recorded_searches(monkeypatch, c12, groups)
    # only the elements of order 2 are listed, once per search
    assert listed == [[2]] * 31
    # one pool per representative of the last 2-level
    assert len(calls) == 94
    for K, gens, p, pool in calls:
        assert (p, len(gens)) == (3, 2)
        assert as_tuples(pool, K.degree) == \
            centralizer_fpf_by_filter(K, gens, p)


def test_new_prime_pools_over_small_c18_groups_come_from_the_centralizer(
        monkeypatch, catalog_c18):
    spec = catalog_c18.spec
    groups = [K for K in map(scheme_aut, catalog_c18.rings())
              if K.order() <= 100_000 and _searched(K)]
    calls, listed = _recorded_searches(monkeypatch, spec, groups)
    assert listed == [[2]] * 42
    assert len(calls) == 89
    assert sum(bool(pool) for *_, pool in calls) == 71
    for K, gens, p, pool in calls:
        assert (p, len(gens)) == (3, 1)
        assert as_tuples(pool, K.degree) == \
            centralizer_fpf_by_filter(K, gens, p)


@pytest.mark.parametrize("catalog, bound", [("catalog_c16", 10 ** 7),
                                            ("catalog_c27_p", 200_000)])
def test_centralizer_fpf_agrees_with_filter_on_same_prime_gens(
        request, catalog, bound):
    """gens of the pool's own prime: the elements that map a P-orbit onto
    itself, by a shift of order p, are reached only here."""
    catalog = request.getfixturevalue(catalog)
    spec = catalog.spec
    p = spec.radices[0]
    rng = random.Random(31)
    checked = fixing = 0
    for ring in catalog.rings():
        K = scheme_aut(ring)
        if K.order() > bound or K.is_symmetric():
            continue
        k = K.random_element(rng)
        conjugates = [pmul(pmul(pinv(k), spec.translation(b)), k)
                      for b in spec.basis()]
        for j in range(1, len(conjugates)):
            gens = conjugates[:j]
            budget = _Budget(DEFAULT_BOUNDS.backtrack_node_budget)
            chain = _transporter_chain(K, _regular_positions(gens, spec))
            pool = _fpf_search(gens, spec, p, budget, chain)
            assert as_tuples(pool, K.degree) == \
                centralizer_fpf_by_filter(K, gens, p)
            orbs = orbits(gens, spec.order)
            fixing += any(r[min(o)] in o for r in pool for o in orbs)
            checked += 1
    assert checked and fixing == checked


def test_transporter_finds_conjugates_of_translations(c12, catalog_c12):
    rng = random.Random(23)
    budget = _Budget(DEFAULT_BOUNDS.backtrack_node_budget)
    translations = [c12.translation(b) for b in c12.basis()]
    t_pos = list(range(12))
    moved = 0
    for entry in catalog_c12.entries:
        K = scheme_aut(entry.ring(c12))
        k = K.random_element(rng)
        conjugates = [pmul(pmul(pinv(k), t), k) for t in translations]
        moved += conjugates != translations
        pos = _regular_positions(conjugates, c12)
        assert sorted(pos) == t_pos
        assert _transporter_exists(_transporter_chain(K, t_pos), pos, c12,
                                   budget)
        assert _transporter_exists(_transporter_chain(K, pos), t_pos, c12,
                                   budget)
    assert moved > len(catalog_c12.entries) // 2


@pytest.mark.parametrize("text", ["2^3", "3^2"])
def test_transporter_separates_holomorph_classes(text):
    spec = parse_group(text)
    hol = holomorph(spec)
    translation_class, other = regular_subgroups(hol, spec)
    budget = _Budget(DEFAULT_BOUNDS.backtrack_node_budget)
    chain = _transporter_chain(hol, range(spec.order))
    assert _transporter_exists(
        chain, _regular_positions(translation_class.gens, spec), spec, budget)
    assert not _transporter_exists(
        chain, _regular_positions(other.gens, spec), spec, budget)


def test_regular_subgroups_require_one_translation_class(monkeypatch, c8):
    # a transporter that never answers leaves no class flagged
    monkeypatch.setattr("srings.permgrp._transporter_exists",
                        lambda *args: False)
    with pytest.raises(SRingsError, match="exactly one translation class"):
        regular_subgroups(holomorph(c8), c8)


def test_regular_subgroups_require_regular_representatives(monkeypatch, c8):
    from srings import permgrp

    real = permgrp._class_reps

    def shrunk(found, K, spec, least, budget):
        reps = real(found, K, spec, least, budget)
        key, *rest = reps[0]
        if len(key) == spec.order:  # the last level: drop an element
            reps[0] = (key[:-1], *rest)
        return reps

    monkeypatch.setattr(permgrp, "_class_reps", shrunk)
    with pytest.raises(SRingsError, match="each representative is regular"):
        regular_subgroups(holomorph(c8), c8)


def test_random_element_is_member(c27):
    rng = random.Random(11)
    group = holomorph(c27)
    for _ in range(20):
        assert group.contains(group.random_element(rng))
