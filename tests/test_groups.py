import random

import pytest

from srings import groups as groups_module
from srings.errors import GroupSpecError, ResourceBoundExceeded, SRingsError
from srings.groups import (GroupAut, Section, Subgroup, all_auts,
                           aut_generators, aut_group, aut_order, complement,
                           enumerate_subgroups, format_group, full_subgroup,
                           make_group, parse_group, subgroup_span,
                           trivial_subgroup)

from conftest import (aut_mats_by_filter, aut_mats_by_solving,
                      aut_perm_by_matrices, closure_subgroups,
                      op_preserving_bijections, section_by_solving,
                      solve_in_basis)


def test_make_group_orders():
    assert make_group([(3, 3)]).order == 27
    assert make_group([(2, 2), (3, 1)]).order == 12


def test_make_group_rejects_duplicate_prime():
    with pytest.raises(GroupSpecError):
        make_group([(2, 1), (2, 1)])


def test_make_group_rejects_bad_rank_and_nonprime():
    with pytest.raises(GroupSpecError):
        make_group([(3, 0)])
    with pytest.raises(GroupSpecError):
        make_group([(4, 1)])


def test_order_bound_enforced():
    with pytest.raises(ResourceBoundExceeded):
        make_group([(2, 7)], max_order=64)


def test_parse_format_round_trip():
    for text in ("3^3", "2^2x3", "2x3^2", "2", "2^4"):
        assert format_group(parse_group(text)) == text


def test_parse_rejects_whitespace_and_junk():
    for bad in ("3 ^3", " 3^3", "3^3 ", "3^^3", "q", "3x3"):
        with pytest.raises(GroupSpecError):
            parse_group(bad)


def test_one_spec_per_group():
    spec = parse_group("2^4")
    assert spec is make_group([(2, 4)])
    assert parse_group("2^2x3") is make_group([(3, 1), (2, 2)])
    c32 = parse_group("2^5")
    line = subgroup_span(c32, [c32.basis()[0]])
    assert Section(full_subgroup(c32), line).quotient is spec
    # the trivial quotient U/U is accepted, and shared too
    trivial = Section(line, line).quotient
    assert trivial.factors == () and trivial.order == 1
    assert Section(full_subgroup(c32), full_subgroup(c32)).quotient is trivial


def test_max_order_is_checked_on_every_call():
    spec = parse_group("2^7", max_order=None)
    assert spec.order == 128
    for _ in range(2):
        with pytest.raises(ResourceBoundExceeded):
            parse_group("2^7")
        with pytest.raises(ResourceBoundExceeded):
            make_group([(2, 7)], max_order=100)
    assert make_group([(2, 7)], max_order=None) is spec


@pytest.mark.parametrize("text,key", [("4^2", ((4, 2),)),
                                      ("2x3x2", ((2, 1), (2, 1), (3, 1)))])
def test_invalid_specs_raise_every_time_and_are_not_kept(text, key):
    before = dict(groups_module._specs)
    for _ in range(2):
        with pytest.raises(GroupSpecError):
            parse_group(text)
        with pytest.raises(GroupSpecError):
            make_group(key)
    assert key not in groups_module._specs
    assert groups_module._specs == before


def test_group_data_is_built_once_per_spec(c12):
    assert c12.add_table() is parse_group("2^2x3").add_table()
    candidates, _weights = c12.basis_image_candidates()
    assert isinstance(candidates, tuple)
    assert all(isinstance(c, tuple) for c in candidates)
    assert c12.basis_image_candidates() is c12.basis_image_candidates()
    assert enumerate_subgroups(c12) is enumerate_subgroups(c12)
    assert all_auts(c12) is all_auts(parse_group("2^2x3"))


def test_one_subgroup_per_element_set(c12):
    sub = subgroup_span(c12, [c12.index((1, 0, 1))])
    a = Subgroup.from_elements(c12, sorted(sub.elements))
    assert a == sub
    assert Subgroup.from_elements(c12, set(sub.elements)) is a
    assert a.meet(full_subgroup(c12)) is a
    assert full_subgroup(c12).meet(a) is a
    for listed in enumerate_subgroups(c12):
        assert Subgroup.from_elements(c12, listed.elements) is listed
    bad = [0, c12.index((1, 0, 0)), c12.index((0, 1, 0))]
    for _ in range(2):
        with pytest.raises(ValueError):
            Subgroup.from_elements(c12, bad)
    assert 0b111 not in c12._subgroup_of_mask


def test_equality_and_hash_follow_values(c12):
    assert c12 == make_group([(3, 1), (2, 2)])
    assert hash(c12) == hash(((2, 2), (3, 1)))
    assert c12 != parse_group("2^2") and c12 != parse_group("2x3")
    g = c12.index((1, 0, 1))
    fresh = Subgroup.span(c12, [g])
    interned = Subgroup.from_elements(c12, fresh.elements)
    assert fresh == interned and hash(fresh) == hash(interned)
    assert hash(fresh) == hash((c12.factors, fresh.bases))
    assert fresh != subgroup_span(c12, [c12.index((1, 0, 0))])


def test_arithmetic_c27(c27):
    a = c27.index((1, 0, 0))
    b = c27.index((2, 0, 0))
    assert c27.add(a, b) == 0
    assert c27.add(a, 0) == a


def test_inverse_c12(c12):
    x = c12.index((1, 1, 2))
    assert c12.coords(c12.neg(x)) == (1, 1, 1)


def test_arithmetic_properties_random(c12, c27):
    rng = random.Random(1)
    for spec in (c12, c27):
        for _ in range(200):
            a = rng.randrange(spec.order)
            b = rng.randrange(spec.order)
            c = rng.randrange(spec.order)
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
            assert spec.add(a, spec.neg(a)) == 0
            assert spec.index(spec.coords(a)) == a


def test_span_trivial_and_line(c27):
    assert subgroup_span(c27, []).order == 1
    g = c27.index((1, 0, 0))
    h = c27.index((2, 0, 0))
    assert subgroup_span(c27, [g, h]).order == 3


def test_span_mixed_prime_closure_oracle(c12):
    g = c12.index((1, 0, 1))
    U = subgroup_span(c12, [g])
    assert U.order == 6
    # oracle: closure under addition
    closure = {0, g}
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                s = c12.add(a, b)
                if s not in closure:
                    closure.add(s)
                    changed = True
    assert U.elements == frozenset(closure)


@pytest.mark.parametrize("text,count", [("2x3", 4), ("3^2", 6), ("2^2", 5)])
def test_subgroup_counts_against_subset_oracle(text, count):
    spec = parse_group(text)
    subs = enumerate_subgroups(spec)
    assert len(subs) == count
    assert {s.elements for s in subs} == set(closure_subgroups(spec))


def test_subgroup_lattice_closed_under_meet_and_join(c12):
    subs = enumerate_subgroups(c12)
    keys = {s.elements for s in subs}
    for a in subs:
        for b in subs:
            assert a.meet(b).elements in keys
            assert a.join(b).elements in keys


def test_complement_properties(c27, c12):
    for spec in (c27, c12):
        for U in enumerate_subgroups(spec):
            D = complement(U, spec)
            assert D.order * U.order == spec.order
            assert D.meet(U).order == 1


def test_complement_examples(c27):
    assert complement(full_subgroup(c27), c27).order == 1
    assert complement(trivial_subgroup(c27), c27).order == 27
    U = subgroup_span(c27, [c27.index((1, 0, 0))])
    D = complement(U, c27)
    assert D.elements == subgroup_span(
        c27, [c27.index((0, 1, 0)), c27.index((0, 0, 1))]).elements


def test_section_quotient(c27):
    U = full_subgroup(c27)
    L = subgroup_span(c27, [c27.index((1, 0, 0))])
    s = Section(U, L)
    assert s.quotient.order == 9
    assert s.proj[c27.index((1, 1, 0))] == s.proj[c27.index((2, 1, 0))]
    # canonical lifts are coset minima
    for q in range(s.quotient.order):
        rep = s.lift[q]
        coset = [u for u in range(27) if s.proj[u] == q]
        assert rep == min(coset)


def test_section_degenerate(c27):
    U = subgroup_span(c27, [c27.index((1, 0, 0))])
    same = Section(U, U)
    assert same.quotient.order == 1
    triv = Section(U, trivial_subgroup(c27))
    assert triv.quotient.order == U.order


def test_aut_orders():
    assert aut_order(parse_group("3^3")) == 11232
    assert aut_order(parse_group("2^2x3")) == 12
    assert aut_group(parse_group("3^3")).order() == 11232
    assert aut_group(parse_group("2^2x3")).order() == 12
    assert aut_group(parse_group("2")).order() == 1


@pytest.mark.parametrize("text", ["2", "3", "2^2", "2x3", "2^3", "3^2"])
def test_aut_order_matches_bijection_count(text):
    spec = parse_group(text)
    assert aut_order(spec) == op_preserving_bijections(spec)


def test_auts_permute_subgroups(c12):
    subs = {s.elements for s in enumerate_subgroups(c12)}
    for aut in aut_generators(c12):
        for els in subs:
            assert frozenset(aut.perm[x] for x in els) in subs


def test_all_auts_matches_order(c12):
    auts = all_auts(c12, limit=10 ** 5)
    assert len(auts) == 12
    assert len({a.perm for a in auts}) == 12


@pytest.mark.parametrize("text", ["2^3", "3^2", "2^2x3", "2x3^2"])
def test_all_auts_are_the_invertible_matrices_in_order(text):
    spec = parse_group(text)
    auts = all_auts(spec)
    assert [a.mats for a in auts] == aut_mats_by_filter(spec)
    assert all(a.perm == aut_perm_by_matrices(a) for a in auts)


def test_aut_compose_inverse(c27):
    auts = aut_generators(c27)
    for a in auts:
        assert a.compose(a.inverse()).perm == tuple(range(27))
    a, b = auts[0], auts[1]
    left = a.compose(b).perm
    assert left == tuple(b.perm[a.perm[x]] for x in range(27))


def test_aut_from_images_reads_one_shot_pairs(c12):
    # from_images reads the pairs once per prime block; a one-shot
    # iterator must reach the second block too
    basis = c12.basis()
    images = [c12.index((1, 1, 0)), c12.index((1, 0, 0)),
              c12.index((0, 0, 2))]
    aut = GroupAut.from_images(c12, zip(basis, images))
    assert [aut.perm[b] for b in basis] == images
    assert aut == GroupAut.from_images(c12, list(zip(basis, images)))


def test_aut_from_images(c27):
    basis = c27.basis()
    images = [c27.index((1, 1, 0)), c27.index((0, 1, 1)),
              c27.index((0, 0, 1))]
    aut = GroupAut.from_images(c27, list(zip(basis, images)))
    for b, img in zip(basis, images):
        assert aut.perm[b] == img
    with pytest.raises(GroupSpecError):
        GroupAut.from_images(c27, [(basis[0], 0), (basis[1], basis[1]),
                                   (basis[2], basis[2])])


def test_aut_group_rejects_a_short_generator_set(c12, monkeypatch):
    full = aut_generators
    monkeypatch.setattr(groups_module, "aut_generators",
                        lambda spec: full(spec)[1:])
    with pytest.raises(SRingsError, match="expected 12"):
        aut_group(c12)


def test_combinations_follow_mixed_radix_order(c12):
    g, h = c12.index((1, 1, 0)), c12.index((0, 0, 1))
    table = c12.combinations([g, h], [2, 3])
    assert table == [c12.add(c12.scale(i, g), c12.scale(j, h))
                     for j in range(3) for i in range(2)]
    assert c12.combinations([], []) == [0]


@pytest.mark.parametrize("text", ["2^2x3", "2x3^2", "3^3"])
def test_section_tables_match_per_element_solve(text):
    spec = parse_group(text)
    subs = enumerate_subgroups(spec)
    pairs = 0
    for U in subs:
        for L in subs:
            if U.contains_subgroup(L):
                sec = Section(U, L)
                assert (sec.proj, sec.lift) == section_by_solving(U, L)
                pairs += 1
    assert pairs > len(subs)


@pytest.mark.parametrize("text", ["2^3", "2^2x3"])
def test_sections_are_interned_and_match_their_cosets(text):
    spec = parse_group(text)
    subs = enumerate_subgroups(spec)
    assert Section(subs[-1]) is Section(subs[-1], trivial_subgroup(spec))
    for U in subs:
        for L in subs:
            if not U.contains_subgroup(L):
                continue
            sec = Section(U, L)
            assert Section(U, L) is sec
            assert Section(subgroup_span(spec, U.elements),
                           subgroup_span(spec, L.elements)) is sec
            for u in U.elements:
                for v in U.elements:
                    assert (sec.proj[u] == sec.proj[v]) == \
                        L.contains(spec.sub(u, v))
            cosets = {frozenset(spec.add(u, x) for x in L.elements)
                      for u in U.elements}
            assert sec.quotient.order == len(cosets) == U.order // L.order
            assert len(sec.lift) == len(cosets)
            for q, rep in enumerate(sec.lift):
                coset = frozenset(spec.add(rep, x) for x in L.elements)
                assert coset in cosets and rep == min(coset)
                assert sec.proj[rep] == q


def test_aut_perm_matches_row_times_matrix():
    specs = [parse_group(text) for text in ("2^2x3", "3^2", "2^4", "3^3")]
    auts = all_auts(specs[0]) + all_auts(specs[1])
    auts += aut_generators(specs[2]) + aut_generators(specs[3])
    # a singular matrix, as a user's cyc(...) may give, has the same table
    auts.append(GroupAut(specs[1], [((1, 2), (2, 1))]))
    for aut in auts:
        assert aut.perm == aut_perm_by_matrices(aut)


def _random_block_pairs(spec, rng):
    """A random basis of prime-order elements with random images: each
    image has random coordinates in its source's block (maybe a singular
    map) and random coordinates in every other block."""
    pairs = []
    for p, n, pos in spec.prime_blocks():
        rows = []
        while len(rows) < n:
            row = tuple(rng.randrange(p) for _ in range(n))
            if solve_in_basis(rows, row, p) is None:
                rows.append(row)
        for row in rows:
            src = [0] * len(spec.radices)
            src[pos:pos + n] = row
            dst = [rng.randrange(r) for r in spec.radices]
            pairs.append((spec.index(src), spec.index(dst)))
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("text", ["2^2x3", "2x3^2", "3^3", "2^4"])
def test_aut_from_images_matches_per_block_solve(text):
    spec = parse_group(text)
    rng = random.Random(f"from_images {text}")
    made = refused = 0
    for _ in range(60):
        pairs = _random_block_pairs(spec, rng)
        mats = aut_mats_by_solving(spec, pairs)
        if mats is None:
            with pytest.raises(GroupSpecError):
                GroupAut.from_images(spec, pairs)
            refused += 1
        else:
            aut = GroupAut.from_images(spec, pairs)
            assert aut == GroupAut(spec, mats)
            assert aut.perm == aut_perm_by_matrices(aut)
            made += 1
    assert made and refused


def test_aut_from_images_requires_prime_order_sources(c12):
    mixed = [(c12.index((1, 0, 1)), 1), (c12.index((0, 1, 0)), 2),
             (c12.index((0, 0, 1)), 4)]
    short = [(c12.index((1, 0, 0)), 1), (c12.index((0, 0, 1)), 4)]
    dependent = short + [(c12.index((1, 0, 0)), 2)]
    for pairs in (mixed, short, dependent, short + [(0, 0)]):
        with pytest.raises(GroupSpecError):
            GroupAut.from_images(c12, pairs)
