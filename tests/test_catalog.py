import random
from dataclasses import replace
from pathlib import Path

import pytest

from srings import catalog as catalog_module
from srings import morphisms as morphisms_module
from srings.config import DEFAULT_BOUNDS, _Budget
from srings.errors import (CatalogFormatError, EnumerationMismatch,
                           ResourceBoundExceeded)
from srings.groups import all_auts, aut_order, parse_group
from srings.sring import validate_partition
from srings.construct import decompositions, group_ring, sring_image
from srings.morphisms import cayley_isos, is_cyclotomic, least_labeling
from srings.permgrp import orbits
from srings.catalog import (canonical_form, canonical_partition,
                            enumerate_srings, load_catalog,
                            rank3_classification, rank3_templates,
                            save_catalog)

from conftest import (all_partitions, least_labeling_by_filter,
                      relabeled_by_list, renumbered_by_first_occurrence)

PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def test_enumerate_c3_all(c3):
    catalog = enumerate_srings(c3, "all")
    assert len(catalog) == 2
    assert sorted(e.rank for e in catalog.entries) == [2, 3]


def test_enumerate_c9_p_rings(c9):
    catalog = enumerate_srings(c9, "p-srings")
    assert len(catalog) == 2
    assert sorted(e.rank for e in catalog.entries) == [5, 9]


def test_enumeration_raw_count_against_bell_oracle(c8):
    """Independent oracle: validate every partition of the 7 non-identity
    elements and compare the raw count."""
    from srings.errors import PartitionError

    valid = 0
    for blocks in all_partitions(list(range(1, 8))):
        cells = [{0}] + [set(b) for b in blocks]
        try:
            validate_partition(c8, cells)
            valid += 1
        except PartitionError:
            continue
    catalog = enumerate_srings(c8, "all", label=False)
    assert catalog.raw_total == valid == 100


def test_enumeration_raw_count_c9_oracle(c9):
    from srings.errors import PartitionError

    valid = 0
    for blocks in all_partitions(list(range(1, 9))):
        cells = [{0}] + [set(b) for b in blocks]
        try:
            validate_partition(c9, cells)
            valid += 1
        except PartitionError:
            continue
    catalog = enumerate_srings(c9, "all", label=False)
    assert catalog.raw_total == valid


def _orbit_stabilizer_holds(spec, catalog):
    """raw_count times the number of Cayley automorphisms is |Aut(G)| for
    every class; this does not use the enumeration's orbit walk."""
    return all(e.raw_count * len(cayley_isos(e.ring(spec), e.ring(spec)))
               == aut_order(spec) for e in catalog.entries)


@pytest.mark.parametrize("group, sring_filter",
                         [("2^3", "all"), ("3^2", "all"), ("2^2x3", "all"),
                          ("3^3", "p-srings")])
def test_raw_counts_are_orbit_sizes(group, sring_filter):
    spec = parse_group(group)
    catalog = enumerate_srings(spec, sring_filter, label=False)
    assert _orbit_stabilizer_holds(spec, catalog)


@pytest.mark.parametrize("group, sring_filter",
                         [("2^3", "all"), ("3^2", "all"), ("2^2x3", "all"),
                          ("3^3", "p-srings"), ("2^4", "all"),
                          ("2^4", "p-srings")])
def test_entry_keys_are_canonical_partitions(group, sring_filter):
    """The least labeling of the orbit a new class walks is the key and
    the cells that the canonical-labeling search gives."""
    spec = parse_group(group)
    catalog = enumerate_srings(spec, sring_filter, label=False)
    for entry in catalog.entries:
        form, cells = canonical_partition(spec, entry.cells)
        assert entry.canonical == form
        assert set(entry.cells) == set(cells)


def test_enumeration_runs_no_labeling_search(monkeypatch, c16):
    calls = []
    real = least_labeling

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "least_labeling", spy)
    monkeypatch.setattr(morphisms_module, "least_labeling", spy)
    assert len(enumerate_srings(c16, "all", label=False)) == 43
    assert calls == []


def test_enumerate_c16_all(c16):
    catalog = enumerate_srings(c16, "all", label=False)
    assert catalog.raw_total == 12_537
    assert len(catalog) == 43
    assert sum(e.raw_count for e in catalog.entries) == catalog.raw_total
    assert _orbit_stabilizer_holds(c16, catalog)


@pytest.mark.parametrize("copies", [0, 2], ids=["dropped", "repeated"])
def test_enumeration_mismatch_gate(monkeypatch, c8, copies):
    """A raw ring the merge search misses or repeats breaks the count of
    its class against the class's orbit.  The edited leaf is the first one
    whose class has more than one ring: a class with every ring missed
    would leave nothing to compare."""

    class Faulty(catalog_module._Enumerator):
        def __init__(self, *args, on_leaf, **kwargs):
            edited = []

            def faulty_on_leaf(partition):
                if not edited and 2 < len(partition) < c8.order:
                    edited.append(partition)
                    for _ in range(copies):
                        on_leaf(partition)
                else:
                    on_leaf(partition)

            super().__init__(*args, on_leaf=faulty_on_leaf, **kwargs)

    monkeypatch.setattr(catalog_module, "_Enumerator", Faulty)
    with pytest.raises(EnumerationMismatch):
        enumerate_srings(c8, "all", label=False)


@pytest.mark.parametrize("group", ["2", "2^4", "2x3^2"])
def test_relabeled_matches_relabeling_by_list(group):
    """Random labelings read through random automorphisms; over the group
    of order 2, every permutation of its points, and one point alone."""
    spec = parse_group(group)
    rng = random.Random(f"relabel-{group}")
    auts = all_auts(spec)
    cases = []
    for _ in range(300):
        labels = rng.randint(1, spec.order)
        lab = renumbered_by_first_occurrence(
            rng.randrange(labels) for _ in range(spec.order))
        cases.append((rng.choice(auts).perm, lab))
    if spec.order == 2:
        cases += [(g, lab) for g in [(0, 1), (1, 0)]
                  for lab in (b"\0\0", b"\0\1")]
        cases.append(((0,), b"\0"))
    for g, lab in cases:
        assert catalog_module._relabeled(g, lab) == relabeled_by_list(g, lab)
        assert catalog_module._renumbered(lab[::-1]) == \
            renumbered_by_first_occurrence(lab[::-1])


def _valid_partitions(spec):
    """Bell oracle: every partition of the non-identity elements that is
    a Schur ring, as a frozenset of cells.  The inverse-closure axiom is
    tested first, because it rejects most partitions cheaply."""
    from srings.errors import PartitionError

    neg = spec.neg_table()
    valid = set()
    for blocks in all_partitions(range(1, spec.order)):
        cells = {frozenset(b) for b in blocks}
        if any(frozenset(neg[x] for x in c) not in cells for c in cells):
            continue
        cells.add(frozenset({0}))
        try:
            validate_partition(spec, cells)
        except PartitionError:
            continue
        valid.add(frozenset(cells))
    return valid


def _recorded_leaves(monkeypatch, spec, bounds=DEFAULT_BOUNDS, **kwargs):
    """Enumerate every ring over spec, recording each leaf of the merge
    search with its weight; kwargs go to enumerate_srings."""
    leaves = []

    class Recording(catalog_module._Enumerator):
        def __init__(self, *args, on_leaf, **kwargs):
            def recording_on_leaf(partition):
                leaves.append((partition, self.weight))
                on_leaf(partition)

            super().__init__(*args, on_leaf=recording_on_leaf, **kwargs)

    monkeypatch.setattr(catalog_module, "_Enumerator", Recording)
    return (enumerate_srings(spec, "all", bounds, label=False, **kwargs),
            leaves)


@pytest.mark.parametrize("group", ["2^3", "3^2", "2^2x3"])
def test_leaves_cover_every_ring_once_under_stabilizer_chain(monkeypatch,
                                                            group):
    """A leaf lists its cells in the order they were fixed: {0}, then
    C_0, C_1, ... with least elements x_0 = 1, x_1, ....  K_0 is the
    stabilizer of 1 in Aut(G), and K_{i+1} the elements of K_i that fix
    C_i setwise and x_{i+1}.  Mapping each leaf by t_0 t_1 ..., with one
    t_i in K_i per image t_i C_i, must give every valid partition exactly
    once, and each leaf as many images as its weight.  Each K_i is
    filtered from all_auts, not taken from the enumerator."""
    spec = parse_group(group)
    catalog, leaves = _recorded_leaves(monkeypatch, spec)
    auts = [a.perm for a in all_auts(spec)]
    images = []
    for leaf, weight in leaves:
        chain = leaf[1:]
        group_i = [g for g in auts if g[1] == 1]
        maps = [tuple(range(spec.order))]
        for i, cell in enumerate(chain):
            transversal = {}
            for g in group_i:
                transversal.setdefault(frozenset(g[x] for x in cell), g)
            maps = [tuple(f[t[x]] for x in range(spec.order))
                    for f in maps for t in transversal.values()]
            if i + 1 < len(chain):
                x_next = min(chain[i + 1])
                group_i = [g for g in group_i if g[x_next] == x_next
                           and frozenset(g[x] for x in cell) == cell]
        assert len(maps) == weight
        images += [frozenset(frozenset(f[x] for x in c) for c in leaf)
                   for f in maps]
    valid = _valid_partitions(spec)
    assert len(images) == len(set(images))
    assert set(images) == valid
    assert catalog.raw_total == len(valid)
    assert len(leaves) < len(valid)


@pytest.mark.parametrize("group, max_nodes, max_leaves",
                         [("2^4", 10_000, 600), ("2x3^2", 30_000, 150)],
                         ids=["2^4", "2x3^2"])
def test_merge_search_prunes_below_the_root(monkeypatch, group, max_nodes,
                                           max_leaves):
    """One candidate per orbit of K_d at every level.  With one per orbit
    of the root stabilizer only, 2^4 spent 59,287 nodes for 1,747 leaves
    and 2x3^2 116,768 nodes for 210 leaves."""
    bounds = replace(DEFAULT_BOUNDS, enum_node_budget=max_nodes)
    catalog, leaves = _recorded_leaves(monkeypatch, parse_group(group),
                                       bounds)
    assert len(leaves) <= max_leaves
    assert sum(weight for _leaf, weight in leaves) == catalog.raw_total


def test_progress_fires_at_every_crossed_multiple_of_50(monkeypatch, c16):
    """A leaf counts for the product of its orbit sizes, so the raw total
    jumps; the callback fires once for each leaf that passes a multiple
    of 50.  One candidate per stabilizer orbit at every level spends
    8,518 nodes on 2^4, well within a budget of 80,000; the unweighted
    search spent 329,651."""
    calls = []
    bounds = replace(DEFAULT_BOUNDS, enum_node_budget=80_000)
    catalog, leaves = _recorded_leaves(
        monkeypatch, c16, bounds, progress=lambda raw, _: calls.append(raw))
    totals = [0]
    for _leaf, weight in leaves:
        totals.append(totals[-1] + weight)
    assert len(catalog) == 43
    assert catalog.raw_total == 12_537
    assert totals[-1] == catalog.raw_total
    assert calls == [t for s, t in zip(totals, totals[1:])
                     if t // 50 > s // 50]
    assert len(calls) < catalog.raw_total // 50


def test_enumeration_node_bound_is_named(c8):
    bounds = replace(DEFAULT_BOUNDS, enum_node_budget=3)
    with pytest.raises(ResourceBoundExceeded) as info:
        enumerate_srings(c8, "all", bounds, label=False)
    assert (info.value.what, info.value.limit) == ("enumeration nodes", 3)


def test_enumeration_filter_validation(c12):
    with pytest.raises(ValueError):
        enumerate_srings(c12, "p-srings")
    with pytest.raises(ValueError):
        enumerate_srings(c12, "everything")
    with pytest.raises(ResourceBoundExceeded):
        enumerate_srings(parse_group("2^5"), "all")


def test_canonical_form_idempotent_and_invariant(c27, table_rings):
    rng = random.Random(4)
    auts = all_auts(c27, 10 ** 5)
    for ring in table_rings.values():
        form, cells = canonical_partition(c27, ring.cells)
        again, cells2 = canonical_partition(c27, cells)
        assert again == form and cells2 == cells
        for _ in range(3):
            phi = rng.choice(auts)
            image = sring_image(ring, phi.perm)
            assert canonical_form(image) == form


def test_canonical_form_separates_classes(table_rings):
    forms = {canonical_form(r) for r in table_rings.values()}
    assert len(forms) == 6


@pytest.mark.parametrize("group, max_cells, count",
                         [("2^4", 7, 30), ("3^3", 5, 8)])
def test_canonical_partition_is_least_over_aut(group, max_cells, count):
    """Arbitrary partitions, not only Schur rings: the canonical labeling
    is the least over all of Aut(G), and relabeling leaves it unchanged.
    Every catalog class happens to be least already, so only random
    partitions reach search paths where a new best is found mid-subtree."""
    spec = parse_group(group)
    rng = random.Random(7)
    auts = all_auts(spec)
    for _ in range(count):
        ncells = rng.randint(1, max_cells)
        blocks = {}
        for x in spec.elements():
            blocks.setdefault(rng.randrange(ncells), set()).add(x)
        cells = list(blocks.values())
        form, _cells = canonical_partition(spec, cells)
        assert form == least_labeling_by_filter(spec, cells)
        perm = rng.choice(auts).perm
        image = [{perm[x] for x in cell} for cell in cells]
        assert canonical_partition(spec, image)[0] == form


@pytest.mark.parametrize("group, count", [("2^4", 30), ("3^3", 30),
                                          ("2^2x3", 22)])
def test_canonical_partition_is_least_on_symmetric_partitions(group, count):
    """Unions of orbits of a random subgroup of Aut(G), so that many
    automorphisms tie and the search prunes subtrees that mirror finished
    ones; each is relabeled by a random automorphism, so its own labeling
    is not least."""
    spec = parse_group(group)
    rng = random.Random(11)
    auts = all_auts(spec)
    for _ in range(count):
        gens = [g.perm for g in rng.sample(auts, rng.randint(1, 2))]
        blocks = {}
        for orb in orbits(gens, spec.order):
            blocks.setdefault(rng.randrange(len(blocks) + 2), set()).update(orb)
        perm = rng.choice(auts).perm
        cells = [{perm[x] for x in block} for block in blocks.values()]
        assert canonical_partition(spec, cells)[0] == \
            least_labeling_by_filter(spec, cells)


def _labeling_nodes(ring):
    budget = _Budget(10 ** 9)
    least_labeling(ring.spec, ring.cell_of, budget=budget)
    return budget.limit - budget.left


def test_least_labeling_prunes_mirrored_subtrees(c16):
    """Without pruning, the group ring and the rank-2 ring visit all
    20,160 automorphisms (22,906 nodes each), and c16.cat 64,106 nodes."""
    assert _labeling_nodes(group_ring(c16)) <= 200
    assert _labeling_nodes(
        validate_partition(c16, [{0}, set(range(1, c16.order))])) <= 200
    catalog = load_catalog(PERFBENCH_DATA / "c16.cat")
    assert sum(_labeling_nodes(e.ring(c16)) for e in catalog.entries) <= 3500


def test_catalog_roundtrip(tmp_path, c12, catalog_c12):
    path = tmp_path / "c12.cat"
    save_catalog(catalog_c12, path)
    loaded = load_catalog(path)
    assert loaded.sring_filter == catalog_c12.sring_filter
    assert len(loaded.entries) == len(catalog_c12.entries)
    for a, b in zip(loaded.entries, catalog_c12.entries):
        assert a.cells == b.cells and a.rank == b.rank
    # byte-identical second save
    path2 = tmp_path / "again.cat"
    save_catalog(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_catalog_version_and_digest_errors(tmp_path, catalog_c8):
    path = tmp_path / "c8.cat"
    save_catalog(catalog_c8, path)
    lines = path.read_text().splitlines()
    import json

    header = json.loads(lines[0])
    header["version"] = 99
    bad = tmp_path / "bad.cat"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(CatalogFormatError):
        load_catalog(bad)
    corrupted = tmp_path / "corrupt.cat"
    corrupted.write_text("\n".join([lines[0]] + lines[2:] + [lines[1]]) + "\n")
    with pytest.raises(CatalogFormatError):
        load_catalog(corrupted)


def test_entries_revalidate_on_load(tmp_path, catalog_c8):
    import json

    path = tmp_path / "c8.cat"
    save_catalog(catalog_c8, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["cells"][1] = rec["cells"][1][:-1]  # break the partition
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    import hashlib

    digest = hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest()
    header = json.loads(lines[0])
    header["digest"] = digest
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    broken = tmp_path / "broken.cat"
    broken.write_text("\n".join(lines) + "\n")
    from srings.errors import PartitionError

    with pytest.raises(PartitionError):
        load_catalog(broken)


def test_rank3_classification_p3(catalog_c27_p):
    report = rank3_classification(3)
    assert report["classes"] == 6
    rows = report["rows"]
    assert [r["decomposable"] for r in rows] == [False, True, True, True,
                                                 True, False]
    assert [r["thin_radical_order"] for r in rows] == [27, 9, 3, 9, 3, 3]
    assert [r["rank"] for r in rows] == [27, 11, 11, 15, 7, 11]


@pytest.mark.parametrize("p", [5, 7])
def test_rank3_templates_larger_primes(p):
    """The templates carry the thin radicals and decomposable flags that
    rank3_classification expects, beyond the p = 3 the golden run covers."""
    spec, templates = rank3_templates(p)
    assert spec.factors == ((p, 3),)
    rings = [ring for _name, ring in templates]
    assert [r.thin_radical().order for r in rings] == \
        [p ** 3, p ** 2, p, p ** 2, p, p]
    assert [bool(decompositions(r)) for r in rings] == \
        [False, True, True, True, True, False]
    assert all(r.is_p_sring(p) for r in rings)


def test_rank3_rejects_even_prime():
    with pytest.raises(ValueError):
        rank3_classification(2)


def test_every_c27_class_is_cyclotomic(catalog_c27_p, c27):
    """Rank at most 3: every p-power class is an orbit partition of its
    Cayley automorphism group."""
    for entry in catalog_c27_p.entries:
        assert is_cyclotomic(entry.ring(c27))


def test_c27_matches_template_set(catalog_c27_p, table_rings):
    entry_forms = {e.canonical for e in catalog_c27_p.entries}
    template_forms = {canonical_form(r) for r in table_rings.values()}
    assert entry_forms == template_forms


def test_checkpoint_resume_completed(tmp_path, c8, catalog_c8):
    from srings.catalog import _write_checkpoint

    ckpt = tmp_path / "c8.ckpt"
    classes = {e.canonical: [e.cells, e.raw_count]
               for e in catalog_c8.entries}
    _write_checkpoint(str(ckpt), c8, "all", 10 ** 9,
                      catalog_c8.raw_total, classes)
    resumed = enumerate_srings(c8, "all", label=False, checkpoint=str(ckpt))
    assert [(e.cells, e.raw_count) for e in resumed.entries] == \
        [(e.cells, e.raw_count) for e in catalog_c8.entries]
    assert resumed.raw_total == catalog_c8.raw_total
    assert not ckpt.exists()


def test_checkpoint_resume_after_interrupt(tmp_path, c8, catalog_c8):
    ckpt = tmp_path / "c8.ckpt"

    def bomb(raw, _classes):
        if raw >= 50:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        enumerate_srings(c8, "all", label=False, checkpoint=str(ckpt),
                         checkpoint_interval=0.0, progress=bomb)
    assert ckpt.exists()
    resumed = enumerate_srings(c8, "all", label=False, checkpoint=str(ckpt))
    assert [(e.cells, e.raw_count) for e in resumed.entries] == \
        [(e.cells, e.raw_count) for e in catalog_c8.entries]
    assert resumed.raw_total == catalog_c8.raw_total
    assert not ckpt.exists()


def test_checkpoint_of_another_version_is_ignored(tmp_path, c8, catalog_c8):
    """A checkpoint written before root branches were weighted counts
    every root candidate once; resuming it would miscount, so it is
    ignored and the run starts afresh."""
    import json
    from srings.catalog import _write_checkpoint

    ckpt = tmp_path / "c8.ckpt"
    _write_checkpoint(str(ckpt), c8, "all", 3, 7, {})
    data = json.loads(ckpt.read_text())
    del data["version"]
    ckpt.write_text(json.dumps(data))
    resumed = enumerate_srings(c8, "all", label=False, checkpoint=str(ckpt))
    assert [(e.cells, e.raw_count) for e in resumed.entries] == \
        [(e.cells, e.raw_count) for e in catalog_c8.entries]
    assert resumed.raw_total == catalog_c8.raw_total


def test_rank2_p_classification(c9, c3):
    """Rank 2: exactly the group ring and the single proper wreath class.

    (The nontrivial class is the wreath of two copies of the prime group
    ring; its Cayley class is unique.)"""
    catalog = enumerate_srings(c9, "p-srings")
    assert len(catalog) == 2
    labels = sorted(e.construction or "" for e in catalog.entries)
    assert labels[0] == "ZG"
    assert labels[1].startswith("wr(ZG,ZG")
