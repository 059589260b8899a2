"""Exhaustive enumeration of Schur rings up to Cayley isomorphism,
canonical forms, the rank-3 classification, and catalog persistence."""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

from .config import DEFAULT_BOUNDS, _Budget
from .errors import (CatalogFormatError, ClassificationMismatch,
                     EnumerationMismatch, ResourceBoundExceeded, SRingsError)
from .groups import (GroupSpec, aut_generators, aut_group,
                     cell_maps, enumerate_subgroups, format_group,
                     make_group, parse_group)
from .permgrp import orbit
from .sring import (SRing, _product_counts, _split_pair, memoized,
                    validate_partition)
from .construct import (decompositions, parse_construction,
                        recognize_construction)
from .morphisms import least_labeling

CATALOG_FORMAT = "srings-catalog"
CATALOG_VERSION = 1
# version 2: root branches are counted with the weight of their orbit
CHECKPOINT_VERSION = 2
# Least time between two checkpoint writes.
CHECKPOINT_INTERVAL_S = 60.0


# -- canonical form -----------------------------------------------------------


@memoized
def canonical_form(a: SRing) -> bytes:
    return canonical_partition(a.spec, a.cells)[0]


def canonical_partition(spec: GroupSpec, cells):
    """Lexicographically least cell labeling over the Aut(G) orbit, as
    bytes, together with the cells it numbers (see least_labeling)."""
    cell_of = [0] * spec.order
    for i, c in enumerate(cells):
        for x in c:
            cell_of[x] = i
    best = least_labeling(spec, cell_of,
                          _Budget(DEFAULT_BOUNDS.backtrack_node_budget))
    return bytes(best), _cells_of(best)


def _cells_of(labels) -> tuple:
    """The cells of a labeling numbered by first occurrence: cell i holds
    the points labeled i."""
    cells = {}
    for x, i in enumerate(labels):
        cells.setdefault(i, set()).add(x)
    return tuple(map(frozenset, cells.values()))


# -- enumeration ---------------------------------------------------------------


def _p_power_sizes(p, limit):
    out = []
    s = 1
    while s <= limit:
        out.append(s)
        s *= p
    return out


class _Enumerator:
    """Depth-first merge search over cell partitions.

    Cells are fixed in increasing order of their least element.  Pruning:
    counts of already-fixed pairs must be constant on every fixed cell and
    induce equal signatures inside any future cell; coprime power maps must
    send fixed cells onto cells, which forces future cells; in p-power
    mode a cell of size |G|/p must be a coset of an index-p subgroup.

    Symmetry breaking.  The cell fixed at depth d is a candidate cell of
    x_d, the least element not yet in a cell, so x_0 = 1.  Let K_d be the
    automorphisms that fix every cell fixed so far setwise and
    x_0, ..., x_d pointwise: K_0 = H = Stab_Aut(G)(1), and once a
    candidate C is fixed, K_{d+1} = {g in K_d : gC = C, g x_{d+1} =
    x_{d+1}}.  K_d preserves the fixed cells, hence the candidates of
    x_d, the signatures, the forced cells and the acceptance test, and
    each g in K_d maps the rings below C one to one onto those below gC.
    So a node walks the K_d-orbit of each unmarked candidate before it
    fixes it, fixes only the first candidate of each orbit (when that one
    is rejected, the whole orbit is), and self.weight, the number of
    rings each leaf stands for, is the product of the orbit sizes on the
    path.  The root walks H with its generators through per-byte image
    tables; K_1 is listed by cell_maps, which spends a backtracking
    budget of its own (the enumeration budget counts merge-search nodes
    only), and each deeper group filters its parent's list.  Once K_d is
    trivial it stays trivial, and the node fixes every candidate without
    walks.

    A resumed run walks and marks the orbits of the root candidates before
    resume_root without fixing them.  So root_done still counts root
    candidates in _candidates order, and the member of each orbit that is
    explored is still its first one.
    """

    def __init__(self, spec, p_filter, bounds, resume_root=0, on_root=None,
                 on_leaf=None):
        self.spec = spec
        self.n = spec.order
        self.add = spec.add_table()
        self.p_filter = p_filter
        self.budget = _Budget(bounds.enum_node_budget, "enumeration nodes")
        self.backtrack_limit = bounds.backtrack_node_budget
        self.resume_root = resume_root
        self.on_root = on_root
        self.on_leaf = on_leaf
        self.weight = 1
        self.bits = tuple(1 << y for y in range(self.n))
        self.multipliers = [m for m in spec.multipliers() if m != 1]
        self.scale_rows = {m: tuple(spec.scale(m, x) for x in range(self.n))
                           for m in self.multipliers}
        if p_filter:
            p = spec.factors[0][0]
            self.prime = p
            self.sizes = _p_power_sizes(p, self.n - 1)
            self.index_p_cosets = self._index_p_cosets()
        else:
            self.prime = None
            self.sizes = None
            self.index_p_cosets = None
        self.fixed: list = []
        self.cell_of_fixed: dict = {}
        self.sig = [[] for _ in range(self.n)]
        self.forced: dict = {}

    def _index_p_cosets(self):
        p = self.prime
        cosets = set()
        for H in enumerate_subgroups(self.spec):
            if H.order * p == self.n:
                for rep in range(self.n):
                    if not H.contains(rep):
                        cosets.add(frozenset(self.add[rep][h]
                                             for h in H.elements))
        return cosets

    def run(self):
        rest = frozenset(range(1, self.n))
        self._fix_cell((self.spec.identity,), rest)
        stab = aut_group(self.spec).point_stabilizer(1)
        self._search(rest,
                     [_byte_tables(g) for g in stab.reduced_generators()])

    def _search(self, unassigned, group, depth=0):
        """Explore the rings that extend the fixed cells.  group is K_d:
        at the root the image tables of H's generators, below it the
        list of its elements g as bit rows, row[y] = 1 << g[y]."""
        if not unassigned:
            if self.on_leaf:
                self.on_leaf(tuple(cell for cell, _ in self.fixed))
            return
        x = min(unassigned)
        forced_cell = self.forced.get(x)
        if forced_cell is not None:
            candidates = [tuple(sorted(forced_cell))]
        else:
            candidates = self._candidates(x, unassigned)
        walk = depth == 0 or len(group) > 1
        # the members of walked orbits not yet reached; each member is a
        # candidate exactly once, so a hit removes it
        marked = set()
        for count, cand in enumerate(candidates):
            size = 1
            if walk:
                mask = _cell_mask(self.bits, cand)
                if mask in marked:
                    marked.remove(mask)
                    continue
                if depth == 0:
                    cand_orbit = orbit(mask, group, _table_image)
                else:
                    cand_orbit = {_cell_mask(g, cand) for g in group}
                marked |= cand_orbit
                marked.remove(mask)
                size = len(cand_orbit)
                if depth == 0 and count < self.resume_root:
                    continue
            self.budget.spend()
            rest = unassigned - frozenset(cand)
            journal = self._fix_cell(cand, rest)
            if journal is None:
                continue
            child = group
            if walk and rest:
                child = self._child_group(group, depth, cand, mask, min(rest))
            self.weight *= size
            self._search(rest, child, depth + 1)
            self.weight //= size
            if depth == 0 and self.on_root:
                self.on_root(count)
            self._unfix(journal)

    def _child_group(self, group, depth, cell, mask, x):
        """K_{d+1}: the elements of K_d that fix the cell and the point x,
        as bit rows."""
        if depth == 0:
            # the labels of {0}, {x_0 = 1}, C - {1}, {x_1} and the rest
            cell_of = [4] * self.n
            cell_of[0] = 0
            for y in cell:
                cell_of[y] = 2
            cell_of[1] = 1
            cell_of[x] = 3
            return [tuple(self.bits[y] for y in g.perm)
                    for g in cell_maps(self.spec, cell_of, cell_of, range(5),
                                       _Budget(self.backtrack_limit))]
        return [row for row in group if row[x] == self.bits[x]
                and _cell_mask(row, cell) == mask]

    def _candidates(self, x, unassigned):
        sig_x = tuple(self.sig[x])
        pool = sorted(y for y in unassigned
                      if y != x and y not in self.forced
                      and tuple(self.sig[y]) == sig_x)
        limit = len(pool) + 1
        sizes = [s for s in (self.sizes or range(1, limit + 1)) if s <= limit]
        for s in sizes:
            if s == 1:
                yield (x,)
            elif self.p_filter and s == self.n // self.prime:
                for coset in sorted(self.index_p_cosets, key=sorted):
                    if x in coset and all(
                            y == x or (y in unassigned and y not in self.forced
                                       and tuple(self.sig[y]) == sig_x)
                            for y in coset):
                        yield tuple(sorted(coset))
            else:
                for combo in itertools.combinations(pool, s - 1):
                    yield (x,) + combo

    def _fix_cell(self, cell, unassigned):
        cell_set = frozenset(cell)
        k = len(self.fixed)
        journal = {"index": k, "forced": [], "sig_pairs": 0,
                    "unassigned": unassigned}
        self.fixed.append((cell_set, tuple(sorted(cell_set))))
        for y in cell_set:
            self.cell_of_fixed[y] = k
        # power maps must carry the new cell onto a cell
        for m in self.multipliers:
            row = self.scale_rows[m]
            image = frozenset(row[y] for y in cell_set)
            if image == cell_set:
                continue
            hit = self.cell_of_fixed.get(min(image))
            if hit is not None:
                if self.fixed[hit][0] != image:
                    self._unfix(journal)
                    return None
                continue
            if not image <= unassigned:
                self._unfix(journal)
                return None
            # an image meeting another forced cell m'C' needs no check: the
            # multiplier m'^-1 m maps C onto a set meeting C' without being it
            for y in image:
                if y not in self.forced:
                    self.forced[y] = image
                    journal["forced"].append(y)
        # forced cells must stay signature-uniform and intact
        if not self._counts_ok(k, unassigned, journal):
            self._unfix(journal)
            return None
        return journal

    def _counts_ok(self, k, unassigned, journal):
        cells = [cell for _, cell in self.fixed]
        # The group is abelian, so each unordered pair is counted once.
        # The pair with the identity cell is skipped: its counts are 0 on
        # every unassigned element and constant on every fixed cell.  The
        # self pair rejects most often, so it goes first.
        pair_counts = []
        for i in (k, *range(1, k)):
            counts = _product_counts(self.add, self.n, cells[k], cells[i])
            if _split_pair(counts, cells) is not None:
                return False
            pair_counts.append(counts)
        for z in unassigned:
            self.sig[z].extend(counts[z] for counts in pair_counts)
        journal["sig_pairs"] = len(pair_counts)
        return True

    def _unfix(self, journal):
        k = journal["index"]
        cell_set, _ = self.fixed.pop()
        if k != len(self.fixed):
            raise SRingsError("enumerator undo out of order")
        for y in cell_set:
            del self.cell_of_fixed[y]
        for y in journal["forced"]:
            del self.forced[y]
        npairs = journal["sig_pairs"]
        if npairs:
            for z in journal["unassigned"]:
                del self.sig[z][-npairs:]


@dataclass
class Entry:
    cells: tuple
    canonical: bytes
    rank: int
    thin_radical_order: int
    decomposable: bool
    construction: str | None = None
    ci: dict | None = None
    raw_count: int = 0

    def ring(self, spec) -> SRing:
        return validate_partition(spec, self.cells)


@dataclass
class Catalog:
    spec: GroupSpec
    sring_filter: str
    entries: list
    raw_total: int = 0

    def rings(self):
        return [validate_partition(self.spec, e.cells) for e in self.entries]

    def __len__(self):
        return len(self.entries)


def enumerate_srings(spec: GroupSpec, sring_filter: str = "all",
                     bounds=DEFAULT_BOUNDS, label: bool = True,
                     checkpoint=None) -> Catalog:
    """All Schur rings over the group, one canonical representative per
    Cayley isomorphism class.

    The merge search explores one candidate cell per orbit of K_d at every
    level d.  K_d is the group of automorphisms that fix the cells fixed so
    far setwise, and pointwise the least element of each of them and of the
    cell to be fixed (K_0 = H = Stab_Aut(G)(1); see _Enumerator).  Each leaf
    it reaches stands for as many raw rings as the product of the orbit
    sizes on its path: its weight.  Each leaf is looked up by its cell
    labeling.  The first leaf of a class walks its Aut(G) orbit of
    labelings, whose least member is the class's canonical form, into the
    lookup table; later leaves of the class are table hits.
    raw_total and an entry's raw_count sum the weights of the leaves
    counted, and raw_count must equal the size of the walked orbit
    (orbit-stabilizer); a difference means the search missed or repeated a
    leaf and raises EnumerationMismatch.  This catches a class whose rings
    are partly missed or repeated, but not a class the search misses
    entirely, which leaves no orbit to compare; only known raw totals catch
    that.

    sring_filter "p-srings" keeps only partitions with prime-power cell
    sizes (the group must be a p-group); "all" enumerates everything, over
    groups of order at most bounds.enum_all_order.  checkpoint names a
    progress file: finished root branches are recorded there at most every
    CHECKPOINT_INTERVAL_S seconds, and a fresh run resumes from it.  A
    file of another group, filter or CHECKPOINT_VERSION is ignored.
    """
    import os
    import time

    if sring_filter not in ("all", "p-srings"):
        raise ValueError(f"unknown filter {sring_filter!r}")
    p_filter = sring_filter == "p-srings"
    if p_filter and len(spec.factors) != 1:
        raise ValueError("p-power filter needs a p-group")
    if not p_filter and spec.order > bounds.enum_all_order:
        raise ResourceBoundExceeded("enumeration order",
                                    bounds.enum_all_order, spec.order)

    classes: dict = {}
    raw_total = 0
    resume_root = 0
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("group") == format_group(spec) \
                and data.get("filter") == sring_filter \
                and data.get("version") == CHECKPOINT_VERSION:
            resume_root = data["root_done"]
            raw_total = data["raw_total"]
            for item in data["classes"]:
                cells = tuple(frozenset(c) for c in item["cells"])
                classes[bytes.fromhex(item["form"])] = [cells, item["raw"]]

    perms = [g.perm for g in aut_generators(spec)]
    class_of: dict = {}
    orbit_size: dict = {}

    def on_leaf(partition):
        # the leaf stands for enum.weight raw rings, its root orbit's size
        nonlocal raw_total
        raw_total += enum.weight
        lab = [0] * spec.order
        for i, cell in enumerate(partition):
            for x in cell:
                lab[x] = i
        lab = _renumbered(bytes(lab))
        key = class_of.get(lab)
        if key is None:
            # reading lab through g gives its image under g^-1, and the
            # inverses generate the same group; so the least image is the
            # least labeling, the canonical form
            lab_orbit = orbit(lab, perms, _relabeled)
            key = min(lab_orbit)
            classes.setdefault(key, [_cells_of(key), 0])
            class_of.update(dict.fromkeys(lab_orbit, key))
            orbit_size[key] = len(lab_orbit)
        classes[key][1] += enum.weight

    last_write = time.monotonic()

    def on_root(index):
        nonlocal last_write
        if checkpoint is None:
            return
        now = time.monotonic()
        if now - last_write < CHECKPOINT_INTERVAL_S:
            return
        last_write = now
        _write_checkpoint(checkpoint, spec, sring_filter, index + 1,
                          raw_total, classes)

    enum = _Enumerator(spec, p_filter, bounds, resume_root=resume_root,
                       on_root=on_root, on_leaf=on_leaf)
    enum.run()
    if checkpoint and os.path.exists(checkpoint):
        os.remove(checkpoint)
    for key, size in orbit_size.items():
        if classes[key][1] != size:
            raise EnumerationMismatch(
                f"class {key.hex()}: {classes[key][1]} raw rings counted, "
                f"its Aut(G) orbit has {size}")

    entries = []
    for key in sorted(classes):
        cells, raw_count = classes[key]
        ring = validate_partition(spec, cells)
        construction = None
        if label:
            try:
                construction = recognize_construction(ring)
            except ResourceBoundExceeded:
                construction = None
        entries.append(Entry(
            cells=ring.cells,
            canonical=key,
            rank=ring.rank,
            thin_radical_order=ring.thin_radical().order,
            decomposable=bool(decompositions(ring)),
            construction=construction,
            raw_count=raw_count,
        ))
    return Catalog(spec, sring_filter, entries, raw_total)


_LABELS = bytes(range(256))


def _renumbered(labels: bytes) -> bytes:
    """The labeling with its labels renumbered by first occurrence."""
    first = bytes(dict.fromkeys(labels))
    return labels.translate(bytes.maketrans(first, _LABELS[:len(first)]))


def _relabeled(g, lab: bytes) -> bytes:
    """The labeling lab read through the permutation g, renumbered (on one
    point, itemgetter returns the label itself, not a tuple)."""
    return _renumbered(bytes(itemgetter(*g)(lab)) if len(g) > 1 else lab)


def _byte_tables(g) -> list:
    """Image tables of the permutation g on bitmasks: entry v of table b
    is the image of the points 8b + i for the bits i set in v."""
    tables = []
    for base in range(0, len(g), 8):
        table = [0]
        for y in g[base:base + 8]:
            table += [t | 1 << y for t in table]
        tables.append(table)
    return tables


def _table_image(tables, mask) -> int:
    """The image of the point set with bitmask mask, through the tables
    of _byte_tables."""
    out = 0
    for table in tables:
        out |= table[mask & 255]
        mask >>= 8
    return out


def _cell_mask(row, cell) -> int:
    """The bitmask of the image of the cell under the permutation g with
    row[y] = 1 << g[y]."""
    return sum(map(row.__getitem__, cell))


def _write_checkpoint(path, spec, sring_filter, root_done, raw_total, classes):
    data = {
        "group": format_group(spec),
        "filter": sring_filter,
        "version": CHECKPOINT_VERSION,
        "root_done": root_done,
        "raw_total": raw_total,
        "classes": [{"form": key.hex(),
                     "cells": [sorted(c) for c in cells],
                     "raw": raw}
                    for key, (cells, raw) in sorted(classes.items())],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    import os

    os.replace(tmp, path)


# -- persistence ----------------------------------------------------------------


def _entry_record(entry: Entry) -> dict:
    rec = {
        "cells": [sorted(c) for c in entry.cells],
        "rank": entry.rank,
        "thin_radical_order": entry.thin_radical_order,
        "decomposable": entry.decomposable,
        "construction": entry.construction,
        "raw_count": entry.raw_count,
    }
    if entry.ci is not None:
        rec["ci"] = entry.ci
    return rec


def save_catalog(catalog: Catalog, path) -> None:
    lines = []
    for i, entry in enumerate(catalog.entries):
        rec = _entry_record(entry)
        rec["id"] = i
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    header = json.dumps({
        "format": CATALOG_FORMAT,
        "version": CATALOG_VERSION,
        "group": format_group(catalog.spec),
        "filter": catalog.sring_filter,
        "count": len(catalog.entries),
        "raw_total": catalog.raw_total,
        "digest": digest,
    }, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _json_record(line) -> dict:
    """One catalog line, a JSON object; CatalogFormatError otherwise."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        raise CatalogFormatError(f"a line is not JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise CatalogFormatError("a line is not a JSON object")
    return rec


def _field(rec, key, kind, *default):
    """rec[key] if it is a kind, where a bool is no int; CatalogFormatError
    naming the field otherwise.  A default stands in for an absent key,
    and a default of None for a null too."""
    value = rec.get(key, *default)
    if default and value is default[0]:
        return value
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise CatalogFormatError(f"field {key!r} must be {kind.__name__}")
    return value


def load_catalog(path) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise CatalogFormatError("empty catalog file")
    header = _json_record(raw[0])
    if header.get("format") != CATALOG_FORMAT:
        raise CatalogFormatError("not a catalog file")
    if header.get("version") != CATALOG_VERSION:
        raise CatalogFormatError(
            f"version {header.get('version')} unsupported "
            f"(expected {CATALOG_VERSION})")
    lines = raw[1:]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if digest != header.get("digest"):
        raise CatalogFormatError("catalog digest mismatch")
    spec = parse_group(_field(header, "group", str), max_order=None)
    entries = []
    for line in lines:
        rec = _json_record(line)
        cells = _field(rec, "cells", list)
        if not all(isinstance(c, list) and all(isinstance(x, int) for x in c)
                   for c in cells):
            raise CatalogFormatError("field 'cells' must be lists of ints")
        # every entry re-validates on load
        ring = validate_partition(spec, [frozenset(c) for c in cells])
        entries.append(Entry(
            cells=ring.cells,
            canonical=canonical_form(ring),
            rank=_field(rec, "rank", int),
            thin_radical_order=_field(rec, "thin_radical_order", int),
            decomposable=_field(rec, "decomposable", bool),
            construction=_field(rec, "construction", str, None),
            ci=_field(rec, "ci", dict, None),
            raw_count=_field(rec, "raw_count", int, 0),
        ))
        if entries[-1].rank != ring.rank:
            raise CatalogFormatError("field 'rank' does not match the cells")
    return Catalog(spec, _field(header, "filter", str), entries,
                   _field(header, "raw_total", int, 0))


# -- rank-3 classification -------------------------------------------------------


def rank3_templates(p: int):
    """The six standard p-power Schur rings over the rank-3 group, with
    construction labels, in classification order."""
    spec = make_group([(p, 3)], max_order=max(DEFAULT_BOUNDS.max_group_order,
                                              p ** 3))
    wr_pp = "wr(ZG,ZG;U=[(1,0)];L=[(1,0)])"  # over the rank-2 group
    plane, line = "[(1,0,0);(0,1,0)]", "[(1,0,0)]"
    rows = [
        ("ZG", "ZG"),
        ("wr(Z(p^2),Z(p))", f"wr(ZG,ZG;U={plane};L={plane})"),
        ("wr(Z(p),Z(p^2))", f"wr(ZG,ZG;U={line};L={line})"),
        ("tensor(wr(Z(p),Z(p)),Z(p))", f"tensor[{p}^2,{p}]({wr_pp},ZG)"),
        ("wr(wr(Z(p),Z(p)),wr(Z(p),Z(p)))",
         f"wr({wr_pp},{wr_pp};U={plane};L={line})"),
        ("cyc(unitriangular)", "cyc([(1,1,0);(0,1,1);(0,0,1)])"),
    ]
    return spec, [(name, parse_construction(expr, spec))
                  for name, expr in rows]


def rank3_classification(p: int, bounds=DEFAULT_BOUNDS) -> dict:
    """Enumerate the p-power Schur rings over the rank-3 elementary abelian
    group and match each class against the six templates.

    Raises ClassificationMismatch when the classes differ from the
    templates in any way.
    """
    if p == 2 or p < 2:
        raise ValueError("the classification needs an odd prime")
    spec, templates = rank3_templates(p)
    catalog = enumerate_srings(spec, "p-srings", bounds, label=False)
    template_forms = {}
    for idx, (name, ring) in enumerate(templates):
        template_forms[canonical_form(ring)] = (idx, name, ring)
    if len(template_forms) != len(templates):
        raise ClassificationMismatch("templates are not pairwise distinct")
    rows = [None] * len(templates)
    unmatched = []
    for entry in catalog.entries:
        hit = template_forms.get(entry.canonical)
        if hit is None:
            unmatched.append(entry)
            continue
        idx, name, _ring = hit
        rows[idx] = {
            "row": idx + 1,
            "template": name,
            "rank": entry.rank,
            "decomposable": entry.decomposable,
            "thin_radical_order": entry.thin_radical_order,
            "raw_count": entry.raw_count,
        }
    if unmatched:
        raise ClassificationMismatch(
            f"{len(unmatched)} classes match no template; first has cells "
            f"{[sorted(c) for c in unmatched[0].cells]}")
    if any(r is None for r in rows):
        missing = [i + 1 for i, r in enumerate(rows) if r is None]
        raise ClassificationMismatch(f"template rows {missing} not realized")
    expected_dec = (False, True, True, True, True, False)
    expected_thin = (p ** 3, p ** 2, p, p ** 2, p, p)
    for row, dec, thin in zip(rows, expected_dec, expected_thin):
        if row["decomposable"] != dec:
            raise ClassificationMismatch(
                f"row {row['row']}: decomposable flag {row['decomposable']}")
        if row["thin_radical_order"] != thin:
            raise ClassificationMismatch(
                f"row {row['row']}: thin radical {row['thin_radical_order']}")
    return {
        "prime": p,
        "classes": len(catalog.entries),
        "rows": rows,
        "raw_total": catalog.raw_total,
        "catalog": catalog,
    }
