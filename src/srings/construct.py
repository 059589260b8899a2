"""Constructions of Schur rings: group ring, cyclotomic, schurian, tensor,
quotient, generalized wreath product, and the wreath-decomposition finder."""

from __future__ import annotations

from .errors import (IncompatibleOnSection, PartitionError,
                     ResourceBoundExceeded, SRingsError)
from .groups import (GroupAut, GroupSpec, Section, Subgroup, full_subgroup,
                     group_spec, subgroup_span, trivial_subgroup)
from .permgrp import PermGroup, orbits
from .sring import SRing, memoized, radical, validate_partition


def group_ring(spec: GroupSpec) -> SRing:
    """The partition into singletons."""
    return validate_partition(spec, [frozenset([x]) for x in spec.elements()])


def cyclotomic(auts, spec: GroupSpec) -> SRing:
    """Cells are the orbits of the given automorphisms on the group."""
    perms = [a.perm if isinstance(a, GroupAut) else tuple(a) for a in auts]
    return validate_partition(spec, orbits(perms, spec.order))


def schurian(K: PermGroup, spec: GroupSpec) -> SRing:
    """Cells are the orbits of the identity stabilizer of K."""
    if K.degree != spec.order:
        raise ValueError("degree mismatch")
    for b in spec.basis():
        if not K.contains(spec.translation(b)):
            raise ValueError("K does not contain the right translations")
    stab = K.point_stabilizer(spec.identity)
    return validate_partition(spec, stab.orbits())


def tensor(a1: SRing, a2: SRing) -> SRing:
    """Product partition over the direct product of the two groups.

    Shared primes are allowed; their ranks add and the first factor's
    coordinates come first within each prime block.
    """
    s1, s2 = a1.spec, a2.spec
    merged = {}
    for p, n in s1.factors:
        merged[p] = merged.get(p, 0) + n
    for p, n in s2.factors:
        merged[p] = merged.get(p, 0) + n
    spec = group_spec(merged.items(), max_order=None)

    basis = spec.basis()
    starts = {p: pos for p, _n, pos in spec.prime_blocks()}

    def embedding(s, shift):
        """The image in spec of each element of s, whose p-coordinates
        start shift[p] places into spec's p-block."""
        gens = [basis[starts[p] + shift.get(p, 0) + i]
                for p, n in s.factors for i in range(n)]
        return spec.combinations(gens, s.radices)

    e1 = embedding(s1, {})
    e2 = embedding(s2, dict(s1.factors))
    add = spec.add_table()
    cells = [frozenset(add[e1[x1]][e2[x2]] for x1 in c1 for x2 in c2)
             for c1 in a1.cells for c2 in a2.cells]
    return validate_partition(spec, cells)


def quotient(a: SRing, section: Section) -> SRing:
    """Images of the cells inside U under the section projection."""
    U, L = section.U, section.L
    if not (a.is_a_set(U.elements) and a.is_a_set(L.elements)):
        raise PartitionError("not a section of this Schur ring")
    # distinct cells may project onto the same image; dedup as a set
    out = set()
    for cell in a.cells:
        if cell <= U.elements:
            out.add(frozenset(section.proj[x] for x in cell))
    return validate_partition(section.quotient, out)


def wreath(a_top: SRing, a_quot: SRing, section: Section) -> SRing:
    """Generalized wreath product along the section U/L.

    a_top lives on U's own spec, Section(U).quotient, a_quot on the spec
    of G/L.  Inside U the cells come from a_top; outside U every cell is
    the preimage of an a_quot cell.  The two factors are compatible when
    every top cell, mapped into G, projects onto a cell of a_quot: then L
    is a union of top cells, U/L a union of quotient cells, and the two
    factors agree on U/L.  Otherwise IncompatibleOnSection names the first
    offending top cell, in G's coordinates.
    """
    spec = section.spec
    u_chart = Section(section.U)
    glq = Section(full_subgroup(spec), section.L)
    if a_top.spec != u_chart.quotient:
        raise ValueError("top factor is not over U's spec")
    if a_quot.spec != glq.quotient:
        raise ValueError("quotient factor is not over the spec of G/L")

    quot_cells = set(a_quot.cells)
    cells = []
    on_section = set()
    for cell in a_top.cells:
        ambient = frozenset(u_chart.lift[x] for x in cell)
        image = frozenset(glq.proj[x] for x in ambient)
        if image not in quot_cells:
            raise IncompatibleOnSection(ambient)
        cells.append(ambient)
        on_section.add(image)

    preimage = {}
    for x in spec.elements():
        preimage.setdefault(glq.proj[x], []).append(x)
    for cell in a_quot.cells:
        if cell not in on_section:
            members = []
            for q in cell:
                members.extend(preimage[q])
            cells.append(frozenset(members))
    ring = validate_partition(spec, cells)
    if ring.rank != a_top.rank + a_quot.rank - len(on_section):
        raise SRingsError("wreath rank formula violated")
    return ring


@memoized
def decompositions(a: SRing) -> tuple:
    """All sections U/L with 1 < |L|, U < G, witnessing a generalized
    wreath decomposition: every cell outside U has L inside its radical.

    Empty exactly when the ring is indecomposable.
    """
    spec = a.spec
    subs = a.a_subgroups()
    rads = [radical(spec, cell).mask for cell in a.cells]
    out = []
    for U in subs:
        if U.order == spec.order:
            continue
        allowed = (1 << spec.order) - 1
        for i, cell in enumerate(a.cells):
            if not cell <= U.elements:
                allowed &= rads[i]
        for L in subs:
            if L.order > 1 and U.contains_subgroup(L) \
                    and L.mask & ~allowed == 0:
                out.append(Section(U, L))
    out.sort(key=lambda s: (s.L.order, -s.U.order,
                            s.U.sort_key(), s.L.sort_key()))
    return tuple(out)


def is_wreath_for(a: SRing, section: Section) -> bool:
    """Whether every cell outside U has the section's L in its radical.

    With 1 < |L| and U < G that is membership in decompositions(a), an
    identity test since sections are interned; otherwise the condition
    holds vacuously and only U and L must be unions of cells."""
    U, L = section.U, section.L
    if L.order > 1 and U.order < a.spec.order:
        return section in decompositions(a)
    return a.is_a_set(U.elements) and a.is_a_set(L.elements)


def wreath_parts(a: SRing, section: Section):
    """The two factors of a wreath decomposition with their charts:
    (quotient(a, U/1), U/1, quotient(a, G/L), G/L)."""
    u_chart = Section(section.U)
    glq = Section(full_subgroup(a.spec), section.L)
    return quotient(a, u_chart), u_chart, quotient(a, glq), glq


# -- construction expressions -------------------------------------------------
#
# Small prefix grammar used for catalog labels and the CLI:
#
#   expr     := "ZG"
#             | "wr(" expr "," expr ";U=" gens ";L=" gens ")"
#             | "tensor[" group "," group "](" expr "," expr ")"
#             | "cyc(" gen ("|" gen)* ")"
#   gens     := "[" vec (";" vec)* "]"        basis vectors of the subgroup
#   vec      := "(" int ("," int)* ")"        coordinates in the ambient group
#   gen      := mat ("&" mat)*                one matrix per prime block
#   mat      := "[" vec (";" vec)* "]"        rows
#
# In wr(...) the first expression is over U, the second over G/L.  In
# tensor[g1,g2](...) the two group strings fix how the coordinates split.


def _format_vec(coords):
    return "(" + ",".join(str(c) for c in coords) + ")"


def _format_gens(spec, sub: Subgroup):
    rows = [_format_vec(spec.coords(x)) for x in sub.basis_elements()]
    return "[" + ";".join(rows) + "]"


def recognize_construction(a: SRing) -> str | None:
    """Best-effort structural label for a ring; None if nothing matched."""
    from . import morphisms
    from .groups import format_group

    spec = a.spec
    if a.rank == spec.order:
        return "ZG"
    # tensor over a pair of complementary cell-union subgroups
    subs = [H for H in a.a_subgroups() if 1 < H.order < spec.order]
    for H in subs:
        for K in subs:
            if H.order * K.order == spec.order and \
                    H.meet(K).order == 1 and \
                    _same_coordinate_split(spec, H, K):
                rh = quotient(a, Section(H))
                rk = quotient(a, Section(K))
                if rh.rank * rk.rank == a.rank and \
                        tensor(rh, rk).cells == a.cells:
                    lh = recognize_construction(rh) or "?"
                    lk = recognize_construction(rk) or "?"
                    return (f"tensor[{format_group(rh.spec)},"
                            f"{format_group(rk.spec)}]({lh},{lk})")
    decs = decompositions(a)
    if decs:
        sec = decs[0]
        top, _, quot, _ = wreath_parts(a, sec)
        lt = recognize_construction(top) or "?"
        lq = recognize_construction(quot) or "?"
        return (f"wr({lt},{lq};U={_format_gens(spec, sec.U)}"
                f";L={_format_gens(spec, sec.L)})")
    try:
        gens = morphisms.cyclotomic_generators(a)
    except ResourceBoundExceeded:
        return None
    if gens is None:
        return None
    label = "|".join(
        "&".join("[" + ";".join(_format_vec(row) for row in mat) + "]"
                 for mat in mats)
        for mats in gens)
    return f"cyc({label})"


def _same_coordinate_split(spec, H, K):
    """True if H and K are spanned by disjoint coordinate blocks."""
    return not (_coordinate_support(spec, H) & _coordinate_support(spec, K))


def _coordinate_support(spec, sub: Subgroup):
    return {i for x in sub.elements for i, c in enumerate(spec.coords(x)) if c}


def parse_construction(text: str, spec: GroupSpec) -> SRing:
    """Evaluate a construction expression over the given ambient group."""
    text = text.strip()
    ring, rest = _parse_expr(text, spec)
    if rest:
        raise ValueError(f"trailing input {rest!r}")
    return ring


def _parse_expr(text, spec):
    if text.startswith("ZG"):
        return group_ring(spec), text[2:]
    if text.startswith("wr("):
        inner, rest = _match_paren(text[2:])
        body, u_part, l_part = _split_wreath(inner)
        U = _parse_gens(u_part, spec)
        L = _parse_gens(l_part, spec)
        e1, e2 = _split_top_level(body)
        top = parse_construction(e1, Section(U).quotient)
        quot = parse_construction(e2, Section(full_subgroup(spec), L).quotient)
        return wreath(top, quot, Section(U, L)), rest
    if text.startswith("tensor["):
        close = text.index("]")
        from .groups import parse_group

        g1_text, g2_text = text[len("tensor["):close].split(",")
        g1 = parse_group(g1_text, max_order=None)
        g2 = parse_group(g2_text, max_order=None)
        inner, rest = _match_paren(text[close + 1:])
        e1, e2 = _split_top_level(inner)
        return tensor(parse_construction(e1, g1),
                      parse_construction(e2, g2)), rest
    if text.startswith("cyc("):
        inner, rest = _match_paren(text[3:])
        auts = []
        for gen_text in _split_on(inner, "|"):
            mats = [_parse_matrix(m) for m in _split_on(gen_text, "&")]
            auts.append(GroupAut(spec, mats))
        return cyclotomic(auts, spec), rest
    raise ValueError(f"cannot parse construction {text!r}")


def _match_paren(text):
    if not text.startswith("("):
        raise ValueError(f"expected '(' at {text!r}")
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise ValueError("unbalanced parentheses")


def _split_wreath(inner):
    parts = _split_on(inner, ";")
    if len(parts) != 3 or not parts[1].startswith("U=") \
            or not parts[2].startswith("L="):
        raise ValueError(f"bad wreath arguments {inner!r}")
    return parts[0], parts[1][2:], parts[2][2:]


def _split_on(text, sep):
    depth = 0
    parts = []
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _split_top_level(text):
    parts = _split_on(text, ",")
    if len(parts) != 2:
        raise ValueError(f"expected two arguments in {text!r}")
    return parts[0], parts[1]


def _parse_vec(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad vector {text!r}")
    return tuple(int(v) for v in text[1:-1].split(","))


def _parse_gens(text, spec) -> Subgroup:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad generator list {text!r}")
    body = text[1:-1]
    gens = []
    if body:
        for vec_text in _split_on(body, ";"):
            gens.append(spec.index(_parse_vec(vec_text)))
    return subgroup_span(spec, gens) if gens else trivial_subgroup(spec)


def _parse_matrix(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad matrix {text!r}")
    return tuple(_parse_vec(row) for row in _split_on(text[1:-1], ";"))
