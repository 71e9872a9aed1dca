"""Multigraded free complexes and the resolution algorithms.

A multigraded complex is stored as its frame (scalar matrices between
based levels) plus a multidegree for every basis element; the monomial
matrix entry in position (row e', col e) is ``scalar * mdeg(e)/mdeg(e')``
and is reconstructed on demand, never stored.  Labels are chains in the
generator simplex whenever the complex was built from one (Taylor
resolution, cancellations, the atomic lattice resolution), and opaque
strings otherwise (JSON input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from operator import itemgetter, le

from monres.chains import Chain, boundary, format_chain, support
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.monomials import (IdealParseError, Monomial, MonomialIdeal, json_document, json_object,
                              parse_monomial)
from monres.vcomplex import BasedComplex, complex_of_facets, products_vanish


@dataclass
class MgBasisElement:
    label: object          # Chain or str
    mdeg: Monomial
    hdeg: int

    def label_str(self) -> str:
        if isinstance(self.label, Chain):
            return format_chain(self.label)
        return str(self.label)


class MultigradedComplex:
    """Frame matrices plus per-element multidegrees over a fixed ideal."""

    def __init__(self, ideal: MonomialIdeal, field: Field, levels, frames):
        self.ideal = ideal
        self.field = field
        self.levels = [list(lv) for lv in levels]
        self.frames = list(frames)
        if len(self.frames) != len(self.levels):
            raise ValueError("need one frame slot per level (frames[0] unused)")
        for i in range(1, len(self.levels)):
            fr = self.frames[i]
            if fr.nrows != len(self.levels[i - 1]) or fr.ncols != len(self.levels[i]):
                raise ValueError("frame shape mismatch")
        for i, lv in enumerate(self.levels):
            for e in lv:
                if e.hdeg != i:
                    raise ValueError("homological degree mismatch")

    @property
    def length(self) -> int:
        n = len(self.levels) - 1
        while n > 0 and not self.levels[n]:
            n -= 1
        return n

    def rank_vector(self):
        return [len(self.levels[i]) for i in range(self.length + 1)]

    def s_entry(self, i: int, row: int, col: int):
        """(scalar, monomial quotient) for the S-matrix entry of map i."""
        scalar = self.frames[i][row, col]
        lo = self.levels[i - 1][row].mdeg
        hi = self.levels[i][col].mdeg
        if scalar == self.field.zero:
            return scalar, self.ideal.one()
        return scalar, hi.quotient(lo)

    def homogeneity_failure(self):
        """The first (map, row, column) whose entry is nonzero against divisibility, or None."""
        for i in range(1, len(self.levels)):
            lo, hi = self.levels[i - 1], self.levels[i]
            for r, row in enumerate(self.frames[i].rows):
                bad = [c for c in row if not lo[r].mdeg.divides(hi[c].mdeg)]
                if bad:
                    return (i, r, min(bad))
        return None

    def is_complex(self) -> bool:
        # with homogeneity, frame products vanish iff the S-matrix products do
        return products_vanish(self.frames)

    def is_minimal(self) -> bool:
        return not any(self.levels[i - 1][r].mdeg == self.levels[i][c].mdeg
                       for i in range(1, len(self.levels))
                       for r, row in enumerate(self.frames[i].rows) for c in row)

    def restrict_to(self, m: Monomial) -> BasedComplex:
        """Frame of F(<= m): basis elements of multidegree dividing m."""
        bound = m.exponents
        keep = [[j for j, e in enumerate(lv) if all(map(le, e.mdeg.exponents, bound))]
                for lv in self.levels]
        top = len(self.levels) - 1
        while top > 0 and not keep[top]:
            top -= 1
        labels = [[f"{i}:{j}" for j in keep[i]] for i in range(top + 1)]
        maps: list = [None]
        for i in range(1, top + 1):
            maps.append(self.frames[i].submatrix(keep[i - 1], keep[i]))
        return BasedComplex(self.field, labels, maps)

    def betti_table(self, lat: LcmLattice):
        table: dict = {}
        for i, lv in enumerate(self.levels):
            for e in lv:
                key = (i, lat.id_of_label(frozenset(
                    k for k in range(1, lat.r + 1) if lat.ideal.generator(k).divides(e.mdeg)
                )))
                table[key] = table.get(key, 0) + 1
        return table

    # -- serialisation -------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "char": self.field.char,
            "vars": self.ideal.names,
            "gens": [g.to_str(self.ideal.names) for g in self.ideal.gens],
            "levels": [
                [{"mdeg": e.mdeg.to_str(self.ideal.names), "label": e.label_str()}
                 for e in lv]
                for lv in self.levels
            ],
            "frames": [
                [[self.field.to_str(self.frames[i][r, c]) for c in range(self.frames[i].ncols)]
                 for r in range(self.frames[i].nrows)]
                for i in range(1, len(self.levels))
            ],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "MultigradedComplex":
        where = "the complex JSON"
        doc = json_document(text, {"vars": (list, str), "gens": (list, str),
                                   "levels": (list, list), "frames": (list, list)}, where)
        if type(doc.get("char", 0)) is not int:
            raise IdealParseError(f"{where}: 'char' is not an int")
        if len(doc["frames"]) != len(doc["levels"]) - 1:
            raise IdealParseError(f"{where}: {len(doc['frames'])} 'frames' for {len(doc['levels'])} 'levels'")
        try:
            field = Field(doc.get("char", 0))
        except ValueError as e:
            raise IdealParseError(f"{where}: {e}") from e
        names = doc["vars"]

        def monomial(text, at):
            try:
                return parse_monomial(text, names)
            except ValueError as e:
                raise IdealParseError(f"{where}: {at}: {e}") from e

        gens = [monomial(g, f"gens[{k}]") for k, g in enumerate(doc["gens"])]
        try:
            ideal = MonomialIdeal(names, gens)
        except ValueError as e:
            raise IdealParseError(f"{where}: {e}") from e
        levels = []
        for i, lv in enumerate(doc["levels"]):
            levels.append([])
            for j, e in enumerate(lv):
                json_object(e, {"mdeg": str}, f"{where}: levels[{i}][{j}]")
                levels[i].append(MgBasisElement(e.get("label", f"e[{i}][{j}]"),
                                                monomial(e["mdeg"], f"levels[{i}][{j}]"), i))
        frames: list = [None]
        for i, rows in enumerate(doc["frames"], start=1):
            shape = (len(levels[i - 1]), len(levels[i]))
            if len(rows) != shape[0] or any(not isinstance(row, list) or len(row) != shape[1]
                                            for row in rows):
                raise IdealParseError(f"{where}: frames[{i - 1}] is not a {shape[0]} x {shape[1]} matrix")
            frames.append(Matrix(field, [[_frame_entry(field, x) for x in row] for row in rows])
                          if rows else Matrix.zero(field, *shape))
        return MultigradedComplex(ideal, field, levels, frames)

    def render_text(self) -> str:
        names = self.ideal.names
        lines = []
        for i in range(self.length, 0, -1):
            mdegs = " ".join(e.mdeg.to_str(names) for e in self.levels[i])
            lines.append(f"degree {i}: basis multidegrees [{mdegs}]")
            rows = []
            for r, row in enumerate(self.frames[i].rows):
                cells = ["0"] * self.frames[i].ncols
                for c in row:
                    cells[c] = _format_s_entry(self.field, *self.s_entry(i, r, c), names)
                rows.append(" ".join(cells))
            lines.append("  d_%d = [%s]" % (i, "; ".join(rows)))
        lines.append(f"degree 0: basis multidegrees [{self.levels[0][0].mdeg.to_str(names)}]"
                     if self.levels[0] else "degree 0: empty")
        return "\n".join(lines)


def _frame_entry(field: Field, x):
    if type(x) not in (int, str):  # bool subclasses int; a float is not exact
        raise IdealParseError(f"frame entry {json.dumps(x)} is not an int or a string")
    try:
        return field.of(x)
    except (ValueError, ZeroDivisionError) as e:
        raise IdealParseError(f"frame entry {x!r} is not an element of {field}") from e


def _format_s_entry(field: Field, scalar, quot: Monomial, names) -> str:
    if scalar == field.zero:
        return "0"
    mono = quot.to_str(names)
    s = str(scalar)
    if s == "1":
        return mono
    if s == "-1" and mono != "1":
        return f"-{mono}"
    return s if mono == "1" else f"{s}*{mono}"


# -- Taylor basis ------------------------------------------------------


class TaylorBasis:
    """(element id, chain) pairs in basis order; ``by_elt`` groups the chains by element."""

    def __init__(self, lattice: LcmLattice, pairs):
        self.lattice = lattice
        self._pairs = list(pairs)
        self.by_elt: dict = {}
        for m, c in self._pairs:
            self.by_elt.setdefault(m, []).append(c)

    @staticmethod
    def of(lattice: LcmLattice, chains) -> "TaylorBasis":
        """The chains in the given order, each at the closure of its support.

        This is the one placement rule: the empty chain lands at the bottom.
        """
        return TaylorBasis(lattice, [(lattice.closure_id(support(c)), c) for c in chains])

    def chains_at(self, m_id: int):
        return list(self.by_elt.get(m_id, []))

    def flat(self):
        """(element id, chain) pairs in the basis order."""
        return list(self._pairs)

    def chains(self):
        return [c for _, c in self.flat()]

    def counts(self):
        """(homological degree, element id) -> number of chains."""
        out: dict = {}
        for m, c in self.flat():
            key = (c.dim + 1, m)
            out[key] = out.get(key, 0) + 1
        return out

    def to_text(self) -> str:
        names = self.lattice.ideal.names
        lines = []
        for m in sorted(self.by_elt):
            mdeg = self.lattice.element(m).mdeg.to_str(names)
            chs = " ; ".join(format_chain(c) for c in self.by_elt[m])
            lines.append(f"{mdeg} : {chs}")
        return "\n".join(lines)


# -- Taylor resolution -------------------------------------------------


def taylor_resolution(ideal: MonomialIdeal, field: Field) -> MultigradedComplex:
    """The Taylor complex: the chain complex of the full simplex on the generators.

    mdeg(A) = lcm(mdeg(A minus max A), m_max A), one Monomial per distinct multidegree; the
    frames are the simplex's boundary maps.
    """
    if ideal.r > 20:
        raise ValueError("Taylor resolution limited to 20 generators (2^r basis)")
    cx = complex_of_facets(field, [range(1, ideal.r + 1)])
    mdeg, seen = {(): ideal.one()}, {}
    for A in (A for lv in cx.labels[1:] for A in lv):
        e = tuple(map(max, mdeg[A[:-1]].exponents, ideal.gens[A[-1] - 1].exponents))
        if e not in seen:
            seen[e] = Monomial(e)
        mdeg[A] = seen[e]
    levels = [[MgBasisElement(Chain(field, {A: field.one}), mdeg[A], size) for A in lv]
              for size, lv in enumerate(cx.labels)]
    return MultigradedComplex(ideal, field, levels, cx.maps)


# -- consecutive cancellation -------------------------------------------


class _SparseFrames:
    """A complex's frames as sparse rows and columns, ``rows[i][u][v] = cols[i][v][u]``.

    Cancellations change them in place.  Positions stay those of the input
    complex, so scans and `complex()` keep the dense order.  A label that a
    cancellation changes is kept as its own term dict in ``terms[i][v]``,
    copied from the input chain on the first change.

    Values are updated by Python's own arithmetic, which can leave an
    integral Fraction; `complex()` puts the survivors in normal form.
    """

    def __init__(self, C: MultigradedComplex):
        self.C = C
        self.keys = [[e.mdeg.exponents for e in lv] for lv in C.levels]
        self.alive = [set(range(len(lv))) for lv in C.levels]
        self.terms: list = [{} for _ in C.levels]
        self.rows, self.cols = [None], [None]
        for fr in C.frames[1:]:
            rows = {u: dict(row) for u, row in enumerate(fr.rows)}
            cols: dict = {v: {} for v in range(fr.ncols)}
            for u, row in rows.items():
                for v, x in row.items():
                    cols[v][u] = x
            self.rows.append(rows)
            self.cols.append(cols)

    def length(self) -> int:
        return max((i for i, a in enumerate(self.alive) if a), default=0)

    def first_unit(self, i0: int = 1, q0: int = 0):
        """First unit entry at or after (degree i0, row q0), scanning as `find_unit_entry`."""
        for i in range(i0, len(self.rows)):
            lo, hi = self.keys[i - 1], self.keys[i]
            for q in range(q0 if i == i0 else 0, len(lo)):
                units = [p for p in self.rows[i].get(q, ()) if hi[p] == lo[q]]
                if units:
                    return i, q, min(units)
        return None

    def cancel(self, i: int, q: int, p: int) -> int:
        """`consecutive_cancellation` in place; returns the row of frame i to rescan from.

        Rows above q had no unit; row u gains one only if mdeg(u) is that of
        a column in row q, which in a homogeneous complex makes (u, p) a unit.
        """
        f = self.C.field
        ch = f.char
        if not 1 <= i < len(self.rows) or not self.alive[i]:
            raise ValueError(f"no map at degree {i}")
        rows, cols, lo, hi = self.rows[i], self.cols[i], self.keys[i - 1], self.keys[i]
        a = rows[q].get(p)
        if not a:
            raise ValueError("cancellation entry is zero")
        if lo[q] != hi[p]:
            raise ValueError("cancellation entry is not a unit: multidegrees differ")
        inv_a = f.inv(a)
        row_q, col_p, lv, own = rows.pop(q), cols.pop(p), self.C.levels[i], self.terms[i]
        del row_q[p], col_p[q]
        fp = own.pop(p, None)
        if fp is None and isinstance(lv[p].label, Chain):
            fp = dict(lv[p].label.terms)
        for v, x in row_q.items():
            del cols[v][q]
            if fp is not None and isinstance(lv[v].label, Chain):
                c, terms = f.mul(inv_a, x), own.get(v)
                if terms is None:
                    terms = own[v] = dict(lv[v].label.terms)
                for fc, y in fp.items():
                    val = terms.get(fc, 0) - c * y
                    if ch:
                        val %= ch
                    if val:
                        terms[fc] = val
                    else:
                        terms.pop(fc, None)
        resume, row_q_keys = q + 1, {hi[v] for v in row_q}
        for u, y in col_p.items():
            row_u, c = rows[u], f.mul(y, inv_a)
            del row_u[p]
            for v, x in row_q.items():
                val = row_u.get(v, 0) - c * x
                if ch:
                    val %= ch
                if not val:
                    row_u.pop(v, None)
                    cols[v].pop(u, None)
                else:
                    row_u[v] = cols[v][u] = val
            if u < resume and lo[u] in row_q_keys:
                resume = u
        if i + 1 < len(self.rows):
            for w in self.rows[i + 1].pop(p):
                del self.cols[i + 1][w][p]
        if i > 1:
            for u in self.cols[i - 1].pop(q):
                del self.rows[i - 1][u][q]
        self.alive[i].discard(p)
        self.alive[i - 1].discard(q)
        return resume

    def complex(self) -> MultigradedComplex:
        """The current complex, without trailing empty levels."""
        f = self.C.field
        keep = [sorted(a) for a in self.alive[:self.length() + 1]]
        frames: list = [None]
        for i in range(1, len(keep)):
            col = {v: c for c, v in enumerate(keep[i])}
            frames.append(Matrix.sparse(f, len(col), [{col[v]: f.of(x) for v, x in self.rows[i][u].items()}
                                                      for u in keep[i - 1]]))
        levels = []
        for i, lv in enumerate(keep):
            elems, own = self.C.levels[i], self.terms[i]
            levels.append([elems[j] if j not in own else MgBasisElement(
                Chain(f, {fc: f.of(y) for fc, y in own[j].items()}, dim=elems[j].label.dim),
                elems[j].mdeg, i) for j in lv])
        return MultigradedComplex(self.C.ideal, f, levels, frames)


def consecutive_cancellation(C: MultigradedComplex, i: int, q: int, p: int) -> MultigradedComplex:
    """Cancel the unit entry at (row q, col p) of the degree-i map.

    The entry must be a nonzero scalar between basis elements of equal
    multidegree.  Both elements are removed; the remaining degree-i map
    picks up the correction A1 - a^-1 * beta * alpha and the surviving
    degree-i labels are updated to f_v - a^-1 A[q,v] f_p.
    """
    frames = _SparseFrames(C)
    frames.cancel(i, q, p)
    return frames.complex()


def find_unit_entry(C: MultigradedComplex):
    """First unit entry scanning degrees low to high, rows top-down, row-major."""
    return _SparseFrames(C).first_unit()


def minimize_resolution(C: MultigradedComplex, lat: LcmLattice):
    """Cancel unit entries to a fixpoint; returns (minimal complex, Taylor basis).

    Makes the cancellations of repeated `find_unit_entry` and
    `consecutive_cancellation` calls, in place on one set of sparse frames.
    Each scan resumes at the last unit's degree and row: the frames below
    only lose columns, and the rows above gain no unit (`_SparseFrames.cancel`).
    """
    frames = _SparseFrames(C)
    hit = frames.first_unit()
    if hit is not None:
        while hit is not None:
            hit = frames.first_unit(hit[0], frames.cancel(*hit))
        C = frames.complex()
    labels = [e.label for lv in C.levels for e in lv]
    if not all(isinstance(c, Chain) for c in labels):
        raise ValueError("minimization bookkeeping needs chain labels")
    return C, TaylorBasis.of(lat, labels)


# -- the atomic lattice resolution ---------------------------------------


def lift_cycle_in_simplex(field: Field, cycle: Chain, vertex_set) -> Chain:
    """Canonical chain g with boundary(g) = cycle, supported in the given simplex.

    g is the cone from v0 = min(vertex_set): the sum of z_t * (v0 u t)
    over the faces t of the cycle z that miss v0.  The faces through v0
    come first in lex order and are the pivots of the simplex's boundary
    map, so g is the solution of boundary(g) = z with the free variables 0.
    """
    verts = set(vertex_set)
    if any(not verts.issuperset(fc) for fc in cycle.terms):
        raise ValueError("cycle leaves the allowed simplex")
    terms = {}
    if verts:
        v0 = min(verts)
        terms = {(v0,) + fc: x for fc, x in sorted(cycle.terms.items()) if v0 not in fc}
    g = Chain(field, terms, dim=cycle.dim + 1)
    if boundary(g) != cycle:
        raise ValueError("cycle is not a boundary in the allowed simplex")
    return g


class ClosureChains:
    """The chains of an element-by-element closure run, in creation order.

    ``chains[k]`` sits at lattice element ``elt[k]`` and its boundary is
    ``sum(coeff * chains[t] for t, coeff in dexp[k])``.
    """

    def __init__(self, field: Field):
        self.field = field
        self.chains: list[Chain] = []
        self.elt: list[int] = []
        self.dexp: list[list] = []  # list of (chain index, coeff)

    def add(self, chain: Chain, elt_id: int, dexp):
        self.chains.append(chain)
        self.elt.append(elt_id)
        self.dexp.append(list(dexp))
        return len(self.chains) - 1

    def complex_on(self, idxs) -> tuple:
        """BasedComplex on the given chain indices (labels are the indices)."""
        f = self.field
        by_level: dict = {}
        for k in idxs:
            by_level.setdefault(self.chains[k].dim + 1, []).append(k)
        top = max(by_level) if by_level else 0
        labels = [by_level.get(h, []) for h in range(top + 1)]
        pos = {k: j for lv in labels for j, k in enumerate(lv)}
        maps: list = [None]
        for h in range(1, top + 1):
            rows: list = [{} for _ in labels[h - 1]]
            for j, k in enumerate(labels[h]):
                for tgt, coeff in self.dexp[k]:
                    rows[pos[tgt]][j] = coeff
            maps.append(Matrix.sparse(f, len(labels[h]), rows))
        return BasedComplex(f, labels, maps), labels


def closure_walk(lat: LcmLattice, field: Field, pick):
    """Build chains element by element, lifting the cycles a strategy picks.

    Starts from the empty chain at the bottom and the vertex {i} at the
    i-th atom, then visits, in element order, the elements e of rank >= 2
    with nonzero dims = `LcmLattice.homology_dims_at`.  The chains strictly
    below e form a based complex U with dim H_{d+1}(U) = dims[d] (the
    lcm-lattice homology formula of Gasharov-Peeva-Welker), so nothing is
    added elsewhere.  For each d in dims it calls ``pick(e, U, elts, d + 1)``,
    where ``elts[i][j]`` is the element of U's basis vector j at level i, for
    cycle vectors in U's level-(d+1) coordinates.  If every level gave dims[d]
    of them, each is lifted into the simplex on A_e and recorded at e;
    otherwise the walk stops at e.

    Returns ``(ClosureChains, id of the element where the walk stopped, or None)``.
    """
    run = ClosureChains(field)
    bot = run.add(Chain.from_face(field, ()), lat.bottom, [])
    for i, atom in enumerate(lat.atom_ids, start=1):
        run.add(Chain.from_face(field, (i,)), atom, [(bot, field.one)])
    for e in lat.elements:
        dims = lat.homology_dims_at(e.id, field) if e.rank >= 2 else {}
        if not dims:
            continue
        U, labels = run.complex_on([k for k, m in enumerate(run.elt) if lat.lt(m, e.id)])
        elts = [[run.elt[k] for k in lv] for lv in labels]
        picks = {d + 1: pick(e, U, elts, d + 1) for d in sorted(dims)}
        if any(len(picks[d + 1]) != n for d, n in dims.items()):
            return run, e.id
        for level, vecs in picks.items():
            for vec in vecs:
                z = Chain.combine(field, [(c, run.chains[k]) for c, k in zip(vec, labels[level])],
                                  dim=level - 1)
                dexp = [(k, c) for c, k in zip(vec, labels[level]) if c != field.zero]
                run.add(lift_cycle_in_simplex(field, z, e.A), e.id, dexp)
    return run, None


def atomic_lattice_resolution(lat: LcmLattice, field: Field):
    """Build a minimal free resolution element by element via exact closures.

    Returns ``(TaylorBasis, MultigradedComplex)``.  Processing order is
    the canonical linear extension (atoms in generator order, then the
    degree-then-lex element order); every choice inside is canonical
    (`BasedComplex.cycles`), so the output is deterministic.  An element
    where the walk stops is named in a ValueError.
    """
    run, stop = closure_walk(lat, field, lambda e, U, elts, level: U.cycles(level))
    if stop is not None:
        raise ValueError(f"element {sorted(lat.element(stop).A)}: the chains below it "
                         "do not have the homology of Delta_m")
    F, labels = run.complex_on(range(len(run.chains)))
    levels = [[MgBasisElement(run.chains[k], lat.element(run.elt[k]).mdeg, h) for k in lv]
              for h, lv in enumerate(labels)]
    C = MultigradedComplex(lat.ideal, field, levels, F.maps)
    return TaylorBasis(lat, sorted(zip(run.elt, run.chains), key=itemgetter(0))), C


# -- Taylor bases <-> resolutions -----------------------------------------


class TaylorBasisError(ValueError):
    def __init__(self, message, m_id=None):
        super().__init__(message)
        self.m_id = m_id


def resolution_from_taylor_basis(lat: LcmLattice, chains) -> MultigradedComplex:
    """Build and validate the resolution determined by a set of chains.

    `chains` is a TaylorBasis or a flat chain list: it must contain the
    empty chain, one vertex per generator, and for each lattice element
    chains whose boundary classes form a basis of the homology of the
    complex at that element.  Levels keep the given chain order.
    """
    if isinstance(chains, TaylorBasis):
        flat = chains.chains()
    else:
        flat = list(chains)
    if not flat:
        raise TaylorBasisError("empty basis")
    field = flat[0].field
    if any(c.is_zero() for c in flat):
        raise TaylorBasisError("zero chain in basis")
    basis = TaylorBasis.of(lat, flat)
    placed, by_elt = basis.flat(), basis.by_elt

    bottoms = [c for m, c in placed if m == lat.bottom]
    if len(bottoms) != 1 or bottoms[0].terms != {(): field.one}:
        raise TaylorBasisError("basis must contain exactly the empty chain at the bottom")
    for i, atom in enumerate(lat.atom_ids, start=1):
        at = [c for m, c in placed if m == atom]
        if len(at) != 1 or at[0].terms != {(i,): field.one}:
            raise TaylorBasisError(f"basis must contain exactly the vertex {{{i}}} at generator {i}", atom)

    # homology-basis condition at every element of rank >= 2
    for e in lat.elements:
        if e.id == lat.bottom or e.rank == 1:
            continue
        by_dim: dict = {}
        for c in by_elt.get(e.id, []):
            by_dim.setdefault(c.dim - 1, []).append(c)
        dims_needed = lat.homology_dims_at(e.id, field)
        for d in set(by_dim) | set(dims_needed):
            got = by_dim.get(d, [])
            want = dims_needed.get(d, 0)
            if len(got) != want:
                raise TaylorBasisError(
                    f"element {e.id}: {len(got)} chains with boundary dimension {d}, homology needs {want}",
                    e.id,
                )
            try:
                independent = lat.is_homology_basis(e.id, field, d, [boundary(c) for c in got])
            except ValueError as err:
                raise TaylorBasisError(f"element {e.id}: boundary leaves the complex: {err}", e.id)
            if not independent:
                raise TaylorBasisError(f"element {e.id}: boundary classes are dependent in homology", e.id)

    # assemble levels in the given order; one rref of [lower | boundaries] per level: up to the
    # first boundary pivot, each boundary reads its solution off the lower pivot rows
    by_hdeg: dict = {}
    for m, c in placed:
        by_hdeg.setdefault(c.dim + 1, []).append((m, c))
    top = max(by_hdeg)
    levels = []
    for h in range(top + 1):
        levels.append([MgBasisElement(c, lat.element(m).mdeg, h) for m, c in by_hdeg[h]])
    frames: list = [None]
    for h in range(1, top + 1):
        lower, bds = [c for _, c in by_hdeg[h - 1]], [boundary(c) for _, c in by_hdeg[h]]
        known, n = {fc for c in lower for fc in c.terms}, len(lower)
        faces = sorted(known)
        R, pivots, _ = Matrix.from_columns(field, len(faces), [[c.terms.get(fc, field.zero) for fc in faces]
                                                                for c in lower + bds]).rref()
        lower_rows = [(row, pc) for row, pc in zip(R.rows, pivots) if pc < n]
        frame: list = [{} for _ in lower]
        for k, ((m, c), b) in enumerate(zip(by_hdeg[h], bds), start=n):
            if not b.terms.keys() <= known or k in pivots[len(lower_rows):]:
                raise TaylorBasisError(
                    f"boundary of {format_chain(c)} is outside the span of lower basis chains", m)
            for row, pc in lower_rows:
                if k in row:
                    frame[pc][k - n] = row[k]
        frames.append(Matrix.sparse(field, len(bds), frame))
    return MultigradedComplex(lat.ideal, field, levels, frames)


def taylor_basis_from_resolution(C: MultigradedComplex, lat: LcmLattice | None = None) -> TaylorBasis:
    """Recover a Taylor basis from the frame of a minimal free resolution.

    Requires the degree-1 map to be the generators in order with unit
    frame entries.  Each column determines a cycle over the chains
    already built; the new chain is the canonical lift inside the
    simplex on the closure of the cycle's support.
    """
    field = C.field
    ideal = C.ideal
    if lat is None:
        lat = LcmLattice.from_ideal(ideal)
    if len(C.levels[0]) != 1 or not C.levels[0][0].mdeg.is_one():
        raise TaylorBasisError("degree 0 must be a single basis element of multidegree 1")
    if len(C.levels[1]) != ideal.r:
        raise TaylorBasisError("degree 1 must have one basis element per generator")
    for j in range(ideal.r):
        if C.levels[1][j].mdeg != ideal.generator(j + 1):
            raise TaylorBasisError("degree-1 multidegrees must be the generators in order")
        if C.frames[1][0, j] != field.one:
            raise TaylorBasisError("degree-1 map must be the row (m_1 ... m_r)")

    built: list[list[Chain]] = [[Chain.from_face(field, ())],
                                [Chain.from_face(field, (i,)) for i in range(1, ideal.r + 1)]]
    for h in range(2, C.length + 1):
        prev = built[h - 1]
        new_level = []
        for col in range(len(C.levels[h])):
            pairs = [(C.frames[h][j, col], prev[j]) for j in range(len(prev))]
            z = Chain.combine(field, pairs, dim=h - 2)
            if z.is_zero():
                raise TaylorBasisError("zero column in a minimal resolution frame")
            supp = set()
            for coeff, g in pairs:
                if coeff != field.zero:
                    supp.update(support(g))
            vertex_set = lat.closure(supp)
            try:
                fchain = lift_cycle_in_simplex(field, z, vertex_set)
            except ValueError as err:
                raise TaylorBasisError(f"column cycle is not a boundary: {err}")
            if lat.element(lat.closure_id(support(fchain))).mdeg != C.levels[h][col].mdeg:
                raise TaylorBasisError("recovered chain multidegree disagrees with the basis element")
            new_level.append(fchain)
        built.append(new_level)
    return TaylorBasis.of(lat, [c for lv in built for c in lv])


# -- verification -----------------------------------------------------


@dataclass
class VerificationReport:
    homogeneous: bool
    complex: bool
    h0_ok: bool
    restriction_failure: object      # None or the offending multidegree string
    restriction_skipped: object      # None or why restricted exactness was not checked
    is_resolution: bool
    is_minimal: bool
    notes: list = dc_field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.is_resolution else "FAIL"
        if self.restriction_skipped is not None:
            exact = f"skipped ({self.restriction_skipped})"
        else:
            exact = "yes" if self.restriction_failure is None else f"no (fails at {self.restriction_failure})"
        lines = [
            f"homogeneous: {'yes' if self.homogeneous else 'no'}",
            f"complex (d^2=0): {'yes' if self.complex else 'no'}",
            f"H0 = S/M: {'yes' if self.h0_ok else 'no'}",
            f"restricted frames exact: {exact}",
            f"minimal: {'yes' if self.is_minimal else 'no'}",
            f"resolution: {verdict}",
        ]
        return "\n".join(lines + self.notes)


def first_inexact_element(lat: LcmLattice, field: Field, at, rank):
    """The first non-bottom element where a frame restricted below it is not exact, or None.

    ``at[i][j]`` is the lattice element where basis element j of level i
    sits, and F_{<=e} keeps the basis elements whose element lies below e.
    Elements are taken in element order.  Where a basis element sits at e,
    ``rank(i, rows, cols)`` is the rank of map i on the kept rows and columns,
    or None where it is not known (the walk then stops at e); each map is
    ranked at most once, level by level, and F_{<=e} is exact unless some
    level i has ``len(keep[i]) != rank(i) + rank(i + 1)``.  At the bottom
    this only records whether F_{<=0} is exact; elsewhere an inexact F_{<=e}
    stops the walk.  A frame resolves S/M iff every such F_{<=e} is exact
    (Peeva-Velasco).  An element with no basis element is decided by
    `homology_dims_at` alone:

    If F_{<=y} is exact for every 0 < y < e, which holds when the walk
    reaches e, then H_n(F_{<e}) is the sum over p + q = n of
    H~_{p-1}(Delta_e) (x) H_q(F_{<=0}).  Proof: the F_{<=c}, c a lower cover
    of e, cover F_{<e}, and F_{<=c} meets F_{<=c'} in F_{<=c^c'}, as each basis
    element sits at an element.  So F_{<e} is the total complex of the
    Mayer-Vietoris double complex whose column p is the sum of F_{<=meet s}
    over the (p+1)-sets s of covers.  Its part over N_e = {s : meet s != 0},
    the nerve `homology_dims_at` reads, is a subcomplex (faces of s are in
    N_e) whose terms F_{<=meet s}, 0 < meet s < e, are exact, so it is
    acyclic.  Every other s has meet 0, so the quotient is
    C(simplex on the covers, N_e) (x) F_{<=0}, and H_p(simplex, N_e) =
    H~_{p-1}(N_e) = H~_{p-1}(Delta_e); Kunneth over a field gives the sum.
    Hence where no basis element sits at e, F_{<=e} = F_{<e} is exact iff
    F_{<=0} is exact or H~(Delta_e) = 0.  In a resolution F_{<=0} is the one
    basis element of level 0, with homology k, and this is the lcm-lattice
    formula of Gasharov-Peeva-Welker.
    """
    carriers = {m for lv in at for m in lv}
    labels = [[lat.elements[m].A for m in lv] for lv in at]
    bottom_exact = True     # F_{<=0} is empty until the bottom, first in order, is ranked
    for e in lat.elements:
        if e.id not in carriers:
            if e.id != lat.bottom and not bottom_exact and lat.homology_dims_at(e.id, field):
                return e.id
            continue
        keep = [[j for j, A in enumerate(lv) if A <= e.A] for lv in labels]
        while len(keep) > 1 and not keep[-1]:
            keep.pop()
        ranks, exact = [0], True
        for i in range(len(keep)):
            ranks.append(rank(i + 1, keep[i], keep[i + 1]) if i + 1 < len(keep) else 0)
            if ranks[i + 1] is None:
                return e.id
            if len(keep[i]) != ranks[i] + ranks[i + 1]:
                exact = False
                break
        if e.id == lat.bottom:
            bottom_exact = exact
        elif not exact:
            return e.id
    return None


def verify_resolution(C: MultigradedComplex, lat: LcmLattice | None = None) -> VerificationReport:
    """PV criterion: homogeneity, d^2 = 0, restricted exactness on L_M, H0.

    Restricted exactness is read off `first_inexact_element`, which needs
    every basis element at an element of L: a basis multidegree outside L
    leaves the complex unverified.
    """
    if lat is None:
        lat = LcmLattice.from_ideal(C.ideal)
    ideal = C.ideal
    notes = []
    hom = C.homogeneity_failure()
    homogeneous = hom is None
    if not homogeneous:
        notes.append(f"homogeneity fails at map {hom[0]} entry {hom[1:]}" )
    cx_ok = C.is_complex() if homogeneous else False

    h0_ok = (
        len(C.levels[0]) == 1
        and C.levels[0][0].mdeg.is_one()
        and len(C.levels) > 1
    )
    if h0_ok:
        image_mdegs = [C.levels[1][j].mdeg for j in {j for row in C.frames[1].rows for j in row}]
        h0_ok = all(ideal.contains_monomial(m) for m in image_mdegs) and all(
            any(m.divides(g) for m in image_mdegs) for g in ideal.gens
        )

    restriction_failure = restriction_skipped = None
    off = next((e.mdeg for lv in C.levels for e in lv if e.mdeg.exponents not in lat.by_mdeg), None)
    if not (homogeneous and cx_ok):
        restriction_skipped = "not a homogeneous complex"
    elif off is not None:
        restriction_skipped = f"basis multidegree {off.to_str(ideal.names)} is not an element of the lcm-lattice"
    else:
        at = [[lat.by_mdeg[e.mdeg.exponents] for e in lv] for lv in C.levels]
        bad = first_inexact_element(lat, C.field, at,
                                    lambda i, rows, cols: C.frames[i].submatrix(rows, cols).rank())
        if bad is not None:
            restriction_failure = lat.element(bad).mdeg.to_str(ideal.names)

    is_resolution = (homogeneous and cx_ok and h0_ok
                     and restriction_failure is None and restriction_skipped is None)
    return VerificationReport(homogeneous, cx_ok, h0_ok, restriction_failure, restriction_skipped,
                              is_resolution, C.is_minimal(), notes)


# -- approximation, Scarf, transport, bounds ----------------------------


def maximal_approximation(C: MultigradedComplex) -> MultigradedComplex:
    """Zero every coefficient aimed strictly below another potential target.

    For a basis element e of multidegree m, the comparison set is the
    multidegrees of the next-lower level that strictly divide m; the
    coefficient on e' survives only if mdeg(e') is maximal in that set.
    The result may fail to be a complex; callers check `is_complex`.
    """
    frames: list = [None]
    for i in range(1, len(C.levels)):
        lower = [e.mdeg for e in C.levels[i - 1]]
        cmp_sets = [[t for t in lower if t.divides(e.mdeg) and t != e.mdeg] for e in C.levels[i]]
        frames.append(Matrix.sparse(C.field, C.frames[i].ncols, [
            {c: x for c, x in row.items() if not any(lower[r].divides(t) and lower[r] != t
                                                      for t in cmp_sets[c])}
            for r, row in enumerate(C.frames[i].rows)]))
    return MultigradedComplex(C.ideal, C.field, C.levels, frames)


def scarf_complex(lat: LcmLattice):
    """The faces A_m over Scarf multidegrees, plus the empty face."""
    faces = [()]
    for m_id in lat.scarf_ids():
        faces.append(tuple(sorted(lat.element(m_id).A)))
    return sorted(faces, key=lambda f: (len(f), f))


class ChangeOfBasisError(ValueError):
    def __init__(self, condition, detail):
        super().__init__(f"Aut condition ({condition}) violated: {detail}")
        self.condition = condition


def change_of_basis(C: MultigradedComplex, Us) -> MultigradedComplex:
    """Conjugate the frames by per-degree automorphisms U_i (scalar frames).

    Entries of U_i are scalars; the implied S-entry is
    ``u * mdeg(e_col)/mdeg(e_row)``, so condition (iii) holds by
    construction.  (ii) forbids entries against divisibility; (i) asks
    the equal-multidegree block part to be invertible.
    """
    f = C.field
    Us = list(Us)
    if len(Us) < len(C.levels):
        Us = Us + [Matrix.identity(f, len(C.levels[i])) for i in range(len(Us), len(C.levels))]
    for i, U in enumerate(Us[: len(C.levels)]):
        lv = C.levels[i]
        if U.nrows != len(lv) or U.ncols != len(lv):
            raise ChangeOfBasisError("i", f"U_{i} has wrong shape")
        block = Matrix.zero(f, len(lv), len(lv))
        for r, row in enumerate(U.rows):
            for c, u in sorted(row.items()):
                if not lv[r].mdeg.divides(lv[c].mdeg):
                    raise ChangeOfBasisError("ii", f"U_{i}[{r},{c}] nonzero but multidegree does not divide")
                if lv[r].mdeg == lv[c].mdeg:
                    block.rows[r][c] = u
        if block.rank() != len(lv):
            raise ChangeOfBasisError("i", f"U_{i} equal-multidegree part is singular")
    frames: list = [None]
    for i in range(1, len(C.levels)):
        frames.append(Us[i - 1].inverse().mul(C.frames[i]).mul(Us[i]))
    levels = []
    for i, lv in enumerate(C.levels):
        new_lv = []
        for j, e in enumerate(lv):
            if all(isinstance(x.label, Chain) for x in lv):
                pairs = [(Us[i][l, j], lv[l].label) for l in range(len(lv))]
                lbl = Chain.combine(f, pairs, dim=i - 1)
            else:
                lbl = e.label
            new_lv.append(MgBasisElement(lbl, e.mdeg, e.hdeg))
        levels.append(new_lv)
    return MultigradedComplex(C.ideal, f, levels, frames)


def betti_poset_label_map(lat_M: LcmLattice, lat_N: LcmLattice, field: Field):
    """The canonical Betti-poset isomorphism (matching A-labels), or None."""
    bm = {lat_M.element(i).A for i in lat_M.betti_poset_ids(field)}
    bn = {lat_N.element(i).A for i in lat_N.betti_poset_ids(field)}
    if bm != bn:
        return None
    return {lat_M.id_of_label(A): lat_N.id_of_label(A) for A in bm}


def transport_via_betti_poset(C: MultigradedComplex, lat_M: LcmLattice,
                              lat_N: LcmLattice, field: Field) -> MultigradedComplex:
    """Relabel the multidegrees of a minimal resolution through B_M ~ B_N."""
    mapping = betti_poset_label_map(lat_M, lat_N, field)
    if mapping is None:
        raise ValueError("Betti posets have different label families; no transport")
    levels = []
    for lv in C.levels:
        new_lv = []
        for e in lv:
            A = frozenset(k for k in range(1, lat_M.r + 1)
                          if lat_M.ideal.generator(k).divides(e.mdeg))
            m_id = lat_M.id_of_label(A)
            if m_id not in mapping:
                raise ValueError("a basis multidegree lies outside the Betti poset")
            new_lv.append(MgBasisElement(e.label, lat_N.element(mapping[m_id]).mdeg, e.hdeg))
        levels.append(new_lv)
    return MultigradedComplex(lat_N.ideal, C.field, levels, C.frames)


def projdim_bound(lat: LcmLattice) -> int:
    return lat.lattice_rank()
