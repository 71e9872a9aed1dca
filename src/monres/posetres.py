"""Differential maps induced by Mayer-Vietoris connecting homomorphisms.

Two constructions are assembled blockwise from the homology of the
complexes at the lattice elements:

- the poset construction uses the maximal elements below m in the Betti
  poset and the inclusion-induced isomorphism from the subcomplex they
  generate;
- the homology-approximation construction ("rlm") uses, per homological
  degree, the maximal elements carrying homology one dimension lower,
  where the comparison map is only surjective; a preimage choice enters
  and is either canonical, explicit, or left as a symbolic parameter.

Both outputs are sequences, not necessarily complexes; the homogenized
multigraded sequence is returned together with a verification report.
"""

from __future__ import annotations

from dataclasses import dataclass

from monres.chains import Chain, boundary, format_chain
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.resolutions import (MgBasisElement, MultigradedComplex, TaylorBasis,
                                VerificationReport, verify_resolution)
from monres.vcomplex import (class_in_homology, complex_of_facets, faces_of, prune_facets,
                             reduced_homology)


# -- homology bases ----------------------------------------------------


class HomologyBasis:
    """A fixed basis of the reduced homology at every Betti-poset element."""

    def __init__(self, lattice: LcmLattice, field: Field, data):
        self.lattice = lattice
        self.field = field
        self.data = {m: {d: list(cs) for d, cs in dims.items()} for m, dims in data.items()}

    @staticmethod
    def canonical(lattice: LcmLattice, field: Field) -> "HomologyBasis":
        data = {}
        for e in lattice.elements:
            if e.id == lattice.bottom:
                continue
            hom = lattice.homology_at(e.id, field)
            if hom:
                data[e.id] = {d: list(reps) for d, (_, reps) in hom.items()}
        return HomologyBasis(lattice, field, data)

    def with_chains(self, given) -> "HomologyBasis":
        """Override selected (element, dim) basis lists with explicit cycles.

        Each replacement list is validated: the classes must again form
        a basis of the homology there.
        """
        data = {m: {d: list(cs) for d, cs in dims.items()} for m, dims in self.data.items()}
        for (m, d), chains in given.items():
            if d == -1:
                # the constructions fix the degree-1 map to the all-ones row,
                # which pins the class of the empty chain at every atom
                raise ValueError("the homology basis at dimension -1 is pinned to the empty chain")
            hom = self.lattice.homology_at(m, self.field)
            if d not in hom or hom[d][0] != len(chains):
                raise ValueError(f"element {m}: expected {hom.get(d, (0,))[0]} classes in dimension {d}")
            cx = self.lattice.complex_at(m, self.field)
            coords = [class_in_homology(cx, c, hom[d][1]) for c in chains]
            if Matrix.from_columns(self.field, len(chains), coords).rank() != len(chains):
                raise ValueError(f"element {m}: given classes are dependent in homology")
            data[m][d] = list(chains)
        return HomologyBasis(self.lattice, self.field, data)

    def dims(self, m_id: int):
        return sorted(self.data.get(m_id, {}))

    def classes_at(self, m_id: int, dim: int):
        return list(self.data.get(m_id, {}).get(dim, []))

    def class_coords(self, m_id: int, cycle: Chain):
        cx = self.lattice.complex_at(m_id, self.field)
        return class_in_homology(cx, cycle, self.classes_at(m_id, cycle.dim))


# -- subcomplexes and comparison maps -----------------------------------


def betti_below(lat: LcmLattice, field: Field, m_id: int):
    """Nonbottom Betti-poset elements strictly below m."""
    ids = lat.betti_poset_ids(field)
    return [i for i in ids if i != lat.bottom and lat.lt(i, m_id)]


def _maximal(lat: LcmLattice, ids):
    out = []
    for i in ids:
        if not any(lat.lt(i, j) for j in ids if j != i):
            out.append(i)
    return out


def reduced_subcomplex(lat: LcmLattice, field: Field, m_id: int):
    """(maximal elements of B(m), their labels as facets)."""
    if lat.element(m_id).rank < 2:
        raise ValueError("reduced subcomplex needs rank >= 2")
    maxima = _maximal(lat, betti_below(lat, field, m_id))
    facets = prune_facets(tuple(sorted(lat.element(b).A)) for b in maxima)
    return maxima, tuple(facets)


def reduced_subcomplex_i(lat: LcmLattice, field: Field, m_id: int, i: int):
    """(maximal elements of B_i(m), their labels as facets).

    B_i(m) keeps the elements strictly below m whose complex has
    homology in dimension i-1.
    """
    if lat.element(m_id).rank < 2:
        raise ValueError("reduced subcomplex needs rank >= 2")
    pool = [b for b in betti_below(lat, field, m_id)
            if (i - 1) in lat.homology_at(b, field)]
    maxima = _maximal(lat, pool)
    facets = prune_facets(tuple(sorted(lat.element(b).A)) for b in maxima)
    return maxima, tuple(facets)


def mv_connecting(field: Field, facets1, facets2, f: Chain) -> Chain:
    """Connecting chain of the Mayer-Vietoris split f = c1 - c2.

    c1 collects the terms whose face lies in the first complex (ties go
    to it); the remaining faces must lie in the second complex.  The
    returned chain is boundary(c1), a cycle in the intersection.
    """
    faces1 = faces_of(facets1)
    faces2 = faces_of(facets2)
    c1_terms = {}
    for fc, coeff in f.terms.items():
        if fc in faces1:
            c1_terms[fc] = coeff
        elif fc not in faces2:
            raise ValueError(f"face {fc} lies in neither complex")
    c1 = Chain(field, c1_terms, dim=f.dim)
    if c1.is_zero():
        return Chain.zero(field, f.dim - 1)
    return boundary(c1)


def intersection_facets(facets1, facets2):
    out = []
    for a in facets1:
        for b in facets2:
            out.append(tuple(sorted(set(a) & set(b))))
    return tuple(prune_facets(out))


def sigma_map(lat: LcmLattice, field: Field, m_id: int, sub_facets, cycle: Chain,
              hb: "HomologyBasis"):
    """Inclusion-induced class of a subcomplex cycle, in the fixed basis at m."""
    sub_faces = faces_of(sub_facets)
    if any(fc not in sub_faces for fc in cycle.terms):
        raise ValueError("cycle does not lie in the subcomplex")
    return hb.class_coords(m_id, cycle)


def sigma_preimage(lat: LcmLattice, field: Field, m_id: int, sub_facets, cycle: Chain) -> Chain:
    """Canonical cycle z in the subcomplex with [z] = [cycle] in Delta_m.

    Solves z = cycle + d(w) with w a chain of the complex at m and z
    supported in the subcomplex; the particular solution of the fixed
    elimination order is returned.
    """
    cx = lat.complex_at(m_id, field)
    level = cycle.dim + 1
    faces = cx.labels[level] if level <= cx.length else []
    if not set(cycle.terms) <= set(faces):
        raise ValueError("cycle leaves the complex at m")
    sub_faces = faces_of(sub_facets)
    outside = [i for i, fc in enumerate(faces) if fc not in sub_faces]
    w_mat = cx.differential(level + 1)
    sol = [field.zero] * w_mat.ncols
    if outside:
        rhs = [field.neg(cycle.terms.get(faces[i], field.zero)) for i in outside]
        sol = Matrix(field, [w_mat.rows[i] for i in outside]).solve(rhs)
        if sol is None:
            raise ValueError("no preimage in the subcomplex (comparison map not surjective?)")
    terms = dict(cycle.terms)
    for fc, v in zip(faces, w_mat.mul_vector(sol)):
        terms[fc] = field.add(terms.get(fc, field.zero), v)
    return Chain(field, terms, dim=cycle.dim)


def sigma_dims(lat: LcmLattice, field: Field, m_id: int, sub_facets):
    """(dims of homology of the subcomplex, dims of homology of Delta_m)."""
    sub = reduced_homology(complex_of_facets(field, sub_facets))
    full = lat.homology_at(m_id, field)
    return ({d: n for d, (n, _) in sub.items()}, {d: n for d, (n, _) in full.items()})


# -- symbolic polynomials for the preimage parameters ---------------------


class Poly:
    """Multivariate polynomial over the field; keys are sorted variable tuples."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {}
        for k, v in (terms or {}).items():
            if v != field.zero:
                self.terms[tuple(sorted(k))] = v

    @staticmethod
    def const(field: Field, c) -> "Poly":
        return Poly(field, {(): c})

    @staticmethod
    def var(field: Field, v: int) -> "Poly":
        return Poly(field, {(v,): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(k == () for k in self.terms)

    def const_value(self):
        return self.terms.get((), self.field.zero)

    def variables(self):
        out = set()
        for k in self.terms:
            out.update(k)
        return out

    def add(self, other: "Poly") -> "Poly":
        f = self.field
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = f.add(t.get(k, f.zero), v)
        return Poly(f, t)

    def sub(self, other: "Poly") -> "Poly":
        f = self.field
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = f.sub(t.get(k, f.zero), v)
        return Poly(f, t)

    def scale(self, c) -> "Poly":
        f = self.field
        if c == f.zero:
            return Poly(f)
        return Poly(f, {k: f.mul(c, v) for k, v in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        f = self.field
        t: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(sorted(k1 + k2))
                t[k] = f.add(t.get(k, f.zero), f.mul(v1, v2))
        return Poly(f, t)

    def evaluate(self, values):
        f = self.field
        acc = f.zero
        for k, v in self.terms.items():
            term = v
            for var in k:
                term = f.mul(term, values.get(var, f.zero))
            acc = f.add(acc, term)
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{v}" if not k else f"{v}*" + "*".join(f"t{m}" for m in k))
            for k, v in sorted(self.terms.items())
        )


def poly_matrix_const(field: Field, m: Matrix):
    return [[Poly.const(field, m[r, c]) for c in range(m.ncols)] for r in range(m.nrows)]


def poly_matrix_mul(field: Field, A, B):
    rows = len(A)
    mid = len(B)
    cols = len(B[0]) if B else 0
    out = [[Poly(field) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(mid):
            a = A[i][k]
            if a.is_zero():
                continue
            for j in range(cols):
                if not B[k][j].is_zero():
                    out[i][j] = out[i][j].add(a.mul(B[k][j]))
    return out


def poly_matrix_eval(field: Field, A, values) -> Matrix:
    return Matrix(field, [[p.evaluate(values) for p in row] for row in A])


def certified_constant_rank(field: Field, A):
    """(rank, certified): Gaussian elimination using only nonzero-constant pivots.

    When it finishes with an identically zero residual, the rank of the
    evaluated matrix is the same for every parameter value.
    """
    M = [row[:] for row in A]
    live_rows = list(range(len(M)))
    live_cols = list(range(len(M[0]) if M else 0))
    rank = 0
    while True:
        pivot = None
        for r in live_rows:
            for c in live_cols:
                p = M[r][c]
                if p.is_const() and not p.is_zero():
                    pivot = (r, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r0, c0 = pivot
        inv = field.inv(M[r0][c0].const_value())
        for r in live_rows:
            if r == r0 or M[r][c0].is_zero():
                continue
            factor = M[r][c0].scale(inv)
            for c in live_cols:
                M[r][c] = M[r][c].sub(factor.mul(M[r0][c]))
        live_rows.remove(r0)
        live_cols.remove(c0)
        rank += 1
    residual_zero = all(M[r][c].is_zero() for r in live_rows for c in live_cols)
    return rank, residual_zero


# -- the constructions ----------------------------------------------------


@dataclass
class ConstructionOutput:
    kind: str
    labels: list                      # per level: list of (element id, dim, j)
    matrices: list                    # scalar Matrix per level (index 0 unused)
    homogenized: MultigradedComplex
    is_complex: bool
    report: VerificationReport

    def is_resolution(self) -> bool:
        return self.report.is_resolution

    def is_minimal_resolution(self) -> bool:
        return self.report.is_resolution and self.report.is_minimal


def _construction_levels(lat: LcmLattice, hb: HomologyBasis):
    """Level labels (element, dim, j): bottom; atoms in generator order; blocks."""
    levels = [[(lat.bottom, -2, 0)]]
    levels.append([(a, -1, 0) for a in lat.atom_ids])
    top = 1
    for e in lat.elements:
        for d in hb.dims(e.id):
            top = max(top, d + 2)
    for i in range(2, top + 1):
        lv = []
        for e in lat.elements:
            if e.id == lat.bottom or e.rank < 2:
                continue
            for j in range(len(hb.classes_at(e.id, i - 2))):
                lv.append((e.id, i - 2, j))
        levels.append(lv)
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    return levels


def _component_column(lat, field, hb, m_id, preimage: Chain, gammas, row_index, nrows):
    """Column of MV components of one preimage cycle over the maximal elements."""
    col = [field.zero] * nrows
    dim = preimage.dim
    for s, g in enumerate(gammas):
        A_g = tuple(sorted(lat.element(g).A))
        others = [tuple(sorted(lat.element(h).A)) for h in gammas if h != g]
        d_c1 = mv_connecting(field, (A_g,), tuple(others) if others else ((),), preimage)
        if d_c1.is_zero():
            continue
        if not hb.classes_at(g, dim - 1):
            continue
        coords = hb.class_coords(g, d_c1)
        for j, v in enumerate(coords):
            if v != field.zero:
                col[row_index[(g, dim - 1, j)]] = v
    return col


def _assemble(lat, field, hb, levels, columns_for):
    """Shared assembly: degree-1 map is the all-ones row; higher maps per column."""
    matrices: list = [None]
    matrices.append(Matrix(field, [[field.one] * len(levels[1])]))
    for i in range(2, len(levels)):
        row_index = {lbl: r for r, lbl in enumerate(levels[i - 1])}
        cols = [columns_for(i, lbl, row_index, len(levels[i - 1])) for lbl in levels[i]]
        matrices.append(Matrix.from_columns(field, len(levels[i - 1]), cols))
    return matrices


def _homogenize(lat, field, hb, levels, matrices) -> MultigradedComplex:
    names = lat.ideal.names
    lv_elems = []
    for i, lv in enumerate(levels):
        out = []
        for (m, d, j) in lv:
            mdeg = lat.element(m).mdeg
            if i == 0:
                label = "1"
            elif i == 1:
                label = format_chain(hb.classes_at(m, -1)[0]) if hb.classes_at(m, -1) else f"[{m}]"
            else:
                label = f"[{format_chain(hb.classes_at(m, d)[j])}]@{mdeg.to_str(names)}"
            out.append(MgBasisElement(label, mdeg, i))
        lv_elems.append(out)
    return MultigradedComplex(lat.ideal, field, lv_elems, matrices)


def poset_construction(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None) -> ConstructionOutput:
    """The poset construction over the maximal Betti elements below each m."""
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    levels = _construction_levels(lat, hb)

    def columns_for(i, lbl, row_index, nrows):
        m, d, j = lbl
        rep = hb.classes_at(m, d)[j]
        maxima, facets = reduced_subcomplex(lat, field, m)
        z = sigma_preimage(lat, field, m, facets, rep)
        return _component_column(lat, field, hb, m, z, maxima, row_index, nrows)

    matrices = _assemble(lat, field, hb, levels, columns_for)
    hom = _homogenize(lat, field, hb, levels, matrices)
    return ConstructionOutput("poset", levels, matrices, hom, hom.is_complex(),
                              verify_resolution(hom, lat))


def rlm_construction(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None,
                     preimages=None) -> ConstructionOutput:
    """The homology-approximation construction with explicit or canonical preimages.

    `preimages` maps (element id, dim, j) to a cycle in the subcomplex
    generated by the maximal elements of B_dim(m); it must map to the
    fixed basis class under inclusion.
    """
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    preimages = preimages or {}
    levels = _construction_levels(lat, hb)

    def columns_for(i, lbl, row_index, nrows):
        m, d, j = lbl
        rep = hb.classes_at(m, d)[j]
        gammas, facets = reduced_subcomplex_i(lat, field, m, d)
        if (m, d, j) in preimages:
            z = preimages[(m, d, j)]
            sub_faces = faces_of(facets)
            if any(fc not in sub_faces for fc in z.terms):
                raise ValueError(f"explicit preimage at {(m, d, j)} leaves the subcomplex")
            want = [field.zero] * len(hb.classes_at(m, d))
            want[j] = field.one
            if hb.class_coords(m, z) != want:
                raise ValueError(f"explicit preimage at {(m, d, j)} has the wrong class")
        else:
            z = sigma_preimage(lat, field, m, facets, rep)
        return _component_column(lat, field, hb, m, z, gammas, row_index, nrows)

    matrices = _assemble(lat, field, hb, levels, columns_for)
    hom = _homogenize(lat, field, hb, levels, matrices)
    return ConstructionOutput("rlm", levels, matrices, hom, hom.is_complex(),
                              verify_resolution(hom, lat))


@dataclass
class SymbolicRlm:
    """The rlm construction with every preimage freedom left as a parameter."""

    levels: list
    matrices: list          # per level: list of rows of Poly (index 0 unused)
    params: list            # parameter index -> (element id, dim, j, kernel index)
    hb: HomologyBasis
    lat: LcmLattice
    field: Field

    def evaluate(self, values) -> ConstructionOutput:
        mats: list = [None]
        for i in range(1, len(self.levels)):
            mats.append(poly_matrix_eval(self.field, self.matrices[i], values))
        hom = _homogenize(self.lat, self.field, self.hb, self.levels, mats)
        return ConstructionOutput("rlm", self.levels, mats, hom, hom.is_complex(),
                                  verify_resolution(hom, self.lat))

    def composites(self):
        """Symbolic products psi_{i-1} * psi_i for i >= 2."""
        out = {}
        for i in range(2, len(self.levels)):
            out[i] = poly_matrix_mul(self.field, self.matrices[i - 1], self.matrices[i])
        return out


def rlm_symbolic(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None,
                 max_params: int | None = None) -> SymbolicRlm | None:
    """Parameterize all rlm preimage choices; None if the parameter count explodes."""
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    levels = _construction_levels(lat, hb)
    params: list = []
    columns: dict = {}
    for i in range(2, len(levels)):
        for lbl in levels[i]:
            m, d, j = lbl
            rep = hb.classes_at(m, d)[j]
            gammas, facets = reduced_subcomplex_i(lat, field, m, d)
            base = sigma_preimage(lat, field, m, facets, rep)
            kernels = []
            sub_hom = reduced_homology(complex_of_facets(field, facets))
            if d in sub_hom:
                reps = sub_hom[d][1]
                coord_cols = [hb.class_coords(m, rchain) for rchain in reps]
                coeff = Matrix.from_columns(field, len(hb.classes_at(m, d)), coord_cols)
                for vec in coeff.kernel_basis().columns():
                    kernels.append(Chain.combine(field, list(zip(vec, reps)), dim=d))
            columns[lbl] = (base, kernels, gammas)
            for k in range(len(kernels)):
                params.append((m, d, j, k))
                if max_params is not None and len(params) > max_params:
                    return None

    param_index = {meta: v for v, meta in enumerate(params)}
    matrices: list = [None, poly_matrix_const(field, Matrix(field, [[field.one] * len(levels[1])]))]
    for i in range(2, len(levels)):
        row_index = {lbl: r for r, lbl in enumerate(levels[i - 1])}
        nrows = len(levels[i - 1])
        rows = [[Poly(field) for _ in levels[i]] for _ in range(nrows)]
        for cidx, lbl in enumerate(levels[i]):
            m, d, j = lbl
            base, kernels, gammas = columns[lbl]
            col = _component_column(lat, field, hb, m, base, gammas, row_index, nrows)
            for r, v in enumerate(col):
                if v != field.zero:
                    rows[r][cidx] = rows[r][cidx].add(Poly.const(field, v))
            for k, kern in enumerate(kernels):
                if kern.is_zero():
                    continue
                kcol = _component_column(lat, field, hb, m, kern, gammas, row_index, nrows)
                t = Poly.var(field, param_index[(m, d, j, k)])
                for r, v in enumerate(kcol):
                    if v != field.zero:
                        rows[r][cidx] = rows[r][cidx].add(t.scale(v))
        matrices.append(rows)
    return SymbolicRlm(levels, matrices, params, hb, lat, field)


def extract_basis_and_preimages(lat: LcmLattice, field: Field, basis: TaylorBasis):
    """Homology bases and preimages read off a resolution's Taylor basis.

    For every chain e at element m the cycle boundary(e) represents its
    class, and the same cycle serves as the preimage in the relevant
    subcomplex; with these choices the rlm construction reproduces the
    maximal approximation of the resolution frame by frame.
    """
    data: dict = {}
    preimages: dict = {}
    for m in sorted(basis.by_elt):
        if m == lat.bottom:
            continue
        for c in basis.by_elt[m]:
            b = boundary(c)
            d = b.dim
            data.setdefault(m, {}).setdefault(d, []).append(b)
    hb = HomologyBasis(lat, field, data)
    for m, dims in data.items():
        for d, reps in dims.items():
            for j, rep in enumerate(reps):
                preimages[(m, d, j)] = rep
    return hb, preimages
