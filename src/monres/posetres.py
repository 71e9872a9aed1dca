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

Both outputs are sequences, not necessarily complexes; whether one is a
minimal resolution is decided by d^2 and restricted exactness alone (see
`ConstructionOutput`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from monres.chains import Chain, boundary, format_chain
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.resolutions import MgBasisElement, MultigradedComplex, TaylorBasis, first_inexact_element
from monres.vcomplex import (class_in_homology, complex_of_facets, in_complex, products_vanish,
                             reduced_cycles)


# -- homology bases ----------------------------------------------------


class HomologyBasis:
    """A fixed basis of the reduced homology at every Betti-poset element.

    `columns` keeps the component column of each canonical preimage
    computed on this basis, keyed by the class label (m, d, j) and the
    subcomplex's facets.  It depends only on those and the basis, so the
    poset construction, `rlm_construction` and `rlm_symbolic` compute it
    once between them; a basis made by `with_chains` starts with none.
    """

    def __init__(self, lattice: LcmLattice, field: Field, data):
        self.lattice = lattice
        self.field = field
        self.data = {m: {d: list(cs) for d, cs in dims.items()} for m, dims in data.items()}
        self.columns: dict = {}

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
            want = self.lattice.homology_dims_at(m, self.field).get(d, 0)
            if not want or want != len(chains):
                raise ValueError(f"element {m}: expected {want} classes in dimension {d}")
            if not self.lattice.is_homology_basis(m, self.field, d, chains):
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


def reduced_subcomplex(lat: LcmLattice, field: Field, m_id: int, i: int | None = None):
    """(maximal elements of B(m), or of B_i(m), their labels sorted: the facets).

    B(m) holds the nonbottom Betti-poset elements strictly below m; B_i(m)
    keeps those whose complex has homology in dimension i-1.  The maxima
    form an antichain, so no label contains another.
    """
    if lat.element(m_id).rank < 2:
        raise ValueError("reduced subcomplex needs rank >= 2")
    pool = []
    for e in lat.elements:
        if e.id != lat.bottom and lat.lt(e.id, m_id):
            dims = lat.homology_dims_at(e.id, field)
            if dims and (i is None or i - 1 in dims):
                pool.append(e.id)
    maxima = [b for b in pool if not any(lat.lt(b, c) for c in pool)]
    return maxima, tuple(sorted(tuple(sorted(lat.element(b).A)) for b in maxima))


def mv_connecting(field: Field, facets1, facets2, f: Chain) -> Chain:
    """Connecting chain of the Mayer-Vietoris split f = c1 - c2.

    c1 collects the terms whose face lies in the first complex (ties go
    to it); the remaining faces must lie in the second complex.  The
    returned chain is boundary(c1), a cycle in the intersection.
    """
    c1_terms = {}
    for fc, coeff in f.terms.items():
        if in_complex(fc, facets1):
            c1_terms[fc] = coeff
        elif not in_complex(fc, facets2):
            raise ValueError(f"face {fc} lies in neither complex")
    c1 = Chain(field, c1_terms, dim=f.dim)
    if c1.is_zero():
        return Chain.zero(field, f.dim - 1)
    return boundary(c1)


def sigma_map(m_id: int, sub_facets, cycle: Chain, hb: "HomologyBasis"):
    """Inclusion-induced class of a subcomplex cycle, in the fixed basis at m."""
    if not all(in_complex(fc, sub_facets) for fc in cycle.terms):
        raise ValueError("cycle does not lie in the subcomplex")
    return hb.class_coords(m_id, cycle)


def sigma_preimage(lat: LcmLattice, field: Field, m_id: int, sub_facets, cycle: Chain) -> Chain:
    """Canonical cycle z in the subcomplex with [z] = [cycle] in Delta_m.

    A cycle already in the subcomplex is z.  Otherwise z = cycle + d(w),
    where w is the particular solution, in the fixed elimination order, of
    the chains of the complex at m whose boundary cancels the cycle's
    coefficients outside the subcomplex.
    """
    cx = lat.complex_at(m_id, field)
    level = cycle.dim + 1
    faces = cx.labels[level] if level <= cx.length else []
    if not set(cycle.terms) <= set(faces):
        raise ValueError("cycle leaves the complex at m")
    if all(in_complex(fc, sub_facets) for fc in cycle.terms):
        return cycle
    outside = [i for i, fc in enumerate(faces) if not in_complex(fc, sub_facets)]
    rhs = [field.neg(cycle.terms.get(faces[i], field.zero)) for i in outside]
    w_mat = cx.differential(level + 1)
    sol = w_mat.submatrix(outside, range(w_mat.ncols)).solve(rhs)
    if sol is None:
        raise ValueError("no preimage in the subcomplex (comparison map not surjective?)")
    return cycle.add(boundary(Chain(field, zip(cx.labels[level + 1], sol), dim=level)))


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
    """A construction's level labels (element id, dim, j) and scalar maps (index 0 unused).

    Each basis element sits at its label's element, and each nonzero entry
    joins a class at m to one at a maximal Betti element strictly below m
    (in degree 1, an atom to the bottom).  So the multigraded sequence is
    homogeneous and minimal, every basis element sits at an element of the
    lattice, and H0 = S/M, as degree 1 is the all-ones row on the atoms.
    It is then a minimal resolution iff d^2 = 0 (`is_complex`) and every
    frame restricted below an element is exact (`inexact_at` is None), the
    Peeva-Velasco criterion; both are computed on first read.  The
    homogenized complex is built only for display.
    """

    lat: LcmLattice
    hb: HomologyBasis
    labels: list
    matrices: list

    @cached_property
    def is_complex(self) -> bool:
        return products_vanish(self.matrices)

    @cached_property
    def inexact_at(self):
        """The first element where a restricted frame is not exact, or None."""
        return inexact_element(self.lat, self.hb.field, self.labels,
                               lambda i, rows, cols: self.matrices[i].submatrix(rows, cols).rank())

    def is_minimal_resolution(self) -> bool:
        return self.is_complex and self.inexact_at is None

    @cached_property
    def homogenized(self) -> MultigradedComplex:
        lat, hb = self.lat, self.hb
        names = lat.ideal.names
        levels = []
        for i, lv in enumerate(self.labels):
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
            levels.append(out)
        return MultigradedComplex(lat.ideal, hb.field, levels, self.matrices)


def inexact_element(lat: LcmLattice, field: Field, levels, rank):
    """`first_inexact_element` with each basis element at its label's element."""
    return first_inexact_element(lat, field, [[m for m, _, _ in lv] for lv in levels], rank)


def _construction_levels(lat: LcmLattice, hb: HomologyBasis):
    """Level labels (element, dim, j): bottom; atoms in generator order; blocks."""
    blocks = [(e.id, d, j) for e in lat.elements if e.rank >= 2
              for d in hb.dims(e.id) for j in range(len(hb.classes_at(e.id, d)))]
    top = max((d + 2 for _, d, _ in blocks), default=1)
    return [[(lat.bottom, -2, 0)], [(a, -1, 0) for a in lat.atom_ids]] + [
        [b for b in blocks if b[1] == i - 2] for i in range(2, top + 1)]


def _column(lat: LcmLattice, hb: HomologyBasis, lbl, row_index, i: int | None = None, preimages=None):
    """(gammas, facets, component column) of the column at the basis class lbl = (m, d, j).

    The subcomplex is generated by the maximal elements of B(m), or of
    B_i(m) when i is given.  The preimage is the canonical one, or the
    explicit one in `preimages`, which must lie in the subcomplex and map
    to the basis class under inclusion.  A canonical column is kept in
    hb.columns, an explicit one never.
    """
    m, d, j = lbl
    field = hb.field
    gammas, facets = reduced_subcomplex(lat, field, m, i)
    if not preimages or lbl not in preimages:
        key = (lbl, facets)
        if key not in hb.columns:
            z = sigma_preimage(lat, field, m, facets, hb.classes_at(m, d)[j])
            hb.columns[key] = _component_column(lat, hb, z, gammas, row_index)
        return gammas, facets, hb.columns[key]
    z = preimages[lbl]
    want = [field.one if k == j else field.zero for k in range(len(hb.classes_at(m, d)))]
    try:
        ok = sigma_map(m, facets, z, hb) == want
    except ValueError as e:
        raise ValueError(f"explicit preimage at {lbl}: {e}") from None
    if not ok:
        raise ValueError(f"explicit preimage at {lbl} has the wrong class")
    return gammas, facets, _component_column(lat, hb, z, gammas, row_index)


def _component_column(lat: LcmLattice, hb: HomologyBasis, preimage: Chain, gammas, row_index):
    """Column of MV components of one preimage cycle over the maximal elements."""
    field = hb.field
    col = [field.zero] * len(row_index)
    dim = preimage.dim
    for g in gammas:
        A_g = tuple(sorted(lat.element(g).A))
        others = [tuple(sorted(lat.element(h).A)) for h in gammas if h != g]
        d_c1 = mv_connecting(field, (A_g,), others, preimage)
        if d_c1.is_zero():
            continue
        if not hb.classes_at(g, dim - 1):
            continue
        coords = hb.class_coords(g, d_c1)
        for j, v in enumerate(coords):
            if v != field.zero:
                col[row_index[(g, dim - 1, j)]] = v
    return col


def _assemble(field: Field, levels, column, symbolic: bool = False):
    """Maps per level: degree 1 is the all-ones row, column(lbl, row_index) gives the rest.

    Scalar columns give Matrix maps; symbolic columns of Poly give lists of rows.
    """
    ones = Matrix(field, [[field.one] * len(levels[1])])
    matrices: list = [None, poly_matrix_const(field, ones) if symbolic else ones]
    for i in range(2, len(levels)):
        row_index = {lbl: r for r, lbl in enumerate(levels[i - 1])}
        cols = [column(lbl, row_index) for lbl in levels[i]]
        if symbolic:
            matrices.append([[c[r] for c in cols] for r in range(len(row_index))])
        else:
            matrices.append(Matrix.from_columns(field, len(row_index), cols))
    return matrices


def poset_construction(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None) -> ConstructionOutput:
    """The poset construction over the maximal Betti elements below each m."""
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    levels = _construction_levels(lat, hb)

    def column(lbl, row_index):
        return _column(lat, hb, lbl, row_index)[2]

    return ConstructionOutput(lat, hb, levels, _assemble(field, levels, column))


def rlm_construction(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None,
                     preimages=None) -> ConstructionOutput:
    """The homology-approximation construction with explicit or canonical preimages.

    `preimages` maps (element id, dim, j) to a cycle in the subcomplex
    generated by the maximal elements of B_dim(m); it must map to the
    fixed basis class under inclusion, and its key must name a column.
    """
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    levels = _construction_levels(lat, hb)
    stray = set(preimages or ()).difference(*levels[2:])
    if stray:
        raise ValueError(f"preimage at {min(stray)} names no construction column")

    def column(lbl, row_index):
        return _column(lat, hb, lbl, row_index, lbl[1], preimages)[2]

    return ConstructionOutput(lat, hb, levels, _assemble(field, levels, column))


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
        mats = [None] + [poly_matrix_eval(self.field, m, values) for m in self.matrices[1:]]
        return ConstructionOutput(self.lat, self.hb, self.levels, mats)

    def composites(self):
        """Symbolic products psi_{i-1} * psi_i for i >= 2."""
        out = {}
        for i in range(2, len(self.levels)):
            out[i] = poly_matrix_mul(self.field, self.matrices[i - 1], self.matrices[i])
        return out


def rlm_symbolic(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None,
                 max_params: int | None = None) -> SymbolicRlm | None:
    """Parameterize all rlm preimage choices; None if there are more than max_params.

    Each column is the canonical preimage plus one parameter per kernel
    vector of the comparison map H~_d(sub) -> H~_d(Delta_m), so evaluate({})
    is rlm_construction.  The canonical column comes first, from
    hb.columns.  The map is onto: `sigma_preimage` finds a preimage of
    every class at (m, d), or raises and no construction is returned.  So
    its kernel has dimension dim H~_d(sub) minus the number of classes,
    and the subcomplex's cycles, their class coordinates and the kernel
    are computed only where that is positive.
    """
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    levels = _construction_levels(lat, hb)
    params: list = []
    columns: dict = {}
    for i in range(2, len(levels)):
        row_index = {lbl: r for r, lbl in enumerate(levels[i - 1])}
        for lbl in levels[i]:
            m, d, j = lbl
            gammas, facets, base = _column(lat, hb, lbl, row_index, d)
            col = [Poly.const(field, v) for v in base]
            n = len(hb.classes_at(m, d))
            sub = complex_of_facets(field, facets)
            if sub.homology_dim(d + 1) > n:
                reps = reduced_cycles(sub, d)
                coeff = Matrix.from_columns(field, n, [hb.class_coords(m, z) for z in reps])
                for k, vec in enumerate(coeff.kernel_basis().columns()):
                    t = Poly.var(field, len(params))
                    kern = Chain.combine(field, list(zip(vec, reps)), dim=d)
                    for r, v in enumerate(_component_column(lat, hb, kern, gammas, row_index)):
                        if v != field.zero:
                            col[r] = col[r].add(t.scale(v))
                    params.append((m, d, j, k))
            if max_params is not None and len(params) > max_params:
                return None
            columns[lbl] = col

    matrices = _assemble(field, levels, lambda lbl, _: columns[lbl], symbolic=True)
    return SymbolicRlm(levels, matrices, params, hb, lat, field)


def extract_basis_and_preimages(lat: LcmLattice, field: Field, basis: TaylorBasis):
    """Homology bases and preimages read off a resolution's Taylor basis.

    For every chain e at element m the cycle boundary(e) represents its
    class, and the same cycle serves as the preimage in the relevant
    subcomplex; with these choices the rlm construction reproduces the
    maximal approximation of the resolution frame by frame.  The atoms'
    classes in dimension -1 get no preimage: the degree-1 map is fixed.
    """
    data: dict = {}
    for m in sorted(basis.by_elt):
        if m == lat.bottom:
            continue
        for c in basis.by_elt[m]:
            b = boundary(c)
            data.setdefault(m, {}).setdefault(b.dim, []).append(b)
    preimages = {(m, d, j): rep for m, dims in data.items() for d, reps in dims.items()
                 if d >= 0 for j, rep in enumerate(reps)}
    return HomologyBasis(lat, field, data), preimages
