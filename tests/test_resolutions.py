"""Resolutions: Taylor complex, cancellation, the atomic construction and friends."""

import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from monres.chains import Chain, boundary, format_chain, support
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.monomials import parse_ideal_text, random_minimal_ideal
from monres.resolutions import (ChangeOfBasisError, MgBasisElement, MultigradedComplex,
                                TaylorBasis, TaylorBasisError, atomic_lattice_resolution,
                                betti_poset_label_map, change_of_basis,
                                consecutive_cancellation, find_unit_entry,
                                first_inexact_element, lift_cycle_in_simplex, maximal_approximation,
                                minimize_resolution, projdim_bound,
                                resolution_from_taylor_basis, scarf_complex,
                                taylor_basis_from_resolution, taylor_resolution,
                                transport_via_betti_poset, verify_resolution)

from conftest import LATTICES, DenseMatrix, ch, is_taylor_chain_at, random_corpus, typed_entries


QQ = Field(0)


def faces(*texts):
    return [Chain.from_face(QQ, ()) if t == "{}" else ch(t) for t in texts]


# -- Taylor resolution --------------------------------------------------


def test_taylor_ranks(ideals):
    T = taylor_resolution(ideals["triangle"], QQ)
    assert T.rank_vector() == [1, 3, 3, 1]
    assert verify_resolution(T).is_resolution
    assert not T.is_minimal()


def test_taylor_single_generator(ideals):
    T = taylor_resolution(ideals["principal"], QQ)
    assert T.rank_vector() == [1, 1]
    scalar, quot = T.s_entry(1, 0, 0)
    assert scalar == QQ.one and quot.to_str(["x"]) == "x^3"


def test_taylor_degree_one_map(ideals):
    T = taylor_resolution(ideals["four_gens"], QQ)
    assert all(T.frames[1][0, j] == QQ.one for j in range(4))
    assert [e.mdeg for e in T.levels[1]] == list(ideals["four_gens"].gens)


def test_taylor_generator_cap():
    names = [f"x{i}" for i in range(25)]
    from monres.monomials import Monomial, MonomialIdeal

    gens = [Monomial(tuple(2 if j == i else 0 for j in range(25))) for i in range(25)]
    with pytest.raises(ValueError):
        taylor_resolution(MonomialIdeal(names, gens), QQ)


def ref_taylor_resolution(ideal, field):
    """The Taylor complex with its own face order and sign loop."""
    levels = [[MgBasisElement(Chain.from_face(field, ()), ideal.one(), 0)]]
    frames = [None]
    signs = (field.one, field.neg(field.one))
    faces = [()]
    for size in range(1, ideal.r + 1):
        index = {A: j for j, A in enumerate(faces)}
        faces = list(combinations(range(1, ideal.r + 1), size))
        fr = DenseMatrix.zero(field, len(index), len(faces))
        lv = []
        for j, A in enumerate(faces):
            m = levels[-1][index[A[:-1]]].mdeg.lcm(ideal.generator(A[-1]))
            lv.append(MgBasisElement(Chain.from_face(field, A), m, size))
            for k in range(size):
                fr.rows[index[A[:k] + A[k + 1:]]][j] = signs[k % 2]
        levels.append(lv)
        frames.append(fr)
    return MultigradedComplex(ideal, field, levels, frames)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_taylor_matches_own_loop_reference(char):
    field = Field(char)
    rng = random.Random(char)
    for r in range(1, 9):
        ideal = random_minimal_ideal(r, 4, 3, rng)
        T, ref = taylor_resolution(ideal, field), ref_taylor_resolution(ideal, field)
        assert T.levels == ref.levels
        assert T.frames[0] is None and len(T.frames) == len(ref.frames)
        for got, want in zip(T.frames[1:], ref.frames[1:]):
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert typed_entries(got) == typed_entries(want)


def test_taylor_frames_store_only_their_nonzeros():
    # r * 2^(r-1) = 24,576 boundary entries, against C(2r, r-1) = 2,496,144 cells at r = 12
    r = 12
    T = taylor_resolution(random_minimal_ideal(r, 5, 3, random.Random(3)), Field(32003))
    stored = [x for fr in T.frames[1:] for row in fr.rows for x in row.values()]
    assert len(stored) == r * 2 ** (r - 1) and all(stored)


@pytest.mark.parametrize("char", [0, 32003])
def test_minimize_taylor_at_fourteen_generators(char):
    # (r, n, seed) = (14, 5, 4): 16,384 Taylor basis elements and 114,688 frame entries
    field = Field(char)
    lat = LcmLattice.from_ideal(random_minimal_ideal(14, 5, 3, random.Random(4)))
    C, _ = minimize_resolution(taylor_resolution(lat.ideal, field), lat)
    assert C.betti_table(lat) == lat.betti_numbers(field)
    assert C.is_minimal()


# -- consecutive cancellation -------------------------------------------


def test_cancellation_requires_unit(ideals):
    T = taylor_resolution(ideals["triangle"], QQ)
    # degree-1 entries have multidegree quotients: not units
    with pytest.raises(ValueError):
        consecutive_cancellation(T, 1, 0, 0)


def test_cancellation_preserves_homology(ideals, lattices):
    ideal, lat = ideals["cone3"], lattices["cone3"]
    T = taylor_resolution(ideal, QQ)
    # cancel the pair (faces 23 at rows, 123 at columns): equal multidegrees
    i = 3
    col = 0
    row = [j for j, e in enumerate(T.levels[2])
           if e.mdeg == T.levels[3][0].mdeg][0]
    C = consecutive_cancellation(T, i, row, col)
    assert C.rank_vector()[2] == 2 and C.length == 2
    before = {k: v for k, v in T.betti_table(lat).items()}
    # homology unchanged: the cancelled complex still resolves S/M
    assert verify_resolution(C, lat).is_resolution
    assert sum(before.values()) == sum(C.betti_table(lat).values()) + 2


def test_cancellation_annihilates_trivial_summand():
    ideal, _ = parse_ideal_text("vars x; gens x")
    m = ideal.gens[0]
    from monres.resolutions import MgBasisElement

    levels = [[MgBasisElement("a", m, 0)], [MgBasisElement("b", m, 1)]]
    C = MultigradedComplex(ideal, QQ, levels, [None, Matrix(QQ, [[QQ.one]])])
    out = consecutive_cancellation(C, 1, 0, 0)
    assert out.rank_vector() == [0]


def test_cancellation_block_update():
    # cancelling against a zero row/column leaves the rest unchanged
    ideal, _ = parse_ideal_text("vars x y; gens x y")
    T = taylor_resolution(ideal, QQ)
    # no unit entries in the Taylor complex of a Scarf ideal with distinct lcms
    from monres.resolutions import find_unit_entry

    assert find_unit_entry(T) is None


# -- minimization -------------------------------------------------------


@pytest.mark.parametrize("name,ranks", [
    ("triangle", [1, 3, 2]),
    ("four_gens", [1, 4, 4, 1]),
    ("rigid4", [1, 4, 4, 1]),
])
def test_minimize_golden(ideals, lattices, name, ranks):
    C, basis = minimize_resolution(taylor_resolution(ideals[name], QQ), lattices[name])
    assert C.rank_vector() == ranks
    rep = verify_resolution(C, lattices[name])
    assert rep.is_resolution and rep.is_minimal
    assert C.betti_table(lattices[name]) == lattices[name].betti_numbers(QQ)


def test_minimize_already_minimal(ideals, lattices):
    C, _ = minimize_resolution(taylor_resolution(ideals["triangle"], QQ), lattices["triangle"])
    again, _ = minimize_resolution(C, lattices["triangle"])
    assert again.rank_vector() == C.rank_vector()
    assert all(again.frames[i] == C.frames[i] for i in range(1, len(C.levels)))


def test_minimize_basis_is_taylor_basis(ideals, lattices):
    lat = lattices["four_gens"]
    _, basis = minimize_resolution(taylor_resolution(ideals["four_gens"], QQ), lat)
    for m, c in basis.flat():
        if m == lat.bottom:
            continue
        assert is_taylor_chain_at(lat, c, m)
    counts = basis.counts()
    assert sum(counts.values()) == 10


# -- atomic lattice resolution -------------------------------------------


def test_atomic_triangle_matches_display(lattices):
    _, C = atomic_lattice_resolution(lattices["triangle"], QQ)
    assert C.rank_vector() == [1, 3, 2]
    names = C.ideal.names
    entries = [[_s(C, 2, r, c, names) for c in range(2)] for r in range(3)]
    assert entries == [["-z", "-z"], ["y", "0"], ["0", "x"]]


def _s(C, i, r, c, names):
    from monres.resolutions import _format_s_entry

    scalar, quot = C.s_entry(i, r, c)
    return _format_s_entry(C.field, scalar, quot, names)


def test_atomic_four_gens_gammas(lattices):
    lat = lattices["four_gens"]
    basis, C = atomic_lattice_resolution(lat, QQ)
    assert [format_chain(c) for c in basis.chains_at(lat.id_of_label({2, 3, 4}))] == ["24"]
    assert [format_chain(c) for c in basis.chains_at(lat.id_of_label({1, 2, 3, 4}))] == ["123"]
    rep = verify_resolution(C, lat)
    assert rep.is_resolution and rep.is_minimal


def test_atomic_hexagon_counts(lattices):
    lat = lattices["hexagon"]
    basis, C = atomic_lattice_resolution(lat, QQ)
    assert C.rank_vector() == [1, 6, 9, 6, 2]
    counts = basis.counts()
    top = lat.top
    assert counts[(4, top)] == 2
    per_rank3 = [counts.get((3, e.id), 0) for e in lat.elements if len(e.A) == 4]
    assert sorted(per_rank3) == [1, 1, 1, 1, 1, 1]
    assert verify_resolution(C, lat).is_resolution


def test_atomic_scarf_gamma_is_label_face(lattices):
    lat = lattices["two_gens"]
    basis, _ = atomic_lattice_resolution(lat, QQ)
    for m in lat.betti_poset_ids(QQ):
        if m == lat.bottom:
            continue
        chains = basis.chains_at(m)
        assert len(chains) == 1
        assert chains[0].faces() == [tuple(sorted(lat.element(m).A))]


def test_atomic_abstract_lattice(lattices):
    lat = lattices["split6"]
    basis, C = atomic_lattice_resolution(lat, QQ)
    assert verify_resolution(C, lat).is_resolution
    assert C.betti_table(lat) == lat.betti_numbers(QQ)


def test_atomic_exact_closure_invariant(lattices):
    # the restriction to multidegrees <= m is the exact closure of the < m part
    from monres.vcomplex import is_exact_closure_of

    lat = lattices["four_gens"]
    _, C = atomic_lattice_resolution(lat, QQ)
    for e in lat.elements:
        if e.rank < 2:
            continue
        V = C.restrict_to(e.mdeg)
        # frame of F(<m): drop the elements of multidegree exactly m
        keep = [[j for j, el in enumerate(lv) if el.mdeg.divides(e.mdeg) and el.mdeg != e.mdeg]
                for lv in C.levels]
        top = len(C.levels) - 1
        while top > 0 and not keep[top]:
            top -= 1
        from monres.vcomplex import BasedComplex

        labels = [[f"{i}:{j}" for j in keep[i]] for i in range(top + 1)]
        maps = [None] + [C.frames[i].submatrix(keep[i - 1], keep[i]) for i in range(1, top + 1)]
        U = BasedComplex(QQ, labels, maps)
        assert is_exact_closure_of(V, U)


# -- Taylor bases in both directions --------------------------------------


def test_resolution_from_basis_reproduces_display(lattices):
    lat = lattices["four_gens"]
    B = faces("{}", "1", "2", "3", "4", "12", "13", "23", "24", "123")
    C = resolution_from_taylor_basis(lat, B)
    names = lat.ideal.names
    d2 = [[_s(C, 2, r, c, names) for c in range(4)] for r in range(4)]
    assert d2 == [["-c", "-d", "0", "0"],
                  ["a*b", "0", "-d", "-b*d"],
                  ["0", "a*b", "c", "0"],
                  ["0", "0", "0", "a"]]
    d3 = [_s(C, 3, r, 0, names) for r in range(4)]
    assert d3 == ["d", "-c", "a*b", "0"]
    assert verify_resolution(C, lat).is_resolution


def test_resolution_from_basis_rejects_dependent(lattices):
    lat = lattices["triangle"]
    with pytest.raises(TaylorBasisError):
        resolution_from_taylor_basis(lat, faces("{}", "1", "2", "3", "12", "12"))


def test_resolution_from_basis_rejects_span_defect(lattices):
    lat = lattices["rigid4"]
    # 124+234 is fine; a chain whose boundary needs the missing face 24 is not
    bad = faces("{}", "1", "2", "3", "4", "12", "23", "34", "14") + [ch("124")]
    with pytest.raises(TaylorBasisError):
        resolution_from_taylor_basis(lat, bad)


@pytest.mark.parametrize("name, old, new, message", [
    ("four_gens", "123", "124",
     "element 9: boundary leaves the complex: face (1, 4) not in the complex"),
    ("hexagon", "-1234-1245+1345+1356", "1234+1245",
     "element 28: boundary classes are dependent in homology"),
])
def test_resolution_from_basis_error_messages(lattices, name, old, new, message):
    lat = lattices[name]
    B, _ = atomic_lattice_resolution(lat, QQ)
    chains = [ch(new) if format_chain(c) == old else c for c in B.chains()]
    with pytest.raises(TaylorBasisError, match=f"^{re.escape(message)}$") as err:
        resolution_from_taylor_basis(lat, chains)
    assert err.value.m_id == lat.top  # both edited chains sit at the top


def _edited(old=None, new=None):
    """Edit the chain list: replace the chain written `old` by `new`, drop it (no `new`), or add `new`."""
    def edit(chains):
        if old is None:
            return chains + [ch(new)]
        return [ch(new) if format_chain(c) == old else c for c in chains if new or format_chain(c) != old]
    return edit


@pytest.mark.parametrize("name, edit, message, label", [
    pytest.param("triangle", lambda chains: [], "empty basis", None, id="empty"),
    pytest.param("triangle", lambda chains: chains + [Chain.zero(QQ, 1)], "zero chain in basis", None,
                 id="zero-chain"),
    pytest.param("triangle", _edited("{}"), "basis must contain exactly the empty chain at the bottom", None,
                 id="no-bottom"),
    pytest.param("triangle", _edited(None, "2*{}"), "basis must contain exactly the empty chain at the bottom",
                 None, id="two-bottoms"),
    pytest.param("triangle", _edited("1", "2*1"), "basis must contain exactly the vertex {1} at generator 1",
                 (1,), id="scaled-atom"),
    pytest.param("four_gens", _edited("2"), "basis must contain exactly the vertex {2} at generator 2", (2,),
                 id="missing-atom"),
    pytest.param("four_gens", _edited("123"), "element 9: 0 chains with boundary dimension 1, homology needs 1",
                 (1, 2, 3, 4), id="too-few"),
    pytest.param("triangle", _edited(None, "13"), "element 4: 3 chains with boundary dimension 0, homology needs 2",
                 (1, 2, 3), id="too-many"),
    pytest.param("rigid4", _edited("-123-134", "124"),
                 "boundary of 124 is outside the span of lower basis chains", (1, 2, 3, 4), id="face-outside"),
    pytest.param("stable7", _edited("25", "-23+2*25-35"),
                 "boundary of 256 is outside the span of lower basis chains", (2, 3, 5, 6), id="not-in-span"),
])
def test_resolution_from_basis_errors_name_their_element(lattices, name, edit, message, label):
    # the raises of `resolution_from_taylor_basis` that the test above does not reach,
    # each on the atomic basis with one edit
    lat = lattices[name]
    B, _ = atomic_lattice_resolution(lat, QQ)
    with pytest.raises(TaylorBasisError, match=f"^{re.escape(message)}$") as err:
        resolution_from_taylor_basis(lat, edit(B.chains()))
    assert err.value.m_id == (None if label is None else lat.id_of_label(label))


def ref_frames_by_solve(lat, chains):
    """The frames `resolution_from_taylor_basis` builds, one `Matrix.solve` per column."""
    field, by_hdeg = chains[0].field, {}
    for m, c in TaylorBasis.of(lat, chains).flat():
        by_hdeg.setdefault(c.dim + 1, []).append((m, c))
    frames = []
    for h in range(1, max(by_hdeg) + 1):
        lower = [c for _, c in by_hdeg[h - 1]]
        faces = sorted({fc for c in lower for fc in c.terms})
        A = Matrix.from_columns(field, len(faces), [[c.terms.get(fc, field.zero) for fc in faces] for c in lower])
        cols = []
        for m, c in by_hdeg[h]:
            b = boundary(c)
            sol = A.solve([b.terms.get(fc, field.zero) for fc in faces]) if b.terms.keys() <= set(faces) else None
            if sol is None:
                raise TaylorBasisError(f"boundary of {format_chain(c)} is outside the span of lower basis chains", m)
            cols.append(sol)
        frames.append(Matrix.from_columns(field, len(lower), cols))
    return frames


@st.composite
def edited_bases(draw):
    """(lattice, chains): an atomic Taylor basis, reordered, with a few chains scaled or moved by a boundary.

    Scaling keeps it a basis; adding a multiple of the boundary of a face
    in the chain's simplex keeps its boundary, so only the span of its level
    changes, which often leaves a boundary one level up outside it.
    """
    field, lat = draw(taylor_cases())
    B, _ = atomic_lattice_resolution(lat, field)
    rng, chains = random.Random(draw(st.integers(0, 2**32 - 1))), B.chains()
    rng.shuffle(chains)
    nonzero = st.integers(1, field.char - 1 if field.char else 5).map(field.of)
    simplex = {k: sorted(lat.element(lat.closure_id(support(c))).A) for k, c in enumerate(chains)}
    top = max(c.dim for c in chains)
    scale = [k for k, c in enumerate(chains) if c.dim >= 1]  # the bottom and the vertices stay
    cone = [k for k, c in enumerate(chains) if 1 <= c.dim < top and len(simplex[k]) >= c.dim + 2]
    for k in [rng.choice(scale) for _ in range(draw(st.integers(0, 2)) if scale else 0)]:
        chains[k] = chains[k].scale(draw(nonzero))
    for k in [rng.choice(cone) for _ in range(draw(st.integers(0, 2)) if cone else 0)]:
        F = rng.sample(simplex[k], chains[k].dim + 2)
        chains[k] = chains[k].add(boundary(Chain.from_face(field, F)).scale(draw(nonzero)))
    return lat, chains


@settings(max_examples=100, deadline=None)
@given(case=edited_bases())
def test_resolution_from_basis_solves_each_level_as_each_column_alone(case):
    # one elimination per level, against one `solve` per column: the same frames, values
    # and types, or the same first column outside the span
    lat, chains = case
    try:
        C = resolution_from_taylor_basis(lat, chains)
    except TaylorBasisError as err:
        outside = "outside the span" in str(err)
        event("outside the span" if outside else "rejected before the level maps")
        if outside:
            with pytest.raises(TaylorBasisError) as ref:
                ref_frames_by_solve(lat, chains)
            assert (str(ref.value), ref.value.m_id) == (str(err), err.m_id)
        return
    event("built")
    want = ref_frames_by_solve(lat, chains)
    assert C.frames[1:] == want and [typed_entries(fr) for fr in C.frames[1:]] == [typed_entries(fr) for fr in want]


def _with_level(C, i, level):
    levels = [list(lv) for lv in C.levels]
    levels[i] = level
    return MultigradedComplex(C.ideal, C.field, levels, C.frames)


def _with_frame(C, i, rows):
    frames = list(C.frames)
    frames[i] = Matrix(C.field, [[QQ.of(x) for x in row] for row in rows])
    return MultigradedComplex(C.ideal, C.field, C.levels, frames)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda C: _with_level(C, 0, [MgBasisElement("e", C.ideal.generator(1), 0)]),
                 "degree 0 must be a single basis element of multidegree 1", id="degree-0"),
    pytest.param(lambda C: MultigradedComplex(C.ideal, QQ, C.levels[:1] + [C.levels[1][:2]],
                                              [None, C.frames[1].submatrix([0], [0, 1])]),
                 "degree 1 must have one basis element per generator", id="degree-1-count"),
    pytest.param(lambda C: _with_level(C, 1, [MgBasisElement(e.label, C.ideal.generator(3 - k), 1)
                                              for k, e in enumerate(C.levels[1])]),
                 "degree-1 multidegrees must be the generators in order", id="degree-1-mdegs"),
    pytest.param(lambda C: _with_frame(C, 1, [[1, 2, 1]]), "degree-1 map must be the row (m_1 ... m_r)",
                 id="degree-1-entry"),
    pytest.param(lambda C: _with_frame(C, 2, [[0, -1], [0, 1], [0, 0]]),
                 "zero column in a minimal resolution frame", id="zero-column"),
    pytest.param(lambda C: _with_frame(C, 2, [[1, -1], [0, 1], [0, 0]]),
                 "column cycle is not a boundary: cycle is not a boundary in the allowed simplex",
                 id="not-a-cycle"),
    pytest.param(lambda C: _with_level(C, 2, [MgBasisElement(e.label, C.levels[1][0].mdeg, 2)
                                              for e in C.levels[2]]),
                 "recovered chain multidegree disagrees with the basis element", id="mdeg"),
])
def test_basis_from_resolution_errors(lattices, edit, message):
    # every raise of `taylor_basis_from_resolution`, each on the triangle's atomic resolution with one edit
    lat = lattices["triangle"]
    _, C = atomic_lattice_resolution(lat, QQ)
    with pytest.raises(TaylorBasisError, match=f"^{re.escape(message)}$") as err:
        taylor_basis_from_resolution(edit(C), lat)
    assert err.value.m_id is None


def test_resolution_from_basis_rigid_either_choice(lattices):
    lat = lattices["rigid4"]
    base = faces("{}", "1", "2", "3", "4", "12", "23", "34", "14")
    for topchain in ("124+234", "123+134"):
        C = resolution_from_taylor_basis(lat, base + [ch(topchain)])
        rep = verify_resolution(C, lat)
        assert rep.is_resolution and rep.is_minimal


def test_basis_roundtrip_golden(ideals, lattices):
    for name in ("triangle", "four_gens", "rigid4", "cone3", "hexagon"):
        lat = lattices[name]
        _, C = atomic_lattice_resolution(lat, QQ)
        B = taylor_basis_from_resolution(C, lat)
        C2 = resolution_from_taylor_basis(lat, B)
        assert C.rank_vector() == C2.rank_vector()
        for i in range(1, len(C.levels)):
            assert C.frames[i] == C2.frames[i]


def test_basis_from_resolution_single_generator(ideals, lattices):
    T = taylor_resolution(ideals["principal"], QQ)
    B = taylor_basis_from_resolution(T)
    assert [format_chain(c) for c in B.chains()] == ["{}", "1"]


def test_basis_from_resolution_requires_generator_order(lattices):
    lat = lattices["triangle"]
    _, C = atomic_lattice_resolution(lat, QQ)
    swapped_levels = [list(lv) for lv in C.levels]
    swapped_levels[1][0], swapped_levels[1][1] = swapped_levels[1][1], swapped_levels[1][0]
    frames = list(C.frames)
    frames[2] = C.frames[2].submatrix([1, 0, 2], range(C.frames[2].ncols))
    swapped = MultigradedComplex(C.ideal, QQ, swapped_levels, frames)
    with pytest.raises(TaylorBasisError):
        taylor_basis_from_resolution(swapped, lat)


@pytest.mark.parametrize("char", [0, 2])
def test_every_producer_places_chains_by_one_rule(lattices, char):
    # a chain sits at the closure of its support; the empty chain at the bottom
    field = Field(char)
    for lat in lattices.values():
        atomic, C = atomic_lattice_resolution(lat, field)
        _, minimized = minimize_resolution(taylor_resolution(lat.ideal, field), lat)
        for basis in (atomic, minimized, taylor_basis_from_resolution(C, lat)):
            assert basis.flat() == TaylorBasis.of(lat, basis.chains()).flat()
        # resolution_from_taylor_basis keeps the given order within each level
        placed = TaylorBasis.of(lat, atomic.chains()).flat()
        R = resolution_from_taylor_basis(lat, atomic)
        assert [[(e.label, e.mdeg) for e in lv] for lv in R.levels] == [
            [(c, lat.element(m).mdeg) for m, c in placed if c.dim + 1 == h] for h in range(len(R.levels))]


def test_atomic_basis_lists_elements_by_id(lattices):
    # the walk creates the atoms' vertices in generator order, which need not be id order
    assert lattices["four_gens"].atom_ids == [5, 2, 1, 3]
    for lat in lattices.values():
        basis, _ = atomic_lattice_resolution(lat, QQ)
        ids = [m for m, _ in basis.flat()]
        assert ids == sorted(ids)


# -- verification ---------------------------------------------------------


def test_verify_poset_output_failure(lattices):
    from monres.posetres import poset_construction

    out = poset_construction(lattices["cone3"], QQ)
    assert not verify_resolution(out.homogenized, lattices["cone3"]).is_resolution
    assert not out.is_complex


def test_verify_taylor_nonminimal(ideals):
    T = taylor_resolution(ideals["triangle"], QQ)
    rep = verify_resolution(T)
    assert rep.is_resolution and not rep.is_minimal


def test_verify_detects_broken_frame(lattices):
    lat = lattices["triangle"]
    _, C = atomic_lattice_resolution(lat, QQ)
    broken = DenseMatrix.of(C.frames[2])
    broken[0, 0] = QQ.zero
    bad_frames = C.frames[:2] + [broken.sparse()] + C.frames[3:]
    bad = MultigradedComplex(C.ideal, QQ, C.levels, bad_frames)
    rep = verify_resolution(bad, lat)
    assert not rep.is_resolution


@pytest.mark.parametrize("name", ["cone3", "stable7"])
def test_verify_names_the_multidegree_where_exactness_fails(lattices, name):
    # dropping a top generator keeps a homogeneous complex, but the cycle it bounded
    # stops being a boundary at its multidegree; restrictions not above it stay exact
    lat = lattices[name]
    _, C = atomic_lattice_resolution(lat, QQ)
    top = len(C.levels) - 1
    for j, dropped in enumerate(C.levels[top]):
        keep = [k for k in range(len(C.levels[top])) if k != j]
        levels = C.levels[:top] + [[C.levels[top][k] for k in keep]]
        frames = C.frames[:top] + [C.frames[top].submatrix(range(C.frames[top].nrows), keep)]
        report = verify_resolution(MultigradedComplex(C.ideal, QQ, levels, frames), lat)
        assert report.homogeneous and report.complex and not report.is_resolution
        mdeg = dropped.mdeg.to_str(C.ideal.names)
        assert f"restricted frames exact: no (fails at {mdeg})" in report.summary().splitlines()


def test_verify_names_the_entry_where_homogeneity_fails(lattices):
    lat = lattices["stable7"]
    _, C = atomic_lattice_resolution(lat, QQ)
    # row 9 of map 3 has multidegree x*y^3, which does not divide column 2's x*y^2*z^2
    assert not C.levels[2][9].mdeg.divides(C.levels[3][2].mdeg)
    d = C.frames[3]
    bad = Matrix(QQ, [[QQ.one if (r, c) == (9, 2) else d[r, c] for c in range(d.ncols)]
                      for r in range(d.nrows)])
    report = verify_resolution(MultigradedComplex(C.ideal, QQ, C.levels, C.frames[:3] + [bad]), lat)
    assert not report.homogeneous and not report.is_resolution
    assert report.summary().splitlines()[-1] == "homogeneity fails at map 3 entry (9, 2)"
    # the first failing column in dense order, whatever order the row stores its entries in
    rows = [dict(row) for row in d.rows]
    rows[9] = {2: QQ.one, **rows[9], 1: QQ.one}
    C2 = MultigradedComplex(C.ideal, QQ, C.levels, C.frames[:3] + [Matrix.sparse(QQ, d.ncols, rows)])
    assert C2.homogeneity_failure() == (3, 9, 1)


def ref_first_inexact_element(C, lat):
    """The first non-bottom element whose restricted frame `restrict_to` finds inexact, or None."""
    return next((e.id for e in lat.elements
                 if e.id != lat.bottom and not C.restrict_to(e.mdeg).is_exact()), None)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_first_inexact_element_matches_restricted_complexes(lattices, char):
    field = Field(char)
    verdicts = set()
    for lat in lattices.values():
        _, C = atomic_lattice_resolution(lat, field)
        at, cases = [[lat.by_mdeg[e.mdeg.exponents] for e in lv] for lv in C.levels], [C]
        for i in range(1, len(C.levels)):
            # the first stored entry of map i, zeroed
            rows = [dict(row) for row in C.frames[i].rows]
            r = next(r for r, row in enumerate(rows) if row)
            del rows[r][min(rows[r])]
            frames = C.frames[:i] + [Matrix.sparse(field, C.frames[i].ncols, rows)] + C.frames[i + 1:]
            cases.append(MultigradedComplex(C.ideal, field, C.levels, frames))
        for D in cases:
            got = first_inexact_element(lat, field, at,
                                        lambda i, rows, cols: D.frames[i].submatrix(rows, cols).rank())
            assert got == ref_first_inexact_element(D, lat)
            verdicts.add(got is None)
        # an unknown rank stops the walk at the first element that needs one
        assert first_inexact_element(lat, field, at, lambda i, rows, cols: None) == min(
            e.id for e in lat.elements if e.id != lat.bottom)
    assert verdicts == {True, False}


def test_verify_json_roundtrip(lattices):
    _, C = atomic_lattice_resolution(lattices["four_gens"], QQ)
    C2 = MultigradedComplex.from_json(C.to_json())
    assert all(C.frames[i] == C2.frames[i] for i in range(1, len(C.levels)))
    assert verify_resolution(C2).is_resolution


# -- maximal approximation -------------------------------------------------


def test_approximation_betti_linear_fixed(lattices):
    lat = lattices["rigid4"]
    _, C = atomic_lattice_resolution(lat, QQ)
    A = maximal_approximation(C)
    assert all(A.frames[i] == C.frames[i] for i in range(1, len(C.levels)))


def test_approximation_fan5_columns(lattices):
    lat = lattices["fan5"]
    basis, C = atomic_lattice_resolution(lat, QQ)
    A = maximal_approximation(C)
    top = lat.top
    inner = lat.id_of_label({2, 3, 4, 5})
    # the top-level column keeps only its components at 12, 13; the inner
    # column keeps its triangle components
    col_labels = [(e.mdeg, j) for j, e in enumerate(C.levels[3])]
    for j, e in enumerate(C.levels[3]):
        label_elt = lat.id_of_label(frozenset(
            k for k in range(1, lat.r + 1) if lat.ideal.generator(k).divides(e.mdeg)))
        col = [A.frames[3][r, j] for r in range(A.frames[3].nrows)]
        nz_rows = {tuple(sorted(_elt_of(lat, C.levels[2][r].mdeg))) for r, v in enumerate(col)
                   if v != QQ.zero}
        if label_elt == top:
            assert nz_rows == {(1, 2), (1, 3)}
        else:
            assert label_elt == inner
            assert nz_rows == {(2, 3), (2, 4), (3, 4)}
    assert not A.is_complex()


def _elt_of(lat, mdeg):
    return frozenset(k for k in range(1, lat.r + 1) if lat.ideal.generator(k).divides(mdeg))


def test_approximation_three_petals_zero_column(lattices):
    lat = lattices["three_petals"]
    _, C = atomic_lattice_resolution(lat, QQ)
    A = maximal_approximation(C)
    assert len(A.levels[3]) == 1
    assert all(A.frames[3][r, 0] == QQ.zero for r in range(A.frames[3].nrows))
    assert A.is_complex()
    assert not A.restrict_to(lat.element(lat.top).mdeg).is_exact()


def test_approximation_idempotent(lattices):
    for name in ("four_gens", "fan5", "hexagon"):
        _, C = atomic_lattice_resolution(lattices[name], QQ)
        A = maximal_approximation(C)
        again = maximal_approximation(A)
        assert all(A.frames[i] == again.frames[i] for i in range(1, len(A.levels)))


# -- Scarf, change of basis, transport, bounds ------------------------------


def test_scarf_complex_examples(lattices):
    assert scarf_complex(lattices["triangle"]) == [(), (1,), (2,), (3,)]
    assert scarf_complex(lattices["rigid4"]) == [
        (), (1,), (2,), (3,), (4,), (1, 2), (1, 4), (2, 3), (3, 4)]
    two = lattices["two_gens"]
    assert set(scarf_complex(two)) == {tuple(sorted(two.element(i).A))
                                       for i in two.betti_poset_ids(QQ)}


def test_change_of_basis_identity(lattices):
    _, C = atomic_lattice_resolution(lattices["triangle"], QQ)
    Us = [Matrix.identity(QQ, len(lv)) for lv in C.levels]
    D = change_of_basis(C, Us)
    assert all(C.frames[i] == D.frames[i] for i in range(1, len(C.levels)))


def test_change_of_basis_family(lattices):
    # reproduce the one-parameter family of Taylor bases at the top of the
    # triangle ideal: both top elements may mix
    lat = lattices["triangle"]
    _, C = atomic_lattice_resolution(lat, QQ)
    U2 = Matrix(QQ, [[QQ.of(1), QQ.of(1)], [QQ.of(1), QQ.of(-1)]])
    Us = [Matrix.identity(QQ, len(C.levels[0])), Matrix.identity(QQ, len(C.levels[1])), U2]
    D = change_of_basis(C, Us)
    rep = verify_resolution(D, lat)
    assert rep.is_resolution and rep.is_minimal
    B = taylor_basis_from_resolution(D, lat)
    top_chains = B.chains_at(lat.top)
    assert len(top_chains) == 2
    for c in top_chains:
        assert support(c) == (1, 2, 3)


def test_change_of_basis_scalar_rescale(lattices):
    _, C = atomic_lattice_resolution(lattices["four_gens"], QQ)
    Us = []
    for i, lv in enumerate(C.levels):
        Us.append(Matrix.sparse(QQ, len(lv), [{j: QQ.of(2 + i + j)} for j in range(len(lv))]))
    D = change_of_basis(C, Us)
    for i in range(1, len(C.levels)):
        for r in range(C.frames[i].nrows):
            for c in range(C.frames[i].ncols):
                assert (C.frames[i][r, c] == QQ.zero) == (D.frames[i][r, c] == QQ.zero)


def test_change_of_basis_rejects_bad_matrices(lattices):
    _, C = atomic_lattice_resolution(lattices["triangle"], QQ)
    bad = Matrix(QQ, [[QQ.one, QQ.one, QQ.one],
                      [QQ.zero, QQ.one, QQ.zero],
                      [QQ.zero, QQ.zero, QQ.one]])
    with pytest.raises(ChangeOfBasisError):
        # level-1 elements have incomparable multidegrees: offdiagonal forbidden
        change_of_basis(C, [Matrix.identity(QQ, 1), bad])
    singular = Matrix.zero(QQ, 1, 1)
    with pytest.raises(ChangeOfBasisError):
        change_of_basis(C, [singular])


def test_transport_identity(lattices):
    lat = lattices["cone3"]
    _, C = atomic_lattice_resolution(lat, QQ)
    D = transport_via_betti_poset(C, lat, lat, QQ)
    assert all(C.frames[i] == D.frames[i] for i in range(1, len(C.levels)))


def test_transport_between_realizations(lattices):
    latM, latN = lattices["cone3"], lattices["cone3b"]
    assert betti_poset_label_map(latM, latN, QQ) is not None
    _, C = atomic_lattice_resolution(latM, QQ)
    D = transport_via_betti_poset(C, latM, latN, QQ)
    rep = verify_resolution(D, latN)
    assert rep.is_resolution and rep.is_minimal


def test_transport_rejects_mismatch(lattices):
    latM, latN = lattices["cone3"], lattices["triangle"]
    _, C = atomic_lattice_resolution(latM, QQ)
    with pytest.raises(ValueError):
        transport_via_betti_poset(C, latM, latN, QQ)


def test_projdim_bounds(lattices):
    assert projdim_bound(lattices["principal"]) == 1
    lat = lattices["triangle"]
    _, C = atomic_lattice_resolution(lat, QQ)
    assert C.length == 2 == projdim_bound(lat)
    for ideal in random_corpus(10, seed=31):
        lat = LcmLattice.from_ideal(ideal)
        _, C = atomic_lattice_resolution(lat, QQ)
        assert C.length <= projdim_bound(lat)


def test_prime_field_paths(lattices):
    for char in (2, 5):
        field = Field(char)
        lat = LcmLattice.from_ideal(lattices["four_gens"].ideal)
        T = taylor_resolution(lat.ideal, field)
        C, basis = minimize_resolution(T, lat)
        rep = verify_resolution(C, lat)
        assert rep.is_resolution and rep.is_minimal
        assert C.betti_table(lat) == lat.betti_numbers(field)
        _, A = atomic_lattice_resolution(lat, field)
        assert A.betti_table(lat) == C.betti_table(lat)


def test_frames_match_chain_boundaries(lattices):
    # the frame of every chain-labelled complex is the boundary expansion
    for name in ("four_gens", "hexagon", "split6"):
        lat = lattices[name]
        _, C = atomic_lattice_resolution(lat, QQ)
        M, _ = minimize_resolution(taylor_resolution(lat.ideal, QQ), lat)
        for cx in (C, M):
            for i in range(1, len(cx.levels)):
                lower = [e.label for e in cx.levels[i - 1]]
                for col, e in enumerate(cx.levels[i]):
                    combo = Chain.combine(
                        QQ, [(cx.frames[i][r, col], lower[r]) for r in range(len(lower))],
                        dim=i - 2)
                    assert boundary(e.label) == combo


# -- differential check of the cone lift against the linear solve ---------


def ref_lift_cycle_in_simplex(field, cycle, vertex_set):
    """Solve boundary(g) = cycle over every face of the simplex, free variables 0."""
    dim = cycle.dim + 1
    verts = sorted(vertex_set)
    cols_faces = list(combinations(verts, dim + 1))
    rows_faces = list(combinations(verts, dim)) if dim >= 1 else [()]
    index = {fc: i for i, fc in enumerate(rows_faces)}
    cols = []
    for fc in cols_faces:
        col = [field.zero] * len(rows_faces)
        for sub, coeff in boundary(Chain.from_face(field, fc)).terms.items():
            col[index[sub]] = coeff
        cols.append(col)
    bd = Matrix.from_columns(field, len(rows_faces), cols)
    rhs = [field.zero] * len(rows_faces)
    for fc, coeff in cycle.terms.items():
        if fc not in index:
            raise ValueError("cycle leaves the allowed simplex")
        rhs[index[fc]] = coeff
    sol = bd.solve(rhs)
    if sol is None:
        raise ValueError("cycle is not a boundary in the allowed simplex")
    return Chain(field, {fc: x for fc, x in zip(cols_faces, sol) if x != field.zero}, dim=dim)


def lift_outcome(lift, field, cycle, vertex_set):
    try:
        g = lift(field, cycle, vertex_set)
    except ValueError as err:
        return "error", str(err)
    return "ok", g.dim, list(g.terms.items())


@st.composite
def lift_cases(draw):
    """(field, chain, vertex set): boundaries, arbitrary chains, chains leaving the simplex."""
    field = Field(draw(st.sampled_from([0, 2, 32003])))
    verts = draw(st.frozensets(st.integers(1, 7), max_size=6))
    kind = draw(st.sampled_from(["boundary", "chain", "leaving"]))
    pool = sorted(verts) if kind != "leaving" else list(range(1, 9))
    size = draw(st.integers(0, 4)) + (1 if kind == "boundary" else 0)
    faces = list(combinations(pool, size))
    terms = {}
    if faces:
        for fc in draw(st.lists(st.sampled_from(faces), max_size=5)):
            terms[fc] = field.of(draw(st.integers(-3, 3)))
    c = Chain(field, terms, dim=size - 1)
    return field, boundary(c) if kind == "boundary" else c, verts


@settings(max_examples=300, deadline=None)
@given(case=lift_cases())
def test_cone_lift_matches_solve_reference(case):
    field, cycle, verts = case
    assert (lift_outcome(lift_cycle_in_simplex, field, cycle, verts)
            == lift_outcome(ref_lift_cycle_in_simplex, field, cycle, verts))


# -- differential check of the in-place cancellation against the dense loop --


def ref_consecutive_cancellation(C, i, q, p):
    """Cancel (q, p) of the degree-i map on copies of every frame, rebuilding frame i densely."""
    f = C.field
    if not (1 <= i <= C.length):
        raise ValueError(f"no map at degree {i}")
    A = C.frames[i]
    a = A[q, p]
    if a == f.zero:
        raise ValueError("cancellation entry is zero")
    if C.levels[i - 1][q].mdeg != C.levels[i][p].mdeg:
        raise ValueError("cancellation entry is not a unit: multidegrees differ")
    inv_a = f.inv(a)

    new_levels = [list(lv) for lv in C.levels]
    new_frames = list(C.frames)

    fp = C.levels[i][p]
    for v in range(A.ncols):
        if v == p or A[q, v] == f.zero:
            continue
        e = new_levels[i][v]
        if isinstance(e.label, Chain) and isinstance(fp.label, Chain):
            lbl = e.label.sub(fp.label.scale(f.mul(inv_a, A[q, v])))
        else:
            lbl = e.label
        new_levels[i][v] = MgBasisElement(lbl, e.mdeg, e.hdeg)

    keep_rows = [u for u in range(A.nrows) if u != q]
    keep_cols = [v for v in range(A.ncols) if v != p]
    corrected = DenseMatrix.zero(f, len(keep_rows), len(keep_cols))
    for ui, u in enumerate(keep_rows):
        for vi, v in enumerate(keep_cols):
            val = A[u, v]
            if A[u, p] != f.zero and A[q, v] != f.zero:
                val = f.sub(val, f.mul(f.mul(A[u, p], inv_a), A[q, v]))
            corrected.rows[ui][vi] = val
    new_frames[i] = corrected.sparse()
    if i + 1 < len(new_levels):
        B = C.frames[i + 1]
        new_frames[i + 1] = B.submatrix(keep_cols, range(B.ncols))
    if i - 1 >= 1:
        D = C.frames[i - 1]
        new_frames[i - 1] = D.submatrix(range(D.nrows), keep_rows)
    new_levels[i] = [new_levels[i][v] for v in keep_cols]
    new_levels[i - 1] = [new_levels[i - 1][u] for u in keep_rows]

    while len(new_levels) > 1 and not new_levels[-1]:
        new_levels.pop()
        new_frames.pop()
    return MultigradedComplex(C.ideal, f, new_levels, new_frames)


def ref_find_unit_entry(C):
    """First unit entry, rescanning every frame from degree 1."""
    z = C.field.zero
    for i in range(1, C.length + 1):
        fr = C.frames[i]
        for q in range(fr.nrows):
            mq = C.levels[i - 1][q].mdeg
            for p in range(fr.ncols):
                if fr[q, p] != z and C.levels[i][p].mdeg == mq:
                    return (i, q, p)
    return None


def ref_minimize_resolution(C, lat):
    cur = C
    while (hit := ref_find_unit_entry(cur)) is not None:
        cur = ref_consecutive_cancellation(cur, *hit)
    by_elt: dict = {}
    order = []
    for lv in cur.levels:
        for e in lv:
            m = lat.closure_id(support(e.label)) if not e.label.is_zero() else lat.bottom
            by_elt.setdefault(m, []).append(e.label)
            order.append((m, len(by_elt[m]) - 1))
    return cur, TaylorBasis(lat, [(m, by_elt[m][k]) for m, k in order])


def typed_labels(C):
    """Every label's terms, each coefficient with its type."""
    return [[{fc: (x, type(x)) for fc, x in e.label.terms.items()} for e in lv] for lv in C.levels]


def assert_same_complex(C, D):
    assert C.rank_vector() == D.rank_vector()
    assert C.levels == D.levels  # labels, multidegrees, homological degrees
    assert C.frames[1:] == D.frames[1:]
    # == takes 1 for Fraction(1): the value types are compared on their own
    assert [typed_entries(fr) for fr in C.frames[1:]] == [typed_entries(fr) for fr in D.frames[1:]]
    assert typed_labels(C) == typed_labels(D)
    assert C.render_text() == D.render_text() and C.to_json() == D.to_json()


@st.composite
def taylor_cases(draw, chars=(0, 2, 32003)):
    """(field, lattice): generated ideals with r <= 7, n <= 5, or a conftest label lattice."""
    field = Field(draw(st.sampled_from(chars)))
    if draw(st.booleans()):
        return field, LcmLattice.from_labels(LATTICES[draw(st.sampled_from(sorted(LATTICES)))])
    # counted down from the largest sizes, which hypothesis would otherwise rarely draw
    n, r = 5 - draw(st.integers(0, 3)), 7 - draw(st.integers(0, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        try:
            return field, LcmLattice.from_ideal(random_minimal_ideal(r, n, 3, rng))
        except RuntimeError:
            r -= 1  # no antichain of that size in the grid


@settings(max_examples=40, deadline=None)
@given(case=taylor_cases())
def test_minimize_matches_dense_reference(case):
    field, lat = case
    T = taylor_resolution(lat.ideal, field)
    C, basis = minimize_resolution(T, lat)
    D, ref_basis = ref_minimize_resolution(T, lat)
    assert_same_complex(C, D)
    assert basis.flat() == ref_basis.flat() and basis.by_elt == ref_basis.by_elt
    assert basis.to_text() == ref_basis.to_text()


@settings(max_examples=40, deadline=None)
@given(case=taylor_cases())
def test_taylor_basis_round_trip_rebuilds_the_atomic_resolution(case):
    # the basis read off the atomic frames, built back into a resolution: the same
    # levels (chains and multidegrees) and the same frames
    field, lat = case
    _, C = atomic_lattice_resolution(lat, field)
    assert_same_complex(resolution_from_taylor_basis(lat, taylor_basis_from_resolution(C, lat)), C)


SCALES = {0: [2, 3, -1, Fraction(-1, 2), Fraction(2, 3)], 32003: [2, 3]}


@settings(max_examples=40, deadline=None)
@given(case=taylor_cases(chars=sorted(SCALES)), data=st.data())
def test_minimize_matches_dense_reference_past_pivots_other_than_one(case, data):
    # each Taylor map times a nonzero constant: still a complex, with pivots other than +-1
    field, lat = case
    T = taylor_resolution(lat.ideal, field)
    frames = [None]
    for fr in T.frames[1:]:
        c = field.of(data.draw(st.sampled_from(SCALES[field.char])))
        frames.append(Matrix.sparse(field, fr.ncols, [{v: field.mul(c, x) for v, x in row.items()}
                                                      for row in fr.rows]))
    S = MultigradedComplex(T.ideal, field, T.levels, frames)
    assert S.is_complex()
    C, basis = minimize_resolution(S, lat)
    D, ref_basis = ref_minimize_resolution(S, lat)
    assert_same_complex(C, D)
    assert basis.flat() == ref_basis.flat()


def test_qq_resolution_values_are_in_normal_form(ideals, lattices):
    # an int when integral, else a Fraction: on the atomic frames and basis, and on the labels
    # and frames of a minimized Taylor resolution, also one in a basis e_v scaled to lam(v) e_v
    def normal(x):
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)

    lat = lattices["stable7"]
    B, C = atomic_lattice_resolution(lat, QQ)
    T = taylor_resolution(ideals["stable7"], QQ)
    # with this seed the raw products of the cancellation leave integral Fractions in a frame
    # and in a label, which only `complex()` puts back into normal form
    rng, scales = random.Random(10), [1, 2, 3, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(-1, 3)]
    lam = [[1]] + [[rng.choice(scales) for _ in lv] for lv in T.levels[1:]]
    S = MultigradedComplex(T.ideal, QQ, [[MgBasisElement(e.label.scale(lam[h][v]), e.mdeg, h)
                                          for v, e in enumerate(lv)] for h, lv in enumerate(T.levels)],
                           [None] + [Matrix.sparse(QQ, fr.ncols, [
                               {v: QQ.mul(x, QQ.mul(lam[h][v], QQ.inv(lam[h - 1][u]))) for v, x in row.items()}
                               for u, row in enumerate(fr.rows)]) for h, fr in enumerate(T.frames) if h])
    assert S.is_complex()
    minimal = [minimize_resolution(T, lat)[0], minimize_resolution(S, lat)[0]]
    values = [x for D in [C] + minimal for fr in D.frames[1:] for row in fr.rows for x in row.values()]
    values += [x for D in minimal for lv in D.levels for e in lv for x in e.label.terms.values()]
    values += [x for c in B.chains() for x in c.terms.values()]
    assert all(normal(x) for x in values) and any(type(x) is Fraction for x in values)


def cone_of_the_identity(D):
    """Cone(id_D): level n is D_n + D_{n-1}, d(a, b) = (da + b, -db); exact below every element."""
    f, lv = D.field, D.levels + [[]]

    def d(n):
        """The rows of d_n: D_n -> D_{n-1}; none at n = 0, zero rows above the top."""
        return [] if n == 0 else D.frames[n].rows if n < len(D.levels) else [{} for _ in lv[n - 1]]

    levels = [[MgBasisElement(f"{k}:{j}", e.mdeg, n) for k in (n, n - 1) if k >= 0 for j, e in enumerate(lv[k])]
              for n in range(len(lv))]
    frames: list = [None]
    for n in range(1, len(lv)):
        a = len(lv[n])
        # rows of D_{n-1}: d_n on the D_n columns and the identity on the D_{n-1} columns;
        # rows of D_{n-2}: -d_{n-1} on the D_{n-1} columns
        rows = [{**row, a + r: f.one} for r, row in enumerate(d(n))]
        rows += [{a + c: f.neg(x) for c, x in row.items()} for row in d(n - 1)]
        frames.append(Matrix.sparse(f, a + len(lv[n - 1]), rows))
    return MultigradedComplex(D.ideal, f, levels, frames)


KINDS = ["atomic", "minimized", "taylor", "top dropped", "cone of top dropped"]


@settings(max_examples=100, deadline=None)
@given(case=taylor_cases(), kind=st.sampled_from(KINDS))
def test_first_inexact_element_matches_the_rank_everywhere_walk(case, kind):
    # the walk ranks only where a basis element sits; the oracle ranks every restriction
    field, lat = case
    if kind in ("minimized", "taylor"):
        C = taylor_resolution(lat.ideal, field)
        C = C if kind == "taylor" else minimize_resolution(C, lat)[0]
    else:
        C = atomic_lattice_resolution(lat, field)[1]
    dropped = None
    if "dropped" in kind:
        # without its last basis element the top level leaves a cycle unkilled
        top, dropped = C.length, C.levels[C.length][-1]
        frame = C.frames[top].submatrix(range(C.frames[top].nrows), range(C.frames[top].ncols - 1))
        C = MultigradedComplex(C.ideal, field, C.levels[:top] + [C.levels[top][:-1]], C.frames[:top] + [frame])
    if kind.startswith("cone"):
        # F_{<=0} is exact, so elements without a basis element are exact whatever their homology
        C = cone_of_the_identity(C)
        assert C.is_complex() and C.homogeneity_failure() is None
    at = [[lat.by_mdeg[e.mdeg.exponents] for e in lv] for lv in C.levels]
    got = first_inexact_element(lat, field, at, lambda i, rows, cols: C.frames[i].submatrix(rows, cols).rank())
    assert got == ref_first_inexact_element(C, lat)
    assert got == (lat.by_mdeg[dropped.mdeg.exponents] if kind == "top dropped" else None)


@settings(max_examples=25, deadline=None)
@given(case=taylor_cases())
def test_each_cancellation_matches_dense_reference(case):
    field, lat = case
    cur = taylor_resolution(lat.ideal, field)
    while (hit := ref_find_unit_entry(cur)) is not None:
        assert find_unit_entry(cur) == hit
        nxt = ref_consecutive_cancellation(cur, *hit)
        assert_same_complex(consecutive_cancellation(cur, *hit), nxt)
        cur = nxt
    assert find_unit_entry(cur) is None


@settings(max_examples=30, deadline=None)
@given(case=taylor_cases())
def test_minimized_complex_survives_the_json_roundtrip(case):
    field, lat = case
    C, _ = minimize_resolution(taylor_resolution(lat.ideal, field), lat)
    R = MultigradedComplex.from_json(C.to_json())
    assert R.field == field and R.ideal.gens == C.ideal.gens
    assert [[(e.mdeg, e.hdeg) for e in lv] for lv in R.levels] == \
        [[(e.mdeg, e.hdeg) for e in lv] for lv in C.levels]
    assert [typed_entries(fr) for fr in R.frames[1:]] == [typed_entries(fr) for fr in C.frames[1:]]
    report = verify_resolution(R, lat)
    assert report.is_resolution and report.is_minimal


@pytest.mark.parametrize("i, q, p, message", [
    (2, 0, 2, "cancellation entry is zero"),
    (1, 0, 0, "cancellation entry is not a unit: multidegrees differ"),
    (0, 0, 0, "no map at degree 0"),
    (4, 0, 0, "no map at degree 4"),
])
def test_cancellation_error_messages(ideals, i, q, p, message):
    T = taylor_resolution(ideals["triangle"], QQ)  # frame 2 row {} col {23} is zero
    for cancel in (consecutive_cancellation, ref_consecutive_cancellation):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cancel(T, i, q, p)


def test_minimize_rescans_rows_the_correction_makes_units():
    # not homogeneous: cancelling (x, x) at row 1 turns the (y, y) entry of row 0 into a unit
    ideal, _ = parse_ideal_text("vars x y; gens x y")
    x, y = ideal.gens
    empty = Chain.from_face(QQ, ())
    levels = [[MgBasisElement(empty, y, 0), MgBasisElement(empty, x, 0)],
              [MgBasisElement(Chain.from_face(QQ, (1,)), x, 1),
               MgBasisElement(Chain.from_face(QQ, (2,)), y, 1)]]
    C = MultigradedComplex(ideal, QQ, levels, [None, Matrix(QQ, [[QQ.one, QQ.zero], [QQ.one, QQ.one]])])
    lat = LcmLattice.from_ideal(ideal)
    got, ref = minimize_resolution(C, lat)[0], ref_minimize_resolution(C, lat)[0]
    assert got.rank_vector() == ref.rank_vector() == [0]


def test_minimize_builds_one_matrix_per_level(monkeypatch):
    # no per-step frame copies: the emitted frames are the only matrices built;
    # every Matrix but a dense-input one comes from Matrix.sparse
    lat = LcmLattice.from_ideal(random_minimal_ideal(7, 4, 3, random.Random(5)))
    T = taylor_resolution(lat.ideal, QQ)
    sparse, init = Matrix.sparse, Matrix.__init__

    def matrices_built(minimize):
        built = []
        monkeypatch.setattr(Matrix, "sparse", staticmethod(lambda *a: built.append(a) or sparse(*a)))
        monkeypatch.setattr(Matrix, "__init__", lambda m, *a: built.append(a) or init(m, *a))
        C, _ = minimize(T, lat)
        monkeypatch.undo()
        return len(built), C

    count, C = matrices_built(minimize_resolution)
    ref_count, D = matrices_built(ref_minimize_resolution)
    assert C.rank_vector() == D.rank_vector() != T.rank_vector()
    assert count == len(C.levels) - 1 < len(T.levels) < ref_count


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", ["hexagon", "stable7", "wide6"])
def test_verify_reads_exactness_from_ranks(lattices, monkeypatch, name, char):
    # restricted exactness needs no echelon form and no kernel basis: each
    # map of the restricted frame at each element that carries a basis
    # element is ranked once, by forward elimination; the other elements read
    # the homology dims that the resolution's own walk cached
    lat, field = lattices[name], Field(char)
    _, C = atomic_lattice_resolution(lat, field)
    carriers = {b.mdeg.exponents for lv in C.levels for b in lv}
    maps = sum(C.restrict_to(e.mdeg).length for e in lat.elements if e.mdeg.exponents in carriers)
    # against the maps of every restriction: wide6 has a basis element at every element
    everywhere = sum(C.restrict_to(e.mdeg).length for e in lat.elements)
    assert (maps, everywhere) == {"hexagon": (46, 58), "stable7": (39, 82), "wide6": (43, 43)}[name]
    calls = {"rref": 0, "kernel_basis": 0, "rank": 0}

    def counting(attr, method):
        def wrapped(self):
            calls[attr] += 1
            return method(self)
        return wrapped

    for attr in calls:
        monkeypatch.setattr(Matrix, attr, counting(attr, getattr(Matrix, attr)))
    report = verify_resolution(C, lat)
    assert report.is_resolution and report.is_minimal
    assert calls == {"rref": 0, "kernel_basis": 0, "rank": maps}
