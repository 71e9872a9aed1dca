"""Mayer-Vietoris machinery: subcomplexes, comparison maps, both constructions."""

import re
import sys
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import monres.classify as classify_module
import monres.posetres as posetres
import monres.resolutions as resolutions
from monres.chains import Chain, boundary
from monres.classify import MAX_RLM_PARAMS
from monres.linalg import Field, Matrix
from monres.posetres import (HomologyBasis, SymbolicRlm, _assemble, _component_column,
                             _construction_levels, certified_constant_rank,
                             extract_basis_and_preimages, mv_connecting, poset_construction,
                             reduced_subcomplex, rlm_construction, rlm_symbolic, sigma_map,
                             sigma_preimage, Poly)
from monres.cli import main
from monres.resolutions import (MultigradedComplex, atomic_lattice_resolution, maximal_approximation,
                                verify_resolution)
from monres.vcomplex import (class_in_homology, complex_of_facets, in_complex, prune_facets,
                             reduced_cycles, reduced_homology, reduced_homology_dims)

from conftest import IDEALS, LATTICES, DenseMatrix, ch, random_corpus
from test_lattice import generated_lattices
from test_vcomplex import facet_lists, ref_faces_of


QQ = Field(0)


def rows(m):
    return [[m[r, c] for c in range(m.ncols)] for r in range(m.nrows)]


def q(*vals):
    return [QQ.of(v) for v in vals]


def sigma_dims(lat, field, m_id, sub_facets):
    """(dims of homology of the subcomplex, dims of homology of Delta_m)."""
    return reduced_homology_dims(complex_of_facets(field, sub_facets)), lat.homology_dims_at(m_id, field)


def intersection_facets(facets1, facets2):
    return tuple(prune_facets(tuple(sorted(set(a) & set(b))) for a in facets1 for b in facets2))


# -- subcomplexes -------------------------------------------------------


def test_reduced_subcomplex_i_fan5(lattices):
    lat = lattices["fan5"]
    inner = lat.id_of_label({2, 3, 4, 5})
    _, f1 = reduced_subcomplex(lat, QQ, inner, 1)
    assert set(f1) == {(2, 3), (2, 4), (3, 4)}
    _, f0 = reduced_subcomplex(lat, QQ, inner, 0)
    assert set(f0) == {(2,), (3,), (4,), (5,)}


def test_reduced_subcomplex_i_equals_full(lattices):
    lat = lattices["four_gens"]
    top = lat.top
    _, f1 = reduced_subcomplex(lat, QQ, top, 1)
    assert set(f1) == set(lat.simplicial_complex_at(top).facets)


def test_reduced_subcomplex_checks_rank(lattices):
    lat = lattices["triangle"]
    with pytest.raises(ValueError):
        reduced_subcomplex(lat, QQ, lat.atom_ids[0])


def test_sigma_iso_dimensions(lattices):
    # the inclusion of the maximal-Betti-element subcomplex never changes homology
    for name in ("triangle", "four_gens", "rigid4", "hexagon", "fan5", "wide6"):
        lat = lattices[name]
        for e in lat.elements:
            if e.rank < 2:
                continue
            _, facets = reduced_subcomplex(lat, QQ, e.id)
            sub, full = sigma_dims(lat, QQ, e.id, facets)
            assert sub == full


def test_sigma_i_surjective_dimensions(lattices):
    lat = lattices["cone3b"]
    top = lat.top
    _, facets = reduced_subcomplex(lat, QQ, top, 0)
    sub, full = sigma_dims(lat, QQ, top, facets)
    assert sub[0] == 2 and full[0] == 1  # strictly bigger: only surjective


def test_sigma_preimage_class(lattices):
    lat = lattices["cone3b"]
    top = lat.top
    hb = HomologyBasis.canonical(lat, QQ)
    rep = hb.classes_at(top, 0)[0]
    _, facets = reduced_subcomplex(lat, QQ, top, 0)
    z = sigma_preimage(lat, QQ, top, facets, rep)
    # z is a cycle of vertices, in the subcomplex, with the same class
    assert z.dim == 0
    assert hb.class_coords(top, z) == [QQ.one]


def test_sigma_preimage_of_cycle_already_inside(lattices):
    lat = lattices["four_gens"]
    top = lat.top
    hb = HomologyBasis.canonical(lat, QQ)
    rep = hb.classes_at(top, 1)[0]
    _, facets = reduced_subcomplex(lat, QQ, top)
    z = sigma_preimage(lat, QQ, top, facets, rep)
    assert hb.class_coords(top, z) == [QQ.one]


def test_sigma_preimage_keeps_a_top_level_cycle_inside_the_subcomplex(lattices):
    # Delta at the top of the triangle is three points: its H~_0 classes sit on
    # the complex's top level, and the atoms' subcomplex holds all of them
    lat = lattices["triangle"]
    for char in (0, 2, 32003):
        field = Field(char)
        cx = lat.complex_at(lat.top, field)
        _, facets = reduced_subcomplex(lat, field, lat.top, 0)
        for rep in lat.homology_at(lat.top, field)[0][1]:
            assert rep.dim + 1 == cx.length
            assert sigma_preimage(lat, field, lat.top, facets, rep) == rep


def ref_sigma_preimage(lat, field, m_id, sub_facets, cycle):
    """z = cycle + d(w), with d(w) the dense product of the whole boundary matrix and w."""
    cx = lat.complex_at(m_id, field)
    level = cycle.dim + 1
    faces = cx.labels[level] if level <= cx.length else []
    if not set(cycle.terms) <= set(faces):
        raise ValueError("cycle leaves the complex at m")
    outside = [i for i, fc in enumerate(faces) if not in_complex(fc, sub_facets)]
    w_mat = cx.differential(level + 1)
    sol = [field.zero] * w_mat.ncols
    if outside:
        rhs = [field.neg(cycle.terms.get(faces[i], field.zero)) for i in outside]
        sol = w_mat.submatrix(outside, range(w_mat.ncols)).solve(rhs)
        if sol is None:
            raise ValueError("no preimage in the subcomplex (comparison map not surjective?)")
    terms = dict(cycle.terms)
    for fc, v in zip(faces, DenseMatrix.of(w_mat).mul_vector(sol)):
        terms[fc] = field.add(terms.get(fc, field.zero), v)
    return Chain(field, terms, dim=cycle.dim)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_sigma_preimage_matches_the_dense_product(lattices, char):
    field = Field(char)
    moved = 0
    for lat in lattices.values():
        for e in lat.elements:
            if e.rank < 2:
                continue
            for d, (_, reps) in lat.homology_at(e.id, field).items():
                for i in (None, d):
                    _, facets = reduced_subcomplex(lat, field, e.id, i)
                    for rep in reps:
                        z = outcome(sigma_preimage, lat, field, e.id, facets, rep)
                        assert z == outcome(ref_sigma_preimage, lat, field, e.id, facets, rep)
                        moved += not all(in_complex(fc, facets) for fc in rep.terms)
    assert moved


# -- Mayer-Vietoris -----------------------------------------------------


def test_mv_connecting_hand_split():
    f = ch("12-13+23")
    out = mv_connecting(QQ, [(1, 2)], [(1, 3), (2, 3)], f)
    assert out == ch("-1+2")
    # the class in the intersection <1,2> is the connecting image
    inter = intersection_facets([(1, 2)], [(1, 3), (2, 3)])
    assert set(inter) == {(1,), (2,)}


def test_mv_connecting_entirely_inside():
    f = ch("12")
    assert mv_connecting(QQ, [(1, 2)], [(3,)], boundary(f)).is_zero()
    out = mv_connecting(QQ, [(1, 2)], [(3,)], ch("-1+2"))
    # f = c1 entirely in the first complex: delta is d(c1) = d(f) = 0
    assert out.is_zero()


def test_mv_connecting_zero_component():
    # a cycle living in the second complex has zero connecting image
    f = ch("45-46+56")
    out = mv_connecting(QQ, [(1, 2, 3)], [(4, 5), (4, 6), (5, 6)], f)
    assert out.is_zero()


def test_mv_connecting_rejects_stray_faces():
    with pytest.raises(ValueError):
        mv_connecting(QQ, [(1, 2)], [(2, 3)], ch("14"))


def test_mv_connecting_empty_face():
    # the empty face lies in every complex, even one with no facets, so it
    # always lands in c1, whose boundary is undefined
    for facets1, facets2 in (([(1, 2)], [(3,)]), ([], [(3,)]), ([], [])):
        with pytest.raises(ValueError, match="undefined"):
            mv_connecting(QQ, facets1, facets2, Chain.from_face(QQ, ()))


def test_sigma_map_empty_face_in_subcomplex_with_no_facets(lattices):
    lat = lattices["cone3b"]
    hb = HomologyBasis.canonical(lat, QQ)
    assert sigma_map(lat.top, (), Chain.from_face(QQ, ()), hb) == []
    with pytest.raises(ValueError, match="subcomplex"):
        sigma_map(lat.top, (), ch("1-2"), hb)


def test_mv_connecting_with_no_facets():
    # a complex with no facets still holds the empty face, and nothing else
    assert mv_connecting(QQ, [], [(1, 2)], ch("12")).is_zero()
    assert mv_connecting(QQ, [(1, 2)], [], ch("12")) == ch("2-1")
    with pytest.raises(ValueError, match="neither complex"):
        mv_connecting(QQ, [], [], ch("1"))


def ref_mv_connecting(field, facets1, facets2, f):
    """The split with both complexes' faces enumerated up front."""
    faces1, faces2 = ref_faces_of(facets1), ref_faces_of(facets2)
    c1_terms = {}
    for fc, coeff in f.terms.items():
        if fc in faces1:
            c1_terms[fc] = coeff
        elif fc not in faces2:
            raise ValueError(f"face {fc} lies in neither complex")
    c1 = Chain(field, c1_terms, dim=f.dim)
    return Chain.zero(field, f.dim - 1) if c1.is_zero() else boundary(c1)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]), facets1=facet_lists(), facets2=facet_lists(),
       data=st.data())
def test_mv_connecting_matches_face_enumeration(char, facets1, facets2, data):
    field = Field(char)
    dim = data.draw(st.integers(0, 3))
    pool = sorted(f for f in ref_faces_of(facets1 + facets2 + [(1, 2, 8, 9)]) if len(f) == dim + 1)
    faces = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=5))
    f = Chain(field, {fc: field.of(data.draw(st.integers(1, 5))) for fc in faces}, dim=dim)
    assert (outcome(mv_connecting, field, facets1, facets2, f)
            == outcome(ref_mv_connecting, field, facets1, facets2, f))


def test_mv_tie_break_invariance():
    # moving a shared face across the split changes d(c1) by a boundary in
    # the intersection: the class there is unchanged
    delta1 = [(1, 2), (2, 3)]
    delta2 = [(2, 3), (1, 3)]
    f = ch("12-13+23")
    shared = (2, 3)
    out1 = mv_connecting(QQ, delta1, delta2, f)
    c1_terms = {fc: co for fc, co in f.terms.items() if fc in {(1, 2), (2, 3)}}
    c1_alt = Chain(QQ, {fc: co for fc, co in c1_terms.items() if fc != shared}, dim=1)
    out2 = boundary(c1_alt)
    inter = intersection_facets(delta1, delta2)
    # classes in the intersection: compare [out1] = [out2]
    hom = reduced_homology(complex_of_facets(QQ, inter))
    reps = hom[0][1]
    assert (class_in_homology(complex_of_facets(QQ, inter), out1, reps)
            == class_in_homology(complex_of_facets(QQ, inter), out2, reps))


# -- the poset construction ----------------------------------------------


def test_poset_construction_cone3(lattices):
    out = poset_construction(lattices["cone3"], QQ)
    assert [len(l) for l in out.labels] == [1, 3, 2]
    assert rows(out.matrices[1]) == [q(1, 1, 1)]
    assert rows(out.matrices[2]) == [q(-1, 0), q(1, 0), q(0, 1)]
    assert not out.is_complex
    assert not out.is_minimal_resolution()


def test_poset_construction_rigid_is_resolution(lattices):
    out = poset_construction(lattices["rigid4"], QQ)
    assert out.is_minimal_resolution()


def test_poset_construction_betti_ranks(lattices):
    lat = lattices["hexagon"]
    out = poset_construction(lat, QQ)
    assert out.is_minimal_resolution()
    assert out.homogenized.betti_table(lat) == lat.betti_numbers(QQ)


def maximal_betti_below(lat, field, m, i=None):
    """The maximal nonbottom Betti elements strictly below m; with i, those
    with homology in dimension i - 1."""
    A = lat.element(m).A
    pool = [e for e in lat.elements if e.id != lat.bottom and e.A < A and lat.homology_dims_at(e.id, field)
            and (i is None or i - 1 in lat.homology_dims_at(e.id, field))]
    return [e.id for e in pool if not any(e.A < f.A for f in pool)]


def assert_joins_maximal_betti_below(lat, field, levels, nonzero, by_dim):
    """Each column at m reads the maximal Betti elements strictly below m (of
    B_d(m) in the rlm construction), and each nonzero entry (i, r, c) joins
    it to a class at one of them, or in degree 1 to the bottom."""
    gammas = {}
    for i in range(2, len(levels)):
        for m, d, _ in levels[i]:
            want = maximal_betti_below(lat, field, m, d if by_dim else None)
            assert reduced_subcomplex(lat, field, m, d if by_dim else None)[0] == want
            gammas[m, d] = want
    for i, r, c in nonzero:
        m, d, _ = levels[i][c]
        assert levels[i - 1][r][0] in (gammas[m, d] if i > 1 else [lat.bottom]), (i, r, c)


def assert_homogeneous_and_minimal(lat, field, out, by_dim=True):
    """A construction output is homogeneous and minimal, so verification's
    d^2 check is the complex test."""
    assert_joins_maximal_betti_below(lat, field, out.labels, (
        (i, r, c) for i in range(1, len(out.labels)) for r, row in enumerate(out.matrices[i].rows) for c in row),
        by_dim)
    assert out.homogenized.homogeneity_failure() is None and out.homogenized.is_minimal()
    assert out.is_complex == out.homogenized.is_complex()


def assert_outputs_homogeneous_and_minimal(lat, field):
    """The premise on the poset and canonical rlm constructions, on the rlm
    construction with the preimages extracted from the atomic resolution,
    and on every instance of the symbolic construction: an instance is
    nonzero only where a symbolic entry is."""
    assert_homogeneous_and_minimal(lat, field, poset_construction(lat, field), False)
    assert_homogeneous_and_minimal(lat, field, rlm_construction(lat, field))
    basis, _ = atomic_lattice_resolution(lat, field)
    hb, pre = extract_basis_and_preimages(lat, field, basis)
    assert_homogeneous_and_minimal(lat, field, rlm_construction(lat, field, hb, preimages=pre))
    sym = rlm_symbolic(lat, field, max_params=MAX_RLM_PARAMS)
    if sym is not None:
        assert_joins_maximal_betti_below(lat, field, sym.levels, (
            (i, r, c) for i in range(1, len(sym.levels))
            for r, row in enumerate(sym.matrices[i]) for c, p in enumerate(row) if not p.is_zero()), True)
        assert_homogeneous_and_minimal(lat, field, sym.evaluate({v: field.one for v in range(len(sym.params))}))


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_outputs_homogeneous_and_minimal_on_named_lattices(lattices, char):
    for lat in lattices.values():
        assert_outputs_homogeneous_and_minimal(lat, Field(char))


@settings(max_examples=40, deadline=None)
@given(case=generated_lattices(7))
def test_outputs_homogeneous_and_minimal_on_generated_lattices(case):
    field, lat = case
    assert_outputs_homogeneous_and_minimal(lat, field)


def test_outputs_homogeneous_and_minimal_with_explicit_preimages(lattices):
    lat = lattices["cone3b"]
    top, m12 = lat.top, lat.id_of_label({1, 2})
    hb = HomologyBasis.canonical(lat, QQ).with_chains({
        (top, 0): [ch("-1+3")], (m12, 0): [ch("-1+2")]})
    for chain in (ch("-1+3"), ch("-2+3")):
        assert_homogeneous_and_minimal(lat, QQ, rlm_construction(lat, QQ, hb, preimages={(top, 0, 0): chain}))
    lat = lattices["split6"]
    top, m123 = lat.top, lat.id_of_label({1, 2, 3})
    hb = HomologyBasis.canonical(lat, QQ).with_chains({(top, 1): [ch("45-46+56")], (top, 0): [ch("-1+4")]})
    pre = {(top, 1, 0): ch("45-46+56"), (top, 0, 0): ch("-1+4"), (m123, 0, 0): ch("-1+3")}
    assert_homogeneous_and_minimal(lat, QQ, rlm_construction(lat, QQ, hb, preimages=pre))


# -- construction outputs against the generic verification --------------


def construction_outputs(lat, field):
    """The poset and canonical rlm constructions, the rlm construction with
    the preimages extracted from the atomic resolution, and the symbolic
    construction at {} and at each {v: 1}."""
    yield poset_construction(lat, field)
    yield rlm_construction(lat, field)
    basis, _ = atomic_lattice_resolution(lat, field)
    hb, pre = extract_basis_and_preimages(lat, field, basis)
    yield rlm_construction(lat, field, hb, preimages=pre)
    sym = rlm_symbolic(lat, field, max_params=MAX_RLM_PARAMS)
    if sym is not None:
        yield sym.evaluate({})
        for v in range(len(sym.params)):
            yield sym.evaluate({v: field.one})


def assert_output_matches_verification(lat, out):
    """d^2, the verdict and the failing multidegree of a construction output
    equal those `verify_resolution` finds on its homogenized complex, the
    reference; d^2 also equals the dense products, which share no loop with
    either.  Returns the kind of output, for coverage."""
    report = verify_resolution(out.homogenized, lat)
    dense = [DenseMatrix.of(m) for m in out.matrices[1:]]
    assert out.is_complex == report.complex == all(a.mul(b).is_zero() for a, b in zip(dense, dense[1:]))
    assert out.is_minimal_resolution() == (report.is_resolution and report.is_minimal)
    if not out.is_complex:
        assert report.restriction_skipped == "not a homogeneous complex"
        return "not a complex"
    at = out.inexact_at
    assert (None if at is None else lat.element(at).mdeg.to_str(lat.ideal.names)) == report.restriction_failure
    return "resolution" if at is None else "inexact"


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_outputs_match_verification_on_named_lattices(lattices, char):
    kinds = Counter(assert_output_matches_verification(lat, out)
                    for lat in lattices.values() for out in construction_outputs(lat, Field(char)))
    assert set(kinds) == {"not a complex", "inexact", "resolution"}, kinds


@settings(max_examples=40, deadline=None)
@given(case=generated_lattices(7))
def test_outputs_match_verification_on_generated_lattices(case):
    field, lat = case
    for out in construction_outputs(lat, field):
        assert_output_matches_verification(lat, out)


def test_outputs_match_verification_with_explicit_preimages(lattices):
    lat = lattices["cone3b"]
    top, m12 = lat.top, lat.id_of_label({1, 2})
    hb = HomologyBasis.canonical(lat, QQ).with_chains({
        (top, 0): [ch("-1+3")], (m12, 0): [ch("-1+2")]})
    for chain in (ch("-1+3"), ch("-2+3")):
        assert_output_matches_verification(lat, rlm_construction(lat, QQ, hb, preimages={(top, 0, 0): chain}))
    lat = lattices["split6"]
    top, m123 = lat.top, lat.id_of_label({1, 2, 3})
    hb = HomologyBasis.canonical(lat, QQ).with_chains({(top, 1): [ch("45-46+56")], (top, 0): [ch("-1+4")]})
    pre = {(top, 1, 0): ch("45-46+56"), (top, 0, 0): ch("-1+4"), (m123, 0, 0): ch("-1+3")}
    assert_output_matches_verification(lat, rlm_construction(lat, QQ, hb, preimages=pre))


def test_only_the_display_builds_a_multigraded_complex(lattices, monkeypatch, tmp_path, capsys):
    # classify decides every output by d^2 and restricted exactness alone;
    # `monres poset` and `monres rlm` build the one complex they print
    built, verified = [], []
    init, verify = MultigradedComplex.__init__, resolutions.verify_resolution

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_verify(*args):
        verified.append(args)
        return verify(*args)

    monkeypatch.setattr(MultigradedComplex, "__init__", counted_init)
    for module in [m for name, m in sys.modules.items() if name.startswith("monres")]:
        if getattr(module, "verify_resolution", None) is verify:
            monkeypatch.setattr(module, "verify_resolution", counted_verify)
    for lat in lattices.values():
        for char in (0, 2, 32003):
            classify_module.classify(lat, Field(char))
    assert (len(built), len(verified)) == (0, 0)
    for name, text in IDEALS.items():
        path = tmp_path / f"{name}.ideal"
        path.write_text(text + "\n")
        for argv in (["poset", str(path)], ["rlm", str(path)], ["--json", "rlm", str(path)]):
            built.clear()
            assert main(argv) in (0, 2)
            assert (len(built), len(verified)) == (1, 0), (name, argv)
    capsys.readouterr()


def test_poset_equals_rlm_for_hm(lattices):
    # homologically monotonic: the two definitions coincide
    for name in ("triangle", "rigid4", "hexagon"):
        lat = lattices[name]
        a = poset_construction(lat, QQ)
        b = rlm_construction(lat, QQ)
        assert [len(l) for l in a.labels] == [len(l) for l in b.labels]
        for i in range(1, len(a.labels)):
            assert a.matrices[i] == b.matrices[i]


# -- the rlm construction --------------------------------------------------


def test_rlm_two_preimages_match_displays(lattices):
    lat = lattices["cone3b"]
    top = lat.top
    m12 = lat.id_of_label({1, 2})
    hb = HomologyBasis.canonical(lat, QQ).with_chains({
        (top, 0): [ch("-1+3")], (m12, 0): [ch("-1+2")]})
    out1 = rlm_construction(lat, QQ, hb, preimages={(top, 0, 0): ch("-1+3")})
    assert rows(out1.matrices[2]) == [q(-1, -1), q(1, 0), q(0, 1)]
    assert out1.is_minimal_resolution()
    out2 = rlm_construction(lat, QQ, hb, preimages={(top, 0, 0): ch("-2+3")})
    assert rows(out2.matrices[2]) == [q(-1, 0), q(1, -1), q(0, 1)]
    assert out2.is_minimal_resolution()


def test_rlm_rejects_bad_preimage(lattices):
    lat = lattices["cone3b"]
    top = lat.top
    with pytest.raises(ValueError):
        rlm_construction(lat, QQ, preimages={(top, 0, 0): ch("-1+2")})


def test_rlm_rejects_unusable_preimages(lattices):
    lat = lattices["cone3b"]
    top, atom = lat.top, lat.atom_ids[0]
    # keys that name no column: an atom, a dim without homology, j past the classes
    for key, chain in (((atom, -1, 0), Chain(QQ, {(): QQ.one})),
                       ((top, 1, 0), ch("12")), ((top, 0, 1), ch("-2+3"))):
        with pytest.raises(ValueError, match=re.escape(f"preimage at {key} names no construction column")):
            rlm_construction(lat, QQ, preimages={key: chain})
    # a usable key with a chain of the wrong dimension or outside the subcomplex
    for chain in (ch("12"), ch("-1+2"), ch("3")):
        with pytest.raises(ValueError, match=re.escape(f"explicit preimage at {(top, 0, 0)}")):
            rlm_construction(lat, QQ, preimages={(top, 0, 0): chain})


def test_extracted_preimages_name_columns(lattices):
    for name in ("triangle", "four_gens", "cone3b", "fan5"):
        lat = lattices[name]
        basis, _ = atomic_lattice_resolution(lat, QQ)
        _, pre = extract_basis_and_preimages(lat, QQ, basis)
        assert pre and all(d >= 0 and lat.element(m).rank >= 2 for m, d, _ in pre)


def test_rlm_four_gens_not_complex(lattices):
    out = rlm_construction(lattices["four_gens"], QQ)
    assert not out.matrices[2].mul(out.matrices[3]).is_zero()
    assert not out.is_complex


def test_rlm_split6_matrix(lattices):
    lat = lattices["split6"]
    top = lat.top
    m123 = lat.id_of_label({1, 2, 3})
    m12 = lat.id_of_label({1, 2})
    hb = HomologyBasis.canonical(lat, QQ).with_chains({
        (top, 1): [ch("45-46+56")],
        (top, 0): [ch("-1+4")],
        (m123, 0): [ch("-1+3")],
        (m12, 0): [ch("-1+2")],
        (lat.id_of_label({4, 5}), 0): [ch("-4+5")],
        (lat.id_of_label({4, 6}), 0): [ch("-4+6")],
        (lat.id_of_label({5, 6}), 0): [ch("-5+6")],
    })
    pre = {(top, 1, 0): ch("45-46+56"), (top, 0, 0): ch("-1+4"),
           (m123, 0, 0): ch("-1+3")}
    out = rlm_construction(lat, QQ, hb, preimages=pre)
    assert out.is_minimal_resolution()

    def label(m):
        return tuple(sorted(lat.element(m).A))

    # displayed psi_2 columns keyed by (block label, dim): rows are the atoms
    expected2 = {
        ((1, 2), 0): q(-1, 1, 0, 0, 0, 0),
        ((1, 2, 3), 0): q(-1, 0, 1, 0, 0, 0),
        ((4, 5), 0): q(0, 0, 0, -1, 1, 0),
        ((4, 6), 0): q(0, 0, 0, -1, 0, 1),
        ((5, 6), 0): q(0, 0, 0, 0, -1, 1),
        ((1, 2, 3, 4, 5, 6), 0): q(-1, 0, 0, 1, 0, 0),
    }
    atom_row = {r: lbl for r, (m, _, _) in enumerate(out.labels[1]) for lbl in [label(m)]}
    assert [atom_row[r] for r in range(6)] == [(i,) for i in range(1, 7)]
    for c, (m, d, _) in enumerate(out.labels[2]):
        assert out.matrices[2].column(c) == expected2[(label(m), d)]
    # displayed psi_3 column: +1/-1/+1 against the 45, 46, 56 rows, zero elsewhere
    expected3 = {((4, 5), 0): QQ.of(1), ((4, 6), 0): QQ.of(-1), ((5, 6), 0): QQ.of(1)}
    col = out.matrices[3].column(0)
    for r, (m, d, _) in enumerate(out.labels[2]):
        assert col[r] == expected3.get((label(m), d), QQ.zero)


def test_approximation_formula_on_corpus(lattices):
    for name in ("triangle", "four_gens", "rigid4", "cone3", "fan5", "hexagon"):
        lat = lattices[name]
        basis, C = atomic_lattice_resolution(lat, QQ)
        A = maximal_approximation(C)
        hb, pre = extract_basis_and_preimages(lat, QQ, basis)
        out = rlm_construction(lat, QQ, hb, preimages=pre)
        for i in range(1, len(C.levels)):
            assert out.matrices[i] == A.frames[i]


def test_rlm_symbolic_parameters(lattices):
    lat = lattices["four_gens"]
    sym = rlm_symbolic(lat, QQ)
    assert len(sym.params) == 1
    comps = sym.composites()
    nonzero = [p for mat in comps.values() for row in mat for p in row if not p.is_zero()]
    assert nonzero and all(p.is_const() for p in nonzero)
    canonical = sym.evaluate({})
    direct = rlm_construction(lat, QQ)
    for i in range(1, len(sym.levels)):
        assert canonical.matrices[i] == direct.matrices[i]


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", list(IDEALS) + list(LATTICES))
def test_rlm_symbolic_canonical_instance_is_rlm_construction(lattices, name, char):
    # classify reads the canonical instance off the symbolic construction
    lat, field = lattices[name], Field(char)
    canonical = rlm_symbolic(lat, field).evaluate({})
    direct = rlm_construction(lat, field)
    assert canonical.labels == direct.labels
    assert canonical.matrices[1:] == direct.matrices[1:]
    assert canonical.homogenized.to_json() == direct.homogenized.to_json()
    assert canonical.is_complex == direct.is_complex
    assert canonical.is_minimal_resolution() == direct.is_minimal_resolution()
    assert canonical.inexact_at == direct.inexact_at


def test_rlm_symbolic_split6_identically_complex(lattices):
    sym = rlm_symbolic(lattices["split6"], QQ)
    assert len(sym.params) >= 1
    comps = sym.composites()
    assert all(p.is_zero() for mat in comps.values() for row in mat for p in row)


# -- one canonical column per (class, subcomplex) -----------------------------


def ref_rlm_symbolic(lat, field, hb=None, max_params=None):
    """rlm_symbolic as it was before the basis kept its columns: each column's
    preimage solved again, and the subcomplex's cycles, their class coordinates
    and the kernel computed at every column."""
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    levels = _construction_levels(lat, hb)
    params, columns = [], {}
    for lbl in [lbl for lv in levels[2:] for lbl in lv]:
        m, d, j = lbl
        gammas, facets = reduced_subcomplex(lat, field, m, d)
        terms = [(Poly.const(field, field.one), sigma_preimage(lat, field, m, facets, hb.classes_at(m, d)[j]))]
        reps = reduced_cycles(complex_of_facets(field, facets), d)
        if reps:
            coeff = Matrix.from_columns(field, len(hb.classes_at(m, d)), [hb.class_coords(m, z) for z in reps])
            for k, vec in enumerate(coeff.kernel_basis().columns()):
                terms.append((Poly.var(field, len(params)), Chain.combine(field, list(zip(vec, reps)), dim=d)))
                params.append((m, d, j, k))
        if max_params is not None and len(params) > max_params:
            return None
        columns[lbl] = (gammas, terms)

    def column(lbl, row_index):
        gammas, terms = columns[lbl]
        col = [Poly(field) for _ in row_index]
        for t, z in terms:
            for r, v in enumerate(_component_column(lat, hb, z, gammas, row_index)):
                if v != field.zero:
                    col[r] = col[r].add(t.scale(v))
        return col

    return SymbolicRlm(levels, _assemble(field, levels, column, symbolic=True), params, hb, lat, field)


def ref_classify_rows(lat, field):
    """classify's rows with no column shared: the poset construction on a canonical
    basis of its own, and the rlm analysis's symbolic construction by `ref_rlm_symbolic`."""
    own_basis = classify_module.is_betti_linear
    with patch.object(classify_module, "is_betti_linear", lambda lat, field, hb: own_basis(lat, field)), \
            patch.object(classify_module, "rlm_symbolic", ref_rlm_symbolic):
        return classify_module.classify(lat, field).rows()


def poly_terms(matrices):
    return [[[p.terms for p in row] for row in mat] for mat in matrices[1:]]


def assert_shared_columns_change_nothing(lat, field):
    ref = ref_rlm_symbolic(lat, field)
    sym = rlm_symbolic(lat, field)
    assert sym.params == ref.params
    assert poly_terms(sym.matrices) == poly_terms(ref.matrices)
    for k in (0, len(ref.params) - 1, MAX_RLM_PARAMS):
        over = ref_rlm_symbolic(lat, field, max_params=k) is None
        assert (rlm_symbolic(lat, field, max_params=k) is None) == over
    # the three constructions on one basis, in classify's order, against each on its own
    hb = HomologyBasis.canonical(lat, field)
    assert poset_construction(lat, field, hb).matrices == poset_construction(lat, field).matrices
    assert poly_terms(rlm_symbolic(lat, field, hb).matrices) == poly_terms(ref.matrices)
    assert rlm_construction(lat, field, hb).matrices == rlm_construction(lat, field).matrices
    assert classify_module.classify(lat, field).rows() == ref_classify_rows(lat, field)
    return len(ref.params)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_shared_columns_change_nothing_on_named_lattices(lattices, char):
    field = Field(char)
    with_params = {name for name, lat in lattices.items() if assert_shared_columns_change_nothing(lat, field)}
    assert {"four_gens", "split6"} <= with_params


@settings(max_examples=40, deadline=None)
@given(case=generated_lattices(8))
def test_shared_columns_change_nothing_on_generated_lattices(case):
    field, lat = case
    assert_shared_columns_change_nothing(lat, field)


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", list(IDEALS) + list(LATTICES))
def test_classify_computes_each_column_once(lattices, monkeypatch, name, char):
    lat, field = lattices[name], Field(char)
    preimages, cycles = Counter(), []

    def counting_preimage(lat, field, m_id, sub_facets, cycle):
        preimages[m_id, sub_facets, cycle] += 1
        return sigma_preimage(lat, field, m_id, sub_facets, cycle)

    def counting_cycles(cx, d):
        cycles.append(d)
        return reduced_cycles(cx, d)

    monkeypatch.setattr(posetres, "sigma_preimage", counting_preimage)
    monkeypatch.setattr(posetres, "reduced_cycles", counting_cycles)
    classify_module.classify(lat, field)
    assert set(preimages.values()) <= {1}
    monkeypatch.undo()
    # the subcomplex's cycles only at the columns that get a parameter
    with_params = {p[:3] for p in rlm_symbolic(lat, field).params}
    assert len(cycles) == len(with_params)
    assert (name in ("four_gens", "split6")) <= bool(with_params)


def test_stored_columns_belong_to_one_basis(lattices):
    lat = lattices["cone3b"]
    top, m12 = lat.top, lat.id_of_label({1, 2})
    hb = HomologyBasis.canonical(lat, QQ)
    poset_construction(lat, QQ, hb)
    assert hb.columns
    given_chains = hb.with_chains({(top, 0): [ch("-1+3")], (m12, 0): [ch("-1+2")]})
    assert given_chains.columns == {} and hb.with_chains({}).columns == {}
    # an explicit preimage's column is never kept; the canonical ones are
    rlm_construction(lat, QQ, given_chains, preimages={(top, 0, 0): ch("-2+3")})
    assert given_chains.columns and (top, 0, 0) not in {lbl for lbl, _ in given_chains.columns}


# -- polynomial helpers -----------------------------------------------------


def test_poly_arithmetic():
    t0, t1 = Poly.var(QQ, 0), Poly.var(QQ, 1)
    p = t0.mul(t1).add(Poly.const(QQ, QQ.of(2))).sub(t0.scale(QQ.of(3)))
    assert p.evaluate({0: QQ.of(1), 1: QQ.of(4)}) == QQ.of(4 + 2 - 3)
    assert not p.is_const()
    assert p.variables() == {0, 1}
    assert Poly.const(QQ, QQ.of(5)).is_const()


def test_certified_constant_rank():
    t = Poly.var(QQ, 0)
    one = Poly.const(QQ, QQ.one)
    zero = Poly(QQ)
    # [[1, t], [0, 1]]: rank 2 for every t, certified via unit pivots
    rank, certified = certified_constant_rank(QQ, [[one, t], [zero, one]])
    assert (rank, certified) == (2, True)
    # [[t]]: rank depends on t: not certified
    rank, certified = certified_constant_rank(QQ, [[t]])
    assert not certified
    # [[1, t], [t, 1]]: after the unit pivot the residual is 1 - t^2: not certified
    rank, certified = certified_constant_rank(QQ, [[one, t], [t, one]])
    assert not certified


def test_sigma_map_wrapper(lattices):
    from monres.posetres import sigma_map

    lat = lattices["cone3b"]
    hb = HomologyBasis.canonical(lat, QQ)
    _, facets = reduced_subcomplex(lat, QQ, lat.top, 0)
    rep = hb.classes_at(lat.top, 0)[0]
    z = sigma_preimage(lat, QQ, lat.top, facets, rep)
    assert sigma_map(lat.top, facets, z, hb) == [QQ.one]
    with pytest.raises(ValueError):
        sigma_map(lat.top, ((1,), (2,)), ch("12"), hb)


def test_sigma_i_surjective_and_sufficient_iso(lattices):
    # the comparison map is always surjective (a preimage solve succeeds for
    # every class), and it is an isomorphism when no element outside the
    # cones of the maximal ones carries homology in that dimension
    from monres.vcomplex import reduced_homology

    for name in ("four_gens", "fan5", "wide6", "split6", "hexagon"):
        lat = lattices[name]
        hb = HomologyBasis.canonical(lat, QQ)
        for e in lat.elements:
            if e.rank < 2:
                continue
            hom = lat.homology_at(e.id, QQ)
            for d in hom:
                if d < 0:
                    continue
                gammas, facets = reduced_subcomplex(lat, QQ, e.id, d)
                for rep in hb.classes_at(e.id, d):
                    z = sigma_preimage(lat, QQ, e.id, facets, rep)  # must exist
                    assert hb.class_coords(e.id, z) == hb.class_coords(e.id, rep)
                stray = 0
                for x in lat.elements:
                    if x.id == lat.bottom or not lat.lt(x.id, e.id):
                        continue
                    if any(x.A <= lat.element(g).A for g in gammas):
                        continue
                    stray += lat.homology_at(x.id, QQ).get(d, (0,))[0]
                sub_dim = reduced_homology(complex_of_facets(QQ, facets)).get(d, (0,))[0]
                if stray == 0:
                    assert sub_dim == hom[d][0]
                else:
                    assert sub_dim >= hom[d][0]


def test_betti_linear_verdict_basis_invariant(lattices):
    # randomized homology bases never change whether F(L_M) resolves
    import random as _random

    from monres.vcomplex import reduced_homology

    rng = _random.Random(77)
    for name in ("rigid4", "cone3", "wide6", "hexagon"):
        lat = lattices[name]
        base = poset_construction(lat, QQ).is_minimal_resolution()
        for _ in range(3):
            data = {}
            for e in lat.elements:
                if e.id == lat.bottom:
                    continue
                hom = lat.homology_at(e.id, QQ)
                for d, (n, reps) in hom.items():
                    if d == -1:
                        continue
                    while True:
                        coeffs = [[QQ.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                        if Matrix(QQ, coeffs).rank() == n:
                            break
                    chains = []
                    for row in coeffs:
                        chains.append(Chain.combine(QQ, list(zip(row, reps)), dim=d))
                    data[(e.id, d)] = chains
            hb = HomologyBasis.canonical(lat, QQ).with_chains(data)
            assert poset_construction(lat, QQ, hb).is_minimal_resolution() == base
