"""Based complexes: homology with representatives and exact closures."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from monres.chains import Chain, boundary
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.resolutions import atomic_lattice_resolution
from monres.vcomplex import (BasedComplex, class_in_homology, complex_of_facets, exact_closure,
                             graph_homology_dims, in_complex, is_exact_closure_of, reduced_cycles,
                             reduced_homology, reduced_homology_dims)

from conftest import random_based_complex, random_corpus, typed_entries


QQ = Field(0)


def q(x):
    return QQ.of(x)


def test_hollow_triangle_homology():
    cx = complex_of_facets(QQ, [(1, 2), (1, 3), (2, 3)])
    mu, reps = cx.homology(2)
    assert mu == 1
    rep = reps[0]
    labels = cx.labels[2]
    coeffs = {labels[i]: v for i, v in enumerate(rep) if v != 0}
    assert coeffs == {(1, 2): q(1), (1, 3): q(-1), (2, 3): q(1)}


def test_full_simplex_exact():
    cx = complex_of_facets(QQ, [(1, 2, 3)])
    assert cx.is_exact()


def test_three_points_homology():
    cx = complex_of_facets(QQ, [(1,), (2,), (3,)])
    mu, _ = cx.homology(1)
    assert mu == 2


def test_reduced_homology_dict():
    hom = reduced_homology(complex_of_facets(QQ, [(1, 2), (3,)]))
    assert set(hom) == {0}
    assert hom[0][0] == 1
    empty_complex = reduced_homology(complex_of_facets(QQ, [()]))
    assert empty_complex[-1][0] == 1


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_class_in_homology_rejects_a_non_cycle(char):
    field = Field(char)
    one = field.one
    cx = complex_of_facets(field, [(1, 2), (1, 3), (2, 3)])
    non_cycles = [Chain.from_face(field, (1,)), Chain.from_face(field, (1, 2)),
                  Chain(field, {(1, 2): one, (1, 3): one})]
    # the boundary of 1+2 is 2 times the empty face: a cycle in GF(2) alone
    two_points = Chain(field, {(1,): one, (2,): one})
    if char == 2:
        assert class_in_homology(cx, two_points, reduced_cycles(cx, 0)) == []
    else:
        non_cycles.append(two_points)
    for c in non_cycles:
        with pytest.raises(ValueError, match="^not a cycle$"):
            class_in_homology(cx, c, reduced_cycles(cx, c.dim))


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_class_in_homology_takes_the_empty_chain_and_zero_chains(char):
    field = Field(char)
    three = field.of(3)
    # a chain of dimension -1 is a cycle: the class of 3 times the empty face
    empty = complex_of_facets(field, [])
    assert class_in_homology(empty, Chain.from_face(field, (), three), reduced_cycles(empty, -1)) == [three]
    cx = complex_of_facets(field, [(1, 2), (1, 3), (2, 3)])
    assert class_in_homology(cx, Chain.from_face(field, (), three), reduced_cycles(cx, -1)) == []
    for dim in (-1, 0, 1):
        assert class_in_homology(cx, Chain.zero(field, dim), reduced_cycles(cx, dim)) == \
            [field.zero] * len(reduced_cycles(cx, dim))


def test_exact_closure_of_exact_is_identity():
    cx = complex_of_facets(QQ, [(1, 2, 3)])
    V, added = exact_closure(cx)
    assert not added
    assert V.total_dim() == cx.total_dim()
    assert is_exact_closure_of(V, cx)


def test_exact_closure_rank_one_map():
    U = BasedComplex(QQ, [["e"], ["a", "b", "c"]],
                     [None, Matrix(QQ, [[q(1), q(1), q(1)]])])
    V, added = exact_closure(U)
    assert [V.level_dim(i) for i in range(V.length + 1)] == [1, 3, 2]
    assert sorted(added) == [2]
    assert len(added[2]) == 2
    assert V.is_exact()
    assert is_exact_closure_of(V, U)


def test_exact_closure_nearly_scarf_top():
    # complex at the top of a nearly Scarf lattice: one 1-cycle beyond the faces
    cx = complex_of_facets(QQ, [(1, 2, 3), (3, 4), (3, 5), (4, 5)])
    V, added = exact_closure(cx)
    assert sorted(added) == [3]
    assert len(added[3]) == 1
    assert is_exact_closure_of(V, cx)


def test_exact_closure_dimension_formula():
    from conftest import random_based_complex

    rng = random.Random(42)
    for _ in range(60):
        U = random_based_complex(rng, max_dim=6)
        mus = [U.homology(i)[0] for i in range(U.length + 2)]
        V, _ = exact_closure(U)
        assert V.level_dim(0) == U.level_dim(0)
        for i in range(0, U.length + 1):
            assert V.level_dim(i + 1) == U.level_dim(i + 1) + mus[i]
        assert is_exact_closure_of(V, U)
        # independent cross-check by rank-nullity on the same matrices
        for i in range(U.length + 1):
            d_i = U.differential(i)
            ker = U.level_dim(i) - (d_i.rank() if i > 0 else 0)
            im = U.differential(i + 1).rank()
            assert mus[i] == ker - im


def test_is_exact_closure_rejects_bigger():
    # the Taylor frame of three generators vs the subcomplex of points
    W = complex_of_facets(QQ, [(1, 2, 3)])
    U = complex_of_facets(QQ, [(1,), (2,), (3,)])
    assert not is_exact_closure_of(W, U)


def test_is_exact_closure_label_nesting():
    U = BasedComplex(QQ, [["x"]], [None])
    V = BasedComplex(QQ, [["y"]], [None])
    with pytest.raises(ValueError):
        is_exact_closure_of(V, U)


def test_is_exact_closure_checks_the_nesting():
    U = BasedComplex(QQ, [["e"], ["a"]], [None, Matrix(QQ, [[q(1)]])])
    other = BasedComplex(QQ, [["e"], ["a"]], [None, Matrix(QQ, [[q(2)]])])
    with pytest.raises(ValueError, match="^labels nested but differentials disagree$"):
        is_exact_closure_of(other, U)
    leaky = BasedComplex(QQ, [["e", "f"], ["a"]], [None, Matrix(QQ, [[q(1)], [q(1)]])])
    with pytest.raises(ValueError, match="^U is not closed under the ambient differential$"):
        is_exact_closure_of(leaky, U)
    # a repeated label matches each of its positions once, in order
    D = BasedComplex(QQ, [["e"], ["a", "a"]], [None, Matrix(QQ, [[q(1), q(2)]])])
    E = BasedComplex(QQ, [["e"], ["a", "a"], ["t"]],
                     [None, Matrix(QQ, [[q(1), q(2)]]), Matrix(QQ, [[q(2)], [q(-1)]])])
    assert not is_exact_closure_of(D, D) and is_exact_closure_of(E, D)


def test_exact_self_closure():
    U = BasedComplex(QQ, [["e"], ["f"]], [None, Matrix(QQ, [[q(1)]])])
    assert is_exact_closure_of(U, U)


# -- differential check against the greedy rank-per-candidate homology ----


def ref_homology(cx, i):
    """(dimension, representatives): kernel vectors kept when they raise the rank."""
    f = cx.field
    dim_i = cx.level_dim(i)
    if dim_i == 0:
        return 0, []
    if i == 0:
        kernel_cols = Matrix.identity(f, dim_i).columns()
    else:
        kernel_cols = cx.differential(i).kernel_basis().columns()
    d_up = cx.differential(i + 1)
    base = [d_up.column(j) for j in range(d_up.ncols)]
    rank = im_rank = Matrix.from_columns(f, dim_i, base).rank()
    chosen = []
    for k in kernel_cols:
        r = Matrix.from_columns(f, dim_i, base + chosen + [k]).rank()
        if r > rank:
            chosen.append(k)
            rank = r
    return len(kernel_cols) - im_rank, chosen


@settings(max_examples=150, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]),
       facets=st.lists(st.frozensets(st.integers(1, 6), min_size=1, max_size=4),
                       min_size=1, max_size=6))
def test_homology_matches_greedy_reference(char, facets):
    cx = complex_of_facets(Field(char), facets)
    for i in range(cx.length + 2):
        assert cx.homology(i) == ref_homology(cx, i)


@settings(max_examples=100, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]),
       facets=st.lists(st.frozensets(st.integers(1, 6), max_size=4), min_size=1, max_size=6))
def test_homology_dims_from_ranks(char, facets):
    cx = complex_of_facets(Field(char), facets)
    assert reduced_homology_dims(cx) == {d: n for d, (n, _) in reduced_homology(cx).items()}


# -- the rank route against homology computed without it -------------------


def truncated(cx):
    """cx without its top level: homology appears where the top map was nonzero."""
    return BasedComplex(cx.field, cx.labels[:-1], cx.maps[:-1])


def assert_rank_route_matches_reference(cx):
    assert cx.is_exact() == all(ref_homology(cx, i)[0] == 0 for i in range(cx.length + 1))
    for i in range(cx.length + 2):
        assert cx.homology(i) == ref_homology(cx, i)


@settings(max_examples=150, deadline=None)
@given(char=st.sampled_from([0, 2, 3, 32003]),
       facets=st.lists(st.frozensets(st.integers(1, 6), max_size=4), min_size=1, max_size=6))
def test_rank_route_matches_reference_on_facet_lists(char, facets):
    cx = complex_of_facets(Field(char), facets)
    assert_rank_route_matches_reference(cx)
    if cx.length:
        assert_rank_route_matches_reference(truncated(cx))


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_rank_route_matches_reference_on_restricted_frames(lattices, char):
    field = Field(char)
    seen_homology = False
    names = ("triangle", "four_gens", "rigid4", "hexagon", "cone3", "stable7", "fan5")
    for lat in [lattices[n] for n in names] + [LcmLattice.from_ideal(i) for i in random_corpus(6)]:
        _, C = atomic_lattice_resolution(lat, field)
        for e in lat.elements:
            if e.id == lat.bottom:
                continue
            frame = C.restrict_to(e.mdeg)
            assert frame.is_exact()
            assert_rank_route_matches_reference(frame)
            sub = truncated(frame)
            assert_rank_route_matches_reference(sub)
            seen_homology |= not sub.is_exact()
    assert seen_homology


def ref_is_exact_closure_of(V, U):
    """V exact, and U's kernel vectors, placed in V's coordinates, span V's kernel at each level."""
    f = V.field
    if not all(ref_homology(V, i)[0] == 0 for i in range(V.length + 1)):
        return False
    for i in range(V.length + 1):
        kv = Matrix.identity(f, V.level_dim(i)) if i == 0 else V.differential(i).kernel_basis()
        ku = Matrix.identity(f, U.level_dim(i)) if i == 0 else U.differential(i).kernel_basis()
        embedded = []
        for col in ku.columns():
            v = [f.zero] * V.level_dim(i)
            for val, lbl in zip(col, U.labels[i]):
                v[V.labels[i].index(lbl)] = val
            embedded.append(v)
        both = Matrix.from_columns(f, V.level_dim(i), embedded + kv.columns())
        if len(embedded) != kv.ncols or both.rank() != kv.ncols:
            return False
    return True


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_is_exact_closure_of_matches_kernel_reference(char):
    verdicts = set()
    for seed in range(40):
        U = random_based_complex(random.Random(seed), Field(char))
        V, _ = exact_closure(U)
        for big, small in [(V, U), (V, truncated(U)), (U, U), (U, truncated(U))]:
            verdict = is_exact_closure_of(big, small)
            assert verdict == ref_is_exact_closure_of(big, small)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- the closed-form simplicial builder against the Chain/boundary one ------


def ref_faces_of(facets):
    """All faces of the complex generated by `facets`, including the empty face."""
    out = {()}
    for fac in facets:
        fac = tuple(sorted(fac))
        for k in range(1, len(fac) + 1):
            out.update(combinations(fac, k))
    return out


def ref_complex_of_facets(field, facets):
    """Every face through `ref_faces_of`, each column from `boundary` of its face."""
    all_faces = ref_faces_of(facets)
    top = max(len(f) for f in all_faces)
    labels = [sorted(f for f in all_faces if len(f) == h) for h in range(top + 1)]
    maps = [None]
    for h in range(1, top + 1):
        index = {f: i for i, f in enumerate(labels[h - 1])}
        cols = []
        for f in labels[h]:
            col = [field.zero] * len(labels[h - 1])
            b = boundary(Chain.from_face(field, f))
            for sub, coeff in b.terms.items():
                col[index[sub]] = coeff
            cols.append(col)
        maps.append(Matrix.from_columns(field, len(labels[h - 1]), cols))
    return BasedComplex(field, labels, maps)


@st.composite
def facet_lists(draw):
    """Unsorted facets, with an optional repeat (reordered) and an optional nested face."""
    facets = draw(st.lists(st.lists(st.integers(1, 7), unique=True, max_size=5), max_size=4))
    if facets and draw(st.booleans()):
        facets.append(list(reversed(draw(st.sampled_from(facets)))))
    if facets and draw(st.booleans()):
        outer = draw(st.sampled_from(facets))
        facets.append(draw(st.lists(st.sampled_from(outer), unique=True)) if outer else [])
    return facets


@settings(max_examples=300, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]), facets=facet_lists())
@example(char=0, facets=[])
@example(char=2, facets=[()])
@example(char=32003, facets=[(3, 1, 2), (2, 1), (1, 2, 3)])
def test_complex_of_facets_matches_boundary_reference(char, facets):
    field = Field(char)
    cx = complex_of_facets(field, facets)
    ref = ref_complex_of_facets(field, facets)
    assert cx.labels == ref.labels
    assert len(cx.maps) == len(ref.maps) and cx.maps[0] is None
    for got, want in zip(cx.maps[1:], ref.maps[1:]):
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        assert typed_entries(got) == typed_entries(want)


def test_complex_of_facets_rejects_repeated_vertices():
    with pytest.raises(ValueError, match="repeated vertices"):
        complex_of_facets(QQ, [(1, 2), (1, 1, 2)])


@settings(max_examples=300, deadline=None)
@given(facets=facet_lists(), face=st.sets(st.integers(1, 8), max_size=4))
@example(facets=[], face=set())
@example(facets=[()], face=set())
@example(facets=[], face={1})
def test_in_complex_matches_face_enumeration(facets, face):
    all_faces = ref_faces_of(facets)
    face = tuple(sorted(face))
    assert in_complex(face, facets) == (face in all_faces)
    assert all(in_complex(f, facets) for f in all_faces)


# -- closed forms against the ranks -------------------------------------------

HOLLOW_TETRAHEDRON = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
# the 6-vertex real projective plane: every edge of K6 is in it, so it is not a flag complex
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


@settings(max_examples=300, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]),
       facets=st.one_of(
           st.lists(st.lists(st.integers(1, 8), unique=True, max_size=2), max_size=12),  # graphs
           facet_lists(),
           facet_lists().map(lambda facets: [[0, *f] for f in facets])))  # cones with apex 0
@example(char=0, facets=[()])
@example(char=2, facets=[(1,), (2,), (5,)])
@example(char=32003, facets=[(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (4, 6), (7,)])
@example(char=0, facets=[(1, 2), (2, 1), (1,), (2, 3), (3,), (4, 5), (1, 3)])
@example(char=2, facets=[(1, 2, 3), (3, 2, 1), (1, 2), (4,)])
@example(char=32003, facets=[(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4)])
@example(char=0, facets=[(0, *f) for f in RP2])
@example(char=0, facets=HOLLOW_TETRAHEDRON)
@example(char=0, facets=RP2)
@example(char=2, facets=RP2)
def test_closed_forms_match_the_ranks(char, facets):
    # a cone (a vertex in every facet) has no homology; a graph's is counted,
    # the same in every field; anything else is left to the ranks
    dims = reduced_homology_dims(complex_of_facets(Field(char), facets))
    if facets and set.intersection(*map(set, facets)):
        assert dims == {}
    assert graph_homology_dims(facets) == (dims if all(len(f) <= 2 for f in facets) else None)
