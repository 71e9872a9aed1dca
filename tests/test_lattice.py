"""The lcm-lattice: labels, closure, covers, complexes, Betti poset."""

import operator
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import monres.lattice as lattice_module
from monres.chains import Chain, boundary
from monres.classify import classify, lattice_linear_greedy
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.monomials import Monomial, MonomialIdeal, parse_ideal_text, random_minimal_ideal
from monres.resolutions import (ClosureChains, atomic_lattice_resolution, closure_walk,
                                minimize_resolution, taylor_resolution, verify_resolution)
from monres.vcomplex import class_in_homology, complex_of_facets, reduced_homology

from conftest import LATTICES, random_corpus


QQ = Field(0)


def labels_of(lat):
    return {tuple(sorted(e.A)) for e in lat.elements}


def ranked_ids(lat):
    """The elements whose homology dims need ranks: Delta_m is no cone (no generator
    in every cover's label), and the smaller of N_m and Delta_m by sum_F 2^|F| has a
    facet of three or more vertices, so it is no graph."""
    ids = []
    for e in lat.elements:
        delta = [lat.element(c).A for c in e.covers]
        if e.id == lat.bottom or frozenset.intersection(*delta):
            continue
        nerve = [[c for c, A in zip(e.covers, delta) if v in A] for v in e.A]
        smaller = min((nerve, delta), key=lambda facets: sum(2 ** len(f) for f in facets))
        if max(map(len, smaller)) > 2:
            ids.append(e.id)
    return ids


def counting(calls, call):
    """`call`, appending its arguments to `calls` each time it runs."""
    def wrapped(*args):
        calls.append(args)
        return call(*args)
    return wrapped


def record_ranked_elements(monkeypatch):
    """The ids of the elements at which homology_dims_at reduces a model by ranks, in call order."""
    at, ranked = [], []

    def dims_at(self, m_id, field):
        at.append(m_id)
        try:
            return homology_dims_at(self, m_id, field)
        finally:
            at.pop()

    def reducing(cx):
        ranked.append(at[-1])
        return reduce(cx)

    homology_dims_at, reduce = LcmLattice.homology_dims_at, lattice_module.reduced_homology_dims
    monkeypatch.setattr(LcmLattice, "homology_dims_at", dims_at)
    monkeypatch.setattr(lattice_module, "reduced_homology_dims", reducing)
    return ranked


def test_cone3_labels(lattices):
    assert labels_of(lattices["cone3"]) == {(), (1,), (2,), (3,), (1, 2), (1, 2, 3)}


def test_four_gens_labels(lattices):
    assert labels_of(lattices["four_gens"]) == {
        (), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3), (2, 3, 4), (1, 2, 3, 4)}


def test_principal_chain(lattices):
    lat = lattices["principal"]
    assert len(lat) == 2
    assert lat.element(lat.top).rank == 1


def test_closure_examples(lattices):
    lat = lattices["four_gens"]
    assert lat.closure({1, 4}) == frozenset({1, 2, 3, 4})
    for e in lat.elements:
        assert lat.closure(e.A) == e.A
    assert lat.closure(()) == frozenset()


def test_meet_join_examples(lattices):
    lat = lattices["four_gens"]
    m12, m13 = lat.id_of_label({1, 2}), lat.id_of_label({1, 3})
    assert lat.element(lat.meet(m12, m13)).A == frozenset({1})
    assert lat.join(m12, lat.bottom) == m12
    hexagon = lattices["hexagon"]
    j = hexagon.join(hexagon.id_of_label({1, 2}), hexagon.id_of_label({3, 4}))
    assert hexagon.element(j).A == frozenset({1, 2, 3, 4})


def test_simplicial_complex_at(lattices):
    hexagon = lattices["hexagon"]
    sc = hexagon.simplicial_complex_at(hexagon.id_of_label({1, 2, 3, 4}))
    assert set(sc.facets) == {(1, 2, 3), (1, 4), (2, 3, 4)}
    top = hexagon.simplicial_complex_at(hexagon.top)
    assert set(top.facets) == {(1, 2, 3, 4), (1, 2, 3, 6), (1, 2, 5, 6),
                               (1, 4, 5, 6), (2, 3, 4, 5), (3, 4, 5, 6)}
    atom = hexagon.simplicial_complex_at(hexagon.atom_ids[0])
    assert atom.facets == ((),)
    with pytest.raises(ValueError):
        hexagon.simplicial_complex_at(hexagon.bottom)
    for at_bottom in (hexagon.homology_dims_at, hexagon.homology_at):
        with pytest.raises(ValueError, match="^no simplicial complex at the bottom element$"):
            at_bottom(hexagon.bottom, QQ)


@pytest.mark.parametrize("name", ["hexagon", "wide6"])
def test_complex_at_is_built_once_per_element(lattices, monkeypatch, name):
    # a fresh lattice: the session fixtures may already hold cached complexes
    lat = LcmLattice.from_ideal(lattices[name].ideal)
    calls, models, inside = [], [], []
    ranked = record_ranked_elements(monkeypatch)

    def counting(field, facets):
        # Delta_m built by complex_at, or the model homology_dims_at reduces
        (calls if inside else models).append(facets)
        return build(field, facets)

    def counting_complex_at(self, m_id, field):
        inside.append(m_id)
        try:
            return complex_at(self, m_id, field)
        finally:
            inside.pop()

    build, complex_at = lattice_module.complex_of_facets, LcmLattice.complex_at
    monkeypatch.setattr(lattice_module, "complex_of_facets", counting)
    monkeypatch.setattr(LcmLattice, "complex_at", counting_complex_at)
    # cones and graph models are counted: a model is built and ranked only at the others
    want = ranked_ids(lat)
    assert 0 < len(want) < len(lat) - 1
    classify(lat, QQ)
    first = len(calls)
    assert 0 < first <= len(lat) - 1 and sorted(ranked) == want and len(models) == len(want)
    classify(lat, QQ)
    assert len(calls) == first and sorted(ranked) == want and len(models) == len(want)
    for e in lat.elements:
        if e.id == lat.bottom:
            continue
        cx = lat.complex_at(e.id, QQ)
        assert cx is lat.complex_at(e.id, QQ)
        assert reduced_homology(cx) == lat.homology_at(e.id, QQ)
    assert len(calls) <= len(lat) - 1 and sorted(ranked) == want and len(models) == len(want)


def test_q_faces(lattices):
    lat = lattices["triangle"]
    q = lat.q_faces(lat.top)
    assert set(q) == {(1, 2), (1, 3), (2, 3), (1, 2, 3)}
    assert lat.q_faces(lat.atom_ids[0]) == [(1,)]
    # a Scarf multidegree has a single realizing subset
    lat2 = lattices["four_gens"]
    assert lat2.q_faces(lat2.id_of_label({1, 2})) == [(1, 2)]


def test_is_scarf_multidegree(lattices):
    lat = lattices["triangle"]
    assert not lat.is_scarf_multidegree(lat.top)
    for a in lat.atom_ids:
        assert lat.is_scarf_multidegree(a)
    wide = lattices["wide6"]
    assert not wide.is_scarf_multidegree(wide.id_of_label({1, 2, 3, 4, 5}))
    assert wide.is_scarf_multidegree(wide.id_of_label({3, 4, 6}))


def test_ranks(lattices):
    hexagon = lattices["hexagon"]
    assert hexagon.element(hexagon.bottom).rank == 0
    assert all(hexagon.element(a).rank == 1 for a in hexagon.atom_ids)
    # longest chain: {} < 1 < 12 < 123 < 1234 < 123456 (all labels present)
    assert hexagon.lattice_rank() == 5
    for e in hexagon.elements:
        assert e.rank <= len(e.A)


def test_betti_poset(lattices, QQ):
    hexagon = lattices["hexagon"]
    ids = hexagon.betti_poset_ids(QQ)
    dropped = {tuple(sorted(hexagon.element(e.id).A))
               for e in hexagon.elements if e.id not in ids}
    assert dropped == {(1, 2, 3), (1, 2, 6), (1, 5, 6), (2, 3, 4), (3, 4, 5), (4, 5, 6)}

    rigid4 = lattices["rigid4"]
    ids4 = rigid4.betti_poset_ids(QQ)
    dropped4 = {tuple(sorted(rigid4.element(e.id).A))
                for e in rigid4.elements if e.id not in ids4}
    assert dropped4 == {(1, 2, 3), (2, 3, 4)}

    scarf = lattices["two_gens"]
    assert set(scarf.betti_poset_ids(QQ)) == {e.id for e in scarf.elements}


def test_closure_operator_laws(lattices):
    rng = random.Random(17)
    lat = lattices["four_gens"]
    universe = list(range(1, lat.r + 1))
    for _ in range(40):
        A = frozenset(rng.sample(universe, rng.randint(0, lat.r)))
        B = frozenset(rng.sample(universe, rng.randint(0, lat.r)))
        cA, cB = lat.closure(A), lat.closure(B)
        assert A <= cA
        if A <= B:
            assert cA <= lat.closure(B)
        assert lat.closure(cA) == cA
        assert lat.closure(A | B) == lat.closure(cA | cB)


def test_cover_properties():
    for ideal in random_corpus(12, seed=7):
        lat = LcmLattice.from_ideal(ideal)
        for e in lat.elements:
            if e.rank < 2:
                continue
            assert len(e.covers) >= 2
            union = frozenset().union(*(lat.element(c).A for c in e.covers))
            assert union == e.A
            for i, a in enumerate(e.covers):
                for b in e.covers[i + 1:]:
                    assert lat.join(a, b) == e.id


def test_labels_match_order():
    for ideal in random_corpus(10, seed=23):
        lat = LcmLattice.from_ideal(ideal)
        for a in lat.elements:
            for b in lat.elements:
                assert a.mdeg.divides(b.mdeg) == (a.A <= b.A)


def test_betti_poset_two_routes_agree(lattices, QQ):
    for name in ("triangle", "four_gens", "rigid4", "cone3"):
        lat = lattices[name]
        C, _ = minimize_resolution(taylor_resolution(lat.ideal, QQ), lat)
        from_resolution = {m for (_, m) in C.betti_table(lat)} - {lat.bottom}
        assert from_resolution == set(lat.betti_poset_ids(QQ)) - {lat.bottom}


def test_from_labels_synthesis(lattices):
    wide = lattices["wide6"]
    assert labels_of(wide) == {tuple(sorted(l)) for l in [
        (), (1,), (2,), (3,), (4,), (5,), (6,),
        (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (3, 6), (4, 6), (5, 6),
        (1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6),
        (1, 2, 3, 4, 5, 6)]}
    with pytest.raises(ValueError):
        # 123 ^ 134 = {1,3} is missing: not intersection-closed
        LcmLattice.from_labels([(), (1,), (2,), (3,), (4,),
                                (1, 2, 3), (1, 3, 4), (1, 2, 3, 4)])


def test_json_roundtrip(lattices):
    lat = lattices["four_gens"]
    again = LcmLattice.from_json(lat.to_json())
    assert labels_of(again) == labels_of(lat)
    abstract = lattices["split6"]
    again2 = LcmLattice.from_json(abstract.to_json())
    assert labels_of(again2) == labels_of(abstract)


# -- differential check against the direct algorithms ---------------------
#
# The references below compute everything from the definitions: every
# subset of the generators, every pair and triple of labels.  They are
# exponential or cubic and serve only as the oracle for LcmLattice.


def ref_mdeg_counts(ideal):
    """mdeg exponents -> number of generator subsets with that lcm (the 2^r sweep)."""
    counts = Counter()
    for size in range(ideal.r + 1):
        for A in combinations(range(1, ideal.r + 1), size):
            counts[ideal.mdeg_of_subset(A).exponents] += 1
    return counts


def ref_covers(labels):
    """Each element's covers, from the strict-inclusion matrix by the triple loop."""
    n = len(labels)
    below = [[labels[i] < labels[j] for j in range(n)] for i in range(n)]
    return [[i for i in range(n) if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))]
            for j in range(n)]


def scan_covers(labels):
    """Each element's covers, by scanning the smaller labels of the elements before it.

    The labels are in a linear extension; the maximal smaller ones are found
    largest first.  Quadratic in the number of labels.
    """
    covers = []
    for j, Aj in enumerate(labels):
        maximal: list = []
        for i in sorted((i for i in range(j) if labels[i] < Aj), key=lambda i: -len(labels[i])):
            if not any(labels[i] < labels[k] for k in maximal):
                maximal.append(i)
        covers.append(sorted(maximal))
    return covers


def ref_closure(labels, r, A):
    """Smallest label containing A, by scanning every label."""
    out = frozenset(range(1, r + 1))
    for lbl in labels:
        if A <= lbl and lbl < out:
            out = lbl
    return out


def assert_matches_reference(lat, subsets):
    ideal = lat.ideal
    counts = ref_mdeg_counts(ideal)
    mdegs = sorted((Monomial(e) for e in counts), key=lambda m: (sum(m.exponents), m.exponents))
    labels = [frozenset(i for i in range(1, ideal.r + 1) if ideal.generator(i).divides(m))
              for m in mdegs]
    covers = ref_covers(labels)
    ranks = []
    for cov in covers:
        ranks.append(1 + max((ranks[i] for i in cov), default=-1))
    assert [e.id for e in lat.elements] == list(range(len(mdegs)))
    assert [e.mdeg for e in lat.elements] == mdegs
    assert [e.A for e in lat.elements] == labels
    assert [list(e.covers) for e in lat.elements] == covers
    assert [e.rank for e in lat.elements] == ranks
    for A in subsets:
        assert lat.closure(A) == ref_closure(labels, ideal.r, frozenset(A))
    for e in lat.elements:
        if e.id != lat.bottom:
            assert lat.is_scarf_multidegree(e.id) == (counts[e.mdeg.exponents] == 1)


@st.composite
def small_ideals(draw):
    """Ideals with r <= 9 minimal generators in n <= 5 variables, exponents <= 3."""
    # counted down from the largest sizes, which hypothesis would otherwise rarely draw
    n = 5 - draw(st.integers(0, 4))
    r = 9 - draw(st.integers(0, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        try:
            return random_minimal_ideal(r, n, 3, rng)
        except RuntimeError:
            r -= 1  # no antichain of that size in the grid


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lattice_matches_reference_on_generated_ideals(data):
    ideal = data.draw(small_ideals())
    subsets = data.draw(st.lists(st.frozensets(st.integers(1, ideal.r)), max_size=12))
    lat = LcmLattice.from_ideal(ideal)
    assert_matches_reference(lat, subsets)
    # the same lattice from its labels alone: one variable per nonbottom element
    assert_matches_reference(LcmLattice.from_labels(labels_of(lat)), subsets)


def test_covers_match_the_pairwise_scan_at_mid_size():
    lat = LcmLattice.from_ideal(random_minimal_ideal(30, 8, 3, random.Random(9)))
    assert len(lat) == 1534
    assert [list(e.covers) for e in lat.elements] == scan_covers([e.A for e in lat.elements])


def test_huge_exponents_build_the_same_lattice():
    # the exponent 10^9 stands where 2 does, in the same order within its column
    def shape(text):
        lat = LcmLattice.from_ideal(parse_ideal_text(text)[0])
        return {e.A: (e.rank, {lat.element(c).A for c in e.covers}) for e in lat.elements}, lat

    small, _ = shape("vars x y z; gens x^2*y y^2*z x*z^3")
    huge, lat = shape("vars x y z; gens x^1000000000*y y^2*z x*z^3")
    assert huge == small
    assert lat.element(lat.top).mdeg.exponents == (10 ** 9, 2, 3)


# -- the frozenset build ------------------------------------------------------
#
# LcmLattice builds its labels as generator bitmasks, adding one generator at
# a time to the join-closure.  The oracle below is the build it replaced: a
# breadth-first join of every element with every generator, and frozenset
# threshold tables that scan all r generators at each exponent.


def ref_join_closure(ideal):
    """The lcms of the generator subsets, by joining every element with every generator."""
    gens = [g.exponents for g in ideal.gens]
    mdegs = {ideal.one().exponents: None}
    frontier = list(mdegs)
    while frontier:
        new: dict = {}
        for m in frontier:
            for g in gens:
                j = tuple(map(max, m, g))
                if j not in mdegs:
                    new[j] = None
        mdegs.update(new)
        frontier = list(new)
    return mdegs


def ref_elements(ideal, mdegs):
    """(id, mdeg, A, rank, covers) of each lcm in `mdegs`, from frozenset threshold tables."""
    gens = [g.exponents for g in ideal.gens]
    upto, below = ([{x: frozenset(i for i, g in enumerate(gens, start=1) if op(g[k], x)) for x in {0, *col}}
                    for k, col in enumerate(zip(*gens))] for op in (operator.le, operator.lt))
    data = sorted(mdegs, key=lambda m: (sum(m), m))
    labels = [frozenset.intersection(*(upto[k][x] for k, x in enumerate(m))) for m in data]
    by_label = {A: i for i, A in enumerate(labels)}
    out = []
    for i, (m, A) in enumerate(zip(data, labels)):
        maximal: list = []
        for S in sorted({A & below[k][x] for k, x in enumerate(m) if x}, key=len, reverse=True):
            if not any(S < T for T in maximal):
                maximal.append(S)
        covers = tuple(sorted(by_label[S] for S in maximal))
        rank = 1 + max((out[c][3] for c in covers), default=-1)
        out.append((i, Monomial(m), A, rank, covers))
    return out


def assert_matches_frozenset_build(lat, mdegs=None):
    """`lat` is, element by element, the oracle's lattice of `mdegs` (by default, its ideal's lcms)."""
    ref = ref_elements(lat.ideal, ref_join_closure(lat.ideal) if mdegs is None else mdegs)
    assert [(e.id, e.mdeg, e.A, e.rank, e.covers) for e in lat.elements] == ref
    assert lat.by_label == {A: i for i, _, A, _, _ in ref}
    assert lat.by_mdeg == {m.exponents: i for i, m, _, _, _ in ref}


@settings(max_examples=60, deadline=None)
@given(ideal=small_ideals())
def test_build_matches_the_frozenset_build_on_generated_ideals(ideal):
    lat = LcmLattice.from_ideal(ideal)
    assert_matches_frozenset_build(lat)
    assert_matches_frozenset_build(LcmLattice.from_json(lat.to_json()))
    # the label family's synthesised ideal, both from the mdegs `from_labels` writes down
    # and from the join-closure of its generators
    family = LcmLattice.from_labels([e.A for e in lat.elements])
    assert family.by_label.keys() == lat.by_label.keys()
    assert_matches_frozenset_build(family, [e.mdeg.exponents for e in family.elements])
    assert_matches_frozenset_build(family)


@pytest.mark.parametrize("text", [
    "vars x y z; gens x^2*y*z",                                          # r = 1
    "vars x; gens x^5",                                                  # n = 1
    "vars a b c; gens a*b a*c b*c",                                      # every exponent 1
    "vars x y z w; gens x^2*y^2 x^2*z^2 y^2*z^2 x*w^2 y*w^2 z*w^2",      # repeated exponents
    "vars x y z; gens x^1000000000*y y^2*z x*z^3",                       # a huge exponent
    "vars x y; gens " + " ".join(f"x^{i}*y^{62 - i}" for i in range(63)),  # r = MAX_ATOMS
], ids=["r1", "n1", "squarefree", "repeated", "huge", "staircase63"])
def test_build_matches_the_frozenset_build_at_the_edges(text):
    lat = LcmLattice.from_ideal(parse_ideal_text(text)[0])
    assert_matches_frozenset_build(lat)
    if lat.r == lattice_module.MAX_ATOMS:
        # bit 63 stands for g_63; |L| is the bottom and one element per pair i <= j of ends
        assert len(lat) == 1 + 63 * 64 // 2
        assert lat.element(lat.atom_ids[-1]).A == frozenset([63])


def test_lattice_matches_reference_on_label_lattices():
    for labels in LATTICES.values():
        lat = LcmLattice.from_labels(labels)
        subsets = [frozenset(A) for size in range(lat.r + 1)
                   for A in combinations(range(1, lat.r + 1), size)]
        assert_matches_reference(lat, subsets)


# -- the homology model ------------------------------------------------------
#
# `homology_dims_at` reads the homology dimensions of Delta_m from Delta_m
# itself or from the nerve N_m of its facets (one vertex per cover of m),
# whichever is smaller.  The references below reduce Delta_m at every
# element and take the upper Koszul complex K^m = {W in supp m : m / x^W in I}
# from its definition: both have the same reduced homology as N_m, so all
# three must agree.

FIELDS = (Field(0), Field(2), Field(32003))


def dims_of(hom):
    return {d: n for d, (n, _) in hom.items()}


def ref_koszul_faces(ideal, m):
    """K^m = {W in supp m : m / x^W in I}, every subset tested against every generator."""
    supp = [v for v, e in enumerate(m.exponents) if e]
    faces = []
    for size in range(len(supp) + 1):
        for W in combinations(supp, size):
            quotient = Monomial(tuple(e - (v in W) for v, e in enumerate(m.exponents)))
            if ideal.contains_monomial(quotient):
                faces.append(W)
    return faces


def ref_betti_numbers(lat, field):
    """The homology-formula Betti table with Delta_m reduced at every element."""
    table = {(0, lat.bottom): 1}
    for e in lat.elements:
        if e.id != lat.bottom:
            for d, n in dims_of(reduced_homology(lat.complex_at(e.id, field))).items():
                table[(d + 2, e.id)] = n
    return table


def assert_models_agree(lat, field):
    """K^m (where supp m has at most 8 variables), Delta_m and the nerve agree at every element."""
    ref = ref_betti_numbers(lat, field)
    for e in lat.elements:
        if e.id == lat.bottom:
            continue
        delta = {i - 2: n for (i, m), n in ref.items() if m == e.id}
        if sum(1 for x in e.mdeg.exponents if x) <= 8:  # label lattices have one variable per element
            koszul = reduced_homology(complex_of_facets(field, ref_koszul_faces(lat.ideal, e.mdeg)))
            assert dims_of(koszul) == delta, (sorted(e.A), field)
        assert lat.homology_dims_at(e.id, field) == delta, (sorted(e.A), field)
    assert lat.betti_numbers(field) == ref


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.char}")
def test_homology_models_agree_on_named_lattices(lattices, field):
    for name, lat in lattices.items():
        assert_models_agree(LcmLattice.from_ideal(lat.ideal), field)


@st.composite
def generated_lattices(draw, max_r):
    """(field, lattice): a generated ideal with r <= max_r and n <= 5, or the
    label lattice of one, made by feeding its labels to `from_labels`."""
    field = Field(draw(st.sampled_from([f.char for f in FIELDS])))
    # sizes counted down from the largest, which hypothesis would otherwise rarely draw
    n, r = 5 - draw(st.integers(0, 3)), max_r - draw(st.integers(0, max_r - 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        try:
            lat = LcmLattice.from_ideal(random_minimal_ideal(r, n, 3, rng))
            break
        except RuntimeError:
            r -= 1  # no antichain of that size in the grid
    if draw(st.booleans()):
        return field, LcmLattice.from_labels(e.A for e in lat.elements)
    return field, lat


@settings(max_examples=40, deadline=None)
@given(case=generated_lattices(8))
def test_homology_models_agree_on_generated_ideals(case):
    field, lat = case
    assert_models_agree(lat, field)


@settings(max_examples=60, deadline=None)
@given(case=generated_lattices(7))
def test_betti_routes_agree(case):
    # whole resolutions against the homology formula, which reads each
    # element's dims from N_m or Delta_m; the per-element models are
    # compared with K^m in test_homology_models_agree_on_generated_ideals
    field, lat = case
    table = lat.betti_numbers(field)
    assert ref_betti_numbers(lat, field) == table
    _, C = atomic_lattice_resolution(lat, field)
    report = verify_resolution(C, lat)
    assert report.is_resolution and report.is_minimal
    assert C.betti_table(lat) == table
    M, _ = minimize_resolution(taylor_resolution(lat.ideal, field), lat)
    assert M.betti_table(lat) == table


@settings(max_examples=40, deadline=None)
@given(case=generated_lattices(7))
def test_chains_below_each_element_have_its_homology(case):
    # the lcm-lattice homology formula that closure_walk relies on: below
    # every element of rank >= 2, visited by the walk or not, the chains of
    # the atomic resolution have H_L = H~_{L-1}(Delta_m) at every level L
    field, lat = case
    run, stop = closure_walk(lat, field, lambda e, U, elts, level: U.cycles(level))
    assert stop is None
    for e in lat.elements:
        if e.rank < 2:
            continue
        U, _ = run.complex_on([k for k, m in enumerate(run.elt) if lat.lt(m, e.id)])
        dims = lat.homology_dims_at(e.id, field)
        assert all(U.homology_dim(L) == dims.get(L - 1, 0) for L in range(U.length + 2)), sorted(e.A)
        assert max(dims, default=-1) <= U.length, sorted(e.A)


@pytest.mark.parametrize("change", [1, -1], ids=["add", "drop"])
def test_atomic_resolution_names_the_element_whose_dims_disagree(lattices, monkeypatch, change):
    # the triangle's top has H~_0 of dimension 2; claim one class more or less there
    lat = LcmLattice.from_ideal(lattices["triangle"].ideal)
    real = LcmLattice.homology_dims_at

    def changed(self, m_id, field):
        dims = dict(real(self, m_id, field))
        if m_id == lat.top:
            dims[0] += change
        return dims

    monkeypatch.setattr(LcmLattice, "homology_dims_at", changed)
    with pytest.raises(ValueError, match=r"^element \[1, 2, 3\]: "):
        atomic_lattice_resolution(lat, QQ)


@pytest.mark.parametrize("char", [0, 32003])
def test_walks_and_homology_at_rank_nothing_once_the_dims_are_known(monkeypatch, char):
    lat, field = LcmLattice.from_ideal(random_minimal_ideal(10, 5, 3, random.Random(4))), Field(char)
    betti = [e.id for e in lat.elements if e.rank >= 2 and lat.homology_dims_at(e.id, field)]
    ranks, complexes = [], []

    monkeypatch.setattr(Matrix, "rank", counting(ranks, Matrix.rank))
    monkeypatch.setattr(ClosureChains, "complex_on", counting(complexes, ClosureChains.complex_on))
    atomic_lattice_resolution(lat, field)
    # one complex below each element with homology, and the resolution's own
    assert len(complexes) == len(betti) + 1 and len(betti) < len(lat) - 1 - len(lat.atom_ids)
    complexes.clear()
    ok, blocked = lattice_linear_greedy(lat, field)
    assert len(complexes) == (len(betti) if ok else betti.index(blocked) + 1)
    for e in lat.elements:
        if e.id != lat.bottom:
            lat.homology_at(e.id, field)
    assert ranks == []


# the Stanley-Reisner ideal of the 6-vertex real projective plane: its
# minimal non-faces, 10 triangles, as square-free cubics in 6 variables
RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def test_betti_numbers_of_rp2_depend_on_the_characteristic():
    # H~_1(RP^2) is Z/2, so GF(2) sees one more class at the top than QQ;
    # one lattice queried in both fields must answer each as a fresh one
    ideal = MonomialIdeal([f"x{v}" for v in range(1, 7)],
                          [Monomial(tuple(int(v in t) for v in range(1, 7)))
                           for t in combinations(range(1, 7), 3) if t not in RP2_FACETS])
    lat = LcmLattice.from_ideal(ideal)
    want = {0: [1, 10, 15, 6], 2: [1, 10, 15, 7, 1]}
    for char in (0, 2, 0):
        field = Field(char)
        table = lat.betti_numbers(field)
        assert table == LcmLattice.from_ideal(ideal).betti_numbers(field)
        totals = Counter(i for (i, _), n in table.items() for _ in range(n))
        assert [totals[i] for i in range(max(totals) + 1)] == want[char]
        C, _ = minimize_resolution(taylor_resolution(ideal, field), lat)
        assert C.betti_table(lat) == table


def test_betti_numbers_reduce_the_smaller_model_once(monkeypatch):
    # betti_numbers reduces a model by ranks alone at the elements that are neither
    # cones nor graph models, none on this lattice, and calls no complex_at
    lat = LcmLattice.from_ideal(random_minimal_ideal(9, 3, 3, random.Random(6)))
    picked, delta = [], []
    models = record_ranked_elements(monkeypatch)

    def counting_complex_at(self, m_id, field):
        delta.append(m_id)
        return complex_at(self, m_id, field)

    complex_at = LcmLattice.complex_at
    monkeypatch.setattr(lattice_module, "reduced_cycles",
                        counting(picked, lattice_module.reduced_cycles))
    monkeypatch.setattr(LcmLattice, "complex_at", counting_complex_at)
    table = lat.betti_numbers(QQ)
    assert delta == picked == [] and models == ranked_ids(lat) == []
    assert lat.betti_numbers(QQ) == table
    assert delta == picked == [] and models == []
    # representatives: {} at once where the dims vanish; where they do not,
    # Delta_m once and its cycles once at each level the dims name
    ids = [e.id for e in lat.elements if e.id != lat.bottom]
    zero = [m for m in ids if not lat.homology_dims_at(m, QQ)]
    betti = [m for m in ids if lat.homology_dims_at(m, QQ)]
    assert zero and betti
    assert all(lat.homology_at(m, QQ) == {} for m in zero) and delta == picked == []
    built = []
    monkeypatch.setattr(lattice_module, "complex_of_facets", counting(built, lattice_module.complex_of_facets))
    for m in betti:
        assert dims_of(lat.homology_at(m, QQ)) == lat.homology_dims_at(m, QQ)
    assert delta == betti and len(built) == len(betti) and models == []
    once = [(lat.complex_at(m, QQ), d) for m in betti for d in lat.homology_dims_at(m, QQ)]
    assert picked == once
    # a repeated call picks the cycles again, on the Delta_m that complex_at keeps
    for m in betti:
        assert dims_of(lat.homology_at(m, QQ)) == lat.homology_dims_at(m, QQ)
    assert len(built) == len(betti) and models == [] and picked == once * 2


def test_homology_dims_reduce_the_smaller_of_delta_and_the_nerve(monkeypatch):
    # the fan {}, {i}, {1, i}, top: at the top generator 1 lies in all k - 1
    # covers, so N_m is a (k - 2)-simplex while Delta_m is a star of k - 1 edges
    k = 20
    fan = LcmLattice.from_labels([()] + [(i,) for i in range(1, k + 1)]
                                 + [(1, i) for i in range(2, k + 1)] + [range(1, k + 1)])
    sizes = []

    def bounded(field, facets):
        facets = list(facets)
        sizes.append(sum(2 ** len(f) for f in facets))
        assert sizes[-1] <= 4 * k, "reduced the larger model"
        return build(field, facets)

    build = lattice_module.complex_of_facets
    monkeypatch.setattr(lattice_module, "complex_of_facets", bounded)
    for lat in (fan, LcmLattice.from_ideal(fan.ideal)):
        assert lat.homology_dims_at(lat.top, QQ) == {}
        assert lat.betti_numbers(QQ) == ref_betti_numbers(lat, QQ)
    # few variables and many generators: the nerve is the smaller; at this
    # top its 12 facets on 3 covers bound 72 faces, Delta_m's 3 facets 3 * 2^10,
    # but a generator lies in all 3 covers, so Delta_m is a cone and neither is built
    lat = LcmLattice.from_ideal(random_minimal_ideal(12, 3, 3, random.Random(6)))
    top = lat.element(lat.top)
    nerve = [[c for c in top.covers if v in lat.element(c).A] for v in top.A]
    assert sum(2 ** len(f) for f in nerve) == 72 and max(map(len, nerve)) == 3
    assert sum(2 ** len(lat.element(c).A) for c in top.covers) == 3072
    sizes.clear()
    assert lat.homology_dims_at(lat.top, QQ) == {} and sizes == []
    # at this top no generator lies in all 4 covers; the nerve's 8 facets, each
    # on 3 of them, bound 64 faces, Delta_m's 4 facets 288
    lat = LcmLattice.from_ideal(random_minimal_ideal(8, 4, 3, random.Random(6)))
    assert sum(2 ** len(lat.element(c).A) for c in lat.element(lat.top).covers) == 288
    assert lat.top in ranked_ids(lat)
    lat.homology_dims_at(lat.top, QQ)
    assert sizes == [64]


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_cones_and_graph_models_need_no_matrix(lattices, monkeypatch, char):
    # hexagon {3, 4, 5} covers {3, 4} and {4, 5}: a cone over 4.  The stable7 top's
    # covers {2, ..., 7}, {1, 2, 3, 5, 6, 7}, {1, ..., 6} make a cone over 2, 3, 5
    # and 6, and neither of its models is a graph.  The fan5 top's covers {1, 2},
    # {1, 3}, {2, 3, 4, 5} bound 24 faces; its nerve, 5 facets on the 3 covers
    # bounding 16, is a hollow triangle with two nested one-vertex facets
    hexagon, stable7, fan5 = (LcmLattice.from_ideal(lattices[name].ideal)
                              for name in ("hexagon", "stable7", "fan5"))
    field = Field(char)
    ranks, built = [], []
    monkeypatch.setattr(Matrix, "rank", counting(ranks, Matrix.rank))
    monkeypatch.setattr(lattice_module, "complex_of_facets", counting(built, lattice_module.complex_of_facets))
    assert hexagon.homology_dims_at(hexagon.id_of_label({3, 4, 5}), field) == {}
    assert stable7.homology_dims_at(stable7.top, field) == {}
    assert fan5.homology_dims_at(fan5.top, field) == {1: 1}
    assert ranks == built == []
    # the hexagon's top is neither, and is ranked
    assert hexagon.homology_dims_at(hexagon.top, field) == {2: 2}
    assert len(built) == 1 and ranks


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("make", [lambda lats: lats["hexagon"].ideal,
                                  lambda lats: random_minimal_ideal(9, 3, 3, random.Random(6))],
                         ids=["hexagon", "r9n3"])
def test_homology_at_builds_kernels_only_where_homology_lives(lattices, monkeypatch, make, char):
    # a fresh lattice: the session fixtures may already hold cached homology
    lat, field = LcmLattice.from_ideal(make(lattices)), Field(char)
    kernels = []

    def counting(self):
        kernels.append(self)
        return kernel_basis(self)

    kernel_basis = Matrix.kernel_basis
    monkeypatch.setattr(Matrix, "kernel_basis", counting)
    homs = [lat.homology_at(e.id, field) for e in lat.elements if e.id != lat.bottom]
    # H~_d sits at level d + 1 of Delta_m; level 0 (d = -1) needs no kernel
    assert len(kernels) == sum(1 for hom in homs for d in hom if d >= 0) > 0


# -- the homology-basis check -------------------------------------------------


def ref_is_homology_basis(lat, m_id, field, d, cycles):
    """The coordinate check: each class solved in `homology_at`'s basis, then one rank."""
    n, reps = lat.homology_at(m_id, field).get(d, (0, []))
    if len(cycles) != n:
        return False
    cx = lat.complex_at(m_id, field)
    coords = [class_in_homology(cx, c, reps) for c in cycles]
    return Matrix.from_columns(field, n, coords).rank() == n


def homology_basis_candidates(lat, field, m_id, rng):
    """(d, chains, expected) at m: True for a basis, False for none, None where a chain is no cycle."""
    cx, dims = lat.complex_at(m_id, field), lat.homology_dims_at(m_id, field)
    out = [] if 0 in dims else [(0, [], True)]

    def c():
        return field.of(rng.randint(-2, 2))

    for d, (n, reps) in lat.homology_at(m_id, field).items():
        bounds = [boundary(Chain.from_face(field, f)) for f in cx.labels[d + 2]] if d + 2 <= cx.length else []

        def bound():
            return rng.choice(bounds).scale(c()) if bounds else Chain.zero(field, d)

        # a unitriangular change of basis, each class moved by a boundary
        mixed = [Chain.combine(field, [(c(), w) for w in reps[i + 1:]], d).add(z).add(bound())
                 for i, z in enumerate(reps)]
        # the last class replaced by a combination of the others
        dependent = reps[:-1] + [Chain.combine(field, [(c(), w) for w in reps[:-1]], d).add(bound())]
        out += [(d, reps, True), (d, reps[::-1], True), (d, mixed, True), (d, dependent, False),
                (d, reps[:-1], False), (d, reps + reps[:1], False), (d + 1, [], d + 1 not in dims)]
        if d >= 0:
            f = cx.labels[d + 1][0]
            non_cycle = reps[0].add(Chain.from_face(field, f))
            # a face on the vertex r + 1, which no label holds
            outside = reps[0].add(Chain.from_face(field, f[:-1] + (len(lat.atom_ids) + 1,)))
            out += [(d, [non_cycle] + reps[1:], None), (d, reps[:-1] + [outside], None),
                    (d, [outside] + reps[1:-1] + [non_cycle], None) if n > 1 else (d, [], False),
                    (d, reps + [outside], False)]
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def assert_basis_check_matches_coordinates(lat, field, rng):
    for e in lat.elements:
        if e.id == lat.bottom:
            continue
        for d, chains, expected in homology_basis_candidates(lat, field, e.id, rng):
            got = outcome(lat.is_homology_basis, e.id, field, d, chains)
            assert got == outcome(ref_is_homology_basis, lat, e.id, field, d, chains), (sorted(e.A), d, chains)
            assert isinstance(got, tuple) if expected is None else got is expected, (sorted(e.A), d, chains)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.char}")
def test_homology_basis_check_matches_coordinates_on_named_lattices(lattices, field):
    for name, lat in sorted(lattices.items()):
        assert_basis_check_matches_coordinates(lat, field, random.Random(name))


@settings(max_examples=40, deadline=None)
@given(case=generated_lattices(7), seed=st.integers(0, 2**32 - 1))
def test_homology_basis_check_matches_coordinates_on_generated_lattices(case, seed):
    field, lat = case
    assert_basis_check_matches_coordinates(lat, field, random.Random(seed))
