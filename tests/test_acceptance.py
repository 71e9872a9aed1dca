"""Acceptance suite: one criterion per test, exact arithmetic throughout.

The terminal summary prints one PASS/FAIL line per criterion (see the
hook in conftest.py)."""

import random

import pytest

from monres.chains import Chain, boundary, support
from monres.classify import classify
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.posetres import (HomologyBasis, extract_basis_and_preimages,
                             poset_construction, rlm_construction)
from monres.resolutions import (atomic_lattice_resolution, maximal_approximation,
                                minimize_resolution, projdim_bound,
                                resolution_from_taylor_basis,
                                taylor_basis_from_resolution, taylor_resolution,
                                verify_resolution)
from monres.vcomplex import class_in_homology, complex_of_facets, exact_closure, is_exact_closure_of

from conftest import ch, random_based_complex, random_corpus


QQ = Field(0)

GOLDEN_TABLES = {
    "triangle": [1, 3, 2],
    "four_gens": [1, 4, 4, 1],
    "rigid4": [1, 4, 4, 1],
    "hexagon": [1, 6, 9, 6, 2],
}


def _totals(table):
    out: dict = {}
    for (i, _), n in table.items():
        out[i] = out.get(i, 0) + n
    return [out.get(i, 0) for i in range(max(out) + 1)]



@pytest.fixture(scope="module")
def corpus100():
    return [LcmLattice.from_ideal(i) for i in random_corpus(100, seed=1001)]


@pytest.fixture(scope="module")
def cc_resolutions(corpus100):
    """Minimized Taylor resolutions with their Taylor bases (criterion 4)."""
    out = []
    for lat in corpus100:
        C, basis = minimize_resolution(taylor_resolution(lat.ideal, QQ), lat)
        out.append((lat, C, basis))
    return out


@pytest.fixture(scope="module")
def golden_atomics(lattices):
    return {name: atomic_lattice_resolution(lattices[name], QQ)
            for name in GOLDEN_TABLES}


def test_criterion_1_golden_betti_tables(lattices, cc_resolutions, golden_atomics):
    for name, expected in GOLDEN_TABLES.items():
        lat = lattices[name]
        homology_route = lat.betti_numbers(QQ)
        C, _ = minimize_resolution(taylor_resolution(lat.ideal, QQ), lat)
        minimization_route = C.betti_table(lat)
        assert homology_route == minimization_route
        assert _totals(homology_route) == expected


def test_criterion_2_atomic_resolutions(lattices, golden_atomics):
    for name, expected in GOLDEN_TABLES.items():
        lat = lattices[name]
        _, C = golden_atomics[name]
        report = verify_resolution(C, lat)
        assert report.is_resolution and report.is_minimal
        assert C.betti_table(lat) == lat.betti_numbers(QQ)
        assert _totals(C.betti_table(lat)) == expected


def test_criterion_3_exact_closure_law():
    rng = random.Random(33)
    for _ in range(200):
        U = random_based_complex(rng, max_dim=8)
        mus = [U.homology(i)[0] for i in range(U.length + 2)]
        V, _ = exact_closure(U)
        # kernel criterion
        assert is_exact_closure_of(V, U)
        # dimension formula, exactly
        assert V.level_dim(0) == U.level_dim(0)
        for i in range(U.length + 1):
            assert V.level_dim(i + 1) == U.level_dim(i + 1) + mus[i]


def test_criterion_4_consecutive_cancellation_soundness(cc_resolutions):
    assert len(cc_resolutions) == 100
    for lat, C, _ in cc_resolutions:
        report = verify_resolution(C, lat)
        assert report.is_resolution and report.is_minimal
        assert C.betti_table(lat) == lat.betti_numbers(QQ)


def _check_taylor_basis_laws(lat, basis):
    for m in sorted(basis.by_elt):
        if m == lat.bottom:
            continue
        chains = basis.by_elt[m]
        if not chains:
            continue
        facets = lat.simplicial_complex_at(m).facets
        hom = lat.homology_at(m, QQ)
        by_dim: dict = {}
        for c in chains:
            by_dim.setdefault(c.dim - 1, []).append(boundary(c))
        for d, (count, reps) in hom.items():
            got = by_dim.get(d, [])
            assert len(got) == count
            coords = [class_in_homology(complex_of_facets(QQ, facets), b, reps) for b in got]
            assert Matrix.from_columns(QQ, count, coords).rank() == count
        for d in by_dim:
            assert d in hom
        if lat.is_scarf_multidegree(m):
            assert len(chains) == 1
            c = chains[0]
            assert c.faces() == [tuple(sorted(lat.element(m).A))]


def test_criterion_5_taylor_basis_laws(lattices, golden_atomics, cc_resolutions):
    for name in GOLDEN_TABLES:
        basis, _ = golden_atomics[name]
        _check_taylor_basis_laws(lattices[name], basis)
    for lat, _, basis in cc_resolutions:
        _check_taylor_basis_laws(lat, basis)


def test_criterion_6_round_trip_and_display(lattices, golden_atomics):
    for name in GOLDEN_TABLES:
        lat = lattices[name]
        _, C = golden_atomics[name]
        basis = taylor_basis_from_resolution(C, lat)
        C2 = resolution_from_taylor_basis(lat, basis)
        for i in range(1, len(C.levels)):
            assert C.frames[i] == C2.frames[i]
    # the displayed four-generator resolution, entry for entry
    lat = lattices["four_gens"]
    display_basis = [Chain.from_face(QQ, ())] + [ch(t) for t in
                     ("1", "2", "3", "4", "12", "13", "23", "24", "123")]
    C = resolution_from_taylor_basis(lat, display_basis)
    names = lat.ideal.names

    def s(i, r, c):
        from monres.resolutions import _format_s_entry

        return _format_s_entry(QQ, *C.s_entry(i, r, c), names)

    assert [[s(2, r, c) for c in range(4)] for r in range(4)] == [
        ["-c", "-d", "0", "0"],
        ["a*b", "0", "-d", "-b*d"],
        ["0", "a*b", "c", "0"],
        ["0", "0", "0", "a"],
    ]
    assert [s(3, r, 0) for r in range(4)] == ["d", "-c", "a*b", "0"]
    assert [s(1, 0, c) for c in range(4)] == ["a^2*b", "a*c", "a*d", "b*c*d"]


def test_criterion_7_poset_rlm_reproductions(lattices):
    def q(*vals):
        return [QQ.of(v) for v in vals]

    def rows(m):
        return [[m[r, c] for c in range(m.ncols)] for r in range(m.nrows)]

    # the three-generator cone: D(L_M) matches the display and is not a complex
    out = poset_construction(lattices["cone3"], QQ)
    assert rows(out.matrices[1]) == [q(1, 1, 1)]
    assert rows(out.matrices[2]) == [q(-1, 0), q(1, 0), q(0, 1)]
    assert not out.is_complex

    # both displayed G variants of (ab, ac, b^2c) verify
    lat = lattices["cone3b"]
    top, m12 = lat.top, lat.id_of_label({1, 2})
    hb = HomologyBasis.canonical(lat, QQ).with_chains(
        {(top, 0): [ch("-1+3")], (m12, 0): [ch("-1+2")]})
    out1 = rlm_construction(lat, QQ, hb, preimages={(top, 0, 0): ch("-1+3")})
    assert rows(out1.matrices[2]) == [q(-1, -1), q(1, 0), q(0, 1)]
    assert out1.is_minimal_resolution()
    out2 = rlm_construction(lat, QQ, hb, preimages={(top, 0, 0): ch("-2+3")})
    assert rows(out2.matrices[2]) == [q(-1, 0), q(1, -1), q(0, 1)]
    assert out2.is_minimal_resolution()

    # the four-generator ideal: psi_2 psi_3 != 0
    out3 = rlm_construction(lattices["four_gens"], QQ)
    assert not out3.matrices[2].mul(out3.matrices[3]).is_zero()
    assert not out3.is_complex

    # the split lattice: R matches the display after fixing the same bases
    lat = lattices["split6"]
    hb = HomologyBasis.canonical(lat, QQ).with_chains({
        (lat.top, 1): [ch("45-46+56")],
        (lat.top, 0): [ch("-1+4")],
        (lat.id_of_label({1, 2, 3}), 0): [ch("-1+3")],
        (lat.id_of_label({1, 2}), 0): [ch("-1+2")],
        (lat.id_of_label({4, 5}), 0): [ch("-4+5")],
        (lat.id_of_label({4, 6}), 0): [ch("-4+6")],
        (lat.id_of_label({5, 6}), 0): [ch("-5+6")],
    })
    pre = {(lat.top, 1, 0): ch("45-46+56"), (lat.top, 0, 0): ch("-1+4"),
           (lat.id_of_label({1, 2, 3}), 0, 0): ch("-1+3")}
    out4 = rlm_construction(lat, QQ, hb, preimages=pre)
    assert out4.is_minimal_resolution()
    expected2 = {
        ((1, 2), 0): q(-1, 1, 0, 0, 0, 0),
        ((1, 2, 3), 0): q(-1, 0, 1, 0, 0, 0),
        ((4, 5), 0): q(0, 0, 0, -1, 1, 0),
        ((4, 6), 0): q(0, 0, 0, -1, 0, 1),
        ((5, 6), 0): q(0, 0, 0, 0, -1, 1),
        ((1, 2, 3, 4, 5, 6), 0): q(-1, 0, 0, 1, 0, 0),
    }
    label = lambda m: tuple(sorted(lat.element(m).A))
    for c, (m, d, _) in enumerate(out4.labels[2]):
        assert out4.matrices[2].column(c) == expected2[(label(m), d)]
    expected3 = {((4, 5), 0): QQ.of(1), ((4, 6), 0): QQ.of(-1), ((5, 6), 0): QQ.of(1)}
    col = out4.matrices[3].column(0)
    for r, (m, d, _) in enumerate(out4.labels[2]):
        assert col[r] == expected3.get((label(m), d), QQ.zero)


def test_criterion_8_approximation_formula(lattices, golden_atomics):
    corpus = [LcmLattice.from_ideal(i) for i in random_corpus(50, seed=888)]
    jobs = [(lattices[name], golden_atomics[name]) for name in GOLDEN_TABLES]
    jobs += [(lat, atomic_lattice_resolution(lat, QQ)) for lat in corpus]
    for lat, (basis, C) in jobs:
        A = maximal_approximation(C)
        hb, pre = extract_basis_and_preimages(lat, QQ, basis)
        out = rlm_construction(lat, QQ, hb, preimages=pre)
        assert [len(l) for l in out.labels] == C.rank_vector()
        for i in range(1, len(C.levels)):
            assert out.matrices[i] == A.frames[i]


def test_criterion_9_classification_table(lattices, corpus100):
    expectations = {
        "rigid4": {"scarf": "no", "rigid": "yes", "homologically_monotonic": "yes",
                   "betti_linear": "yes"},
        "triangle": {"homologically_monotonic": "yes", "rigid": "no"},
        "cone3": {"betti_linear": "no", "nearly_hm": "yes"},
        "wide6": {"betti_linear": "yes", "strongly_homology_linear": "no"},
        "split6": {"strongly_homology_linear": "yes", "betti_linear": "no"},
        "four_gens": {"homology_linear": "no"},
    }
    for name, expected in expectations.items():
        rep = classify(lattices[name], QQ)
        for cls, verdict in expected.items():
            assert rep[cls].verdict == verdict, (name, cls, rep[cls])
    stable = classify(lattices["stable7"], QQ)
    assert stable["homology_linear"].verdict in ("no", "unknown")
    for lat in corpus100:
        rep = classify(lat, QQ)
        assert rep.consistent(), lat.ideal.to_text()


def test_criterion_10_bounds(corpus100, golden_atomics, lattices):
    jobs = [(lattices[name], golden_atomics[name][1]) for name in GOLDEN_TABLES]
    jobs += [(lat, atomic_lattice_resolution(lat, QQ)[1]) for lat in corpus100]
    for lat, C in jobs:
        assert C.length <= projdim_bound(lat)
        for e in lat.elements:
            if e.id == lat.bottom:
                continue
            for d in lat.homology_at(e.id, QQ):
                # H~_{i-1}(Delta_m) = 0 for i >= rank(m): nonzero dims stay below
                assert d + 1 < e.rank or (e.rank == 1 and d == -1)
