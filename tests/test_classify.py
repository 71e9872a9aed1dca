"""Classifier verdicts on the named examples and corpus consistency."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import monres.classify as classify_module
from monres.chains import Chain
from monres.classify import (IMPLICATIONS, MAX_RLM_PARAMS, ClassVerdict,
                             _certify_exactness_all_choices, analyse_rlm, classify,
                             is_homologically_monotonic, is_lattice_linear, is_nearly_hm,
                             lattice_linear_greedy)
from monres.lattice import LcmLattice
from monres.linalg import Field, Matrix
from monres.monomials import random_minimal_ideal
from monres.posetres import Poly, SymbolicRlm, rlm_symbolic
from monres.resolutions import ClosureChains, lift_cycle_in_simplex

from conftest import random_corpus
from test_lattice import generated_lattices


QQ = Field(0)


def verdicts(lat):
    rep = classify(lat, QQ)
    return {name: v for name, v, _ in rep.rows()}


def test_rigid4(lattices):
    v = verdicts(lattices["rigid4"])
    assert v["scarf"] == "no"
    assert v["rigid"] == "yes"
    assert v["homologically_monotonic"] == "yes"
    assert v["betti_linear"] == "yes"
    assert v["lattice_linear"] != "yes"  # known non-lattice-linear: never claimed


def test_triangle(lattices):
    v = verdicts(lattices["triangle"])
    assert v["homologically_monotonic"] == "yes"
    assert v["rigid"] == "no"
    assert v["scarf"] == "no"


def test_two_gens_scarf(lattices):
    v = verdicts(lattices["two_gens"])
    assert v["scarf"] == "yes"
    assert v["lattice_linear"] == "yes"


def test_cone3(lattices):
    v = verdicts(lattices["cone3"])
    assert v["betti_linear"] == "no"
    assert v["nearly_hm"] == "yes"
    assert v["nearly_scarf"] == "yes"
    assert v["homology_linear"] == "yes"


def test_four_gens_not_homology_linear(lattices):
    v = verdicts(lattices["four_gens"])
    assert v["homology_linear"] == "no"
    assert v["strongly_homology_linear"] == "no"


def test_wide6(lattices):
    v = verdicts(lattices["wide6"])
    assert v["betti_linear"] == "yes"
    assert v["strongly_homology_linear"] == "no"
    assert v["homology_linear"] == "yes"
    assert v["nearly_hm"] == "no"


def test_split6(lattices):
    v = verdicts(lattices["split6"])
    assert v["strongly_homology_linear"] == "yes"
    assert v["betti_linear"] == "no"
    assert v["nearly_hm"] == "no"
    assert v["homology_linear"] == "yes"


def test_nearly_scarf5_lattice_linear(lattices):
    v = verdicts(lattices["nearly_scarf5"])
    assert v["lattice_linear"] == "yes"
    assert v["nearly_scarf"] == "yes"
    assert v["homologically_monotonic"] == "no"


def test_stable7_never_homology_linear(lattices):
    v = verdicts(lattices["stable7"])
    assert v["homology_linear"] in ("no", "unknown")
    assert v["betti_linear"] == "no"


def test_flag4_nearly_hm_not_nearly_scarf(lattices):
    v = verdicts(lattices["flag4"])
    assert v["nearly_hm"] == "yes"
    assert v["nearly_scarf"] == "no"
    assert v["betti_linear"] == "no"


def test_hm_two_definitions_agree(lattices):
    # comparability form vs the equal-dimension incomparability form
    for name in ("triangle", "four_gens", "rigid4", "hexagon", "cone3", "split6", "wide6"):
        lat = lattices[name]
        direct = is_homologically_monotonic(lat, QQ).verdict == "yes"
        dims = {}
        for e in lat.elements:
            if e.id == lat.bottom:
                continue
            dims[e.id] = set(lat.homology_at(e.id, QQ))
        incomparable_form = True
        for m1, d1 in dims.items():
            for m2, d2 in dims.items():
                if m1 == m2 or not (d1 & d2):
                    continue
                if lat.lt(m1, m2) or lat.lt(m2, m1):
                    incomparable_form = False
        assert direct == incomparable_form


def test_rigid_implies_poset_resolution(lattices):
    from monres.posetres import poset_construction

    lat = lattices["rigid4"]
    assert classify(lat, QQ)["rigid"].verdict == "yes"
    assert poset_construction(lat, QQ).is_minimal_resolution()


def test_greedy_lattice_linear_runs(lattices):
    ok, _ = lattice_linear_greedy(lattices["nearly_scarf5"], QQ)
    assert ok
    ok, witness = lattice_linear_greedy(lattices["rigid4"], QQ)
    assert not ok and witness == lattices["rigid4"].top


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_unknown_lattice_linear_names_the_blocking_element(lattices, char):
    verdict = is_lattice_linear(lattices["rigid4"], Field(char))
    assert str(verdict) == "unknown (greedy run blocked at [1, 2, 3, 4])"


def test_corpus_diagram_consistency():
    for ideal in random_corpus(15, r_max=5, n_max=4, seed=300):
        lat = LcmLattice.from_ideal(ideal)
        rep = classify(lat, QQ)
        assert rep.consistent(), ideal.to_text()


def test_gf2_classification_runs(lattices):
    rep = classify(LcmLattice.from_ideal(lattices["triangle"].ideal), Field(2))
    assert rep["homologically_monotonic"].verdict == "yes"


# -- the symbolic analysis and its parameter budget --------------------------


@pytest.mark.parametrize("name", ["four_gens", "split6"])
def test_over_budget_skips_symbolic_analysis(lattices, monkeypatch, name):
    # past the budget only the canonical instance is built: verdicts may only
    # fall back to unknown, and none rests on a symbolic certificate
    lat = lattices[name]
    within = classify(lat, QQ)
    monkeypatch.setattr(classify_module, "MAX_RLM_PARAMS", 0)
    real, calls = classify_module.rlm_construction, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classify_module, "rlm_construction", counted)
    analysis = classify_module.analyse_rlm(lat, QQ)
    assert len(calls) == 1
    assert not (analysis.composites_zero or analysis.const_nonzero_entry
                or analysis.certified_all_choices)
    assert analysis.complex_breaking_point is None
    over = classify(lat, QQ)
    assert over.consistent()
    assert "symbolically" not in over["strongly_homology_linear"].witness
    for cls, verdict, _ in over.rows():
        assert verdict in (within[cls].verdict, "unknown"), cls


@pytest.mark.parametrize("char", [0, 32003])
def test_classify_within_budget_builds_no_separate_canonical_rlm(lattices, monkeypatch, char):
    # the canonical instance is rlm_construction, built once; the symbolic
    # construction reads its columns and never evaluates that instance again
    real, calls = classify_module.rlm_construction, []
    evaluate = SymbolicRlm.evaluate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def not_canonical(self, values):
        assert values, "the canonical instance evaluated again"
        return evaluate(self, values)

    monkeypatch.setattr(classify_module, "rlm_construction", counted)
    monkeypatch.setattr(SymbolicRlm, "evaluate", not_canonical)
    for name, lat in lattices.items():
        calls.clear()
        assert classify(lat, Field(char)).consistent(), name
        assert len(calls) == 1, name


# -- differential check against the stand-alone greedy run ----------------


def ref_lattice_linear_greedy(lat, field):
    """The run with its own element loop and one rank per candidate cycle."""
    master = ClosureChains(field)
    bot = master.add(Chain.from_face(field, ()), lat.bottom, [])
    for i, atom in enumerate(lat.atom_ids, start=1):
        master.add(Chain.from_face(field, (i,)), atom, [(bot, field.one)])
    for e in lat.elements:
        if e.rank < 2:
            continue
        idxs = [k for k in range(len(master.chains)) if lat.lt(master.elt[k], e.id)]
        U, labels = master.complex_on(idxs)
        covered = set(e.covers)
        for level in range(U.length + 1):
            mu, _ = U.homology(level)
            if mu == 0:
                continue
            cov_pos = [j for j, k in enumerate(labels[level]) if master.elt[k] in covered]
            d_i = U.differential(level)
            if level == 0:
                kernel_cols = Matrix.identity(field, len(cov_pos)).columns() if cov_pos else []
            else:
                kernel_cols = d_i.submatrix(range(d_i.nrows), cov_pos).kernel_basis().columns()
            embedded = []
            for col in kernel_cols:
                v = [field.zero] * U.level_dim(level)
                for val, j in zip(col, cov_pos):
                    v[j] = val
                embedded.append(v)
            d_up = U.differential(level + 1)
            base = [d_up.column(j) for j in range(d_up.ncols)]
            picked = []
            rank = Matrix.from_columns(field, U.level_dim(level), base).rank()
            for v in embedded:
                if len(picked) == mu:
                    break
                cand = Matrix.from_columns(field, U.level_dim(level), base + picked + [v])
                if cand.rank() > rank + len(picked):
                    picked.append(v)
            if len(picked) < mu:
                return False, e.id
            for v in picked:
                pairs = [(coeff, master.chains[k]) for coeff, k in zip(v, labels[level])]
                z = Chain.combine(field, pairs, dim=level - 1)
                g = lift_cycle_in_simplex(field, z, e.A)
                dexp = [(k, coeff) for coeff, k in zip(v, labels[level]) if coeff != field.zero]
                master.add(g, e.id, dexp)
    return True, None


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_greedy_matches_reference_on_named_lattices(lattices, char):
    field = Field(char)
    for name, lat in lattices.items():
        assert lattice_linear_greedy(lat, field) == ref_lattice_linear_greedy(lat, field), name


@settings(max_examples=50, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]), fewer_vars=st.integers(0, 3),
       fewer_gens=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_greedy_matches_reference_on_generated_ideals(char, fewer_vars, fewer_gens, seed):
    # sizes counted down from n = 5, r = 7, which hypothesis would otherwise rarely draw
    n, r = 5 - fewer_vars, 7 - fewer_gens
    rng = random.Random(seed)
    while True:
        try:
            ideal = random_minimal_ideal(r, n, 3, rng)
            break
        except RuntimeError:
            r -= 1  # no antichain of that size in the grid
    lat = LcmLattice.from_ideal(ideal)
    field = Field(char)
    assert lattice_linear_greedy(lat, field) == ref_lattice_linear_greedy(lat, field)


@pytest.mark.parametrize("name", ["rigid4", "hexagon"])
def test_exactness_certificate_needs_constant_ranks(lattices, name):
    lat = lattices[name]
    sym = rlm_symbolic(lat, QQ)
    assert _certify_exactness_all_choices(sym)
    # a parameter in one nonzero entry of map 2 leaves a rank that no constant pivot certifies
    mat = sym.matrices[2]
    r, c = next((r, c) for r, row in enumerate(mat) for c, p in enumerate(row) if not p.is_zero())
    mat[r][c] = mat[r][c].mul(Poly.var(QQ, 0))
    assert not _certify_exactness_all_choices(sym)


# -- the breaking point of the symbolic rlm construction ---------------------
#
# Each parameter lives in one column of one map, so every entry of a composite
# psi_{i-1} psi_i is multilinear.  With the variables of a least-degree term at
# 1 and every other at 0, every other term vanishes and the entry equals that
# term's coefficient: `analyse_rlm` takes its breaking point from there.


def assert_breaking_point_from_a_least_degree_term(lat, field):
    """Check the closed form's premise on every composite entry; True if one is nonzero."""
    sym = rlm_symbolic(lat, field, max_params=MAX_RLM_PARAMS)
    breaking = analyse_rlm(lat, field).complex_breaking_point
    if sym is None:
        assert breaking is None
        return False
    nonzero = False
    for mat in sym.composites().values():
        for p in (p for row in mat for p in row):
            assert all(len(set(k)) == len(k) for k in p.terms), p
            if p.is_zero():
                continue
            nonzero = True
            low = min(map(len, p.terms))
            for k in (k for k in p.terms if len(k) == low):
                assert p.evaluate({v: field.one for v in k}) == p.terms[k], (p, k)
    assert (breaking is not None) == nonzero
    # `analyse_rlm` names the breaking instance without building it
    assert breaking is None or not sym.evaluate(breaking).is_complex
    return nonzero


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_breaking_point_on_named_lattices(lattices, char):
    field = Field(char)
    broken = {name for name, lat in lattices.items()
              if assert_breaking_point_from_a_least_degree_term(lat, field)}
    assert broken == {"four_gens", "stable7", "wide6", "fan5"}


@settings(max_examples=60, deadline=None)
@given(case=generated_lattices(8))
def test_breaking_point_on_generated_lattices(case):
    field, lat = case
    assert_breaking_point_from_a_least_degree_term(lat, field)


# -- the monotonicity scans against scans over the whole lattice ---------------


def ref_is_homologically_monotonic(lat, field):
    """The scan over every nonbottom element, skipping those without homology."""
    dims = {e.id: lat.homology_dims_at(e.id, field) for e in lat.elements if e.id != lat.bottom}
    for m1, d1 in dims.items():
        if not d1:
            continue
        for m2, d2 in dims.items():
            if not d2 or not lat.lt(m1, m2):
                continue
            if max(d1) >= min(d2):
                return ClassVerdict(
                    "no",
                    f"{sorted(lat.element(m1).A)} < {sorted(lat.element(m2).A)} with dims {sorted(d1)} vs {sorted(d2)}",
                )
    return ClassVerdict("yes")


def ref_is_nearly_hm(lat, field):
    """The scan over every chain m1 < m2 < m3 of nonbottom elements."""
    dims = {e.id: lat.homology_dims_at(e.id, field) for e in lat.elements if e.id != lat.bottom}
    for m1, d1 in dims.items():
        for m2, d2 in dims.items():
            if not lat.lt(m1, m2):
                continue
            for i in set(d1) & set(d2):
                for m3, d3 in dims.items():
                    if lat.lt(m2, m3) and (i + 1) in d3:
                        return ClassVerdict(
                            "no",
                            f"{sorted(lat.element(m1).A)} < {sorted(lat.element(m2).A)} share dim {i}, "
                            f"{sorted(lat.element(m3).A)} has dim {i + 1}",
                        )
    return ClassVerdict("yes")


def assert_monotonicity_scans_match(lat, field):
    assert is_homologically_monotonic(lat, field) == ref_is_homologically_monotonic(lat, field)
    assert is_nearly_hm(lat, field) == ref_is_nearly_hm(lat, field)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_monotonicity_scans_match_reference_on_named_lattices(lattices, char):
    for lat in lattices.values():
        assert_monotonicity_scans_match(lat, Field(char))


@settings(max_examples=60, deadline=None)
@given(case=generated_lattices(8))
def test_monotonicity_scans_match_reference_on_generated_lattices(case):
    field, lat = case
    assert_monotonicity_scans_match(lat, field)
