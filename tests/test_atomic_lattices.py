"""Every atomic lattice on at most 4 atoms as an oracle for the whole pipeline.

An atomic lattice on the atoms 1..r is a family of labels that holds the
empty set, every singleton and [r], and is closed under intersection;
`LcmLattice.from_labels` realises each one.  There are 545 such families
on 4 atoms, 50 up to a permutation of the atoms.
"""

from itertools import combinations, permutations

import pytest

from monres.classify import classify
from monres.lattice import LcmLattice
from monres.linalg import Field
from monres.resolutions import (atomic_lattice_resolution, minimize_resolution, taylor_resolution,
                                verify_resolution)

from test_classify import assert_monotonicity_scans_match
from test_posetres import (assert_output_matches_verification, assert_outputs_homogeneous_and_minimal,
                           construction_outputs)


def atomic_label_families(r):
    """Every atomic lattice on the atoms 1..r, as its set of labels.

    The sets of size 2 to r - 1 are chosen freely, and the choices closed
    under intersection are kept: meeting the empty set, a singleton or [r]
    gives a set already in the family.
    """
    atoms = range(1, r + 1)
    fixed = {frozenset(), frozenset(atoms)} | {frozenset([i]) for i in atoms}
    middle = [frozenset(c) for k in range(2, r) for c in combinations(atoms, k)]
    out = []
    for pick in range(2 ** len(middle)):
        chosen = [B for k, B in enumerate(middle) if pick >> k & 1]
        fam = fixed | set(chosen)
        if all(a & b in fam for a, b in combinations(chosen, 2)):
            out.append(fam)
    return out


def canonical_form(fam, r):
    """The least sorted label list over every permutation of the atoms."""
    return min(tuple(sorted(tuple(sorted(p[i - 1] for i in A)) for A in fam))
               for p in permutations(range(1, r + 1)))


def up_to_isomorphism(families, r):
    """One family per isomorphism class, the first in enumeration order."""
    classes = {}
    for fam in families:
        classes.setdefault(canonical_form(fam, r), fam)
    return list(classes.values())


LABELLED = {r: atomic_label_families(r) for r in range(1, 5)}
CLASSES = {r: up_to_isomorphism(LABELLED[r], r) for r in LABELLED}


def test_atomic_lattice_counts():
    assert [len(LABELLED[r]) for r in LABELLED] == [1, 1, 8, 545]
    assert [len(CLASSES[r]) for r in CLASSES] == [1, 1, 4, 50]


def assert_pipeline_agrees(lat, field):
    """The three Betti routes, the verified atomic resolution, the diagram,
    the constructions' homogeneity, and the lattice's JSON round trip."""
    table = lat.betti_numbers(field)
    _, C = atomic_lattice_resolution(lat, field)
    report = verify_resolution(C, lat)
    assert report.is_resolution and report.is_minimal
    assert C.betti_table(lat) == table
    M, _ = minimize_resolution(taylor_resolution(lat.ideal, field), lat)
    assert M.betti_table(lat) == table
    assert classify(lat, field).consistent()
    assert_outputs_homogeneous_and_minimal(lat, field)
    again = LcmLattice.from_json(lat.to_json())
    assert [e.A for e in again.elements] == [e.A for e in lat.elements]


@pytest.mark.parametrize("char", [0, 2])
def test_every_atomic_lattice_on_at_most_4_atoms(char):
    field = Field(char)
    for fam in (fam for r in CLASSES for fam in CLASSES[r]):
        assert_pipeline_agrees(LcmLattice.from_labels(fam), field)


@pytest.mark.parametrize("char", [0, 2])
def test_construction_outputs_match_verification_on_at_most_4_atoms(char):
    field = Field(char)
    for fam in (fam for r in CLASSES for fam in CLASSES[r]):
        lat = LcmLattice.from_labels(fam)
        for out in construction_outputs(lat, field):
            assert_output_matches_verification(lat, out)


@pytest.mark.parametrize("char", [0, 2])
def test_monotonicity_scans_on_every_labelled_lattice_on_at_most_4_atoms(char):
    field = Field(char)
    for fam in (fam for r in LABELLED for fam in LABELLED[r]):
        assert_monotonicity_scans_match(LcmLattice.from_labels(fam), field)
