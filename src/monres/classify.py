"""Membership of an ideal in the resolution-theoretic classes.

Verdicts are yes/no/unknown.  Classes defined by a quantifier over all
minimal resolutions or all construction choices (lattice-linear,
homology-linear, strongly homology-linear) are decided soundly:

- yes needs a certificate (a successful construction run, a membership
  implication, or a parameter-independence proof over the symbolic
  homology-approximation construction);
- no needs a witness (a failing construction instance, or a composite
  entry of the symbolic construction that is a nonzero constant and so
  breaks the complex condition for every choice);
- anything else stays unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from monres.lattice import LcmLattice
from monres.linalg import Field
from monres.posetres import (HomologyBasis, inexact_element, poset_construction, rlm_construction,
                             rlm_symbolic, certified_constant_rank)
# lift_cycle_in_simplex is only re-exported: bench/test_bench.py checks, on
# this binding, that the tracer also patches a function another module bound.
from monres.resolutions import closure_walk, lift_cycle_in_simplex  # noqa: F401


@dataclass
class ClassVerdict:
    verdict: str          # "yes" | "no" | "unknown"
    witness: str = ""

    def __str__(self):
        return self.verdict if not self.witness else f"{self.verdict} ({self.witness})"


CLASS_NAMES = [
    "scarf",
    "nearly_scarf",
    "homologically_monotonic",
    "rigid",
    "nearly_hm",
    "lattice_linear",
    "betti_linear",
    "homology_linear",
    "strongly_homology_linear",
]

# upstream yes forbids downstream no
IMPLICATIONS = [
    ("scarf", "rigid"),
    ("rigid", "homologically_monotonic"),
    ("homologically_monotonic", "betti_linear"),
    ("betti_linear", "homology_linear"),
    ("scarf", "lattice_linear"),
    ("lattice_linear", "betti_linear"),
    ("nearly_scarf", "nearly_hm"),
    ("homologically_monotonic", "nearly_hm"),
    ("nearly_hm", "strongly_homology_linear"),
    ("strongly_homology_linear", "homology_linear"),
]


@dataclass
class ClassificationReport:
    verdicts: dict = dc_field(default_factory=dict)

    def __getitem__(self, name) -> ClassVerdict:
        return self.verdicts[name]

    def consistent(self) -> bool:
        for up, down in IMPLICATIONS:
            if self.verdicts[up].verdict == "yes" and self.verdicts[down].verdict == "no":
                return False
        return True

    def rows(self):
        return [(name, self.verdicts[name].verdict, self.verdicts[name].witness)
                for name in CLASS_NAMES]

    def to_text(self) -> str:
        width = max(len(n) for n in CLASS_NAMES)
        lines = [f"{name.ljust(width)}  {verdict:8}  {witness}".rstrip()
                 for name, verdict, witness in self.rows()]
        return "\n".join(lines)


def is_scarf(lat: LcmLattice, field: Field) -> ClassVerdict:
    for m in lat.betti_poset_ids(field):
        if m == lat.bottom:
            continue
        if not lat.is_scarf_multidegree(m):
            return ClassVerdict("no", f"element {sorted(lat.element(m).A)} is not Scarf")
    return ClassVerdict("yes")


def is_nearly_scarf(lat: LcmLattice) -> ClassVerdict:
    for e in lat.elements:
        if e.id in (lat.bottom, lat.top):
            continue
        if not lat.is_scarf_multidegree(e.id):
            return ClassVerdict("no", f"element {sorted(e.A)} is neither top nor Scarf")
    return ClassVerdict("yes")


def _betti_dims(lat: LcmLattice, field: Field):
    """dict m -> homology dims at the nonbottom Betti elements, in element order: an element
    with no homology is in no witness of the scans below (it shares no dim, holds no i + 1)."""
    return {m: lat.homology_dims_at(m, field) for m in lat.betti_poset_ids(field)[1:]}


def is_homologically_monotonic(lat: LcmLattice, field: Field) -> ClassVerdict:
    dims = _betti_dims(lat, field)
    for m1, d1 in dims.items():
        for m2, d2 in dims.items():
            if lat.lt(m1, m2) and max(d1) >= min(d2):
                return ClassVerdict(
                    "no",
                    f"{sorted(lat.element(m1).A)} < {sorted(lat.element(m2).A)} with dims {sorted(d1)} vs {sorted(d2)}",
                )
    return ClassVerdict("yes")


def is_rigid(lat: LcmLattice, field: Field) -> ClassVerdict:
    hm = is_homologically_monotonic(lat, field)
    if hm.verdict != "yes":
        return ClassVerdict("no", "not homologically monotonic")
    for m in lat.betti_poset_ids(field):
        if m == lat.bottom or m in lat.atom_ids:
            continue
        total = sum(lat.homology_dims_at(m, field).values())
        if total != 1:
            return ClassVerdict("no", f"dim H~(Delta) = {total} at {sorted(lat.element(m).A)}")
    return ClassVerdict("yes")


def is_nearly_hm(lat: LcmLattice, field: Field) -> ClassVerdict:
    dims = _betti_dims(lat, field)
    for m1, d1 in dims.items():
        for m2, d2 in dims.items():
            if not lat.lt(m1, m2):
                continue
            shared = set(d1) & set(d2)
            for i in shared:
                for m3, d3 in dims.items():
                    if lat.lt(m2, m3) and (i + 1) in d3:
                        return ClassVerdict(
                            "no",
                            f"{sorted(lat.element(m1).A)} < {sorted(lat.element(m2).A)} share dim {i}, "
                            f"{sorted(lat.element(m3).A)} has dim {i + 1}",
                        )
    return ClassVerdict("yes")


def is_betti_linear(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None) -> ClassVerdict:
    out = poset_construction(lat, field, hb)
    if out.is_minimal_resolution():
        return ClassVerdict("yes", "poset construction is a minimal resolution")
    if not out.is_complex:
        return ClassVerdict("no", "poset construction is not a complex")
    return ClassVerdict("no", "poset construction is not a minimal resolution")


def lattice_linear_greedy(lat: LcmLattice, field: Field):
    """Greedy certificate run: every exact-closure cycle must be spanned by
    chains at elements covered by m: the canonical cycles on their columns
    alone.  Returns (ok, witness element id)."""
    _, blocked = closure_walk(lat, field, lambda e, U, elts, level: U.cycles(
        level, [j for j, m in enumerate(elts[level]) if m in e.covers]))
    return blocked is None, blocked


def is_lattice_linear(lat: LcmLattice, field: Field, scarf: ClassVerdict | None = None) -> ClassVerdict:
    if scarf is None:
        scarf = is_scarf(lat, field)
    if scarf.verdict == "yes":
        return ClassVerdict("yes", "Scarf")
    ok, witness = lattice_linear_greedy(lat, field)
    if ok:
        return ClassVerdict("yes", "greedy covered-element run completed")
    return ClassVerdict("unknown", f"greedy run blocked at {sorted(lat.element(witness).A)}")


# -- homology-linear analysis over the symbolic construction -------------

# Above this many preimage parameters the symbolic analysis is skipped.
MAX_RLM_PARAMS = 40


@dataclass
class RlmAnalysis:
    canonical_ok: bool
    composites_zero: bool
    const_nonzero_entry: bool
    complex_breaking_point: dict | None
    sample_ok: bool
    sample_fail: bool
    certified_all_choices: bool


def _certify_exactness_all_choices(sym) -> bool:
    """All restricted frames exact for every preimage choice.

    The restricted-exactness walk `inexact_element` ranks only at the
    elements that carry a basis class, here by constant-pivot elimination:
    if each of those ranks is parameter-independent and the walk finds
    every restriction exact (H0 included), the construction is a
    resolution for every parameter value.  A rank that is not certified
    stops the walk.
    """
    def rank(i, rows, cols):
        r, certified = certified_constant_rank(sym.field, [[sym.matrices[i][u][v] for v in cols] for u in rows])
        return r if certified else None

    return inexact_element(sym.lat, sym.field, sym.levels, rank) is None


def analyse_rlm(lat: LcmLattice, field: Field, hb: HomologyBasis | None = None) -> RlmAnalysis:
    """Evidence for the homology-linear verdicts, from the symbolic rlm construction.

    The canonical instance is rlm_construction, whose columns the
    symbolic construction then reads from hb.  Above MAX_RLM_PARAMS
    parameters only that instance is analysed.
    """
    if hb is None:
        hb = HomologyBasis.canonical(lat, field)
    canonical_ok = rlm_construction(lat, field, hb).is_minimal_resolution()
    sym = rlm_symbolic(lat, field, hb, max_params=MAX_RLM_PARAMS)
    if sym is None:
        return RlmAnalysis(canonical_ok, False, False, None, False, not canonical_ok, False)
    comps = sym.composites()
    entries = [p for mat in comps.values() for row in mat for p in row]
    composites_zero = all(p.is_zero() for p in entries)
    const_nonzero = any(p.is_const() and not p.is_zero() for p in entries)
    breaking = None
    if not composites_zero:
        # every composite entry is multilinear, each parameter living in one column
        # of one map: with the variables of a least-degree term at 1 and all others
        # at 0, the first nonzero entry equals that term's coefficient, nonzero.
        # Evaluation commutes with the product of consecutive maps, so that entry
        # is an entry of the instance's composite: the instance is not a complex
        first = next(p for p in entries if not p.is_zero())
        term = min(first.terms, key=lambda k: (len(k), k))
        breaking = {v: field.one for v in term}
    sample_ok = canonical_ok
    sample_fail = not canonical_ok
    for v in range(len(sym.params)):
        out = sym.evaluate({v: field.one})
        if out.is_minimal_resolution():
            sample_ok = True
        else:
            sample_fail = True
    certified = False
    # sample_fail starts at `not canonical_ok` and only turns True: its absence implies canonical_ok
    if composites_zero and not sample_fail:
        certified = _certify_exactness_all_choices(sym)
    return RlmAnalysis(canonical_ok, composites_zero, const_nonzero, breaking,
                       sample_ok, sample_fail, certified)


def classify(lat: LcmLattice, field: Field) -> ClassificationReport:
    report = ClassificationReport()
    scarf = is_scarf(lat, field)
    report.verdicts["scarf"] = scarf
    report.verdicts["nearly_scarf"] = is_nearly_scarf(lat)
    hm = is_homologically_monotonic(lat, field)
    report.verdicts["homologically_monotonic"] = hm
    report.verdicts["rigid"] = is_rigid(lat, field)
    nhm = is_nearly_hm(lat, field)
    report.verdicts["nearly_hm"] = nhm
    # one canonical basis, and its stored columns, for the poset and rlm constructions
    hb = HomologyBasis.canonical(lat, field)
    bl = is_betti_linear(lat, field, hb)
    report.verdicts["betti_linear"] = bl
    report.verdicts["lattice_linear"] = is_lattice_linear(lat, field, scarf)

    analysis = analyse_rlm(lat, field, hb)

    if analysis.sample_fail or analysis.complex_breaking_point is not None:
        strongly = ClassVerdict("no", "a homology-approximation instance fails")
    elif nhm.verdict == "yes":
        strongly = ClassVerdict("yes", "nearly homologically monotonic")
    elif analysis.certified_all_choices:
        strongly = ClassVerdict("yes", "every preimage choice verified symbolically")
    else:
        strongly = ClassVerdict("unknown")
    report.verdicts["strongly_homology_linear"] = strongly

    # strongly is "yes" only without sample_fail, which implies canonical_ok: the first branch
    if analysis.canonical_ok or analysis.sample_ok:
        hl = ClassVerdict("yes", "a homology-approximation instance is a minimal resolution")
    elif bl.verdict == "yes":
        hl = ClassVerdict("yes", "Betti-linear")
    elif analysis.const_nonzero_entry:
        hl = ClassVerdict("no", "a forced nonzero composite component breaks every choice")
    else:
        hl = ClassVerdict("unknown")
    report.verdicts["homology_linear"] = hl

    if not report.consistent():
        raise AssertionError("classification verdicts contradict the inclusion diagram")
    return report
