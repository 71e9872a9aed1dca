"""The lcm-lattice of a monomial ideal, with generator-support labels.

Every element m carries the label ``A_m``: the set of generator indices
dividing m.  Divisibility order is exactly label inclusion, so meets are
label intersections and the closure of a generator set is the label of
its lcm; the companion simplicial complex at m has the labels of the
covered elements as facets.

Abstract atomic lattices (given only by their labels, e.g. through the
JSON dump format) are supported by synthesising a monomial ideal with
one variable per nonbottom element; the synthesised ideal has exactly
the requested lcm-lattice, whose multidegrees are read off the labels.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from monres.chains import boundary
from monres.linalg import Field, Matrix
from monres.monomials import (IdealParseError, Monomial, MonomialIdeal, json_document, json_object,
                              parse_monomial)
from monres.vcomplex import (chain_to_coords, complex_of_facets, graph_homology_dims, reduced_cycles,
                             reduced_homology_dims)

MAX_ATOMS = 63


@dataclass(frozen=True)
class LatticeElement:
    id: int
    mdeg: Monomial
    A: frozenset
    rank: int
    covers: tuple       # ids of elements covered by this one (lower neighbours)


@dataclass(frozen=True)
class SimplicialComplexAt:
    """Facets of the complex at m: labels of the covered elements; {()} at atoms."""

    m: int
    facets: tuple


class LcmLattice:
    def __init__(self, ideal: MonomialIdeal, mdegs):
        """The lattice of the lcms `mdegs` (exponent tuples), numbered in degree order.

        Labels are built as bitmasks, bit i for generator i.  The lower covers
        of m are the maximal elements among the m^(k) = lcm{g in A_m : g_k < m_k},
        k in supp m.  Proof: m^(k) < m, as its k-th exponent is below m_k.  Any
        c < m has some c_k < m_k, so every generator dividing c lies in that
        set, and c <= m^(k).  So the elements below m are those below some
        m^(k).  The label of m^(k) is S_k = {i in A_m : (g_i)_k < m_k}, as its
        generators divide m.
        """
        self.ideal = ideal
        self.r = ideal.r
        gens = [g.exponents for g in ideal.gens]
        # upto[k][x], below[k][x]: the generators whose k-th exponent is <= x, < x, for each
        # exponent x an lcm can have at variable k (0 or a generator's), by one sort per k
        upto, below = [{0: 0} for _ in ideal.names], [{0: 0} for _ in ideal.names]
        for up, lo, col in zip(upto, below, zip(*gens)):
            acc = 0
            for x, i in sorted(zip(col, range(1, self.r + 1))):
                lo.setdefault(x, acc)
                acc = up[x] = acc | 1 << i
        # degree order is a linear extension, so each element's covers precede it
        data = sorted(mdegs, key=lambda m: (sum(m), m))
        masks = [reduce(operator.and_, map(dict.__getitem__, upto, m)) for m in data]
        id_of = {A: i for i, A in enumerate(masks)}
        ranks, self.elements = [], []
        for i, (m, A) in enumerate(zip(data, masks)):
            maximal: list = []  # the S_k, largest first: a set inside a kept one is no cover
            for S in sorted({A & lo[x] for lo, x in zip(below, m) if x}, key=int.bit_count, reverse=True):
                for T in maximal:
                    if S & T == S:
                        break
                else:
                    maximal.append(S)
            covers = tuple(sorted(map(id_of.__getitem__, maximal)))
            ranks.append(1 + max(map(ranks.__getitem__, covers), default=-1))
            label = frozenset([v for v in range(1, self.r + 1) if A >> v & 1])
            self.elements.append(LatticeElement(i, Monomial(m), label, ranks[i], covers))
        self.by_label = {e.A: e.id for e in self.elements}
        self.by_mdeg = dict(zip(data, range(len(data))))
        # exponent vectors: 0 is the bottom (the lcm of no generator), i is g_i
        self._exponents = [ideal.one().exponents] + gens
        self.bottom = self.by_label[frozenset()]
        self.top = self.by_label[frozenset(range(1, self.r + 1))]
        self.atom_ids = [self.by_label[frozenset([i])] for i in range(1, self.r + 1)]
        self._complex_cache: dict = {}
        self._dims_cache: dict = {}

    # -- construction ------------------------------------------------
    @staticmethod
    def from_ideal(ideal: MonomialIdeal) -> "LcmLattice":
        if ideal.r > MAX_ATOMS:
            raise ValueError(f"at most {MAX_ATOMS} generators supported")
        # join-closure one generator at a time: L_i = L_{i-1} and its joins with g_i
        mdegs = {ideal.one().exponents}
        for g in ideal.gens:
            mdegs |= {tuple(map(max, m, g.exponents)) for m in mdegs}
        return LcmLattice(ideal, mdegs)

    @staticmethod
    def from_labels(labels) -> "LcmLattice":
        """Realise an abstract atomic lattice, given as a family of A-labels.

        The family must contain the empty set, every singleton of its
        vertex union, the union itself, and be closed under pairwise
        intersection.  The synthesised ideal has a variable z shared by all
        generators and a variable y_B per nonbottom label B:
        g_i = z * prod_{B not containing i} y_B.  The lcm of the generators in
        G is z^[G nonempty] * prod_{B not containing G} y_B.  A label contains
        G iff it contains the meet of the labels containing G, so these lcms
        are those of the labels A in the family, and the generators dividing
        lcm(A) are those in every label containing A, the set A itself.
        """
        fam = {frozenset(A) for A in labels}
        verts = sorted(set().union(*fam)) if fam else []
        if verts != list(range(1, len(verts) + 1)):
            raise ValueError("atoms must be numbered 1..r")
        r = len(verts)
        if r > MAX_ATOMS:
            raise ValueError(f"at most {MAX_ATOMS} atoms supported")
        needed = {frozenset()} | {frozenset([i]) for i in verts} | {frozenset(verts)}
        missing = needed - fam
        if missing:
            raise ValueError(f"labels must include bottom, atoms and top; missing {sorted(map(sorted, missing))}")
        for a, b in combinations(fam, 2):
            if a & b not in fam:
                raise ValueError(f"labels not intersection-closed at {sorted(a)} ^ {sorted(b)}")
        nonbottom = sorted((A for A in fam if A), key=lambda A: (len(A), sorted(A)))
        names = ["z"] + [f"y{k}" for k in range(len(nonbottom))]
        gens = [Monomial((1, *(int(i not in B) for B in nonbottom))) for i in verts]
        mdegs = [(int(bool(A)), *[0 if A <= B else 1 for B in nonbottom]) for A in fam]
        return LcmLattice(MonomialIdeal(names, gens), mdegs)

    # -- basic queries -----------------------------------------------
    def __len__(self):
        return len(self.elements)

    def element(self, m_id: int) -> LatticeElement:
        return self.elements[m_id]

    def id_of_label(self, A) -> int:
        key = frozenset(A)
        if key not in self.by_label:
            raise ValueError(f"no lattice element with label {sorted(key)}")
        return self.by_label[key]

    def lt(self, a: int, b: int) -> bool:
        return self.elements[a].A < self.elements[b].A

    def closure(self, A) -> frozenset:
        """Smallest label containing A: the label of the element lcm(A)."""
        A = frozenset(A)
        if not A <= self.elements[self.top].A:
            raise ValueError(f"subset {sorted(A)} out of range")
        cols = zip(self._exponents[0], *(self._exponents[i] for i in A))
        return self.elements[self.by_mdeg[tuple(map(max, cols))]].A

    def closure_id(self, A) -> int:
        return self.by_label[self.closure(A)]

    def meet(self, a: int, b: int) -> int:
        return self.by_label[self.elements[a].A & self.elements[b].A]

    def join(self, a: int, b: int) -> int:
        return self.by_label[self.closure(self.elements[a].A | self.elements[b].A)]

    def lattice_rank(self) -> int:
        return self.elements[self.top].rank

    # -- simplicial data ----------------------------------------------
    def simplicial_complex_at(self, m_id: int) -> SimplicialComplexAt:
        if m_id == self.bottom:
            raise ValueError("no simplicial complex at the bottom element")
        e = self.elements[m_id]
        # the covers' labels are an antichain, hence facets; an atom covers only the bottom, ()
        facets = sorted(tuple(sorted(self.elements[c].A)) for c in e.covers)
        return SimplicialComplexAt(m_id, tuple(facets))

    def q_faces(self, m_id: int):
        """Subsets of A_m whose closure is exactly A_m, sorted."""
        if m_id == self.bottom:
            raise ValueError("Q is undefined at the bottom element")
        A = sorted(self.elements[m_id].A)
        target = self.elements[m_id].A
        out = []
        for size in range(len(A) + 1):
            for sub in combinations(A, size):
                if self.closure(sub) == target:
                    out.append(sub)
        return out

    def is_scarf_multidegree(self, m_id: int) -> bool:
        """True iff exactly one subset of the generators has this multidegree.

        That is, iff the covers of m are the |A_m| sets A_m - {i}.  Proof: the
        subsets with lcm m form an up-set in the subsets of A_m, so A_m is the
        only one iff no A_m - {i} keeps the lcm.  A_m - {i} keeps it iff it lies
        in no cover label, as every label strictly inside A_m lies in one.  A
        cover label B lies strictly inside A_m, so in some A_m - {i}; if that
        set lies in a cover label B', then B = A_m - {i} = B', as the cover
        labels form an antichain.  So m is Scarf iff every A_m - {i} is a cover
        label and no other set is.
        """
        if m_id == self.bottom:
            raise ValueError("the bottom element is not a multidegree")
        e = self.elements[m_id]
        return len(e.covers) == len(e.A) and all(len(self.elements[c].A) == len(e.A) - 1
                                                 for c in e.covers)

    def scarf_ids(self):
        return [e.id for e in self.elements if e.id != self.bottom and self.is_scarf_multidegree(e.id)]

    # -- chain complexes and homology at the elements ------------------
    def complex_at(self, m_id: int, field: Field):
        """The face-labelled augmented chain complex of Delta_m, built once per element."""
        cache = self._complex_cache.setdefault(field.char, {})
        if m_id not in cache:
            cache[m_id] = complex_of_facets(field, self.simplicial_complex_at(m_id).facets)
        return cache[m_id]

    def homology_dims_at(self, m_id: int, field: Field):
        """dict dim -> dim_k H~_dim of Delta_m, from Delta_m or the nerve N_m of its facets.

        Where a generator lies in every cover's label, Delta_m is a cone and
        its homology vanishes; an atom's one cover is the bottom, so an atom
        is never one.  Otherwise N_m has the covers c of m as vertices and one
        facet {c : v in A_c} per generator v in A_m.  Every nonempty
        intersection of facets of Delta_m is a simplex, so N_m has the
        homology of Delta_m in every field (nerve theorem, Bjorner,
        "Topological methods", Thm 10.6).  Either may be exponentially larger
        than the other, so the one with fewer faces by the bound sum_F 2^|F|
        is used: counted where it is a graph (`graph_homology_dims`), reduced
        by ranks alone elsewhere; at an atom both are {()}.
        """
        if m_id == self.bottom:
            raise ValueError("no simplicial complex at the bottom element")
        cache = self._dims_cache.setdefault(field.char, {})
        if m_id not in cache:
            e = self.elements[m_id]
            delta = [self.elements[c].A for c in e.covers]
            if frozenset.intersection(*delta):
                cache[m_id] = {}
            else:
                nerve = [[c for c, A in zip(e.covers, delta) if v in A] for v in e.A]
                smaller = min((nerve, delta), key=lambda facets: sum(2 ** len(f) for f in facets))
                dims = graph_homology_dims(smaller)
                cache[m_id] = reduced_homology_dims(complex_of_facets(field, smaller)) if dims is None else dims
        return cache[m_id]

    def homology_at(self, m_id: int, field: Field):
        """dict dim -> (dim_k H~, representative Chains) for Delta_m; {} where it vanishes.

        The dims are `homology_dims_at`'s; Delta_m's cycles are picked at their levels
        alone, on each call: `HomologyBasis.canonical` keeps the ones it reads.
        """
        dims = self.homology_dims_at(m_id, field)
        cx = self.complex_at(m_id, field) if dims else None
        return {d: (n, reduced_cycles(cx, d)) for d, n in dims.items()}

    def is_homology_basis(self, m_id: int, field: Field, d: int, cycles) -> bool:
        """Whether the classes of the d-chains `cycles` form a basis of H~_d(Delta_m).

        There must be dim H~_d of them, and each must be a cycle of Delta_m:
        a chain with a face outside it, or a nonzero boundary, raises
        ValueError.  n cycles are independent modulo the boundaries iff they
        raise the rank of the image of d_{d+2} by n.
        """
        n = self.homology_dims_at(m_id, field).get(d, 0)
        if len(cycles) != n:
            return False
        cx = self.complex_at(m_id, field)
        coords = []
        for c in cycles:
            coords.append(chain_to_coords(cx, c))
            if c.dim >= 0 and not boundary(c).is_zero():
                raise ValueError("not a cycle")
        spanned = cx.differential(d + 2).stack_columns(Matrix.from_columns(field, cx.level_dim(d + 1), coords))
        return spanned.rank() == cx.rank(d + 2) + n

    def betti_poset_ids(self, field: Field):
        """Bottom plus every element with nonvanishing reduced homology."""
        return [self.bottom] + [e.id for e in self.elements
                                if e.id != self.bottom and self.homology_dims_at(e.id, field)]

    def betti_numbers(self, field: Field):
        """Homology-formula Betti table: (i, element id) -> b_{i,m}."""
        table = {(0, self.bottom): 1}
        for e in self.elements:
            if e.id == self.bottom:
                continue
            for dim, n in self.homology_dims_at(e.id, field).items():
                table[(dim + 2, e.id)] = n
        return table

    # -- JSON ----------------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "vars": self.ideal.names,
            "gens": [g.to_str(self.ideal.names) for g in self.ideal.gens],
            "elements": [
                {
                    "id": e.id,
                    "mdeg": e.mdeg.to_str(self.ideal.names),
                    "A": sorted(e.A),
                    "covers": sorted(e.covers),
                }
                for e in self.elements
            ],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "LcmLattice":
        doc = json_document(text, {"elements": list}, "the lattice JSON")
        labels = [tuple(json_object(e, {"A": (list, int)}, f"the lattice JSON: elements[{k}]")["A"])
                  for k, e in enumerate(doc["elements"])]
        if "vars" in doc or "gens" in doc:
            json_object(doc, {"vars": (list, str), "gens": (list, str)}, "the lattice JSON")
            try:
                ideal = MonomialIdeal(doc["vars"], [parse_monomial(g, doc["vars"]) for g in doc["gens"]])
            except ValueError as e:
                raise IdealParseError(f"the lattice JSON: {e}") from e
            lat = LcmLattice.from_ideal(ideal)
        else:
            lat = LcmLattice.from_labels(labels)
        given: set = set()
        for k, A in enumerate(labels):
            if len(set(A)) < len(A) or frozenset(A) in given:
                why = "repeats a generator" if len(set(A)) < len(A) else "is listed twice"
                raise ValueError(f"the lattice JSON: elements[{k}]: label {list(A)} {why}")
            given.add(frozenset(A))
        if given != {e.A for e in lat.elements}:
            raise ValueError("element list does not match the lattice of the given ideal")
        return lat
