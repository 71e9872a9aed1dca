"""Based complexes of vector spaces, homology with representatives, exact closures.

A based complex is a finite sequence of levels, each an ordered list of
basis labels, with a matrix mapping each level to the one below.  All
homology representatives are canonical: the echelon completion of an
image basis to a kernel basis under the fixed pivot order, so the exact
closure of a complex is deterministic.
"""

from __future__ import annotations

from itertools import combinations

from monres.chains import Chain, boundary, face
from monres.linalg import Field, Matrix, column_space_basis


class BasedComplex:
    """Levels of labelled basis vectors joined by boundary matrices.

    ``maps[i]`` sends level i to level i-1 and has shape
    ``(len(labels[i-1]), len(labels[i]))``; ``maps[0]`` is None.  Maps
    are immutable by convention, so each one's rank is computed at most
    once, on first use, and homology dimensions are read from the ranks.
    Cycle representatives come from `cycles`, which ranks nothing.
    """

    def __init__(self, field: Field, labels, maps):
        self.field = field
        self.labels = [list(lv) for lv in labels]
        self.maps = list(maps)
        if len(self.maps) != len(self.labels):
            raise ValueError("need one map slot per level (maps[0] unused)")
        for i in range(1, len(self.labels)):
            m = self.maps[i]
            if m.nrows != len(self.labels[i - 1]) or m.ncols != len(self.labels[i]):
                raise ValueError(f"map {i} has shape {m.nrows}x{m.ncols}, "
                                 f"want {len(self.labels[i - 1])}x{len(self.labels[i])}")
        self._ranks: dict = {}

    @property
    def length(self) -> int:
        return len(self.labels) - 1

    def level_dim(self, i: int) -> int:
        if 0 <= i < len(self.labels):
            return len(self.labels[i])
        return 0

    def total_dim(self) -> int:
        return sum(len(lv) for lv in self.labels)

    def differential(self, i: int) -> Matrix:
        """The map level i -> level i-1, as a matrix (zero-sized off the ends)."""
        if 1 <= i <= self.length:
            return self.maps[i]
        return Matrix.zero(self.field, self.level_dim(i - 1), self.level_dim(i))

    def is_complex(self) -> bool:
        return products_vanish(self.maps)

    def rank(self, i: int) -> int:
        """Rank of d_i (0 off the ends), computed once per complex."""
        if not 1 <= i <= self.length:
            return 0
        if i not in self._ranks:
            self._ranks[i] = self.maps[i].rank()
        return self._ranks[i]

    def homology_dim(self, i: int) -> int:
        """dim Ker d_i - rank d_{i+1}, by rank-nullity."""
        return self.level_dim(i) - self.rank(i) - self.rank(i + 1)

    def homology(self, i: int):
        """(dimension, canonical cycle representatives) at level i; see `cycles`.

        Representatives are built only where the dimension is nonzero.
        """
        mu = self.homology_dim(i)
        return mu, self.cycles(i) if mu else []

    def cycles(self, i: int, cols=None):
        """Canonical cycles at level i, as coordinate vectors in level i.

        They are the kernel basis vectors of d_i (on its columns `cols` alone
        when given, zero elsewhere) that are pivots of ``[image of d_{i+1} | kernel]``,
        i.e. the echelon completion of the image; with `cols` None, one per
        homology class at level i.
        """
        cols = range(self.level_dim(i)) if cols is None else cols
        d = self.differential(i).submatrix(range(self.level_dim(i - 1)), cols)
        K = Matrix.identity(self.field, len(cols)) if i == 0 else d.kernel_basis()
        at = dict(zip(cols, K.rows))
        K = Matrix.sparse(self.field, K.ncols, [at.get(j, {}) for j in range(self.level_dim(i))])
        d_up = self.differential(i + 1)
        pivots = column_space_basis(d_up.stack_columns(K))
        return [K.column(p - d_up.ncols) for p in pivots if p >= d_up.ncols]

    def is_exact(self) -> bool:
        return all(self.homology_dim(i) == 0 for i in range(self.length + 1))


def products_vanish(maps) -> bool:
    """d^2 = 0: maps[i - 1] * maps[i] is zero for every i >= 2 (maps[0] unused)."""
    return all(maps[i - 1].mul(maps[i]).is_zero() for i in range(2, len(maps)))


def exact_closure(U: BasedComplex):
    """Minimal exact complex containing U as a based subcomplex.

    Returns ``(V, added)``; ``added[i]`` lists ``(label, cycle)`` pairs
    for the generators appended at level i, where `cycle` is the image
    vector in U's level i-1 coordinates.  With U already exact, V is U.
    """
    if not U.is_complex():
        raise ValueError("exact_closure needs a complex")
    f = U.field
    added: dict[int, list] = {}
    for i in range(U.length + 1):
        mu, reps = U.homology(i)
        if mu:
            added[i + 1] = [(f"g[{i + 1}][{j}]", reps[j]) for j in range(mu)]
    top = U.length + (1 if (U.length + 1) in added else 0)
    labels = [(U.labels[i] if i <= U.length else []) + [lbl for lbl, _ in added.get(i, [])]
              for i in range(top + 1)]
    maps: list = [None]
    for i in range(1, top + 1):
        # U's rows, then zero rows for the generators added one level down
        rows = [dict(row) for row in U.differential(i).rows] + [{} for _ in added.get(i - 1, [])]
        for j, (_, cycle) in enumerate(added.get(i, []), start=U.level_dim(i)):
            for r, x in enumerate(cycle):
                if x:
                    rows[r][j] = x
        maps.append(Matrix.sparse(f, len(labels[i]), rows))
    V = BasedComplex(f, labels, maps)
    return V, added


def is_exact_closure_of(V: BasedComplex, U: BasedComplex) -> bool:
    """Kernel criterion: V exact and Ker(V's map) = Ker(U's map) levelwise.

    U must be a based subcomplex of V (label inclusion); otherwise this
    raises ValueError.
    """
    positions = []
    for i in range(U.length + 1):
        free: dict = {}
        for j, lbl in enumerate(V.labels[i] if i <= V.length else []):
            free.setdefault(lbl, []).append(j)
        pos = []
        for lbl in U.labels[i]:
            if not free.get(lbl):
                raise ValueError(f"label {lbl!r} of level {i} not found in the ambient complex")
            pos.append(free[lbl].pop(0))
        positions.append(pos)
    # subcomplex check: V's differential restricted to U's labels is U's,
    # with no leakage outside U's rows
    for i in range(1, U.length + 1):
        dV, inside = V.differential(i), set(positions[i - 1])
        if dV.submatrix(positions[i - 1], positions[i]) != U.differential(i):
            raise ValueError("labels nested but differentials disagree")
        outside = [r for r in range(dV.nrows) if r not in inside]
        if not dV.submatrix(outside, positions[i]).is_zero():
            raise ValueError("U is not closed under the ambient differential")
    if not V.is_exact():
        return False
    # U's kernels embed in V's, so they are equal exactly where their dimensions are
    return all(V.level_dim(i) - V.rank(i) == U.level_dim(i) - U.rank(i) for i in range(V.length + 1))


# -- simplicial complexes --------------------------------------------


def in_complex(face, facets) -> bool:
    """Whether a face lies in the complex generated by `facets`: inside some facet.

    The empty face lies in every complex, also in one with no facets.
    """
    return not face or any(set(face).issubset(f) for f in facets)


def prune_facets(facets):
    """Drop faces contained in another; sorted deterministic facet list."""
    fs = sorted({tuple(sorted(f)) for f in facets}, key=lambda t: (-len(t), t))
    out = []
    for f in fs:
        if not any(set(f) < set(g) for g in out) and f not in out:
            out.append(f)
    return sorted(out)


def complex_of_facets(field: Field, facets) -> BasedComplex:
    """The augmented chain complex of the simplicial complex with these facets.

    Level h holds the faces of cardinality h (dimension h-1), sorted
    lexicographically; level 0 is the empty face.  Column f of map h has
    (-1)^k in the row of f minus its k-th vertex.  Reduced homology
    H~_d of the complex is the homology of this object at level d+1.
    """
    facets = [face(f) for f in facets]
    top = max(map(len, facets), default=0)
    labels = [[()]] + [sorted({c for f in facets for c in combinations(f, h)})
                       for h in range(1, top + 1)]
    signs = (field.one, field.neg(field.one))
    maps: list = [None]
    for h in range(1, top + 1):
        row = {f: i for i, f in enumerate(labels[h - 1])}
        d = Matrix.zero(field, len(labels[h - 1]), len(labels[h]))
        for j, f in enumerate(labels[h]):
            for k in range(h):
                d.rows[row[f[:k] + f[k + 1:]]][j] = signs[k % 2]
        maps.append(d)
    return BasedComplex(field, labels, maps)


def graph_homology_dims(facets):
    """Of the complex with these facets: dict d -> dim_k H~_d where no facet has
    more than two vertices, None where one does.

    Such a complex is a graph, with V vertices, E distinct edges and c
    components (union-find over the facets, which may repeat or nest).  It has
    H~_0 = c - 1 and H~_1 = E - V + c, the same in every field k, since H_1 of
    a graph is free; with no vertex at all it is {()}, and H~_-1 = 1.
    """
    if any(len(f) > 2 for f in facets):
        return None
    parent = {v: v for f in facets for v in f}
    if not parent:
        return {-1: 1}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = {frozenset(f) for f in facets if len(f) == 2}
    components = len(parent)
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    dims = {0: components - 1, 1: len(edges) - len(parent) + components}
    return {d: n for d, n in dims.items() if n}


def reduced_homology(cx: BasedComplex):
    """Of a face-labelled complex: dict d -> (dim_k H~_d, canonical representative Chains)."""
    return {d: (n, reduced_cycles(cx, d)) for d, n in reduced_homology_dims(cx).items()}


def reduced_cycles(cx: BasedComplex, d: int):
    """Of a face-labelled complex: the canonical cycles of `BasedComplex.cycles` at
    level d+1, as Chains; one per class of H~_d."""
    return [Chain(cx.field, zip(cx.labels[d + 1], z), dim=d) for z in cx.cycles(d + 1)]


def reduced_homology_dims(cx: BasedComplex):
    """Of a face-labelled complex: dict d -> dim_k H~_d, from the ranks of its maps alone."""
    dims = {level - 1: cx.homology_dim(level) for level in range(cx.length + 1)}
    return {d: n for d, n in dims.items() if n}


def chain_to_coords(cx: BasedComplex, c: Chain):
    """Coordinates of a face-labelled chain in a face-labelled complex level."""
    level = c.dim + 1
    if level > cx.length and not c.is_zero():
        raise ValueError("chain dimension exceeds complex")
    labels = cx.labels[level] if level <= cx.length else []
    index = {f: i for i, f in enumerate(labels)}
    v = [cx.field.zero] * len(labels)
    for f, coeff in c.terms.items():
        if f not in index:
            raise ValueError(f"face {f} not in the complex")
        v[index[f]] = coeff
    return v


def class_in_homology(cx: BasedComplex, c: Chain, basis_chains):
    """Coordinates of the class [c] in a fixed homology basis of a face-labelled complex.

    `basis_chains` are cycles whose classes form a basis of H~_dim(c).
    Solves c = sum(x_s * basis_s) + boundary; returns the x vector, or
    raises if c is not a cycle in the complex or the solve fails.  Every
    chain of dimension -1 is a cycle; any other is one when its simplicial
    boundary vanishes.
    """
    field = cx.field
    level = c.dim + 1
    coords = chain_to_coords(cx, c)
    if c.dim >= 0 and not boundary(c).is_zero():
        raise ValueError("not a cycle")
    basis = Matrix.from_columns(field, len(coords), [chain_to_coords(cx, b) for b in basis_chains])
    sol = basis.stack_columns(cx.differential(level + 1)).solve(coords)
    if sol is None:
        raise ValueError("class not in the span of the given basis")
    return sol[: len(basis_chains)]
