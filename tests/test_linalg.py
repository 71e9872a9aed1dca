"""Elimination kernels: echelon form, kernels, solving, determinism."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from monres.chains import Chain, boundary
from monres.linalg import Field, Matrix, column_space_basis

from conftest import DenseMatrix, typed_entries


QQ = Field(0)
GF5 = Field(5)


def M(rows, field=QQ):
    return Matrix(field, [[field.of(x) for x in r] for r in rows])


def test_field_validation():
    Field(0)
    Field(2)
    Field(2147483647)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2**31 + 11)


def test_rref_identity():
    R, pivots, rank = Matrix.identity(QQ, 3).rref()
    assert R == Matrix.identity(QQ, 3)
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_zero():
    R, pivots, rank = Matrix.zero(QQ, 2, 3).rref()
    assert R.is_zero()
    assert pivots == []
    assert rank == 0


def test_rref_single_row():
    R, pivots, rank = M([[1, 1, 1]]).rref()
    assert R == M([[1, 1, 1]])
    assert rank == 1


def test_kernel_rank_one():
    K = M([[1, 1, 1]]).kernel_basis()
    assert K.columns() == [[QQ.of(-1), QQ.of(1), QQ.of(0)],
                           [QQ.of(-1), QQ.of(0), QQ.of(1)]]


def test_kernel_invertible():
    assert M([[1, 2], [3, 4]]).kernel_basis().ncols == 0


def test_kernel_triangle_boundary_matches_bruteforce():
    # augmented boundary of the hollow triangle's edges, columns 12 13 23
    bd = M([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    K = bd.kernel_basis()
    # oracle: enumerate small integer vectors and keep the kernel members
    found = []
    for v in product(range(-2, 3), repeat=3):
        vec = [QQ.of(x) for x in v]
        if all(x == 0 for x in DenseMatrix.of(bd).mul_vector(vec)) and any(v):
            found.append(v)
    assert K.ncols == 1
    assert (1, -1, 1) in found
    # every enumerated kernel vector is a multiple of the computed basis
    col = K.column(0)
    for v in found:
        stacked = Matrix.from_columns(QQ, 3, [col, [QQ.of(x) for x in v]])
        assert stacked.rank() == 1


def test_solve_identity():
    b = [QQ.of(3), QQ.of(-2)]
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_free_variable_canonical():
    assert M([[1, 1]]).solve([QQ.of(1)]) == [QQ.of(1), QQ.of(0)]


def test_solve_inconsistent():
    assert M([[0]]).solve([QQ.of(1)]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        M([[1, 0]]).solve([QQ.of(1), QQ.of(2)])


@pytest.mark.parametrize("field", [QQ, GF5])
def test_random_matrix_invariants(field):
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = Matrix(field, [[field.of(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)])
        K = a.kernel_basis()
        # M * kernel = 0 and rank-nullity
        if K.ncols:
            assert a.mul(K).is_zero()
        assert a.rank() + K.ncols == a.ncols
        # rref idempotent
        R, _, _ = a.rref()
        R2, _, _ = R.rref()
        assert R == R2
        # solve returns actual solutions
        x = [field.of(rng.randint(-2, 2)) for _ in range(m)]
        b = DenseMatrix.of(a).mul_vector(x)
        sol = a.solve(b)
        assert sol is not None
        assert DenseMatrix.of(a).mul_vector(sol) == b


def test_inverse():
    a = M([[1, 2], [3, 5]])
    assert a.mul(a.inverse()) == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()


def test_column_space_basis_greedy():
    a = M([[1, 2, 1], [2, 4, 0]])
    assert column_space_basis(a) == [0, 2]


def test_gf_arithmetic():
    f = Field(7)
    assert f.of("3/2") == 3 * 4 % 7
    assert f.inv(f.of(3)) == 5
    a = Matrix(f, [[f.of(2), f.of(1)], [f.of(1), f.of(4)]])
    assert a.rank() == 1  # det = 7 = 0 in GF(7)
    b = Matrix(f, [[f.of(2), f.of(1)], [f.of(1), f.of(5)]])
    assert b.rank() == 2


# -- differential check against the greedy rank-per-candidate loop -------


def ref_column_space_basis(m):
    """Greedy left-to-right independent columns, one rank per candidate."""
    chosen = []
    rank = 0
    for j in range(m.ncols):
        r = m.submatrix(range(m.nrows), chosen + [j]).rank()
        if r > rank:
            chosen.append(j)
            rank = r
    return chosen


@settings(max_examples=200, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]), data=st.data())
def test_column_space_basis_matches_greedy_reference(char, data):
    field = Field(char)
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(0, 8))
    entries = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
    a = Matrix(field, [[field.of(x) for x in row] for row in rows])
    assert column_space_basis(a) == ref_column_space_basis(a)


# -- differential checks of the sparse matrix against the dense reference --


def values(field):
    if field.char == 0:
        return st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=4))
    return st.one_of(st.just(0), st.integers(-5, 5))


@st.composite
def matrix_pairs(draw, field, nrows, ncols):
    """(Matrix, DenseMatrix) with the same entries, some rows all zero, built one of two ways."""
    rows = draw(st.lists(st.lists(values(field), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows))
    rows = [[field.of(0 if i in zero_rows else x) for x in row] for i, row in enumerate(rows)]
    ref = DenseMatrix(field, rows, ncols)
    if nrows and draw(st.booleans()):
        return Matrix(field, rows), ref
    return Matrix.from_columns(field, nrows, ref.columns()), ref


@st.composite
def field_matrices(draw):
    field = Field(draw(st.sampled_from([0, 2, 3, 32003])))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    a, _ = draw(matrix_pairs(field, nrows, ncols))
    b = [field.of(x) for x in draw(st.lists(values(field), min_size=nrows, max_size=nrows))]
    return a, b


def typed(values):
    return [(x, type(x)) for x in values]


def same(got, want):
    """Same shape and entries with their types; `got` stores no zero."""
    assert all(x for row in got.rows for x in row.values())
    return (got.nrows, got.ncols) == (want.nrows, want.ncols) and typed_entries(got) == typed_entries(want)


def read_from_rref(a, b):
    """Everything read from `a.rref()`, with right-hand side `b`."""
    R, pivots, rank = a.rref()
    try:
        inv = typed_entries(a.inverse())
    except ValueError as e:
        inv = str(e)
    K = a.kernel_basis()
    return ((R.nrows, R.ncols), typed_entries(R), pivots, rank, (K.nrows, K.ncols), typed_entries(K),
            a.solve(b), a.solve(DenseMatrix.of(a).mul_vector([a.field.one] * a.ncols)), inv)


@settings(max_examples=400, deadline=None)
@given(ab=field_matrices())
def test_sparse_kernel_matches_dense_reference(ab):
    a, b = ab
    ref = DenseMatrix.of(a)
    got, want = read_from_rref(a, b), read_from_rref(ref, b)
    assert got == want
    assert typed(got[6] or []) == typed(want[6] or [])
    assert all(x for R in (a.rref()[0], a.kernel_basis()) for row in R.rows for x in row.values())
    # forward elimination alone
    assert (column_space_basis(a), a.rank()) == (ref.rref()[1], ref.rank())


@settings(max_examples=300, deadline=None)
@given(char=st.sampled_from([0, 2, 32003]), data=st.data())
def test_matrix_methods_match_dense_reference(char, data):
    field = Field(char)
    nrows, ncols, k = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, ref = data.draw(matrix_pairs(field, nrows, ncols))
    b, ref_b = data.draw(matrix_pairs(field, nrows, ncols))
    c, ref_c = data.draw(matrix_pairs(field, ncols, k))
    assert same(a, ref) and same(DenseMatrix.of(a).sparse(), ref)
    assert DenseMatrix.of(a).sparse() == a and (a == b) == (ref == ref_b) and a != ref
    assert [typed(a.column(j)) for j in range(ncols)] == [typed(col) for col in ref.columns()]
    assert a.columns() == ref.columns() and a.is_zero() == ref.is_zero()
    assert same(a.stack_columns(b), ref.stack_columns(ref_b))
    rows = data.draw(st.lists(st.integers(0, nrows - 1), max_size=6)) if nrows else []
    cols = data.draw(st.permutations(range(ncols)))[:data.draw(st.integers(0, ncols))]
    assert same(a.submatrix(rows, cols), ref.submatrix(rows, cols))
    assert same(a.mul(c), ref.mul(ref_c))
    assert same(Matrix.identity(field, k), DenseMatrix.identity(field, k))
    assert same(Matrix.zero(field, nrows, k), DenseMatrix.zero(field, nrows, k))
    if nrows and ncols:
        i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, ncols - 1))
        x = field.of(data.draw(values(field)))
        ref2 = DenseMatrix.of(ref)
        ref2[i, j] = x
        assert (ref2.sparse() == a) == (ref2 == ref)
        with pytest.raises(IndexError):
            a[i, ncols]
        with pytest.raises(ValueError, match="repeated column index"):
            a.submatrix(rows, [j, j])


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
@pytest.mark.parametrize("char", [0, 2, 3, 32003])
def test_empty_shapes(char, shape):
    field = Field(char)
    a = Matrix.zero(field, *shape)
    R, pivots, rank = a.rref()
    assert (R.nrows, R.ncols, pivots, rank, a.rank()) == (*shape, [], 0, 0)
    assert same(a.kernel_basis(), Matrix.identity(field, shape[1]))
    assert a.solve([field.zero] * shape[0]) == [field.zero] * shape[1]


# -- the QQ normal form: an int when integral, else a Fraction ------------


def normal(x):
    """True iff the QQ value x is in normal form: an int, or a Fraction with denominator > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_qq_zero_and_one_are_ints():
    assert [(x, type(x)) for x in (QQ.zero, QQ.one)] == [(0, int), (1, int)]


# ints and non-integral Fractions, whose sums, products and quotients are often integral
normal_values = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4])).map(
    lambda x: x.numerator if x.denominator == 1 else x)


def normal_matrices(nrows, ncols):
    return st.lists(st.lists(normal_values, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: Matrix(QQ, rows))


def normal_chains(dim):
    faces = list(combinations(range(1, 5), dim + 1))
    return st.dictionaries(st.sampled_from(faces), normal_values, max_size=len(faces)).map(
        lambda terms: Chain(QQ, terms, dim=dim))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_qq_values_stay_in_normal_form(data):
    a, b = data.draw(normal_values), data.draw(normal_values)
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m, other, square = (data.draw(normal_matrices(*shape)) for shape in ((n, k), (k, n), (n, n)))
    rhs = data.draw(st.lists(normal_values, min_size=n, max_size=n))
    c1, c2 = data.draw(normal_chains(1)), data.draw(normal_chains(1))
    values = [QQ.of(a), QQ.of(str(a)), QQ.of(Fraction(a)), QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    values += [QQ.inv(a)] if a else []
    values += m.solve(rhs) or []
    matrices = [m.mul(other), m.rref()[0], m.kernel_basis()]
    try:
        matrices.append(square.inverse())
    except ValueError:
        assert square.rank() < n
    chains = [c1.add(c2), c1.scale(a), Chain.combine(QQ, [(a, c1), (b, c2)], 1), boundary(c1)]
    values += [x for mat in matrices for row in mat.rows for x in row.values()]
    values += [x for c in chains for x in c.terms.values()]
    assert all(normal(x) for x in values), [x for x in values if not normal(x)]
