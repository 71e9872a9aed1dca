"""Exact field arithmetic and the elimination kernels used everywhere else.

Fields are the rationals (characteristic 0, :class:`fractions.Fraction`
values) or a prime field GF(p) (values are ints in ``0..p-1``).  All
elimination routines use one fixed pivoting order -- first nonzero entry
scanning rows top-down, columns left-right -- so every basis produced
downstream is reproducible run to run.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The exact coefficient field: char 0 rationals or GF(p)."""

    def __init__(self, characteristic: int = 0):
        if characteristic != 0:
            if characteristic >= 2**31 or not _is_prime(characteristic):
                raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {characteristic}")
        self.char = characteristic

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, value):
        """Coerce an int, Fraction or 'a/b' string into the field."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.char == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise ZeroDivisionError("denominator not invertible mod p")
            return value.numerator * pow(value.denominator, -1, self.char) % self.char
        return int(value) % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.char == 0 else pow(a, -1, self.char)

    def to_str(self, a) -> str:
        return str(a)


class Matrix:
    """A dense exact matrix over a :class:`Field`.

    Values are immutable by convention: every operation returns a new
    matrix.  Row/column indices are 0-based.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    # -- constructors ------------------------------------------------
    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        m = Matrix.__new__(Matrix)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.rows = [[z] * ncols for _ in range(nrows)]
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zero(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @staticmethod
    def from_columns(field: Field, ncols_rows: int, columns) -> "Matrix":
        """Build a matrix with the given columns (each a length-`ncols_rows` vector)."""
        cols = [list(c) for c in columns]
        m = Matrix.zero(field, ncols_rows, len(cols))
        for j, c in enumerate(cols):
            if len(c) != ncols_rows:
                raise ValueError("column length mismatch")
            for i in range(ncols_rows):
                m.rows[i][j] = c[i]
        return m

    # -- basic access ------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(self.rows[i] == other.rows[i] for i in range(self.nrows))
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows)

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for r in self.rows for x in r)

    def stack_columns(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, [self.rows[i] + other.rows[i] for i in range(self.nrows)])

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        m = Matrix.zero(self.field, len(row_idx), len(col_idx))
        m.rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return m

    # -- arithmetic --------------------------------------------------
    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        f = self.field
        out = Matrix.zero(f, self.nrows, other.ncols)
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out.rows[i]
            for k in range(self.ncols):
                a = ri[k]
                if a == f.zero:
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    b = rk[j]
                    if b != f.zero:
                        oi[j] = f.add(oi[j], f.mul(a, b))
        return out

    def mul_vector(self, v):
        if self.ncols != len(v):
            raise ValueError("vector length mismatch")
        f = self.field
        out = [f.zero] * self.nrows
        for i in range(self.nrows):
            acc = f.zero
            ri = self.rows[i]
            for j, x in enumerate(v):
                if x != f.zero and ri[j] != f.zero:
                    acc = f.add(acc, f.mul(ri[j], x))
            out[i] = acc
        return out

    # -- elimination -------------------------------------------------
    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots, rank)`` where `pivots` is the strictly
        increasing list of pivot columns.
        """
        f = self.field
        R = self.copy()
        pivots = []
        pr = 0
        for pc in range(R.ncols):
            # first nonzero entry scanning rows top-down
            pivot_row = None
            for i in range(pr, R.nrows):
                if R.rows[i][pc] != f.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            R.rows[pr], R.rows[pivot_row] = R.rows[pivot_row], R.rows[pr]
            inv = f.inv(R.rows[pr][pc])
            R.rows[pr] = [f.mul(inv, x) for x in R.rows[pr]]
            for i in range(R.nrows):
                if i != pr and R.rows[i][pc] != f.zero:
                    c = R.rows[i][pc]
                    R.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(R.rows[i], R.rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == R.nrows:
                break
        return R, pivots, len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> "Matrix":
        """Columns span Ker(self): the canonical echelon kernel basis.

        Free variables in increasing column order, each set to 1 with
        the other free variables 0.
        """
        f = self.field
        R, pivots, _ = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        cols = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(R.rows[r][fc])
            cols.append(v)
        return Matrix.from_columns(f, self.ncols, cols)

    def solve(self, b):
        """Canonical particular solution of ``self @ x = b`` or None.

        Free variables are set to zero.
        """
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        f = self.field
        aug = Matrix(f, [self.rows[i] + [b[i]] for i in range(self.nrows)])
        R, pivots, _ = aug.rref()
        if self.ncols in pivots:
            return None
        x = [f.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][self.ncols]
        return x

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f = self.field
        aug = self.stack_columns(Matrix.identity(f, self.nrows))
        R, pivots, rank = aug.rref()
        if rank < self.nrows or pivots[: self.nrows] != list(range(self.nrows)):
            raise ValueError("matrix not invertible")
        return Matrix(f, [r[self.nrows:] for r in R.rows[: self.nrows]])


def column_space_basis(m: Matrix):
    """The pivot primitive: indices of the columns not in the span of the columns before them.

    These are the pivot columns of ``m.rref()``.  A column raises the rank
    of the columns before it exactly when it is a pivot, so this is the
    greedy left-to-right independent subset in one elimination; every
    choice of independent columns in the package goes through it.
    """
    return m.rref()[1]
