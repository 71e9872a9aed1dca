"""Exact field arithmetic and the elimination kernel used everywhere else.

Fields are the rationals (characteristic 0, :class:`fractions.Fraction`
values) or a prime field GF(p) (values are ints in ``0..p-1``).  All
elimination routines use one fixed pivoting order -- first nonzero entry
scanning rows top-down, columns left-right -- so every basis produced
downstream is reproducible run to run.

Elimination runs on sparse rows (the nonzero entries as ``{column: int}``)
with one of two inner loops: GF(p) reduces each product ``% p``; QQ works
fraction-free on primitive integer rows and forms Fractions only when it
divides the pivot rows by their pivots at the end.  The reduced row
echelon form of a matrix is unique, so R, the pivots and everything read
from them equal what the dense textbook loop gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
        # Fractions are immutable, so one shared value serves every read
        self.zero = Fraction(0) if characteristic == 0 else 0
        self.one = Fraction(1) if characteristic == 0 else 1

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    def of(self, value):
        """Coerce an int, Fraction or 'a/b' string into the field."""
        if self.char == 0:
            return Fraction(value)
        if isinstance(value, str):
            value = Fraction(value)
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
        return self.submatrix(range(self.nrows), range(self.ncols))

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        return not any(x for r in self.rows for x in r)

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
                if not a:
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    b = rk[j]
                    if b:
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
                if x and ri[j]:
                    acc = f.add(acc, f.mul(ri[j], x))
            out[i] = acc
        return out

    # -- elimination -------------------------------------------------
    def _echelon(self, reduced: bool):
        """Sparse elimination in the dense scan order: ``(rows, pivots)``.

        Rows are ``{column: int}`` dicts of the nonzero entries, reduced mod
        p, or in QQ scaled to primitive integer rows.  Per column, the first
        row at or below the pivot row with a nonzero entry there is swapped
        up and cleared out of every row below it, and with `reduced` out of
        every row above too.  ``rows[r]`` ends as the pivot row of
        ``pivots[r]``, with pivot 1 in GF(p) and a positive pivot in QQ.
        """
        p = self.field.char
        rows = []
        for r in self.rows:
            if p:
                rows.append({j: x % p for j, x in enumerate(r) if x % p})
                continue
            nz = [(j, x.as_integer_ratio()) for j, x in enumerate(r) if x]
            d = lcm(*(q for _, (_, q) in nz))
            row = {j: a * (d // q) for j, (a, q) in nz}
            g = gcd(*row.values())
            rows.append({j: v // g for j, v in row.items()} if g > 1 else row)
        pivots = []
        for pc in range(self.ncols):
            pr = len(pivots)
            for i in range(pr, len(rows)):
                if pc in rows[i]:
                    break
            else:
                continue
            rows[pr], rows[i] = rows[i], rows[pr]
            prow = rows[pr]
            a = prow[pc]
            if p and a != 1:
                inv = pow(a, -1, p)
                for c in prow:
                    prow[c] = prow[c] * inv % p
            elif a < 0:
                for c in prow:
                    prow[c] = -prow[c]
            a = prow[pc]
            items = list(prow.items())
            for i in range(0 if reduced else pr + 1, len(rows)):
                row = rows[i]
                b = row.get(pc)
                if b is None or i == pr:
                    continue
                if p:
                    for c, y in items:
                        v = (row.get(c, 0) - b * y) % p
                        if v:
                            row[c] = v
                        else:
                            del row[c]
                    continue
                g = gcd(a, b)
                a1, b1 = a // g, b // g
                if a1 != 1:
                    for c in row:
                        row[c] *= a1
                for c, y in items:
                    v = row.get(c, 0) - b1 * y
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                g = gcd(*row.values())
                if g > 1:
                    rows[i] = {c: v // g for c, v in row.items()}
            pivots.append(pc)
        return rows, pivots

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots, rank)`` where `pivots` is the strictly
        increasing list of pivot columns.
        """
        f = self.field
        rows, pivots = self._echelon(reduced=True)
        R = Matrix.zero(f, self.nrows, self.ncols)
        for r, pc in enumerate(pivots):
            a = rows[r][pc]
            for c, v in rows[r].items():
                R.rows[r][c] = v if f.char else Fraction(v, a)
        return R, pivots, len(pivots)

    def rank(self) -> int:
        """The number of pivots of forward elimination alone."""
        return len(self._echelon(reduced=False)[1])

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
                x = R.rows[r][fc]
                if x:
                    v[pc] = f.neg(x)
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

    These are the pivot columns of ``m.rref()``, which forward elimination
    alone already finds.  A column raises the rank of the columns before it
    exactly when it is a pivot, so this is the greedy left-to-right
    independent subset in one elimination; every choice of independent
    columns in the package goes through it.
    """
    return m._echelon(reduced=False)[1]
