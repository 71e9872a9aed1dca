"""Exact field arithmetic and the elimination kernel used everywhere else.

Fields are the rationals (characteristic 0; an int if integral, else a
:class:`fractions.Fraction`) or a prime field GF(p) (values are ints in
``0..p-1``).  All
elimination routines use one fixed pivoting order -- first nonzero entry
scanning rows top-down, columns left-right -- so every basis produced
downstream is reproducible run to run.

A matrix stores only its nonzero entries, row by row as ``{column: value}``
dicts, and every operation walks those alone.  Elimination copies the rows
and runs one of two inner loops: GF(p) reduces each product ``% p``; QQ
scales each row to a primitive integer row, works fraction-free and divides
the pivot rows by their pivots only at the end.
The reduced row echelon form of a matrix is unique, so R, the pivots and
everything read from them equal what the dense textbook loop gives.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# the only number forms `to_json` and `format_chain` write: an int or a/b, ASCII digits
_EXACT_NUMBER = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _q(x):
    """QQ normal form of an int or Fraction: an int when integral."""
    return x.numerator if x.denominator == 1 else x


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
    """The exact coefficient field: char 0 rationals (in `_q` normal form) or GF(p)."""

    def __init__(self, characteristic: int = 0):
        if characteristic != 0:
            if characteristic >= 2**31 or not _is_prime(characteristic):
                raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {characteristic}")
        self.char = characteristic
        self.zero, self.one = 0, 1

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    def of(self, value):
        """Coerce an int, Fraction or '-a/b' string into the field.

        A string must be an integer or a fraction of ASCII digits, with an
        optional leading minus and nothing else; any other raises ValueError.
        """
        if isinstance(value, str):
            number = _EXACT_NUMBER.fullmatch(value)
            if number is None:
                raise ValueError(f"{value!r} is not an integer or a fraction a/b")
            a, b = number.groups()
            value = int(a) if b is None else Fraction(int(a), int(b))
        if self.char == 0:
            return _q(value if isinstance(value, (int, Fraction)) else Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise ZeroDivisionError("denominator not invertible mod p")
            return value.numerator * pow(value.denominator, -1, self.char) % self.char
        return int(value) % self.char

    def add(self, a, b):
        return _q(a + b) if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return _q(a - b) if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return _q(a * b) if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        return a if a in (1, -1) else _q(1 / Fraction(a))

    def to_str(self, a) -> str:
        return str(a)


class Matrix:
    """An exact matrix over a :class:`Field`, stored as its rows of nonzeros.

    ``rows[i]`` maps the column of each nonzero entry of row i to its
    value, a field element; no zero is stored.  Values are immutable by
    convention: every operation returns a new matrix, and only the code
    that builds a matrix writes its rows.  Row/column indices are 0-based.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows):
        """The matrix with these dense rows (lists of field elements)."""
        rows = [list(r) for r in rows]
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")
        self.rows = [{j: x for j, x in enumerate(r) if x} for r in rows]

    # -- constructors ------------------------------------------------
    @staticmethod
    def sparse(field: Field, ncols: int, rows) -> "Matrix":
        """The matrix with these rows of nonzeros, ``{column: value}``, taken as they are."""
        m = Matrix.__new__(Matrix)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, rows
        return m

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix.sparse(field, ncols, [{} for _ in range(nrows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.sparse(field, n, [{i: field.one} for i in range(n)])

    @staticmethod
    def from_columns(field: Field, ncols_rows: int, columns) -> "Matrix":
        """Build a matrix with the given columns (each a length-`ncols_rows` vector)."""
        cols = [list(c) for c in columns]
        if any(len(c) != ncols_rows for c in cols):
            raise ValueError("column length mismatch")
        return Matrix.sparse(field, len(cols), [{j: c[i] for j, c in enumerate(cols) if c[i]}
                                                for i in range(ncols_rows)])

    # -- basic access ------------------------------------------------
    def _col(self, j: int) -> int:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        return j

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(self._col(j), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(self[i, j]) for j in range(self.ncols)) for i in range(self.nrows))
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"

    def column(self, j):
        j, z = self._col(j), self.field.zero
        return [r.get(j, z) for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        return not any(self.rows)

    def stack_columns(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        n = self.ncols
        return Matrix.sparse(self.field, n + other.ncols, [
            {**a, **{j + n: x for j, x in b.items()}} for a, b in zip(self.rows, other.rows)])

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        """Rows `row_idx` and the distinct columns `col_idx`, in the given orders."""
        pos = {self._col(j): k for k, j in enumerate(col_idx)}
        if len(pos) != len(col_idx):
            raise ValueError("repeated column index")
        return Matrix.sparse(self.field, len(pos), [
            {pos[j]: x for j, x in self.rows[i].items() if j in pos} for i in row_idx])

    # -- arithmetic --------------------------------------------------
    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        p, out = self.field.char, []
        for ri in self.rows:
            acc: dict = {}
            for k, a in ri.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v % p for j, v in acc.items() if v % p} if p
                       else {j: _q(v) for j, v in acc.items() if v})
        return Matrix.sparse(self.field, other.ncols, out)

    # -- elimination -------------------------------------------------
    def _echelon(self, reduced: bool):
        """Sparse elimination in the dense scan order: ``(rows, pivots)``.

        Rows are ``{column: int}`` dicts of the nonzero entries: the
        matrix's own in GF(p), in QQ scaled to primitive integer rows.  Per
        column, the first row at or below the pivot row with a nonzero
        entry there is swapped up and cleared out of every row below it,
        and with `reduced` out of every row above too.  ``rows[r]`` ends as
        the pivot row of ``pivots[r]``, with pivot 1 in GF(p) and a
        positive pivot in QQ; the rows after the last pivot end empty.
        """
        p = self.field.char
        if p:
            rows = [dict(r) for r in self.rows]
        else:
            rows = []
            for r in self.rows:
                nz = [(j, x.as_integer_ratio()) for j, x in r.items()]
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
        if not f.char:
            for r, pc in enumerate(pivots):
                if (d := rows[r][pc]) != 1:
                    rows[r] = {c: v // d if v % d == 0 else Fraction(v, d) for c, v in rows[r].items()}
        return Matrix.sparse(f, self.ncols, rows), pivots, len(pivots)

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
        free = {j: k for k, j in enumerate(j for j in range(self.ncols) if j not in pivot_set)}
        rows = [{free[j]: f.one} if j in free else {} for j in range(self.ncols)]
        for row, pc in zip(R.rows, pivots):
            rows[pc] = {free[c]: f.neg(x) for c, x in row.items() if c != pc}
        return Matrix.sparse(f, len(free), rows)

    def solve(self, b):
        """Canonical particular solution of ``self @ x = b`` or None.

        Free variables are set to zero.
        """
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        f, n = self.field, self.ncols
        aug = Matrix.sparse(f, n + 1, [{**r, n: x} if x else dict(r) for r, x in zip(self.rows, b)])
        R, pivots, _ = aug.rref()
        if n in pivots:
            return None
        x = [f.zero] * n
        for row, pc in zip(R.rows, pivots):
            x[pc] = row.get(n, f.zero)
        return x

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        f, n = self.field, self.nrows
        R, pivots, rank = self.stack_columns(Matrix.identity(f, n)).rref()
        if rank < n or pivots[:n] != list(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix.sparse(f, n, [{c - n: x for c, x in row.items() if c >= n} for row in R.rows[:n]])


def column_space_basis(m: Matrix):
    """The pivot primitive: indices of the columns not in the span of the columns before them.

    These are the pivot columns of ``m.rref()``, which forward elimination
    alone already finds.  A column raises the rank of the columns before it
    exactly when it is a pivot, so this is the greedy left-to-right
    independent subset in one elimination; every choice of independent
    columns in the package goes through it.
    """
    return m._echelon(reduced=False)[1]
