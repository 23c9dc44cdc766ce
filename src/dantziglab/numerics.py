"""Exact rational scalars and dense rational linear algebra.

Every number in this package is a ``fractions.Fraction``; nothing is ever
computed in floating point.  The decisive comparisons downstream separate
constants such as 16/5 and 33/10 after division by quantities of magnitude
3^(d+6), so exactness is a correctness requirement, not a nicety.

The solver is plain Gaussian elimination over the rationals, pivoting on the
first nonzero entry in each column.  That is exact, and cubic time is fine at
the scales that occur here (a few hundred unknowns).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrixError(ValueError):
    """Exact elimination found a zero pivot column: the matrix is singular."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact rational.

    Floats are rejected on purpose: a float in this code base is a bug.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"refusing to build an exact rational from {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Serialize as "p" or "p/q" (never a decimal)."""
    return str(value)


class Matrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._e = [rat(x) for x in entries]

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls(n, n, [ZERO] * (n * n))
        for i in range(n):
            m._e[i * n + i] = ONE
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    def row(self, i: int) -> list[Fraction]:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "Matrix":
        out = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                out[j * self.rows + i] = self._e[base + j]
        return Matrix(self.cols, self.rows, out)

    def mul_vec(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for j, x in enumerate(v):
                if x:
                    e = self._e[base + j]
                    if e:
                        acc += e * x
            out.append(acc)
        return out

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [ZERO] * (self.rows * other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self._e[i * self.cols + k]
                if not a:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    b = other._e[obase + j]
                    if b:
                        out[rbase + j] += a * b
        return Matrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _gauss_jordan(aug: list[list[Fraction]], n: int) -> None:
    """Reduce the left n columns of the augmented rows to the identity, in place."""
    width = len(aug[0])
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if aug[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMatrixError(f"zero pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        prow = aug[col]
        inv = ONE / prow[col]
        if inv != ONE:
            for j in range(col, width):
                if prow[j]:
                    prow[j] *= inv
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if not factor:
                continue
            row = aug[r]
            for j in range(col, width):
                if prow[j]:
                    row[j] -= factor * prow[j]


def solve_linear_system(a: Matrix, b: Sequence[Fraction]) -> list[Fraction]:
    """Solve a·x = b exactly for square nonsingular a."""
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    aug = [a.row(i) + [rat(b[i])] for i in range(a.rows)]
    _gauss_jordan(aug, a.rows)
    return [aug[i][a.rows] for i in range(a.rows)]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix."""
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    n = a.rows
    aug = []
    for i in range(n):
        row = a.row(i) + [ZERO] * n
        row[n + i] = ONE
        aug.append(row)
    _gauss_jordan(aug, n)
    return Matrix(n, n, [aug[i][n + j] for i in range(n) for j in range(n)])
