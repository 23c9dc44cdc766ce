"""Exact rational scalars and dense rational linear algebra on rows.

Every number in this package is a ``fractions.Fraction``; nothing is ever
computed in floating point.  The decisive comparisons downstream separate
constants such as 16/5 and 33/10 after division by quantities of magnitude
3^(d+6), so exactness is a correctness requirement, not a nicety.

A square matrix is a plain list of rows, each a list of ``Fraction``.  The
solver and the inverse copy their input and coerce every entry with ``rat``,
so a float anywhere raises ``TypeError``.  Both run plain Gauss-Jordan
elimination over the rationals, pivoting on the first nonzero entry in each
column.  That is exact, and cubic time is fine at the scales that occur here
(a few hundred unknowns).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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


def _square(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Fresh exact rows of a square matrix, every entry coerced by ``rat``."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return [[rat(x) for x in row] for row in rows]


def _gauss_jordan(aug: list[list[Fraction]], n: int) -> None:
    """Reduce the left n columns of the augmented rows to the identity, in place."""
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
        width = len(prow)
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


def solve_linear_system(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    """Solve a·x = b exactly for square nonsingular a, given as rows."""
    aug = _square(a)
    n = len(aug)
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    for row, value in zip(aug, b):
        row.append(rat(value))
    _gauss_jordan(aug, n)
    return [row[n] for row in aug]


def inverse(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Rows of the exact inverse of a square nonsingular matrix, given as rows."""
    aug = _square(a)
    n = len(aug)
    for i, row in enumerate(aug):
        row.extend([ZERO] * n)
        row[n + i] = ONE
    _gauss_jordan(aug, n)
    return [row[n:] for row in aug]
