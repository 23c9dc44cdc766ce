"""Exact rational scalars and sparse rational linear algebra on rows.

Every number in this package is a ``fractions.Fraction``; nothing is ever
computed in floating point.  The decisive comparisons downstream separate
constants such as 16/5 and 33/10 after division by quantities of magnitude
3^(d+6), so exactness is a correctness requirement, not a nicety.

A square n×n matrix is a list of n sparse rows, each a dict from column
index to its nonzero entry.  The solver and the inverse copy their input and
coerce every given entry with ``rat``, so a float anywhere, ``0.0``
included, raises ``TypeError``; a column key outside ``range(n)`` raises
``ValueError``; a given zero is dropped, and an entry that cancels to zero
during elimination is deleted, so no row ever stores a zero.

Both run one sparse Gauss-Jordan elimination over the rationals.  It pivots
first on row singletons: rows with one nonzero left among the unpivoted
columns, kept in a queue as in Kahn's topological sort (the "singleton"
phase of LP basis factorization; Suhl & Suhl 1990, ORSA J. Computing 2(4)).
A singleton's column is its only unpivoted entry, so eliminating that
column from the rows that hold it touches only their right-hand sides.  A
matrix that is triangular under some row and column permutation, as the
basis of every acyclic policy is, therefore eliminates with no fill at all
in its left block.  When no singleton is left (a transient cycle), the
elimination pivots on the first unpivoted column's first open row, and a
column with no nonzero left among the open rows means the matrix is
singular.  The inverse and the solution are unique, so the pivot order
never changes a result.

Each row h holding the pivot column subtracts ratio × the unscaled pivot
row, ratio = h's entry / the pivot, and only then is the pivot row divided
by the pivot.  Most columns of the construction's LP bases are a hop
{s: 1, t: -1} or a detour {s: p, mid: -p}, whose one entry off the pivot
is the negated pivot.  That ratio is exactly -1, so eliminating it adds
the pivot row with one Fraction addition per entry, where scaling first
would divide each entry and then multiply the quotient back.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

SparseRow = dict[int, Fraction]


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


def _square(rows: Sequence[Mapping[int, Fraction]]) -> list[SparseRow]:
    """Fresh sparse rows of a square matrix: entries coerced by ``rat``, zeros dropped."""
    n = len(rows)
    out = []
    for row in rows:
        fresh = {}
        for j, x in row.items():
            if j not in range(n):
                raise ValueError(f"matrix must be square: column {j!r} is outside range({n})")
            x = rat(x)
            if x:
                fresh[j] = x
        out.append(fresh)
    return out


def _axpy(row: SparseRow, factor: Fraction, pivot: SparseRow) -> None:
    """row -= factor·pivot in place, deleting the entries that cancel to zero.

    A factor of -1 adds the pivot row with no multiplication at all.
    """
    neg = -factor
    unit = neg == ONE
    for k, v in pivot.items():
        term = v if unit else neg * v
        old = row.get(k)
        if old is None:
            row[k] = term
        else:
            new = old + term
            if new:
                row[k] = new
            else:
                del row[k]


def _gauss_jordan(left: list[SparseRow], right: list[SparseRow]) -> list[SparseRow]:
    """Reduce the square ``left`` rows to the identity, applying each step to ``right``.

    Both lists are changed in place.  Returns the right-hand rows in column
    order: entry c is the right row whose pivot was column c.
    """
    n = len(left)
    holders: list[set[int]] = [set() for _ in range(n)]  # column -> rows holding it
    for r, row in enumerate(left):
        for c in row:
            holders[c].add(r)
    is_open = [True] * n
    singles = deque(r for r, row in enumerate(left) if len(row) == 1)
    pivot_row: list[int | None] = [None] * n
    first_free = 0
    for _ in range(n):
        while singles and not (is_open[singles[0]] and len(left[singles[0]]) == 1):
            singles.popleft()  # pivoted since it was queued, or no longer a singleton
        if singles:
            r = singles.popleft()
            (c,) = left[r]
        else:
            while pivot_row[first_free] is not None:
                first_free += 1
            c = first_free
            candidates = [h for h in holders[c] if is_open[h]]
            if not candidates:
                raise SingularMatrixError(f"zero pivot in column {c}")
            r = min(candidates)
        pivot_row[c] = r
        is_open[r] = False
        prow, pright = left[r], right[r]
        scale = prow.pop(c)
        holders[c].discard(r)
        for h in holders[c]:
            row = left[h]
            ratio = row.pop(c) / scale
            _axpy(row, ratio, prow)
            for k in prow:
                if k in row:
                    holders[k].add(h)
                else:
                    holders[k].discard(h)
            _axpy(right[h], ratio, pright)
            if is_open[h] and len(row) == 1:
                singles.append(h)
        if scale != ONE:
            for k in prow:
                prow[k] /= scale
            for k in pright:
                pright[k] /= scale
    return [right[r] for r in pivot_row]  # type: ignore[index]


def solve_linear_system(a: Sequence[Mapping[int, Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    """Solve a·x = b exactly for square nonsingular a, given as sparse rows; x is dense."""
    left = _square(a)
    n = len(left)
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    right = [{0: x} if x else {} for x in map(rat, b)]
    return [row.get(0, ZERO) for row in _gauss_jordan(left, right)]


def inverse(a: Sequence[Mapping[int, Fraction]]) -> list[SparseRow]:
    """Sparse rows of the exact inverse of a square nonsingular matrix, given as sparse rows."""
    left = _square(a)
    return _gauss_jordan(left, [{i: ONE} for i in range(len(left))])
