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

The inverse first tries substitution in singleton order, with no
elimination (the "singleton" phase of LP basis factorization; Suhl & Suhl
1990, ORSA J. Computing 2(4)).  The inverse X of A satisfies
Σ_c a_rc·X[c] = e_r for every row r, so a row r with one column c whose X
row is still unknown gives X[c] = e_r/a_rc − Σ_{k≠c} (a_rk/a_rc)·X[k].  The
rows with one open column are kept on a stack, as in Kahn's topological
sort; a row that runs out of open columns without becoming a pivot is
dependent on the pivoted rows, so the matrix is singular.  A
matrix that is triangular under some row and column permutation, as the
transposed basis of every acyclic policy is, inverts this way completely.
Most rows of those matrices are a hop {s: 1, t: -1} or a detour
{s: p, mid: -p}, whose one coefficient a_rk/a_rc is exactly -1, so X[s] is
a copy of X[t] or X[mid] plus the one entry 1/p: no Fraction is multiplied
or divided across the copied row.

Only when no singleton is left (a transient cycle), and always for the solver,
does one sparse Gauss-Jordan elimination run.  It pivots first on row
singletons too, then on the first unpivoted column's first open row, and a
column with no nonzero left among the open rows means the matrix is
singular.  Each row h holding the pivot column subtracts ratio × the
unscaled pivot row, ratio = h's entry / the pivot, and only then is the
pivot row divided by the pivot, so a ratio of exactly -1 adds the pivot
row with one Fraction addition per entry.  The inverse and the solution
are unique, so neither the method nor the pivot order changes a result.
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


def same(xs: Sequence[Fraction | int], ys: Sequence[Fraction | int]) -> bool:
    """Exact equality of two vectors of rationals, compared as ``as_integer_ratio()`` pairs.

    Exact, since a Fraction is kept in lowest terms over a positive denominator and an int n is (n, 1).
    """
    return [x.as_integer_ratio() for x in xs] == [y.as_integer_ratio() for y in ys]


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


def _substitute(left: list[SparseRow]) -> list[SparseRow] | None:
    """The inverse X of ``left`` by substitution in singleton order, or None on a stall.

    A row r whose one open column is c gives X[c] = e_r/a_rc − Σ_{k≠c} (a_rk/a_rc)·X[k].
    ``left`` is not changed.
    """
    n = len(left)
    holders: list[list[int]] = [[] for _ in range(n)]
    for r, row in enumerate(left):
        for c in row:
            holders[c].append(r)
    open_count = [len(row) for row in left]
    singles = [r for r, count in enumerate(open_count) if count == 1]
    out: list[SparseRow | None] = [None] * n
    for _ in range(n):
        if not singles:
            return None
        r = singles.pop()
        row = left[r]
        c = next(k for k in row if out[k] is None)
        scale = row[c]
        unit = scale == 1
        x: SparseRow = {}
        for k, v in row.items():
            if k != c:
                ratio = v if unit else v / scale
                if not x and ratio == -1:
                    x = out[k].copy()  # type: ignore[union-attr]
                else:
                    _axpy(x, ratio, out[k])  # type: ignore[arg-type]
        x[r] = ONE if unit else 1 / scale  # each X[k] so far holds only rows pivoted before r
        out[c] = x
        for h in holders[c]:
            open_count[h] -= 1
            if open_count[h] == 1:
                singles.append(h)
            elif open_count[h] == 0 and h != r:
                raise SingularMatrixError(f"row {h} has no open column left to pivot on")
    return out  # type: ignore[return-value]


def inverse(a: Sequence[Mapping[int, Fraction]]) -> list[SparseRow]:
    """Sparse rows of the exact inverse of a square nonsingular matrix, given as sparse rows."""
    left = _square(a)
    inv = _substitute(left)
    return inv if inv is not None else _gauss_jordan(left, [{i: ONE} for i in range(len(left))])
