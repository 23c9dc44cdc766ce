"""Exact rational scalars and sparse rational linear algebra on rows.

Every number handed between functions in this package is a
``fractions.Fraction``, compared with ``==``; inside, ``mdp``'s value walk
and appeals and ``lp``'s pivot kernels hold the same exact rationals as
``(numerator, denominator)`` int pairs, and both greedy picks compare
``keyed`` selection keys in ``greedy_top``, ints only.  Nothing is ever
computed in floating point.  The decisive comparisons downstream separate
constants such as 16/5 and 33/10 after division by quantities of magnitude
3^(d+6), so exactness is a correctness requirement, not a nicety.

A square n×n matrix is a list of n sparse rows, each a dict from column
index to its nonzero entry.  The solver and the inverse copy each row they
read and coerce its entries with ``rat``, so a float, ``0.0`` included,
raises ``TypeError``; a column key outside ``range(n)`` raises
``ValueError``; a given zero is dropped, and an entry that cancels to zero
during elimination is deleted, so no row ever stores a zero.

The inverse substitutes in singleton order, with no elimination (the
"singleton" phase of LP basis factorization; Suhl & Suhl 1990, ORSA J.
Computing 2(4)).  The inverse X of A satisfies Σ_c a_rc·X[c] = e_r for
every row r, so a row r with one column c whose X row is still unknown
gives X[c] = e_r/a_rc − Σ_{k≠c} (a_rk/a_rc)·X[k].  The rows with one open
column are kept on a stack, as in Kahn's topological sort; a row that runs
out of open columns without becoming a pivot is dependent on the pivoted
rows, so the matrix is singular.  A matrix that is triangular under some
row and column permutation, as the transposed basis of every acyclic
policy is, inverts this way completely; any other matrix leaves the stack
empty with rows still open, and the inverse raises rather than eliminate.
Most rows of those matrices are a hop {s: 1, t: -1} or a detour
{s: p, mid: -p}, whose one coefficient a_rk/a_rc is exactly -1, so X[s] is
a copy of X[t] or X[mid] plus the one entry 1/p: no Fraction is multiplied
or divided across the copied row.

Handed the X rows it already knows, the inverse counts them as closed
columns and substitutes only the rows of A that meet the others.

The elimination serves only the solver.  One sparse Gauss-Jordan pass
pivots first on row singletons too, then on the first unpivoted column's
first open row, and a column with no nonzero left among the open rows
means the matrix is singular.  Each row h holding the pivot column
subtracts ratio × the unscaled pivot row, ratio = h's entry / the pivot,
and only then is the pivot row divided by the pivot, so a ratio of exactly
-1 adds the pivot row with one Fraction addition per entry.  The solution
is unique, so the pivot order does not change it.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

SparseRow = dict[int, Fraction]


class SingularMatrixError(ValueError):
    """The matrix is singular, or ``inverse`` found it has no singleton order."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact rational.

    Floats are rejected on purpose: a float in this code base is a bug.
    The ints 0 and 1 give the shared ``ZERO`` and ``ONE``, as no Fraction changes.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return ZERO if value == 0 else ONE if value == 1 else Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"refusing to build an exact rational from {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Serialize as "p" or "p/q" (never a decimal)."""
    return str(value)


# The fraction bits of a selection key's floor.  The pick compares floors,
# then the tied keys' lowest-terms pairs cross-multiplied, so no value of it
# changes a result.
KEY_BITS = 64

Key = tuple[int, int, int, Fraction]  # (floor(x * 2**KEY_BITS), n, d, x) with n/d = x in lowest terms


def keyed(x: Fraction) -> Key:
    """``(floor(x * 2**KEY_BITS), n, d, x)``, where ``(n, d)`` is ``x.as_integer_ratio()``: ``greedy_top``'s key."""
    n, d = x.as_integer_ratio()
    return (n << KEY_BITS) // d, n, d, x


def positive_keys(xs: Sequence[Fraction]) -> dict[int, Key]:
    """Each index of a positive entry, mapped to the entry's ``keyed`` selection key."""
    return {i: keyed(x) for i, x in enumerate(xs) if x.numerator > 0}


def greedy_top(keys: Mapping[int, Key]) -> tuple[Fraction, list[int]]:
    """The largest keyed value and every index holding it, in ``keys``' order, comparing ints only.

    Flooring keeps order, so the maximum carries the largest floor; among
    the keys sharing it the largest ``(n, d)`` is found by cross-multiplying,
    and, lowest terms making equal values equal pairs, its ties hold its pair.
    """
    floor = max(keys.values(), key=itemgetter(0))[0]
    tied = [(i, key) for i, key in keys.items() if key[0] == floor]
    _, n, d, top = tied[0][1]
    for _, (_, kn, kd, x) in tied:
        if kn * d > n * kd:
            n, d, top = kn, kd, x
    return top, [i for i, key in tied if key[1] == n and key[2] == d]


def _coerced(row: Mapping[int, Fraction], n: int) -> SparseRow:
    """A fresh sparse row of an n-column matrix: entries coerced by ``rat``, zeros dropped."""
    fresh = {}
    for j, x in row.items():
        if j not in range(n):
            raise ValueError(f"matrix must be square: column {j!r} is outside range({n})")
        x = rat(x)
        if x:
            fresh[j] = x
    return fresh


def _square(rows: Sequence[Mapping[int, Fraction]]) -> list[SparseRow]:
    """Fresh sparse rows of a square matrix: entries coerced by ``rat``, zeros dropped."""
    return [_coerced(row, len(rows)) for row in rows]


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


def inverse(
    a: Sequence[Mapping[int, Fraction]],
    *,
    known: list[SparseRow | None] | None = None,
    rows: Iterable[int] | None = None,
) -> list[SparseRow]:
    """Sparse rows of the exact inverse X of a square matrix, given as sparse rows, by substitution in singleton order.

    A row r whose one open column is c gives
    X[c] = e_r/a_rc − Σ_{k≠c} (a_rk/a_rc)·X[k].  Raises
    ``SingularMatrixError`` for a singular matrix, and for one that is not
    triangular under any permutation: no row is left with one open column
    while an X row is still unknown.  ``a`` is not changed.

    Given ``known``, its X rows that are not None are kept, the very dicts,
    and count as closed columns; its None rows are filled in place.  Given
    ``rows``, only those rows of ``a`` are read, coerced and range-checked.
    They must be every row holding a column whose X row is None, and as
    many: then by X·a = I no kept X row holds one of them.
    """
    n = len(a)
    out = [None] * n if known is None else known
    left = {r: _coerced(a[r], n) for r in (range(n) if rows is None else rows)}
    holders: dict[int, list[int]] = {}
    open_count: dict[int, int] = {}
    singles = []
    for r, row in left.items():
        count = 0
        for c in row:
            if out[c] is None:
                holders.setdefault(c, []).append(r)
                count += 1
        open_count[r] = count
        if count == 1:
            singles.append(r)
    for missing in range(out.count(None), 0, -1):
        if not singles:
            raise SingularMatrixError(f"no singleton order: {missing} rows of the inverse stay unknown")
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
        x[r] = ONE if unit else 1 / scale  # no X[k] read here holds r: see ``known`` above
        out[c] = x
        for h in holders[c]:
            open_count[h] -= 1
            if open_count[h] == 1:
                singles.append(h)
            elif open_count[h] == 0 and h != r:
                raise SingularMatrixError(f"row {h} has no open column left to pivot on")
    return out  # type: ignore[return-value]
