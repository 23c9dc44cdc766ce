from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import fraction_greedy_top
from hypothesis import assume, given, settings, strategies as st

from dantziglab import numerics
from dantziglab.cli import main
from dantziglab.numerics import (
    KEY_BITS,
    SingularMatrixError,
    format_rational,
    greedy_top,
    inverse,
    keyed,
    rat,
    solve_linear_system,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
ZERO = Fraction(0)
ONE = Fraction(1)


def sparse(dense):
    """Sparse rows (column -> nonzero entry) of a matrix given as dense rows."""
    return [{j: e for j, e in enumerate(row) if e} for row in dense]


def dense(rows, n):
    return [[row.get(j, ZERO) for j in range(n)] for row in rows]


def identity(n):
    return [{i: ONE} for i in range(n)]


def mul_vec(a, x):
    return [sum((e * x[j] for j, e in row.items()), start=ZERO) for row in a]


def matmul(a, b):
    """Sparse rows of a·b, with cancelled entries dropped."""
    out = []
    for row in a:
        acc = {}
        for j, e in row.items():
            for k, f in b[j].items():
                acc[k] = acc.get(k, ZERO) + e * f
        out.append({k: v for k, v in acc.items() if v})
    return out


def test_rat_accepts_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("7/2") == Fraction(7, 2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    # The ints 0 and 1 give the shared constants; any other int a new Fraction.
    assert rat(0) is numerics.ZERO and rat(1) is numerics.ONE
    assert type(rat(-1)) is Fraction and rat(-1) == -1 and rat(2) is not rat(2)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_format_round_trip():
    for q in (Fraction(3), Fraction(-7, 2), Fraction(0)):
        assert rat(format_rational(q)) == q


TINY = Fraction(1, 2**80)  # far below a key's floor resolution of 2^-KEY_BITS


class Opaque(Fraction):
    """A Fraction that refuses to be compared: a pick that compares one raises."""

    def _refuse(self, other):
        raise AssertionError("greedy_top compared a Fraction")

    __eq__ = __lt__ = __gt__ = __le__ = __ge__ = _refuse


@st.composite
def keyed_values(draw):
    """Positive values under distinct, unsorted indices, with near and exact repeats.

    Besides fresh values, an entry may repeat an earlier one as the same
    object or as a new, equal object, or sit 2^-80 above or below it: close
    enough that both usually share a floor.
    """
    fresh = st.fractions(min_value=Fraction(1, 10**6), max_value=10**4, max_denominator=10**6)
    values = [draw(fresh)]
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.sampled_from(values))
        kind = draw(st.sampled_from(["same", "equal", "above", "below", "fresh"]))
        if kind == "equal":
            x = Fraction(x.numerator, x.denominator)
        elif kind == "above" or kind == "below" and x > TINY:
            x = x + TINY if kind == "above" else x - TINY
        elif kind == "fresh":
            x = draw(fresh)
        values.append(x)
    indices = draw(st.lists(st.integers(0, 10**6), min_size=len(values), max_size=len(values), unique=True))
    return dict(zip(indices, values))


@settings(max_examples=300, deadline=None)
@given(keyed_values())
def test_greedy_top_is_the_fraction_maximum_and_every_index_equal_to_it(values):
    keys = {i: keyed(x) for i, x in values.items()}
    top, indices = greedy_top(keys)
    expected_top, expected = fraction_greedy_top(keys)
    assert top == expected_top and any(top is x for x in values.values())
    assert indices == expected  # in the map's own order


@settings(max_examples=200, deadline=None)
@given(keyed_values())
def test_greedy_top_compares_no_fraction(values):
    opaque = {i: Opaque(x.numerator, x.denominator) for i, x in values.items()}
    top, indices = greedy_top({i: keyed(x) for i, x in opaque.items()})
    expected_top, expected = fraction_greedy_top({i: keyed(x) for i, x in values.items()})
    assert type(top) is Opaque and top.as_integer_ratio() == expected_top.as_integer_ratio()
    assert indices == expected


def test_greedy_top_orders_values_that_share_a_floor():
    x = Fraction(7, 3)
    above, equal = x + TINY, Fraction(14, 6)
    assert keyed(x)[0] == keyed(above)[0] == ((7 << KEY_BITS) // 3)
    assert keyed(equal)[1:3] == (7, 3) and equal is not x
    keys = {5: keyed(x), 2: keyed(above), 9: keyed(equal)}
    assert greedy_top(keys) == (above, [2])
    del keys[2]
    top, indices = greedy_top(keys)
    assert top is x and indices == [5, 9]


def test_solve_identity():
    a = identity(3)
    assert solve_linear_system(a, [rat(1), rat(2), rat(3)]) == [rat(1), rat(2), rat(3)]


def test_solve_hand_elimination():
    # [[2,1],[1,3]] x = (5,10) has the unique solution (1, 3).
    a = sparse([[rat(2), rat(1)], [rat(1), rat(3)]])
    assert solve_linear_system(a, [rat(5), rat(10)]) == [rat(1), rat(3)]


def test_solve_singular_raises():
    a = sparse([[rat(1), rat(2)], [rat(2), rat(4)]])
    with pytest.raises(SingularMatrixError):
        solve_linear_system(a, [rat(1), rat(1)])


def test_inverse_identity_and_diagonal():
    assert inverse(identity(4)) == identity(4)
    a = sparse([[rat(2), rat(0)], [rat(0), rat(4)]])
    assert inverse(a) == sparse([[Fraction(1, 2), rat(0)], [rat(0), Fraction(1, 4)]])

    # The LP's column shapes, rows s, mid, t, u, v, w: a detour column
    # {s: p, mid: -p}, a hop {mid: 1, t: -1} and a split {t: 1, u: -1/2,
    # v: -1/2}, then a cycle block on u, v, w with no row singleton, which
    # the inverse refuses and only the solver's elimination takes.  Worked
    # by hand: s pivots with scale p and mid adds row s (ratio -1), then mid
    # and t pivot in turn and t's row goes to u and v at ratio -1/2.  The
    # elimination pivots column 3 on u with scale 2; v adds row u (ratio -1),
    # which cancels v's column 4 entry, so v is a singleton on column 5.
    # w subtracts 4·v and pivots column 4 with scale 5, and u subtracts
    # 3/10·w.  A cancelled entry kept as 0 would leave v no singleton and
    # pivot column 4 on v's zero.
    p, h = Fraction(1, 21870), Fraction(1, 2)
    a = [
        {0: p},
        {0: -p, 1: ONE},
        {1: -ONE, 2: ONE},
        {2: -h, 3: rat(2), 4: rat(3)},
        {2: -h, 3: rat(-2), 4: rat(-3), 5: ONE},
        {4: rat(5), 5: rat(4)},
    ]
    with pytest.raises(SingularMatrixError, match=r"^no singleton order: 3 rows of the inverse stay unknown$"):
        inverse(a)
    inv = numerics._gauss_jordan(numerics._square(a), identity(6))
    assert inv[0] == {0: 1 / p}
    assert inv[1] == {0: ONE, 1: ONE}
    assert inv[2] == {0: ONE, 1: ONE, 2: ONE}
    q = Fraction(29, 20)
    assert inv[3] == {0: q, 1: q, 2: q, 3: Fraction(17, 10), 4: Fraction(6, 5), 5: Fraction(-3, 10)}
    q = Fraction(-4, 5)
    assert inv[4] == {0: q, 1: q, 2: q, 3: q, 4: q, 5: Fraction(1, 5)}
    assert inv[5] == {0: ONE, 1: ONE, 2: ONE, 3: ONE, 4: ONE}
    assert matmul(a, inv) == identity(6)
    assert matmul(inv, a) == identity(6)


def test_empty_system_and_inverse_are_empty():
    assert solve_linear_system([], []) == []
    assert inverse([]) == []


def test_float_and_misshapen_input_is_rejected():
    # A dense ragged or wide matrix has no sparse form; its sparse analogue is
    # a column key outside range(n).
    ragged = [{0: rat(1)}, {-1: rat(1)}]
    wide = [{0: rat(1), 2: rat(1)}, {1: rat(1)}]
    for solve in (inverse, lambda rows: solve_linear_system(rows, [rat(1)] * len(rows))):
        with pytest.raises(TypeError):
            solve([{0: rat(1), 1: 0.5}, {1: rat(1)}])
        with pytest.raises(TypeError):
            solve([{0: rat(1), 1: 0.0}, {1: rat(1)}])
        for rows in (ragged, wide):
            with pytest.raises(ValueError, match="matrix must be square"):
                solve(rows)
    with pytest.raises(TypeError):
        solve_linear_system(identity(2), [rat(1), 0.5])
    with pytest.raises(TypeError):
        solve_linear_system(identity(2), [rat(1), 0.0])

    # Explicit zeros are dropped: kept, they would hide the two row singletons
    # and leave a zero pivot in column 0; dropped, each row pivots on its one
    # nonzero.
    a = [{0: rat(0), 1: rat(2)}, {0: rat(3), 1: rat(0)}]
    assert inverse(a) == [{1: Fraction(1, 3)}, {0: Fraction(1, 2)}]
    assert solve_linear_system(a, [rat(4), rat(0)]) == [rat(0), rat(2)]
    assert a == [{0: rat(0), 1: rat(2)}, {0: rat(3), 1: rat(0)}]  # input untouched
    # An entry that cancels during elimination is deleted, not stored as 0.
    b = sparse([[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert inverse(b) == sparse([[0, -1, 1], [-1, 1, 0], [1, 0, 0]])


def _brute_force_total_reward(chain, rewards, start, sink):
    """Expected total reward by path enumeration with geometric self-loop closure.

    ``chain`` maps each state to {successor: probability}.  Assumes the
    policy graph is acyclic once self-loops are removed, which lets each
    state be closed in one backward pass over a DFS postorder.
    """
    order = []
    seen = set()

    def visit(s):
        if s in seen:
            return
        seen.add(s)
        for t in chain[s]:
            if t != s:
                visit(t)
        order.append(s)

    visit(start)
    values = {sink: Fraction(0)}
    for s in order:
        if s in values:
            continue
        self_mass = chain[s].get(s, Fraction(0))
        acc = rewards[s]
        for t, p in chain[s].items():
            if t != s:
                acc += p * values[t]
        values[s] = acc / (1 - self_mass)
    return values


def test_transient_system_matches_path_sum_oracle():
    # The n=1 clock chain under the all-right policy, written out by hand:
    # states si, si', 0, 1, 1' plus the two detour hops of state 1.
    h = Fraction(1, 2)
    t = Fraction(729)
    a1 = Fraction(1, 4) / (2 * t)
    chain = {
        "si": {"si": Fraction(1)},
        "si'": {"si": Fraction(1)},
        "0": {"si": Fraction(1)},
        "1'": {"si": h, "si'": h},
        "1": {"hop": a1, "1": 1 - a1},
        "hop": {"0": Fraction(1)},
    }
    rewards = {"si": Fraction(0), "si'": t * 4, "0": Fraction(0), "1'": Fraction(0), "1": Fraction(0), "hop": Fraction(0)}
    oracle = _brute_force_total_reward(chain, rewards, "1'", "si")
    assert oracle["1'"] == t * 2
    oracle = _brute_force_total_reward(chain, rewards, "1", "si")
    assert oracle["1"] == 0

    # Same system through the sparse solver: v = r + P v on the transient part.
    states = ["si'", "0", "1'", "1", "hop"]
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows = identity(n)
    rhs = []
    for s in states:
        for t2, p in chain[s].items():
            if t2 in idx:
                i = idx[t2]
                rows[idx[s]][i] = rows[idx[s]].get(i, ZERO) - p
        rhs.append(rewards[s])
    solution = solve_linear_system(rows, rhs)
    for s in states:
        assert solution[idx[s]] == _brute_force_total_reward(chain, rewards, s, "si")[s]


def test_random_solve_substitutes_back():
    rng = random.Random(20240211)
    for n in range(1, 9):
        solved = 0
        while solved < 4:
            a = sparse([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)])
            b = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)]
            try:
                x = solve_linear_system(a, b)
            except SingularMatrixError:
                continue
            assert mul_vec(a, x) == b
            solved += 1


def test_random_inverse_multiplies_to_identity():
    # The inverse takes the matrices that are triangular under some row and
    # column permutation, the shape of every acyclic policy's basis.
    rng = random.Random(7)
    for n in range(1, 9):
        rows = [
            [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9)) if j == i
             else Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if j < i else ZERO for j in range(n)]
            for i in range(n)
        ]
        row_order, col_order = rng.sample(range(n), n), rng.sample(range(n), n)
        a = sparse([[rows[row_order[i]][col_order[j]] for j in range(n)] for i in range(n)])
        inv = inverse(a)
        assert matmul(inv, a) == identity(n)
        assert matmul(a, inv) == identity(n)


@given(rationals, rationals, rationals)
def test_field_axioms_on_random_triples(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _determinant(rows):
    """Laplace expansion along the first row: no elimination, no pivoting."""
    if not rows:
        return ONE
    total = ZERO
    for j, e in enumerate(rows[0]):
        if e:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * e * _determinant(minor)
    return total


NONZERO = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)]
small = st.sampled_from([ZERO] + NONZERO)
nonzero = st.sampled_from(NONZERO)


@st.composite
def shaped_matrices(draw):
    """(shape, sparse rows) of an n×n matrix, n ≤ 6, with its rows and columns permuted.

    "triangular" is lower triangular with a nonzero diagonal, so it always
    has a row singleton; "cycle" also closes the cycle 0 → 1 → … → n-1 → 0
    above the diagonal, so for n ≥ 2 no row starts as a singleton: the
    inverse refuses it, and the elimination needs its fallback pivot (and
    may find it singular);
    "singular" replaces one row of a triangular matrix with a combination of
    the other rows.
    """
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["triangular", "cycle", "singular"]))
    diagonal = draw(st.lists(nonzero, min_size=n, max_size=n))
    below = iter(draw(st.lists(small, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    rows = [[next(below) if j < i else ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = diagonal[i]
    if shape == "cycle":
        for i, e in enumerate(draw(st.lists(nonzero, min_size=n, max_size=n))):
            rows[i][(i + 1) % n] = e
    elif shape == "singular":
        k = draw(st.integers(0, n - 1))
        weights = draw(st.lists(small, min_size=n, max_size=n))
        rows[k] = [
            sum((weights[i] * rows[i][j] for i in range(n) if i != k), start=ZERO) for j in range(n)
        ]
    row_order = draw(st.permutations(range(n)))
    col_order = draw(st.permutations(range(n)))
    permuted = [[rows[row_order[i]][col_order[j]] for j in range(n)] for i in range(n)]
    return shape, sparse(permuted)


@settings(max_examples=300, deadline=None)
@given(shaped_matrices(), st.data())
def test_elimination_agrees_with_a_cofactor_determinant(case, data):
    shape, a = case
    n = len(a)
    given_rows = [dict(row) for row in a]
    det = _determinant(dense(a, n))
    assert (det == 0) if shape == "singular" else (det != 0 or shape == "cycle")
    b = data.draw(st.lists(small, min_size=n, max_size=n))
    if det == 0:
        with pytest.raises(SingularMatrixError):
            inverse(a)
        with pytest.raises(SingularMatrixError):
            solve_linear_system(a, b)
        return
    inv = numerics._gauss_jordan(numerics._square(a), identity(n))
    assert all(v for row in inv for v in row.values())
    assert matmul(a, inv) == identity(n)
    assert matmul(inv, a) == identity(n)
    assert mul_vec(a, solve_linear_system(a, b)) == b
    assert a == given_rows


@settings(max_examples=200, deadline=None)
@given(shaped_matrices())
def test_substitution_inverts_a_triangular_matrix_and_stalls_on_a_cycle(case):
    # A triangular matrix always has a row singleton, and each row it pivots
    # leaves another, so the substitution never stalls.  A cycle of n ≥ 2
    # has no singleton to start from, and the stall raises.
    shape, a = case
    assume(shape != "singular")
    n = len(a)
    if shape == "triangular":
        assert inverse(a) == numerics._gauss_jordan(numerics._square(a), identity(n))
    elif n >= 2:
        with pytest.raises(SingularMatrixError, match=f"^no singleton order: {n} rows of the inverse stay unknown$"):
            inverse(a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_re_solves_only_the_rows_it_is_not_given(data):
    # L is lower triangular, so rows k.. of L are exactly the rows holding a
    # column k.. of X = L⁻¹.  Given X's rows ..k-1, the inverse substitutes
    # rows k.. alone, never reads rows ..k-1 of L (here None), and shares
    # the given rows.  Without ``rows`` every row of L is read, and those
    # with no open column never pivot.
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, n))
    diagonal = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    below = iter(data.draw(st.lists(small, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    a = sparse([[diagonal[i] if j == i else next(below) if j < i else ZERO for j in range(n)] for i in range(n)])
    x = numerics._gauss_jordan(numerics._square(a), identity(n))
    known = [*x[:k], *[None] * (n - k)]
    out = inverse([*[None] * k, *a[k:]], known=known, rows=range(k, n))
    assert out is known and out == x
    assert all(out[c] is x[c] for c in range(k))
    if k:
        assert inverse(a, known=[*x[:k], *[None] * (n - k)]) == x


def test_every_lockstep_basis_inverts_without_the_elimination(tmp_path, monkeypatch):
    # A basis with no singleton order, or a policy with a cycle, raises and
    # exits 4, so these commands exit as they do only if every basis and
    # every policy they reach is acyclic apart from self-loops.
    import dantziglab.lp as lp_module

    calls = []
    original = lp_module.inverse

    def counting(a, **carried):
        calls.append(len(a))
        return original(a, **carried)

    monkeypatch.setattr(lp_module, "inverse", counting)
    argv = ["verify", "--builtin", "identity1", "--bits", "1", "--which", "equivalence"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == 23
    argv = ["verify", "--builtin", "rot2", "--bits", "11", "--which", "all"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    argv = ["decide", "--builtin", "rot3", "--bits", "111", "--z", "1", "--problem", "dantzigsol"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
