from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dantziglab.numerics import (
    SingularMatrixError,
    format_rational,
    inverse,
    rat,
    solve_linear_system,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul_vec(a, x):
    return [sum((e * xj for e, xj in zip(row, x)), start=Fraction(0)) for row in a]


def matmul(a, b):
    columns = list(zip(*b))
    return [mul_vec(columns, row) for row in a]


def test_rat_accepts_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("7/2") == Fraction(7, 2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_format_round_trip():
    for q in (Fraction(3), Fraction(-7, 2), Fraction(0)):
        assert rat(format_rational(q)) == q


def test_solve_identity():
    a = identity(3)
    assert solve_linear_system(a, [rat(1), rat(2), rat(3)]) == [rat(1), rat(2), rat(3)]


def test_solve_hand_elimination():
    # [[2,1],[1,3]] x = (5,10) has the unique solution (1, 3).
    a = [[rat(2), rat(1)], [rat(1), rat(3)]]
    assert solve_linear_system(a, [rat(5), rat(10)]) == [rat(1), rat(3)]


def test_solve_singular_raises():
    a = [[rat(1), rat(2)], [rat(2), rat(4)]]
    with pytest.raises(SingularMatrixError):
        solve_linear_system(a, [rat(1), rat(1)])


def test_inverse_identity_and_diagonal():
    assert inverse(identity(4)) == identity(4)
    a = [[rat(2), rat(0)], [rat(0), rat(4)]]
    assert inverse(a) == [[Fraction(1, 2), rat(0)], [rat(0), Fraction(1, 4)]]


def test_empty_system_and_inverse_are_empty():
    assert solve_linear_system([], []) == []
    assert inverse([]) == []


def test_float_and_misshapen_input_is_rejected():
    ragged = [[rat(1), rat(0)], [rat(0)]]
    wide = [[rat(1), rat(0), rat(0)], [rat(0), rat(1), rat(0)]]
    for solve in (inverse, lambda rows: solve_linear_system(rows, [rat(1)] * len(rows))):
        with pytest.raises(TypeError):
            solve([[rat(1), 0.5], [rat(0), rat(1)]])
        for rows in (ragged, wide):
            with pytest.raises(ValueError, match="matrix must be square"):
                solve(rows)
    with pytest.raises(TypeError):
        solve_linear_system(identity(2), [rat(1), 0.5])


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

    # Same system through the dense solver: v = r + P v on the transient part.
    states = ["si'", "0", "1'", "1", "hop"]
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows = identity(n)
    rhs = []
    for s in states:
        for t2, p in chain[s].items():
            if t2 in idx:
                rows[idx[s]][idx[t2]] -= p
        rhs.append(rewards[s])
    solution = solve_linear_system(rows, rhs)
    for s in states:
        assert solution[idx[s]] == _brute_force_total_reward(chain, rewards, s, "si")[s]


def _random_nonsingular(rng, n):
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return rows, inverse(rows)
        except SingularMatrixError:
            continue


def test_random_solve_substitutes_back():
    rng = random.Random(20240211)
    for n in range(1, 9):
        for _ in range(4):
            a, _ = _random_nonsingular(rng, n)
            b = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)]
            x = solve_linear_system(a, b)
            assert mul_vec(a, x) == b


def test_random_inverse_multiplies_to_identity():
    rng = random.Random(7)
    for n in range(1, 9):
        a, inv = _random_nonsingular(rng, n)
        assert matmul(inv, a) == identity(n)
        assert matmul(a, inv) == identity(n)


@given(rationals, rationals, rationals)
def test_field_axioms_on_random_triples(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
