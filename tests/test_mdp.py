from __future__ import annotations

import itertools
import random
import sys
import re
from fractions import Fraction

import pytest
from conftest import evaluate_gain, fraction_greedy_top, planting_walk, policy_graph_is_acyclic
from hypothesis import given, settings, strategies as st

from dantziglab import mdp as mdp_module
from dantziglab.circuit import negated_form, normalize_depths
from dantziglab.construction import (
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
    make_params,
)
from dantziglab.library import BUILTIN_CIRCUITS, identity_circuit, rotation_circuit, writer_machine
from dantziglab.mdp import (
    BadProbabilityError,
    CrosscheckError,
    IterationBudgetExceededError,
    Mdp,
    MdpError,
    NonZeroGainPolicyError,
    TieBreak,
    TraceEvent,
    add_gadget,
    appeals,
    decide_action_switch,
    decide_dantzig_mdp_sol,
    evaluate_values,
    fresh_value_check,
    make_policy,
    mdp_to_json,
    parse_tiebreak,
    run_policy_iteration,
)
from dantziglab.numerics import ZERO, SingularMatrixError, format_rational, rat
from dantziglab.turing import compile_machine

ONE = Fraction(1)


def sink_mdp():
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    return m, sink


def test_action_validation():
    m = Mdp()
    s = m.add_state()
    with pytest.raises(BadProbabilityError):
        m.add_action(s, {s: Fraction(1, 2)}, 0)
    with pytest.raises(BadProbabilityError):
        m.add_action(s, {s: Fraction(3, 2)}, 0)


def test_values_single_zero_loop():
    m, sink = sink_mdp()
    policy = make_policy(m, [0])
    assert evaluate_values(m, policy) == [0]


def test_values_simple_chain():
    m, sink = sink_mdp()
    s = m.add_state("s")
    a = m.add_action(s, {sink: ONE}, 5)
    policy = make_policy(m, {sink: 0, s: a})
    assert evaluate_values(m, policy)[s] == 5


def test_values_reject_rewarded_loop():
    m = Mdp()
    s = m.add_state()
    m.add_action(s, {s: ONE}, 3)
    with pytest.raises(NonZeroGainPolicyError, match=r"^absorbing state 0 loops with reward 3$"):
        evaluate_values(m, make_policy(m, [0]))


def test_values_reject_recurrent_cycle():
    m = Mdp()
    a_state = m.add_state()
    b_state = m.add_state()
    m.add_action(a_state, {b_state: ONE}, 0)
    m.add_action(b_state, {a_state: ONE}, 0)
    with pytest.raises(NonZeroGainPolicyError, match=r"^the policy has a cycle through state [01]$"):
        evaluate_values(m, make_policy(m, [0, 1]))


def test_values_reject_transient_cycle():
    # A probabilistic two-cycle with an exit has finite values (u 4, v 3),
    # but no run meets one, so evaluation rejects it as it does a recurrent one.
    m, sink = sink_mdp()
    u = m.add_state("u")
    v = m.add_state("v")
    m.add_action(u, {v: ONE}, 1)
    m.add_action(v, {u: Fraction(1, 2), sink: Fraction(1, 2)}, 1)
    with pytest.raises(NonZeroGainPolicyError, match=r"^the policy has a cycle through state [uv]$"):
        evaluate_values(m, make_policy(m, [0, 1, 2]))


def _on_a_cycle(m, policy, state):
    """Does ``state`` reach itself under the policy through another state?  Read off the raw transitions."""
    seen = set()
    frontier = [t for t in m.actions[policy.choice[state]].transitions if t != state]
    while frontier:
        u = frontier.pop()
        if u == state:
            return True
        if u not in seen:
            seen.add(u)
            frontier.extend(t for t in m.actions[policy.choice[u]].transitions if t != u)
    return False


def _cycle_state(m, error):
    """The state a cycle error names."""
    return m.state_names.index(re.fullmatch(r"the policy has a cycle through state (.+)", str(error))[1])


def test_gain_examples():
    m, sink = sink_mdp()
    s = m.add_state()
    m.add_action(s, {sink: ONE}, 7)
    policy = make_policy(m, [0, 1])
    assert evaluate_gain(m, policy) == [0, 0]

    m2 = Mdp()
    loop = m2.add_state("loop3")
    m2.add_action(loop, {loop: ONE}, 3)
    up = m2.add_state("up")
    m2.add_action(up, {loop: ONE}, 100)
    policy2 = make_policy(m2, [0, 1])
    assert evaluate_gain(m2, policy2) == [3, 3]

    m3 = Mdp()
    zero = m3.add_state()
    m3.add_action(zero, {zero: ONE}, 0)
    four = m3.add_state()
    m3.add_action(four, {four: ONE}, 4)
    split = m3.add_state()
    m3.add_action(split, {zero: Fraction(1, 2), four: Fraction(1, 2)}, 9)
    policy3 = make_policy(m3, [0, 1, 2])
    assert evaluate_gain(m3, policy3)[split] == 2


def test_gain_rejects_big_recurrent_class():
    m = Mdp()
    a_state = m.add_state()
    b_state = m.add_state()
    m.add_action(a_state, {b_state: ONE}, 1)
    m.add_action(b_state, {a_state: ONE}, 0)
    with pytest.raises(SingularMatrixError):
        evaluate_gain(m, make_policy(m, [0, 1]))


def test_gain_of_a_transient_cycle_that_exits_to_two_loops():
    m = Mdp()
    two = m.add_state("two")
    m.add_action(two, {two: ONE}, 2)
    eight = m.add_state("eight")
    m.add_action(eight, {eight: ONE}, 8)
    u = m.add_state("u")
    v = m.add_state("v")
    m.add_action(u, {u: Fraction(1, 2), v: Fraction(1, 4), two: Fraction(1, 4)}, 9)
    m.add_action(v, {u: Fraction(1, 3), eight: Fraction(2, 3)}, -4)
    policy = make_policy(m, [0, 1, 2, 3])
    assert not policy_graph_is_acyclic(m, policy)  # the solve
    # g(u) = g(v)/2 + 2/2 and g(v) = g(u)/3 + 2*8/3, the rewards of u and v
    # playing no part:  g(u) = 22/5, g(v) = 34/5.
    assert evaluate_gain(m, policy) == [2, 8, Fraction(22, 5), Fraction(34, 5)]


def test_gadget_p_one_is_two_hop_edge():
    m, sink = sink_mdp()
    s = m.add_state("s")
    t = m.add_state("t")
    m.add_action(t, {sink: ONE}, 2)
    aid = add_gadget(m, s, t, 0, 11, ONE)
    policy = make_policy(m, {0: 0, t: 1, s: aid, m.num_states - 1: m.num_actions - 1})
    values = evaluate_values(m, policy)
    assert values[s] == values[t] + 11


def test_gadget_rejects_bad_probability():
    m, _ = sink_mdp()
    s = m.add_state()
    t = m.add_state()
    with pytest.raises(BadProbabilityError):
        add_gadget(m, s, t, 0, 0, 0)
    with pytest.raises(BadProbabilityError):
        add_gadget(m, s, t, 0, 0, Fraction(6, 5))


def _random_gadget_embedding(rng):
    """A sink, a target t with a random surrounding value, and a gadget s -> t."""
    m, sink = sink_mdp()
    t = m.add_state("t")
    m.add_action(t, {sink: ONE}, Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
    s = m.add_state("s")
    direct = m.add_action(s, {sink: ONE}, Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
    r_d = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
    r_f = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
    p = Fraction(rng.randint(1, 40), 40)
    gadget = add_gadget(m, s, t, r_d, r_f, p)
    return m, sink, s, t, direct, gadget, r_d, r_f, p


def test_gadget_identities_on_500_random_embeddings():
    rng = random.Random(161803)
    for _ in range(500):
        m, sink, s, t, direct, gadget, r_d, r_f, p = _random_gadget_embedding(rng)
        hop = m.num_states - 1
        base = {0: 0, t: 1, hop: m.num_actions - 1}

        # Using the detour: val(s) = val(t) + r_f + r_d / p.
        using = make_policy(m, {**base, s: gadget})
        values = evaluate_values(m, using)
        assert values[s] == values[t] + r_f + r_d / p

        # Not using it: appeal = p * (val(t) - val(s) + r_f) + r_d.
        avoiding = make_policy(m, {**base, s: direct})
        values = evaluate_values(m, avoiding)
        b = values[t] - values[s]
        assert appeals(m, values)[gadget] == p * (b + r_f) + r_d


TINY = Fraction(1, 2**80)


def _reference_add_action(num_states, state, transitions, reward):
    """What ``add_action`` must store, (transitions, reward), or raise, by ``Fraction`` operators alone."""
    if not 0 <= state < num_states:
        return MdpError(f"no such state {state}")
    cleaned, total = {}, Fraction(0)
    for target, prob in transitions.items():
        try:
            p = rat(prob)
        except TypeError as exc:
            return exc
        if p < 0 or p > 1:
            return BadProbabilityError(f"probability {p} outside [0, 1]")
        if not 0 <= target < num_states:
            return MdpError(f"no such target state {target}")
        if p:
            cleaned[target] = p
            total += p
    if total != 1:
        return BadProbabilityError(f"transition probabilities sum to {total}, not 1")
    return cleaned, rat(reward)


def _reference_add_gadget(s, mid, p):
    """The entry transitions ``add_gadget`` must store, or the exception, by ``Fraction`` operators alone."""
    try:
        p = rat(p)
    except TypeError as exc:
        return exc
    if not 0 < p <= 1:
        return BadProbabilityError(f"detour probability must be in (0, 1], got {p}")
    return {mid: p} if p == 1 else {mid: p, s: 1 - p}


def _presented(draw, value):
    """``value`` as a Fraction, an int where it is integral, or a "p/q" string."""
    form = draw(st.sampled_from(("fraction", "int", "str")))
    if form == "int" and value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}" if form == "str" else value


@st.composite
def probability_rows(draw):
    """(state, transitions) over six states: a row that sums to 1, often bent by one entry.

    Entries have denominators up to 2^70; a bend adds or takes 2^-80, zeroes
    an entry, negates it, or replaces it with any value in [-2, 2].  An
    extra zero entry, an out-of-range state or target, or a float may join.
    """
    k = draw(st.integers(1, 4))
    denominators = draw(st.lists(st.integers(1, 2**70), min_size=k - 1, max_size=k - 1))
    parts = [Fraction(draw(st.integers(0, d)), d) for d in denominators]
    parts.append(1 - sum(parts))
    j = draw(st.integers(0, k - 1))
    bend = draw(st.sampled_from(("none", "up", "down", "zero", "negate", "any")))
    if bend == "up":
        parts[j] += TINY
    elif bend == "down":
        parts[j] -= TINY
    elif bend == "zero":
        parts[j] = Fraction(0)
    elif bend == "negate":
        parts[j] = -parts[j] - TINY
    elif bend == "any":
        parts[j] = draw(st.fractions(-2, 2, max_denominator=2**70))
    if draw(st.booleans()):
        parts.append(Fraction(0))
    targets = list(draw(st.permutations(range(6))))[: len(parts)]
    if draw(st.sampled_from(range(12))) == 11:
        targets[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from((-1, 6)))
    row = {t: _presented(draw, p) for t, p in zip(targets, parts)}
    if draw(st.sampled_from(range(12))) == 11:
        row[targets[draw(st.integers(0, len(parts) - 1))]] = float(parts[0])
    return draw(st.sampled_from((0,) * 10 + (5, 6))), row


@settings(max_examples=300, deadline=None)
@given(probability_rows(), st.fractions(-9, 9, max_denominator=2**70))
def test_add_action_accepts_and_rejects_what_a_fraction_only_rule_does(row, reward):
    state, transitions = row
    m = Mdp()
    for _ in range(6):
        m.add_state()
    expected = _reference_add_action(m.num_states, state, transitions, reward)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            m.add_action(state, transitions, reward)
        assert type(info.value) is type(expected) and str(info.value) == str(expected)
        assert m.num_actions == 0
        return
    act = m.actions[m.add_action(state, transitions, reward)]
    assert list(act.transitions.items()) == list(expected[0].items())
    assert all(type(p) is Fraction for p in act.transitions.values())
    assert act.reward == expected[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_gadget_accepts_and_rejects_what_a_fraction_only_rule_does(data):
    value = data.draw(
        st.sampled_from((Fraction(0), Fraction(1), TINY, 1 - TINY, 1 + TINY, -TINY))
        | st.fractions(-1, 2, max_denominator=2**70)
    )
    p = float(value) if data.draw(st.sampled_from(range(12))) == 11 else _presented(data.draw, value)
    m, sink = sink_mdp()
    s = m.add_state("s")
    expected = _reference_add_gadget(s, m.num_states, p)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            add_gadget(m, s, sink, 1, 2, p)
        assert type(info.value) is type(expected) and str(info.value) == str(expected)
        assert (m.num_states, m.num_actions) == (2, 1)
        return
    entry = m.actions[add_gadget(m, s, sink, 1, 2, p)]
    assert list(entry.transitions.items()) == list(expected.items())
    assert all(type(q) is Fraction for q in entry.transitions.values())
    assert m.actions[-1].transitions == {sink: 1}


def test_appeal_of_chosen_action_is_zero():
    rng = random.Random(55)
    for _ in range(50):
        m, sink, s, t, direct, gadget, *_ = _random_gadget_embedding(rng)
        hop = m.num_states - 1
        policy = make_policy(m, {0: 0, t: 1, hop: m.num_actions - 1, s: gadget})
        values = evaluate_values(m, policy)
        gains = appeals(m, values)
        for state, aid in enumerate(policy.choice):
            assert gains[aid] == 0


def _hand_made_appeal_mdp():
    m, sink = sink_mdp()
    s, a, b = (m.add_state(name) for name in "sab")
    m.add_action(s, {s: ONE}, 0)  # pure self-loop
    m.add_action(s, {s: ONE}, Fraction(-3, 2))  # rewarded pure self-loop
    m.add_action(s, {s: Fraction(2, 3), a: Fraction(1, 3)}, Fraction(5, 7))  # rewarded self-loop with an exit
    m.add_action(s, {a: Fraction(1, 6), b: Fraction(1, 3), sink: Fraction(1, 2)}, 2)  # three targets
    m.add_action(s, {s: Fraction(1, 4), a: Fraction(1, 4), b: Fraction(1, 4), sink: Fraction(1, 4)}, -1)
    m.add_action(a, {b: ONE}, 0)  # a plain hop
    add_gadget(m, b, sink, Fraction(1, 5), 3, Fraction(3, 8))
    return m


@pytest.mark.parametrize(
    "make",
    [pytest.param(_hand_made_appeal_mdp, id="hand-made")]
    + [
        pytest.param(
            lambda name=name: build_construction(negated_form(normalize_depths(BUILTIN_CIRCUITS[name]()))).mdp,
            id=name,
        )
        for name in sorted(BUILTIN_CIRCUITS)
    ]
    + [
        pytest.param(lambda: build_clock(4, make_params(4, 0)).mdp, id="clock4"),
        pytest.param(
            lambda: build_construction(negated_form(normalize_depths(compile_machine(writer_machine(), (), 1)[0]))).mdp,
            id="writer",
        ),
    ],
)
def test_appeal_equals_the_textbook_lookahead(make):
    m = make()
    rng = random.Random(m.num_actions)
    for _ in range(3):
        values = [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(m.num_states)]
        for act in m.actions:
            textbook = act.reward + sum(p * values[t] for t, p in act.transitions.items()) - values[act.state]
            assert mdp_module._appeal(act, values) == textbook, act.name
    # Appeals read their own form off the raw transitions, never the solved equation.
    assert not any("solved" in vars(act) for act in m.actions)


def test_values_satisfy_the_value_equation_by_substitution():
    rng = random.Random(56)
    for _ in range(50):
        m, sink, s, t, direct, gadget, *_ = _random_gadget_embedding(rng)
        hop = m.num_states - 1
        picks = {0: 0, t: 1, hop: m.num_actions - 1, s: rng.choice([direct, gadget])}
        policy = make_policy(m, picks)
        values = evaluate_values(m, policy)
        for state in range(m.num_states):
            act = m.actions[policy.choice[state]]
            lookahead = act.reward + sum(p * values[tgt] for tgt, p in act.transitions.items())
            assert values[state] == lookahead


@st.composite
def policy_graphs(draw):
    """A one-action-per-state MDP whose state ids are shuffled against its topological order.

    Transient state k of the order moves to sinks and earlier transient
    states, with an optional self-loop of mass below 1.  A drawn cycle adds
    one edge back up the order between two transient states; the lower one
    still exits, so the cycle stays transient.  Returns (mdp, policy, cyclic).
    State names are the state ids.
    """
    n_sinks = draw(st.integers(1, 2))
    n_transient = draw(st.integers(1, 7))
    ids = draw(st.permutations(range(n_sinks + n_transient)))
    sinks, order = ids[:n_sinks], ids[n_sinks:]
    weights = st.integers(1, 4)
    edges: list[dict[int, int]] = []
    for k, s in enumerate(order):
        below = st.sampled_from([*sinks, *order[:k]])
        edges.append({t: draw(weights) for t in draw(st.lists(below, min_size=1, max_size=3, unique=True))})
        if draw(st.booleans()):
            edges[k][s] = draw(weights)
    cyclic = n_transient >= 2 and draw(st.booleans())
    if cyclic:
        lo, hi = sorted(draw(st.lists(st.integers(0, n_transient - 1), min_size=2, max_size=2, unique=True)))
        edges[hi].setdefault(order[lo], draw(weights))
        edges[lo][order[hi]] = draw(weights)
    actions = {s: ({s: ONE}, 0) for s in sinks}
    for s, out in zip(order, edges):
        total = sum(out.values())
        actions[s] = ({t: Fraction(w, total) for t, w in out.items()}, draw(st.integers(-5, 5)))
    m = Mdp()
    for s in range(len(ids)):
        m.add_state()
    for s in range(len(ids)):
        m.add_action(s, *actions[s])
    return m, make_policy(m, list(range(len(ids)))), cyclic


@settings(max_examples=200, deadline=None)
@given(policy_graphs())
def test_evaluation_solves_the_value_equation_on_shuffled_graphs(graph):
    m, policy, cyclic = graph
    # Acyclic graphs are back-substituted; a cyclic one is rejected at a
    # state on its cycle, though its gain is 0 and its values are finite.
    assert cyclic == (not policy_graph_is_acyclic(m, policy))
    assert evaluate_gain(m, policy) == [0] * m.num_states
    if cyclic:
        with pytest.raises(NonZeroGainPolicyError) as caught:
            evaluate_values(m, policy)
        assert _on_a_cycle(m, policy, _cycle_state(m, caught.value))
        return
    values = evaluate_values(m, policy)
    for state in range(m.num_states):
        act = m.actions[policy.choice[state]]
        assert values[state] == act.reward + sum(p * values[t] for t, p in act.transitions.items())


@st.composite
def any_policy_graphs(draw):
    """A one-action-per-state MDP whose policy graph may have any chain structure.

    Each state is an absorbing loop, with reward 0 or (less often) not, or
    leaves for one to three other states, maybe staying put with some mass.
    Closed classes of several states, downstream of transient ones or not,
    come from the random targets.  Returns (mdp, policy); state names are the state ids.
    """
    n = draw(st.integers(2, 8))
    m = Mdp()
    for _ in range(n):
        m.add_state()
    weights = st.integers(1, 4)
    for s in range(n):
        kind = draw(st.sampled_from(["leave"] * 5 + ["absorb", "absorb", "rewarded"]))
        if kind != "leave":
            m.add_action(s, {s: ONE}, draw(st.integers(1, 5)) if kind == "rewarded" else 0)
            continue
        others = [t for t in range(n) if t != s]
        out = {t: draw(weights) for t in draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))}
        if draw(st.booleans()):
            out[s] = draw(weights)
        total = sum(out.values())
        m.add_action(s, {t: Fraction(w, total) for t, w in out.items()}, draw(st.integers(-5, 5)))
    return m, make_policy(m, list(range(n)))


@settings(max_examples=200, deadline=None)
@given(any_policy_graphs())
def test_chain_check_agrees_with_reverse_reachability(graph):
    m, policy = graph
    chosen = [m.actions[aid] for aid in policy.choice]
    absorbing = [s for s, act in enumerate(chosen) if act.transitions.keys() == {s}]
    proper = set().union(*(_reaching(m, policy, s) for s in absorbing)) == set(range(m.num_states))
    rewarded = [s for s in absorbing if chosen[s].reward]
    cyclic = not policy_graph_is_acyclic(m, policy)
    assert proper or cyclic  # a state that reaches no absorbing state is on or behind a cycle
    if rewarded or cyclic:
        # The walk raises at the first of the two it meets.
        with pytest.raises(NonZeroGainPolicyError) as caught:
            evaluate_values(m, policy)
        loop = re.fullmatch(r"absorbing state (\d+) loops with reward ([1-5])", str(caught.value))
        if loop:
            assert int(loop[1]) in rewarded and chosen[int(loop[1])].reward == int(loop[2])
        else:
            assert cyclic and _on_a_cycle(m, policy, _cycle_state(m, caught.value))
    else:
        values = evaluate_values(m, policy)
        assert all(values[s] == 0 for s in absorbing)
        for s, act in enumerate(chosen):
            assert values[s] == act.reward + sum(p * values[t] for t, p in act.transitions.items())
    if not proper:
        with pytest.raises(SingularMatrixError):
            evaluate_gain(m, policy)
    else:
        gains = evaluate_gain(m, policy)
        assert all(gains[s] == chosen[s].reward for s in absorbing)
        for s, act in enumerate(chosen):
            assert gains[s] == sum(p * gains[t] for t, p in act.transitions.items())


@st.composite
def exact_acyclic_mdps(draw):
    """An acyclic policy over large exact probabilities, a second action at every transient state, and a re-solve.

    Transient state k of a shuffled order chooses an action to sinks and
    earlier states; its second action may go to any other state.  Each exit
    weight comes from a pool of up to three integers below 2**70, so exits
    often share a coefficient; an optional self-loop weight is drawn freely,
    so the probabilities' denominators are large and mostly coprime.  A sole
    exit happens, as do negative, zero and positive rewards over large
    denominators.  Returns (mdp, policy, topological order, states to forget).
    """
    n_sinks = draw(st.integers(1, 2))
    n_transient = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(n_sinks + n_transient)))
    sinks, order = ids[:n_sinks], ids[n_sinks:]
    pool = draw(st.lists(st.integers(1, 2**70), min_size=1, max_size=3))
    rewards = st.just(0) | st.fractions(-7, 7, max_denominator=2**70)

    def transitions(s, targets):
        exits = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=4, unique=True))
        weights = {t: draw(st.sampled_from(pool)) for t in exits}
        if draw(st.booleans()):
            weights[s] = draw(st.integers(1, 2**70))
        total = sum(weights.values())
        return {t: Fraction(w, total) for t, w in weights.items()}

    m = Mdp()
    for _ in ids:
        m.add_state()
    for s in sinks:
        m.add_action(s, {s: ONE}, 0)
    for k, s in enumerate(order):
        m.add_action(s, transitions(s, [*sinks, *order[:k]]), draw(rewards))
        m.add_action(s, transitions(s, [t for t in ids if t != s]), draw(rewards))
    policy = make_policy(m, [m.state_actions[s][0] for s in range(len(ids))])
    return m, policy, order, draw(st.sets(st.sampled_from(ids), min_size=1))


@settings(max_examples=100, deadline=None)
@given(exact_acyclic_mdps())
def test_the_integer_kernels_equal_a_fraction_only_textbook_computation(instance):
    m, policy, order, forget = instance
    textbook = [Fraction(0)] * m.num_states
    for s in order:  # each state after every state it leaves for
        act = m.actions[policy.choice[s]]
        stay = act.transitions.get(s, 0)
        textbook[s] = (act.reward + sum(p * textbook[t] for t, p in act.transitions.items() if t != s)) / (1 - stay)
    walked = mdp_module._acyclic_expectation(m, policy)
    assert walked == textbook
    assert all(type(v) is Fraction for v in walked)
    start = [None if s in forget else v for s, v in enumerate(textbook)]
    kept = list(start)
    resolved = mdp_module._acyclic_expectation(m, policy, values=start, roots=sorted(forget))
    assert resolved == textbook
    assert all(type(v) is Fraction for v in resolved)
    assert all(resolved[s] is v for s, v in enumerate(kept) if v is not None)
    rng = random.Random(len(forget))
    arbitrary = [Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**70)) for _ in range(m.num_states)]
    for values in (textbook, arbitrary):
        for act in m.actions:
            appeal = mdp_module._appeal(act, values)
            assert type(appeal) is Fraction
            assert appeal == act.reward + sum(p * values[t] for t, p in act.transitions.items()) - values[act.state]
    assert all(mdp_module._appeal(m.actions[aid], textbook) == 0 for aid in policy.choice)


def _copied_states(m, policy):
    """Each state whose chosen action copies one other state's value (a sole exit, no reward), mapped to that state."""
    copied = {}
    for s, aid in enumerate(policy.choice):
        act = m.actions[aid]
        exits = [t for t in act.transitions if t != s]
        if len(exits) == 1 and not act.reward:
            copied[s] = exits[0]
    return copied


@settings(max_examples=100, deadline=None)
@given(exact_acyclic_mdps(), st.data())
def test_a_claimed_evaluation_equals_the_unclaimed_one_and_returns_no_wrong_claim(instance, data):
    m, policy, _, _ = instance
    truth = evaluate_values(m, policy)
    s = data.draw(st.integers(0, m.num_states - 1), label="off")
    off = list(truth)
    off[s] = truth[s] + Fraction(1, 2**80)
    # One wrong object kept at a state and at the state its value copies.
    copied = _copied_states(m, policy)
    u = data.draw(st.sampled_from(sorted(copied)), label="copier") if copied else s
    shared = truth[copied.get(u, u)] + Fraction(1, 3)
    chain = list(truth)
    chain[u] = chain[copied.get(u, u)] = shared
    claims = {
        "true": (list(truth), []),
        "off": (off, [off[s]]),
        "chain": (chain, [shared]),
        "ints": ([int(v) for v in truth], []),  # equal where a value is integral, wrong elsewhere
        "short": (truth[:-1], []),
        "long": ([*truth, ONE], []),
    }
    for name, (claim, wrong) in claims.items():
        got = evaluate_values(m, policy, claimed=claim)
        assert got == truth, name
        assert all(type(v) is Fraction for v in got), name
        assert not any(v is w for v in got for w in wrong), name
    # A true claim comes back object for object: copies and absorbing
    # states share their objects in the unclaimed evaluation too.
    claim = list(truth)
    assert all(v is c for v, c in zip(evaluate_values(m, policy, claimed=claim), claim))


def test_evaluation_walks_a_chain_deeper_than_the_recursion_limit():
    n = 20_000
    assert n > sys.getrecursionlimit()

    def chain(sink_reward):
        # State i stays with probability 1/2 and otherwise steps to i + 1;
        # the last state is the sink, so the walk from state 0 is n deep.
        m = Mdp()
        for _ in range(n):
            m.add_state()
        for i in range(n - 1):
            m.add_action(i, {i: Fraction(1, 2), i + 1: Fraction(1, 2)}, 1)
        m.add_action(n - 1, {n - 1: ONE}, sink_reward)
        return m, make_policy(m, list(range(n)))

    m, policy = chain(0)
    # v(i) = 2 + v(i + 1), the 2 being the reward 1 over the leaving mass 1/2.
    assert evaluate_values(m, policy) == [2 * (n - 1 - i) for i in range(n)]
    m, policy = chain(5)
    # The gain takes no walk: it is one exact solve of the whole chain,
    # which pivots on the sink's row, a singleton, and so on up the chain
    # without fill.  That solve is most of this test's time.
    assert evaluate_gain(m, policy) == [5] * n


def test_solved_form_of_a_detour_entry():
    m, sink = sink_mdp()
    s = m.add_state("s")
    t = m.add_state("t")
    m.add_action(t, {sink: ONE}, 0)
    r = Fraction(5, 7)
    entry = m.actions[add_gadget(m, s, t, r, 0, Fraction(1, 3))]
    mid = m.num_states - 1
    assert entry.transitions == {mid: Fraction(1, 3), s: Fraction(2, 3)}
    assert "solved" not in vars(entry)  # computed on first use, not by add_action
    assert entry.solved == ((3 * r).as_integer_ratio(), ((mid, 1, 1),))


def test_solved_form_of_a_pure_self_loop_is_none():
    m, sink = sink_mdp()
    assert m.actions[0].solved is None


def test_solved_form_divides_every_exit_by_the_leaving_mass():
    m, sink = sink_mdp()
    s = m.add_state("s")
    u = m.add_state("u")
    act = m.actions[m.add_action(s, {u: Fraction(1, 6), s: Fraction(1, 2), sink: Fraction(1, 3)}, 3)]
    base, exits = act.solved
    assert base == (6, 1)
    assert exits == ((u, 1, 3), (sink, 2, 3))


def test_solved_form_keeps_one_coefficient_per_exit_on_both_evaluation_paths():
    # s keeps 1/6 of its mass and leaves to a and b with 1/4 each and to c
    # with 1/3: solved, a and b each have the coefficient 3/10 and c has
    # 2/5.  The fair coin f, with no self-loop and no reward, keeps 1/2 for
    # each of its two exits.
    m, sink = sink_mdp()
    s, a, b, c, f = (m.add_state(name) for name in "sabcf")
    act = m.actions[m.add_action(s, {s: Fraction(1, 6), a: Fraction(1, 4), b: Fraction(1, 4), c: Fraction(1, 3)}, 5)]
    assert act.solved == ((6, 1), ((a, 3, 10), (b, 3, 10), (c, 2, 5)))
    m.add_action(a, {sink: ONE}, 2)
    m.add_action(b, {sink: ONE}, 7)
    c_out = m.add_action(c, {sink: ONE}, Fraction(-11, 3))
    c_back = m.add_action(c, {s: Fraction(1, 2), sink: Fraction(1, 2)}, 1)
    coin = m.add_action(f, {a: Fraction(1, 2), b: Fraction(1, 2)}, 0)
    assert m.actions[coin].solved == (None, ((a, 1, 2), (b, 1, 2)))
    acyclic = make_policy(m, [0, 1, 2, 3, c_out, coin])
    walked = mdp_module._acyclic_expectation(m, acyclic)
    assert walked[s] == 6 + Fraction(3, 10) * 9 + Fraction(2, 5) * Fraction(-11, 3)
    assert walked[f] == Fraction(9, 2)
    for state, aid in enumerate(acyclic.choice):
        act = m.actions[aid]
        assert walked[state] == act.reward + sum(p * walked[t] for t, p in act.transitions.items())
    # The engine's re-solve of s and f alone, over the kept values of a, b and c.
    start = [None if state in (s, f) else v for state, v in enumerate(walked)]
    assert mdp_module._acyclic_expectation(m, acyclic, values=start, roots=[s, f]) == walked
    # c back to s closes the transient cycle s -> c -> s, which the walk rejects.
    cyclic = make_policy(m, [0, 1, 2, 3, c_back, coin])
    with pytest.raises(NonZeroGainPolicyError, match=r"^the policy has a cycle through state [sc]$"):
        mdp_module._acyclic_expectation(m, cyclic)


def test_crosscheck_names_the_first_entry_that_differs():
    names = ["s0", "s1", "s2", "s3"]
    # Equal entries built by different routes are the same numbers.
    mdp_module._crosscheck([Fraction(4, 2), Fraction(2, 6), 0], [2, Fraction(1, 3), Fraction(0)], names, "value", 1)
    for k in range(4):
        kept = [Fraction(i, 2) for i in range(4)]
        fresh = list(kept)
        kept[k], fresh[k] = Fraction(1, 3), Fraction(2, 3)
        message = f"after switch 7 the kept value of s{k} is 1/3, but a fresh evaluation gives 2/3"
        with pytest.raises(CrosscheckError, match=f"^{message}$"):
            mdp_module._crosscheck(kept, fresh, names, "value", 7)


@pytest.mark.parametrize("kept, fresh", [([1, 2], [1]), ([1], [1, 2]), ([], [0])])
def test_crosscheck_names_both_lengths_when_they_differ(kept, fresh):
    # Every shared entry agrees, so only the lengths can tell the vectors apart.
    message = f"after switch 3 {len(kept)} values are kept, but a fresh evaluation gives {len(fresh)}"
    with pytest.raises(CrosscheckError, match=f"^{message}$"):
        mdp_module._crosscheck(kept, fresh, ["s0", "s1"], "value", 3)


def two_action_mdp(r_good=1, r_bad=0):
    m, sink = sink_mdp()
    s = m.add_state("s")
    bad = m.add_action(s, {sink: ONE}, r_bad)
    good = m.add_action(s, {sink: ONE}, r_good)
    return m, sink, s, bad, good


def first_switch(m, policy, tie):
    """The first switch greedy policy iteration makes from the policy, or None at optimum."""
    trace = run_policy_iteration(m, policy, tie=tie, budget=10).trace
    return trace[0] if trace else None


def test_dantzig_step_finds_unique_positive_appeal():
    m, sink, s, bad, good = two_action_mdp()
    policy = make_policy(m, [0, bad])
    event = first_switch(m, policy, TieBreak())
    assert event is not None
    assert event.new_action == good and event.appeal == 1


def test_dantzig_step_optimal_returns_none():
    m, sink, s, bad, good = two_action_mdp()
    policy = make_policy(m, [0, good])
    assert first_switch(m, policy, TieBreak()) is None


def test_run_policy_iteration_from_optimum_is_empty():
    m, sink, s, bad, good = two_action_mdp()
    result = run_policy_iteration(m, make_policy(m, [0, good]), budget=10)
    assert result.trace == []


def test_budget_must_be_positive():
    m, sink, s, bad, good = two_action_mdp()
    with pytest.raises(Exception):
        run_policy_iteration(m, make_policy(m, [0, bad]), budget=0)


def test_parse_tiebreak_rejects_unknown():
    from dantziglab.mdp import parse_tiebreak

    assert parse_tiebreak("lowest") == TieBreak()
    assert parse_tiebreak("random:42") == TieBreak("random:42")
    assert parse_tiebreak("random:+3") == TieBreak("random:3")
    for text in ("coinflip", "random:x", "random:"):
        with pytest.raises(MdpError, match=f"unknown tie-break '{text}'"):
            parse_tiebreak(text)
    # A label is only what parse_tiebreak writes.
    for label in ("random:+3", "random:03", "Lowest"):
        with pytest.raises(MdpError, match="unknown tie-break"):
            TieBreak(label)


def test_budget_exceeded():
    m, sink, s, bad, good = two_action_mdp()
    m2 = Mdp()  # chain of three improving states.
    sink2 = m2.add_state()
    m2.add_action(sink2, {sink2: ONE}, 0)
    picks = {sink2: 0}
    for k in range(3):
        st = m2.add_state()
        picks[st] = m2.add_action(st, {sink2: ONE}, 0)
        m2.add_action(st, {sink2: ONE}, k + 1)
    with pytest.raises(IterationBudgetExceededError):
        run_policy_iteration(m2, make_policy(m2, picks), budget=1)


def test_values_never_decrease_along_trace():
    rng = random.Random(8)
    m, sink = sink_mdp()
    states = [m.add_state(f"s{k}") for k in range(5)]
    picks = {sink: 0}
    for s in states:
        first = None
        for _ in range(3):
            targets = [sink] + states[: states.index(s)]
            t = rng.choice(targets)
            aid = m.add_action(s, {t: ONE}, Fraction(rng.randint(0, 20), rng.randint(1, 4)))
            first = aid if first is None else first
        picks[s] = first
    policy = make_policy(m, picks)
    result = run_policy_iteration(m, policy, budget=500)
    previous = evaluate_values(m, policy)
    current = policy
    for ev in result.trace:
        current = current.with_switch(ev.state, ev.new_action)
        now = evaluate_values(m, current)
        assert all(a >= b for a, b in zip(now, previous))
        assert any(a > b for a, b in zip(now, previous))
        assert all(g == 0 for g in evaluate_gain(m, current))
        previous = now
    final_values = evaluate_values(m, result.policy)
    final_appeals = appeals(m, final_values)
    assert all(g <= 0 for g in final_appeals)


def _rings_mdp(rng):
    # Two rings of four transient states, a0 -> a1 -> ... -> a0 and likewise b.
    # Every action exits to the sink with positive probability, so every
    # cycle is transient.  The start policy's actions go straight to the
    # sink; every other action moves on around its ring, and ring a may
    # also jump anywhere, ring b only within b.
    m, sink = sink_mdp()
    rings = [[m.add_state(f"{name}{i}") for i in range(4)] for name in "ab"]
    for states, reach in zip(rings, (rings[0] + rings[1], rings[1])):
        for i, s in enumerate(states):
            m.add_action(s, {sink: ONE}, Fraction(rng.randint(-10, 30), rng.randint(1, 3)))
            for _ in range(3):
                exit_p = Fraction(rng.randint(1, 3), 8)
                transitions = {sink: exit_p, states[(i + 1) % 4]: (1 - exit_p) / 2}
                other = rng.choice(reach)
                transitions[other] = transitions.get(other, 0) + (1 - exit_p) / 2
                m.add_action(s, transitions, Fraction(rng.randint(-10, 30), rng.randint(1, 3)))
    return m, make_policy(m, [aids[0] for aids in m.state_actions])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
def test_kept_appeals_equal_a_fresh_pass_on_transient_cycles(seed, tie):
    # The rings' action graph has transient cycles, as the construction's
    # has.  On these draws greedy goes around a ring after a few switches:
    # every policy before that is acyclic and keeps the values and appeals
    # a fresh pass gives, and the switch that closes the cycle raises.
    m, start = _rings_mdp(random.Random(seed))
    switches = []

    def watch(event, policy, values, gains):
        fresh = evaluate_values(m, policy)
        assert values == fresh
        assert gains == appeals(m, fresh)
        assert gains[event.new_action] == event.appeal == max(gains)
        switches.append((event, policy))

    with pytest.raises(NonZeroGainPolicyError) as caught:
        run_policy_iteration(m, start, tie=parse_tiebreak(tie), budget=500, watchers=[watch])
    assert len(switches) > 1
    event, policy = switches[-1]
    closed = policy.with_switch(event.state, event.new_action)
    assert _on_a_cycle(m, closed, event.state)
    assert _on_a_cycle(m, closed, _cycle_state(m, caught.value))


def _reaching(m, policy, target):
    """The states that reach ``target`` under the policy, itself included, read off the raw transitions."""
    reached = {target}
    grew = True
    while grew:
        grew = False
        for s, aid in enumerate(policy.choice):
            if s not in reached and any(t in reached for t in m.actions[aid].transitions):
                reached.add(s)
                grew = True
    return reached


def _construction_start(circuit, bits):
    cons = build_construction(negated_form(normalize_depths(circuit)))
    return cons.mdp, initial_policy(cons, bits)


@pytest.mark.parametrize(
    "make, tie",
    [pytest.param(lambda: _construction_start(rotation_circuit(2), (1, 1)), "lowest", id="rot2-lowest")]
    + [
        pytest.param(
            lambda: _construction_start(identity_circuit(2), (1, 1)), tie, id=f"identity2-{tie.replace(':', '')}"
        )
        for tie in ("lowest", "highest", "random:3")
    ],
)
def test_a_switch_changes_the_values_of_exactly_the_states_that_reach_it(make, tie):
    # The engine finds the changed values by walking back over the actions
    # entering each state, following those the new policy chooses; here
    # fresh evaluations of consecutive policies must differ on exactly the
    # switched state and the states that reach it afterwards.
    m, start = make()
    result = run_policy_iteration(m, start, tie=parse_tiebreak(tie), budget=1000)
    assert result.iterations > 0
    policies = result.policies()
    before = evaluate_values(m, policies[0])
    for event, policy in zip(result.trace, policies[1:]):
        after = evaluate_values(m, policy)
        changed = {s for s, (old, new) in enumerate(zip(before, after)) if old != new}
        assert changed == _reaching(m, policy, event.state)
        before = after


@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
def test_a_run_does_not_depend_on_the_order_of_each_actions_transitions(tie):
    m, start = _construction_start(rotation_circuit(2), (1, 1))
    flipped = Mdp()
    for name in m.state_names:
        flipped.add_state(name)
    for act in m.actions:
        flipped.add_action(act.state, dict(reversed(list(act.transitions.items()))), act.reward, act.name)
    reordered = [
        aid
        for aid, act in enumerate(m.actions)
        if len(act.transitions) > 1 and list(flipped.actions[aid].transitions) != list(act.transitions)
    ]
    assert reordered  # rot2 has 73 actions with more than one target
    runs = [run_policy_iteration(mdp, start, tie=parse_tiebreak(tie), budget=10_000) for mdp in (m, flipped)]
    plain, other = ([(ev.state, ev.new_action, ev.appeal) for ev in run.trace] for run in runs)
    assert plain == other and len(plain) > 0
    assert runs[0].values == runs[1].values
    assert runs[0].appeals == runs[1].appeals


def _clock_start(n):
    cons = build_clock(n, make_params(n, 0))
    return cons.mdp, clock_initial_policy(cons)


def _counting_evaluations(monkeypatch):
    calls = []
    original = mdp_module.evaluate_values

    def counting(m, policy, claimed=None):
        calls.append(policy)
        return original(m, policy, claimed=claimed)

    monkeypatch.setattr(mdp_module, "evaluate_values", counting)
    return calls


@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda n=n: _clock_start(n), id=f"clock{n}") for n in range(1, 7)]
    + [
        pytest.param(lambda: _construction_start(identity_circuit(1), (1,)), id="identity1"),
        pytest.param(lambda: _construction_start(identity_circuit(2), (1, 1)), id="identity2"),
        pytest.param(lambda: _construction_start(rotation_circuit(2), (1, 1)), id="rot2"),
        pytest.param(lambda: _construction_start(rotation_circuit(3), (1, 1, 1)), id="rot3"),
    ],
)
def test_crosscheck_finds_every_incremental_solve_equal_to_a_fresh_evaluation(make, tie, monkeypatch):
    m, start = make()
    calls = _counting_evaluations(monkeypatch)
    checked = run_policy_iteration(
        m, start, tie=parse_tiebreak(tie), budget=100_000, watchers=[fresh_value_check(m)]
    )
    assert checked.iterations > 0
    # The start policy, one fresh evaluation per later policy (the watcher
    # checks each switch after the first, the run its final policy).
    assert len(calls) == checked.iterations + 1
    calls.clear()
    plain = run_policy_iteration(m, start, tie=parse_tiebreak(tie), budget=100_000)
    assert len(calls) == 2  # the start policy and the final check
    assert [(ev.state, ev.new_action, ev.appeal) for ev in plain.trace] == [
        (ev.state, ev.new_action, ev.appeal) for ev in checked.trace
    ]
    assert plain.values == checked.values == evaluate_values(m, plain.policy)
    assert plain.appeals == checked.appeals


def _switch_into_a_recurrent_cycle():
    # u and v each start on a free exit to the sink.  Greedy switches u to
    # v for reward 1 (appeal 1), then v to u for reward 1 (appeal 2), which
    # closes the recurrent cycle u -> v -> u.
    m, sink = sink_mdp()
    u = m.add_state("u")
    v = m.add_state("v")
    start = [0, m.add_action(u, {sink: ONE}, 0), m.add_action(v, {sink: ONE}, 0)]
    m.add_action(u, {v: ONE}, 1)
    m.add_action(v, {u: ONE}, 1)
    return m, make_policy(m, start)


def _switch_into_a_transient_cycle():
    # As above, but v's second action pays 1/2 and leaves for the sink half
    # the time: greedy switches u to v (appeal 1), then v towards u (appeal
    # 1/2 + 1/2), which closes the transient cycle u -> v -> u.
    m, sink = sink_mdp()
    u = m.add_state("u")
    v = m.add_state("v")
    start = [0, m.add_action(u, {sink: ONE}, 0), m.add_action(v, {sink: ONE}, 0)]
    m.add_action(u, {v: ONE}, 1)
    m.add_action(v, {u: Fraction(1, 2), sink: Fraction(1, 2)}, Fraction(1, 2))
    return m, make_policy(m, start)


def _switch_into_a_rewarded_self_loop():
    m, sink = sink_mdp()
    u = m.add_state("u")
    start = [0, m.add_action(u, {sink: ONE}, 0)]
    m.add_action(u, {u: ONE}, 1)
    return m, make_policy(m, start)


@pytest.mark.parametrize(
    "make, message, switches",
    [
        pytest.param(_switch_into_a_recurrent_cycle, "the policy has a cycle through state [uv]", 2, id="recurrent-cycle"),
        pytest.param(_switch_into_a_transient_cycle, "the policy has a cycle through state [uv]", 2, id="transient-cycle"),
        pytest.param(_switch_into_a_rewarded_self_loop, "absorbing state u loops with reward 1", 1, id="rewarded-self-loop"),
    ],
)
def test_a_switch_that_closes_a_cycle_raises_at_that_switch(make, message, switches, monkeypatch):
    m, start = make()
    calls = _counting_evaluations(monkeypatch)
    seen = []
    with pytest.raises(NonZeroGainPolicyError, match=f"^{message}$"):
        run_policy_iteration(m, start, budget=10, watchers=[lambda event, *_: seen.append(event)])
    # The incremental walk raises: no full evaluation follows the start's.
    assert calls == [start]
    assert len(seen) == switches
    assert m.actions[seen[-1].new_action].reward  # the switch into the cycle or the loop


@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
def test_crosscheck_catches_an_ancestor_left_out_of_the_changed_states(tie, monkeypatch):
    reach = mdp_module._switch_reach
    dropped = []

    def drop_one_ancestor(m, policy, entering, state):
        changed, stale = reach(m, policy, entering, state)
        ancestors = sorted(changed - {state})
        if ancestors:
            dropped.append(ancestors[0])
            changed.discard(ancestors[0])
        return changed, stale

    monkeypatch.setattr(mdp_module, "_switch_reach", drop_one_ancestor)
    m, start = _construction_start(rotation_circuit(2), (1, 1))
    with pytest.raises(CrosscheckError, match=r"^after switch \d+ the kept value of "):
        run_policy_iteration(
            m, start, tie=parse_tiebreak(tie), budget=10_000, watchers=[fresh_value_check(m)]
        )
    assert len(dropped) == 1  # caught at the first switch that left one out


def test_every_run_checks_its_final_policy_from_scratch(monkeypatch):
    # A wrong kept value that no re-solved state's chosen action reads
    # leaves every residual at 0, so only the final check can find it.
    monkeypatch.setattr(mdp_module, "_acyclic_expectation", planting_walk("kept"))
    m, start = _construction_start(rotation_circuit(2), (1, 1))
    with pytest.raises(CrosscheckError, match=r"^after switch \d+ the kept value of "):
        run_policy_iteration(m, start, budget=10_000)


def test_a_wrong_value_shared_along_a_copy_chain_is_named_at_its_lowest_state():
    # The kept value of a state that the walk builds, and of every state
    # that copies it down a chain, is one wrong object (kept[s] is kept[t]).
    # The walk compares the claim where the chain ends and builds a fresh
    # Fraction there, so every state of the chain differs from the kept
    # object and the watcher names the lowest of them.
    m, policy = _construction_start(rotation_circuit(2), (1, 1))
    copied = _copied_states(m, policy)

    def chain(s):
        states = [s]
        while states[-1] in copied:
            states.append(copied[states[-1]])
        return states

    def built(t):  # neither a copy nor absorbing: the walk builds its value
        return m.actions[policy.choice[t]].transitions.keys() != {t}

    states = max((c for c in map(chain, copied) if built(c[-1])), key=len)
    assert len(states) >= 3
    values = evaluate_values(m, policy)
    right = values[states[0]]
    wrong = right + Fraction(1, 7)
    for s in states:
        values[s] = wrong
    event = TraceEvent(5, states[0], policy.choice[states[0]], policy.choice[states[0]], ONE)
    message = (
        f"after switch 5 the kept value of {m.state_names[min(states)]} is {format_rational(wrong)}, "
        f"but a fresh evaluation gives {format_rational(right)}"
    )
    with pytest.raises(CrosscheckError, match=f"^{re.escape(message)}$"):
        fresh_value_check(m)(event, policy, values, appeals(m, values))


def test_a_wrong_resolved_value_fails_the_residual_check(monkeypatch):
    monkeypatch.setattr(mdp_module, "_acyclic_expectation", planting_walk("resolved"))
    m, start = _construction_start(rotation_circuit(2), (1, 1))
    with pytest.raises(CrosscheckError, match=r"^after switch 1 the chosen action at o0_3 has appeal -1, not 0$"):
        run_policy_iteration(m, start, budget=10_000)


def test_tiebreak_rules_pick_expected_candidates():
    m, sink = sink_mdp()
    u = m.add_state("u")
    v = m.add_state("v")
    picks = {0: 0}
    picks[u] = m.add_action(u, {sink: ONE}, 0)
    u_better = m.add_action(u, {sink: ONE}, 5)
    picks[v] = m.add_action(v, {sink: ONE}, 0)
    v_better = m.add_action(v, {sink: ONE}, 5)
    policy = make_policy(m, picks)
    low = first_switch(m, policy, TieBreak())
    assert low.state == u
    high = first_switch(m, policy, TieBreak("highest"))
    assert high.state == v
    seeded = {first_switch(m, policy, TieBreak(f"random:{seed}")).state for seed in range(12)}
    assert seeded == {u, v}
    # Same seed, same pick.
    assert (
        first_switch(m, policy, TieBreak("random:3")).state
        == first_switch(m, policy, TieBreak("random:3")).state
    )


@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
@pytest.mark.parametrize("larger", ["u", "v", "neither"])
def test_appeals_closer_than_the_key_resolution_still_order_exactly(tie, larger):
    # Switchable actions at u and v whose appeals differ by 2^-70 have equal
    # selection keys, so only comparing the appeals tells them apart; two
    # exactly equal appeals go to the tie picker.
    m, sink = sink_mdp()
    picks = {sink: 0}
    candidates = []
    for name in "uv":
        s = m.add_state(name)
        picks[s] = m.add_action(s, {sink: ONE}, 0)
        reward = ONE if larger not in (name, "neither") else 1 + Fraction(1, 2**70)
        candidates.append((s, m.add_action(s, {sink: ONE}, reward)))
    event = first_switch(m, make_policy(m, picks), parse_tiebreak(tie))
    if larger == "neither":
        assert (event.state, event.new_action) == parse_tiebreak(tie).picker()(candidates)
    else:
        assert (event.state, event.new_action) == candidates["uv".index(larger)]
    assert event.appeal == 1 + Fraction(1, 2**70)


def _fraction_only_step(ties):
    """``dantzig_step`` picking by Fractions alone (``fraction_greedy_top``); appends each candidate count to ``ties``."""

    def step(m, policy, pick, positive):
        if not positive:
            return None
        appeal, aids = fraction_greedy_top(positive)
        ties.append(len(aids))
        state, aid = pick([(m.actions[aid].state, aid) for aid in aids])
        return policy.with_switch(state, aid), TraceEvent(0, state, policy.choice[state], aid, appeal)

    return step


@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
@pytest.mark.parametrize("name", ["rot2", "const0_2", "clock:n=4"])
def test_the_integer_pick_retraces_a_fraction_only_pick(name, tie, monkeypatch):
    # ``numerics.greedy_top`` compares ints only; a run whose every pick is
    # made by Fraction ``max`` and ``==`` instead makes the same switches at
    # the same appeals, ties included.
    if name == "clock:n=4":
        m, start = _clock_start(4)
    else:
        cons = build_construction(negated_form(normalize_depths(BUILTIN_CIRCUITS[name]())))
        m, start = cons.mdp, initial_policy(cons, (1, 1))

    def trace():
        run = run_policy_iteration(m, start, tie=parse_tiebreak(tie), budget=10_000)
        return [(ev.iteration, ev.state, ev.old_action, ev.new_action, ev.appeal) for ev in run.trace], run

    ints, run = trace()
    ties = []
    monkeypatch.setattr(mdp_module, "dantzig_step", _fraction_only_step(ties))
    fractions, _ = trace()
    assert ints == fractions and len(ties) == len(ints)
    assert max(ties) > 1 or name == "clock:n=4"  # the clock's greedy switch is unique at every step
    assert all(appeal is ZERO for appeal in run.appeals if not appeal)


def _run_from(m, start):
    return run_policy_iteration(m, make_policy(m, [0, start]), budget=10)


def test_decide_action_switch_trivial():
    m, sink, s, bad, good = two_action_mdp()
    assert decide_action_switch(m, _run_from(m, bad), good) is True
    m2, sink2, s2, bad2, good2 = two_action_mdp(r_good=-1)
    assert decide_action_switch(m2, _run_from(m2, bad2), good2) is False
    with pytest.raises(MdpError, match="already uses the queried action"):
        decide_action_switch(m, _run_from(m, good), good)


def test_until_stops_at_the_switch_it_accepts_and_keeps_the_policy_it_was_picked_from():
    # Two improving states; the run stops at its first switch, before the
    # second, and hands back the start policy with its own numbers.
    m, sink, s, bad, good = two_action_mdp()
    u = m.add_state("u")
    stay = m.add_action(u, {sink: ONE}, 0)
    m.add_action(u, {sink: ONE}, 5)
    start = make_policy(m, [0, bad, stay])
    full = run_policy_iteration(m, start, budget=10)
    run = run_policy_iteration(m, start, budget=10, until=lambda ev: ev.new_action == full.trace[0].new_action)
    assert run.stopped and not full.stopped
    assert run.trace == full.trace[:1] and len(full.trace) == 2
    assert run.policy == start
    assert run.values == evaluate_values(m, start) and run.appeals == appeals(m, run.values)


def test_decide_dantzig_sol_refuses_a_stopped_run():
    m, sink, s, bad, good = two_action_mdp()
    run = run_policy_iteration(m, make_policy(m, [0, bad]), budget=10, until=lambda ev: True)
    assert run.stopped and run.policy.choice[s] == bad
    assert decide_action_switch(m, run, good) is True
    with pytest.raises(MdpError, match="stopped before an optimum"):
        decide_dantzig_mdp_sol(m, run, good)


@pytest.mark.parametrize(
    "claimed, message",
    [
        (None, "switch 0 enters fair at appeal 1, but a fresh evaluation gives best the appeal 2"),
        (Fraction(2), "switch 0 enters fair at appeal 2, but a fresh evaluation gives fair the appeal 1"),
    ],
    ids=["not-the-largest", "wrong-event-appeal"],
)
def test_the_stop_certificate_rejects_a_switch_the_greedy_rule_would_not_make(monkeypatch, claimed, message):
    # The step is made to pick the action of appeal 1 where one of appeal 2
    # waits, or to report the wrong appeal for it.  The kept numbers are all
    # right, so only the check against the switch's own appeal sees it.
    m, sink = sink_mdp()
    s = m.add_state("s")
    start = m.add_action(s, {sink: ONE}, 0, "start")
    fair = m.add_action(s, {sink: ONE}, 1, "fair")
    m.add_action(s, {sink: ONE}, 2, "best")
    policy = make_policy(m, [0, start])

    def misstep(mdp, policy, pick, positive):
        appeal = positive[fair][1] if claimed is None else claimed
        return policy.with_switch(s, fair), TraceEvent(0, s, start, fair, appeal)

    monkeypatch.setattr(mdp_module, "dantzig_step", misstep)
    with pytest.raises(CrosscheckError) as exc:
        run_policy_iteration(m, policy, budget=10, until=lambda ev: True)
    assert str(exc.value) == message


def _enumerate_optimal_policies(m, sink):
    """Exhaustive optimality set via the value equation, for tiny models."""
    best = None
    optima = []
    spaces = [m.state_actions[s] for s in range(m.num_states)]
    for combo in itertools.product(*spaces):
        try:
            values = evaluate_values(m, make_policy(m, list(combo)))
        except Exception:
            continue
        key = tuple(values)
        if best is None or key > best:
            best = key
            optima = [combo]
        elif key == best:
            optima.append(combo)
    return best, optima


def test_decide_dantzig_sol_depends_on_trajectory_but_stays_optimal():
    # Two equal-value actions at u: both policies are optimal, and the one
    # the greedy rule lands on depends on where it starts.
    m, sink = sink_mdp()
    u = m.add_state("u")
    left = m.add_action(u, {sink: ONE}, 2)
    right = m.add_action(u, {sink: ONE}, 2)
    best, optima = _enumerate_optimal_policies(m, sink)
    assert len(optima) == 2

    assert decide_dantzig_mdp_sol(m, _run_from(m, left), right) is False
    assert decide_dantzig_mdp_sol(m, _run_from(m, right), right) is True
    for start in (left, right):
        assert tuple(_run_from(m, start).policy.choice) in optima


def test_mdp_json_writes_every_number_as_an_exact_fraction_string():
    m, sink = sink_mdp()
    s = m.add_state("s")
    m.add_action(s, {s: Fraction(1, 3), sink: Fraction(2, 3)}, Fraction(-5, 2), "split")
    m.add_action(s, {sink: ONE}, 4)
    assert mdp_to_json(m) == {
        "states": ["sink", "s"],
        "actions": [
            {"state": sink, "name": "0", "reward": "0", "p": {"0": "1"}},
            {"state": s, "name": "split", "reward": "-5/2", "p": {"0": "2/3", "1": "1/3"}},
            {"state": s, "name": "2", "reward": "4", "p": {"0": "1"}},
        ],
    }
