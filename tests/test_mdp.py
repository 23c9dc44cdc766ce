from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import pytest
from conftest import evaluate_gain, planting_walk, policy_graph_is_acyclic
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
from dantziglab.numerics import SingularMatrixError
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
    with pytest.raises(NonZeroGainPolicyError, match=r"^recurrent class with more than one state$"):
        evaluate_values(m, make_policy(m, [0, 1]))


def test_values_transient_cycle_through_dense_solver():
    # A probabilistic two-cycle with an exit is fine: solved exactly.
    m, sink = sink_mdp()
    u = m.add_state("u")
    v = m.add_state("v")
    m.add_action(u, {v: ONE}, 1)
    m.add_action(v, {u: Fraction(1, 2), sink: Fraction(1, 2)}, 1)
    policy = make_policy(m, [0, 1, 2])
    values = evaluate_values(m, policy)
    # val(u) = 1 + val(v); val(v) = 1 + val(u)/2  =>  val(u) = 4, val(v) = 3.
    assert values[u] == 4 and values[v] == 3


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
        assert appeals(m, avoiding, values)[gadget] == p * (b + r_f) + r_d


def test_appeal_of_chosen_action_is_zero():
    rng = random.Random(55)
    for _ in range(50):
        m, sink, s, t, direct, gadget, *_ = _random_gadget_embedding(rng)
        hop = m.num_states - 1
        policy = make_policy(m, {0: 0, t: 1, hop: m.num_actions - 1, s: gadget})
        values = evaluate_values(m, policy)
        gains = appeals(m, policy, values)
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
    # Cyclic graphs take the dense solve, the others back-substitution.
    assert cyclic == (not policy_graph_is_acyclic(m, policy))
    values = evaluate_values(m, policy)
    for state in range(m.num_states):
        act = m.actions[policy.choice[state]]
        assert values[state] == act.reward + sum(p * values[t] for t, p in act.transitions.items())
    assert evaluate_gain(m, policy) == [0] * m.num_states


@st.composite
def any_policy_graphs(draw):
    """A one-action-per-state MDP whose policy graph may have any chain structure.

    Each state is an absorbing loop, with reward 0 or (less often) not, or
    leaves for one to three other states, maybe staying put with some mass.
    Closed classes of several states, downstream of transient ones or not,
    come from the random targets.  Returns (mdp, policy).
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
    rewarded = any(chosen[s].reward for s in absorbing)
    if rewarded:
        with pytest.raises(NonZeroGainPolicyError, match=r"^absorbing state \d+ loops with reward [1-5]$"):
            evaluate_values(m, policy)
    elif not proper:
        with pytest.raises(NonZeroGainPolicyError, match=r"^recurrent class with more than one state$"):
            evaluate_values(m, policy)
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


def test_evaluation_solves_only_on_a_cycle(monkeypatch):
    calls = []
    solve = mdp_module.solve_linear_system
    monkeypatch.setattr(mdp_module, "solve_linear_system", lambda *args: calls.append(1) or solve(*args))
    m, sink = sink_mdp()
    u = m.add_state("u")
    v = m.add_state("v")
    m.add_action(u, {v: Fraction(1, 3), u: Fraction(2, 3)}, 1)
    m.add_action(v, {sink: ONE}, 2)
    m.add_action(v, {u: Fraction(1, 2), sink: Fraction(1, 2)}, 1)
    # Back-substitution needs no solve; the cycle u -> v -> u takes exactly one.
    for picks, passes in (([0, 1, 2], 0), ([0, 1, 3], 1)):
        calls.clear()
        evaluate_values(m, make_policy(m, picks))
        assert len(calls) == passes


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
    assert entry.solved == (3 * r, (mid,), ((1, (mid,)),))


def test_solved_form_of_a_pure_self_loop_is_none():
    m, sink = sink_mdp()
    assert m.actions[0].solved is None


def test_solved_form_divides_every_exit_by_the_leaving_mass():
    m, sink = sink_mdp()
    s = m.add_state("s")
    u = m.add_state("u")
    act = m.actions[m.add_action(s, {u: Fraction(1, 6), s: Fraction(1, 2), sink: Fraction(1, 3)}, 3)]
    base, targets, groups = act.solved
    assert base == 6
    assert targets == (u, sink)
    assert dict(groups) == {Fraction(1, 3): (u,), Fraction(2, 3): (sink,)}


def test_solved_form_groups_exits_by_coefficient_on_both_evaluation_paths():
    # s keeps 1/6 of its mass and leaves to a and b with 1/4 each and to c
    # with 1/3: solved, a and b share the coefficient 3/10 and c has 2/5.
    m, sink = sink_mdp()
    s, a, b, c = (m.add_state(name) for name in "sabc")
    act = m.actions[m.add_action(s, {s: Fraction(1, 6), a: Fraction(1, 4), b: Fraction(1, 4), c: Fraction(1, 3)}, 5)]
    assert act.solved == (6, (a, b, c), ((Fraction(3, 10), (a, b)), (Fraction(2, 5), (c,))))
    m.add_action(a, {sink: ONE}, 2)
    m.add_action(b, {sink: ONE}, 7)
    c_out = m.add_action(c, {sink: ONE}, Fraction(-11, 3))
    c_back = m.add_action(c, {s: Fraction(1, 2), sink: Fraction(1, 2)}, 1)
    acyclic = make_policy(m, [0, 1, 2, 3, c_out])
    walked = mdp_module._acyclic_expectation(m, acyclic)
    assert walked[s] == 6 + Fraction(3, 10) * 9 + Fraction(2, 5) * Fraction(-11, 3)
    # c back to s closes the transient cycle s -> c -> s, which the walk
    # gives up on and the sparse solve takes.
    cyclic = make_policy(m, [0, 1, 2, 3, c_back])
    assert mdp_module._acyclic_expectation(m, cyclic) is None
    for policy, values in ((acyclic, walked), (cyclic, mdp_module._solved_expectation(m, cyclic))):
        for state, aid in enumerate(policy.choice):
            act = m.actions[aid]
            assert values[state] == act.reward + sum(p * values[t] for t, p in act.transitions.items())


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
    final_appeals = appeals(m, result.policy, final_values)
    assert all(g <= 0 for g in final_appeals)


def _cyclic_random_mdp(rng):
    # Two rings of four transient states, a0 -> a1 -> ... -> a0 and likewise b.
    # Every action exits to the sink with positive probability, so every
    # policy is proper, and moves on around its ring, so every policy has
    # two transient cycles.  Ring a may also jump anywhere, ring b only
    # within b, so a switch can leave some values (and appeals) unchanged.
    m, sink = sink_mdp()
    rings = [[m.add_state(f"{name}{i}") for i in range(4)] for name in "ab"]
    for states, reach in zip(rings, (rings[0] + rings[1], rings[1])):
        for i, s in enumerate(states):
            for _ in range(4):
                exit_p = Fraction(rng.randint(1, 3), 8)
                transitions = {sink: exit_p, states[(i + 1) % 4]: (1 - exit_p) / 2}
                other = rng.choice(reach)
                transitions[other] = transitions.get(other, 0) + (1 - exit_p) / 2
                m.add_action(s, transitions, Fraction(rng.randint(-10, 30), rng.randint(1, 3)))
    return m, make_policy(m, [aids[0] for aids in m.state_actions])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
def test_kept_appeals_equal_a_fresh_pass_on_transient_cycles(seed, tie):
    m, start = _cyclic_random_mdp(random.Random(seed))
    switches = []

    def watch(event, policy, values, gains):
        assert not policy_graph_is_acyclic(m, policy)  # the dense solve
        fresh = evaluate_values(m, policy)
        assert values == fresh
        assert gains == appeals(m, policy, fresh)
        assert gains[event.new_action] == event.appeal == max(gains)
        switches.append(event)

    result = run_policy_iteration(m, start, tie=parse_tiebreak(tie), budget=500, watchers=[watch])
    assert len(switches) == result.iterations > 0
    assert result.values == evaluate_values(m, result.policy)
    assert result.appeals == appeals(m, result.policy, result.values)
    assert max(result.appeals) == 0


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
    ]
    + [
        pytest.param(lambda seed=seed: _cyclic_random_mdp(random.Random(seed)), "lowest", id=f"rings{seed}-lowest")
        for seed in range(4)
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

    def counting(m, policy):
        calls.append(policy)
        return original(m, policy)

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
    # checks each switch after the first, the run its final policy); none
    # of these instances closes a cycle, so the incremental walk never
    # falls back.
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


def _switch_into_a_rewarded_self_loop():
    m, sink = sink_mdp()
    u = m.add_state("u")
    start = [0, m.add_action(u, {sink: ONE}, 0)]
    m.add_action(u, {u: ONE}, 1)
    return m, make_policy(m, start)


@pytest.mark.parametrize(
    "make, message",
    [
        (_switch_into_a_recurrent_cycle, "recurrent class with more than one state"),
        (_switch_into_a_rewarded_self_loop, "absorbing state u loops with reward 1"),
    ],
)
def test_a_switch_the_incremental_walk_cannot_solve_falls_back_to_the_full_evaluation(make, message, monkeypatch):
    m, start = make()
    calls = _counting_evaluations(monkeypatch)
    with pytest.raises(NonZeroGainPolicyError, match=f"^{message}$"):
        run_policy_iteration(m, start, budget=10)
    # The start policy, then the fallback on the policy the last switch made.
    assert len(calls) == 2 and calls[0] == start != calls[1]


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


def _run_from(m, start):
    return run_policy_iteration(m, make_policy(m, [0, start]), budget=10)


def test_decide_action_switch_trivial():
    m, sink, s, bad, good = two_action_mdp()
    assert decide_action_switch(m, _run_from(m, bad), good) is True
    m2, sink2, s2, bad2, good2 = two_action_mdp(r_good=-1)
    assert decide_action_switch(m2, _run_from(m2, bad2), good2) is False
    with pytest.raises(MdpError, match="already uses the queried action"):
        decide_action_switch(m, _run_from(m, good), good)


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
