from __future__ import annotations

from fractions import Fraction

import pytest

from dantziglab.circuit import negated_form, normalize_depths
from dantziglab.construction import (
    ConstructionError,
    bound_w,
    build_clock,
    build_construction,
    build_construction_z,
    derive_params,
    initial_policy,
    make_params,
    manifest,
)
from dantziglab.library import identity_circuit, rotation_circuit
from dantziglab.mdp import appeals, evaluate_gain, evaluate_values, make_policy, run_policy_iteration


def negated(circ):
    return negated_form(normalize_depths(circ))


ROT2 = negated(rotation_circuit(2))
IDENT1 = negated(identity_circuit(1))


def test_scale_constants_at_depth_three():
    params = make_params(2, 3)
    assert params.t == 19683
    assert params.b == (243, 81, 27, 9)
    assert params.high[3] == 360
    assert params.low[3] == 351
    assert params.high[3] < params.t / 2  # 360 < 9841.5
    for k in range(3):
        assert params.high[k] == params.low[k] + params.b[k]
        assert params.high[k] == params.low[k + 1]


def test_arming_detour_hits_its_appeal_exactly():
    # Depth-2 arming switch must land at exactly 7/2 + 1/4, which pins the
    # detour probability to (15/4) / H_1, not (15/4) / H_2.
    params = make_params(2, 3)
    assert params.p1(2) == Fraction(15, 4) / params.high[1]
    assert params.p1(2) * params.high[1] == Fraction(15, 4)


def test_probabilities_strictly_inside_unit_interval():
    for d_c in (2, 3, 4):
        params = make_params(3, d_c)
        probs = [params.p3, params.p4, params.p5, params.p6, params.p7]
        probs += [params.p1(d) for d in range(2, d_c + 1)]
        probs += [params.p2(d) for d in range(2, d_c + 1)]
        probs += list(params.alpha)
        assert all(0 < p < 1 for p in probs)


def test_alpha_modes_differ_by_a_factor_of_two():
    cal = make_params(3, 0)
    printed = make_params(3, 0, alpha_mode="printed")
    for i in range(3):
        assert printed.alpha[i] == 2 * cal.alpha[i]


def test_derive_params_requires_normalized_circuit():
    from dantziglab.circuit import Circuit, input_gate, not_gate

    with pytest.raises(ConstructionError):
        derive_params(Circuit(1, (input_gate(), not_gate(1))))
    params = derive_params(ROT2)
    assert params.d_c == ROT2.circuit_depth()


def test_clock_state_inventory():
    cons = build_clock(2)
    # si, si', 0, 1, 1', 2, 2', c0, c1 plus four detour hop states.
    assert cons.mdp.num_states == 13
    for name in ("si", "si'", "0", "1", "1'", "2", "2'", "c0", "c1"):
        assert cons.index.has_state(name)


def test_clock_fixed_values_any_policy():
    cons = build_clock(3)
    t = cons.params.t
    for down in (False, True):
        picks = {"1": "1~>1'" if down else "1~>0"}
        policy_ids = [cons.mdp.state_actions[s][0] for s in range(cons.mdp.num_states)]
        policy_ids[cons.index.state("1")] = cons.index.action(picks["1"])
        values = evaluate_values(cons.mdp, make_policy(cons.mdp, policy_ids))
        assert values[cons.index.state("si'")] == t * 2**4
        assert values[cons.index.state("1'")] == t * 2**3


def test_all_transition_rows_sum_to_one():
    cons = build_construction(ROT2)
    for act in cons.mdp.actions:
        assert sum(act.transitions.values()) == 1
        assert all(0 < p <= 1 for p in act.transitions.values())
        assert all(isinstance(p, Fraction) for p in act.transitions.values())


def test_state_count_matches_gadget_inventory():
    circ = ROT2
    cons = build_construction(circ)
    n = circ.n
    clock = 4 * n + 5
    bits = 8 * 2 * n
    ors = 5 * 2 * len([i for i in range(1, circ.size + 1) if circ.gate(i).kind == "or"])
    nots = 5 * 2 * len([i for i in range(1, circ.size + 1) if circ.gate(i).kind == "not"])
    assert cons.mdp.num_states == clock + bits + ors + nots


def test_or_gate_reward_identity():
    params = derive_params(ROT2)
    for d in range(1, params.d_c + 1):
        assert params.high[d - 1] + params.b[d] == params.high[d]


def test_output_mode_values_encode_the_bit():
    cons = build_construction(ROT2)
    policy = initial_policy(cons, (1, 0))
    values = evaluate_values(cons.mdp, policy)
    idx = cons.index
    c0 = values[idx.c(0)]
    assert values[idx.o(0, 1)] == c0 + cons.params.high[0]  # bit 1 set
    assert values[idx.o(0, 2)] == c0 + cons.params.low[0]  # bit 2 clear


def test_initial_policy_reaches_sink_and_has_zero_gain():
    cons = build_construction(ROT2)
    policy = initial_policy(cons, (1, 1))
    gains = evaluate_gain(cons.mdp, policy)
    assert all(g == 0 for g in gains)


def test_initial_policy_graph_acyclic_apart_from_self_returns():
    from dantziglab.mdp import _sccs, _successors

    cons = build_construction(ROT2)
    policy = initial_policy(cons, (0, 1))
    succ = _successors(cons.mdp, policy)
    loop_free = [[t for t in targets if t != s] for s, targets in enumerate(succ)]
    assert all(len(comp) == 1 for comp in _sccs(loop_free))


def test_initial_policy_length_mismatch():
    cons = build_construction(ROT2)
    with pytest.raises(ConstructionError):
        initial_policy(cons, (1,))


def test_smallest_construction_builds_and_solves():
    cons = build_construction(IDENT1)
    policy = initial_policy(cons, (1,))
    result = run_policy_iteration(cons.mdp, policy, budget=cons.budget())
    assert result.optimal
    gains = evaluate_gain(cons.mdp, result.policy)
    assert all(g == 0 for g in gains)


def test_decision_gadget_arm_appeal_is_one_fifth_independent_of_w():
    for w in (Fraction(26244), Fraction(10**9), bound_w(derive_params(IDENT1))):
        cons = build_construction_z(IDENT1, 1, w=w)
        policy = initial_policy(cons, (1,))
        values = evaluate_values(cons.mdp, policy)
        assert values[cons.index.state("b2")] == 0
        gains = appeals(cons.mdp, policy, values)
        assert gains[cons.index.action("b2~>b1")] == Fraction(1, 5)


def test_decision_gadget_freeze_values_and_indifference():
    plain = build_construction(IDENT1)
    run = run_policy_iteration(plain.mdp, initial_policy(plain, (1,)), budget=plain.budget())
    w = max(run.values)
    cons = build_construction_z(IDENT1, 1, w=w)
    policy = initial_policy(cons, (1,))
    # Move the gadget into its fired position by hand.
    idx = cons.index
    policy = policy.with_switch(idx.state("b2"), idx.action("b2~>b1"))
    values = evaluate_values(cons.mdp, policy)
    assert values[idx.state("b2")] == 2 * w
    policy = policy.with_switch(idx.state("l0_1"), idx.action("l0_1->b2"))
    policy = policy.with_switch(idx.state("r0_1"), idx.action("r0_1~>b2"))
    values = evaluate_values(cons.mdp, policy)
    gains = appeals(cons.mdp, policy, values)
    o_state = idx.o(0, 1)
    for aid in cons.mdp.actions_at(o_state):
        assert gains[aid] == 0


def test_exact_w_is_the_top_state_value():
    cons = build_construction(IDENT1)
    policy = initial_policy(cons, (1,))
    result = run_policy_iteration(cons.mdp, policy, budget=cons.budget())
    values = evaluate_values(cons.mdp, result.policy)
    assert result.values == values
    w = max(result.values)
    assert w == cons.params.t * 2 ** (cons.params.n + 1)
    assert bound_w(cons.params) >= w


def test_detour_denominators_positive():
    params = derive_params(ROT2)
    assert 3 * params.t / 2 + params.low[0] - params.high[params.d_c] > 0
    for d in range(2, params.d_c + 1):
        assert 2 * params.t - params.high[d - 1] > 0


def test_manifest_is_deterministic_and_complete():
    cons1 = build_construction(ROT2)
    cons2 = build_construction(ROT2)
    m1, m2 = manifest(cons1), manifest(cons2)
    assert m1 == m2
    assert m1["num_states"] == cons1.mdp.num_states
    assert len(m1["mdp"]["actions"]) == cons1.mdp.num_actions
    assert m1["params"]["t"] == str(3 ** (cons1.params.d_c + 6))


def test_clock_budget_formula():
    cons = build_clock(3)
    assert cons.budget() == 10 * 2**3 * cons.mdp.num_states
