from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import evaluate_gain, policy_graph_is_acyclic

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
from dantziglab.mdp import (
    appeals,
    evaluate_values,
    make_policy,
    parse_tiebreak,
    run_policy_iteration,
)


def negated(circ):
    return negated_form(normalize_depths(circ))


ROT2 = negated(rotation_circuit(2))
IDENT1 = negated(identity_circuit(1))
IDENT2 = negated(identity_circuit(2))


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


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("RO", Fraction(1, 2), "copy-hookup appeal band dips below 19/20"),
        ("BL", Fraction(6), "re-homing appeal reaches the 8/5 stage level"),
        ("MAGIC", Fraction(1, 5), "residual appeal ceiling out of place"),
    ],
)
def test_constants_that_break_the_switch_order_are_rejected(monkeypatch, name, value, message):
    # The constants are fixed, but the switch order they must keep depends on
    # the circuit depth, so every parameter set is still checked against it.
    from dantziglab import construction

    monkeypatch.setattr(construction, name, value)
    with pytest.raises(ConstructionError, match=message):
        derive_params(negated_form(normalize_depths(identity_circuit(1))))


def test_clock_state_inventory():
    cons = build_clock(2)
    # si, si', 0, 1, 1', 2, 2', c0, c1 plus four detour hop states.
    assert cons.mdp.num_states == 13
    for name in ("si", "si'", "0", "1", "1'", "2", "2'", "c0", "c1"):
        assert name in cons.index.states


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


def _largest_bit_length(mdp):
    """Bits of the largest numerator or denominator of any reward or probability."""
    numbers = [x for act in mdp.actions for x in (act.reward, *act.transitions.values())]
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in numbers)


def test_reduction_size_is_linear_with_linear_bit_numbers():
    # Hardness needs a polynomial-size reduction with polynomial-bit numbers;
    # these closed forms make a change that blows the construction up fail.
    for n in range(1, 33):
        mdp = build_clock(n).mdp
        assert (mdp.num_states, mdp.num_actions) == (4 * n + 5, 5 * n + 5)
        assert _largest_bit_length(mdp) <= n + 12
    for n in range(1, 9):
        mdp = build_construction(negated(rotation_circuit(n))).mdp
        # The normalized rotation has 4n - 1 Or gates, but 2 at n = 1, where the
        # closed form overcounts by one Or gadget pair: 10 states, 16 actions.
        size = (65, 92) if n == 1 else (70 * n + 5, 105 * n + 3)
        assert (mdp.num_states, mdp.num_actions) == size
        assert _largest_bit_length(mdp) <= n + 21


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
    cons = build_construction(ROT2)
    policy = initial_policy(cons, (0, 1))
    assert policy_graph_is_acyclic(cons.mdp, policy)


def test_initial_policy_length_mismatch():
    cons = build_construction(ROT2)
    with pytest.raises(ConstructionError):
        initial_policy(cons, (1,))


def test_smallest_construction_builds_and_solves():
    cons = build_construction(IDENT1)
    policy = initial_policy(cons, (1,))
    result = run_policy_iteration(cons.mdp, policy, budget=cons.budget())
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
    for aid in cons.mdp.state_actions[o_state]:
        assert gains[aid] == 0


def test_exact_w_is_the_top_state_value():
    cons = build_construction(IDENT1)
    policy = initial_policy(cons, (1,))
    result = run_policy_iteration(cons.mdp, policy, budget=cons.budget())
    values = evaluate_values(cons.mdp, result.policy)
    assert result.values == values
    assert result.appeals == appeals(cons.mdp, result.policy, values)
    w = max(result.values)
    assert w == cons.params.t * 2 ** (cons.params.n + 1)
    assert bound_w(cons.params) >= w


@pytest.mark.parametrize(
    "circ, bits, tie",
    [
        pytest.param(circ, bits, tie, id=f"{name}-{tie.replace(':', '')}")
        for name, circ, bits in (("identity1", IDENT1, (1,)), ("identity2", IDENT2, (1, 1)))
        for tie in ("lowest", "highest", "random:3")
    ]
    + [pytest.param(ROT2, (1, 1), "lowest", id="rot2-lowest")],
)
def test_watchers_are_handed_the_values_and_appeals_of_their_policy(circ, bits, tie):
    # The engine keeps its appeals across switches; every list it hands out
    # must equal a from-scratch pass, and stay equal after the run moves on.
    cons = build_construction(circ)
    handed = []

    def watch(event, policy, values, gains):
        # The raw value equation: a bug in ``Action.solved`` would be shared by ``evaluate_values``.
        for s, aid in enumerate(policy.choice):
            act = cons.mdp.actions[aid]
            if act.transitions == {s: 1}:
                assert values[s] == 0
            else:
                assert values[s] == act.reward + sum(p * values[t] for t, p in act.transitions.items())
        fresh = evaluate_values(cons.mdp, policy)
        assert values == fresh
        assert gains == appeals(cons.mdp, policy, fresh)
        assert gains[event.new_action] == event.appeal == max(gains)
        handed.append((event.iteration, gains, list(gains)))

    result = run_policy_iteration(
        cons.mdp, initial_policy(cons, bits), tie=parse_tiebreak(tie), budget=cons.budget(), watchers=[watch]
    )
    assert [k for k, _, _ in handed] == list(range(result.iterations)) and result.iterations > 0
    assert all(gains == snapshot for _, gains, snapshot in handed)
    assert result.values == evaluate_values(cons.mdp, result.policy)
    assert result.appeals == appeals(cons.mdp, result.policy, result.values)


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
