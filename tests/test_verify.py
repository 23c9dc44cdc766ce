from __future__ import annotations

from fractions import Fraction

import pytest

from dantziglab.circuit import decide_bitswitch, decide_circuitvalue, iterate, negated_form, normalize_depths
from dantziglab.construction import (
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
    make_params,
)
from dantziglab.library import identity_circuit, rotation_circuit
from dantziglab.mdp import evaluate_values, run_policy_iteration
from dantziglab.verify import (
    ClockAuditor,
    ClockOracle,
    audit_appeal_catalog,
    check_all_transitions,
    check_b_correct,
    check_clock_trace,
    check_coherent,
    check_final,
    check_phase_transition,
    clock_expected_values,
    clock_gray_policy,
    decode_input_bits,
    decode_phases,
    decide_mdp,
    end_to_end,
    gray_code,
    least_significant_zero,
    phase_from_values,
    resolve_gray_orientation,
    run_annotated,
)


# ---------------------------------------------------------------------------
# Gray code


def test_gray_code_endpoints():
    for n in range(1, 7):
        assert gray_code(n, 0) == (0,) * n
        # Word 1 sets exactly bit n; the last word sets exactly bit 1.
        assert gray_code(n, 1) == (0,) * (n - 1) + (1,)
        assert gray_code(n, 2**n - 1) == (1,) + (0,) * (n - 1)


def test_gray_code_is_a_gray_permutation():
    for n in range(1, 13):
        words = [gray_code(n, j) for j in range(2**n)]
        assert len(set(words)) == 2**n
        oracle = ClockOracle(n)
        for j in range(2**n - 1):
            diff = [i + 1 for i in range(n) if words[j][i] != words[j + 1][i]]
            assert diff == [oracle.f(least_significant_zero(j))]


def test_clock_value_formulas_against_exact_evaluation():
    for n in range(1, 5):
        cons = build_clock(n)
        t = cons.params.t
        oracle = ClockOracle(n)
        for j in range(2**n):
            policy = clock_gray_policy(cons, j, "down-on-one")
            values = evaluate_values(cons.mdp, policy)
            for name, scaled in oracle.values(j).items():
                assert values[cons.index.state(name)] == t * scaled, (n, j, name)


def test_clock_output_staircase():
    for n in (2, 3):
        oracle = ClockOracle(n)
        for j in range(2**n):
            vals = clock_expected_values(n, j)
            if j % 2 == 0:
                assert (vals["c0"], vals["c1"]) == (j, j + 1)
            else:
                assert (vals["c0"], vals["c1"]) == (j + 1, j)


def test_prime_state_values():
    for n in (2, 3, 4):
        oracle = ClockOracle(n)
        for j in range(2**n):
            assert oracle.values(j)["1'"] == 2**n
            assert oracle.values(j)["2'"] == 2 ** (n - 1)


def test_orientation_resolution_is_down_on_one():
    cons = build_clock(2)
    assert resolve_gray_orientation(cons) == "down-on-one"


def test_check_clock_trace_counts_and_appeals():
    cons = build_clock(3)
    auditor = ClockAuditor(cons)
    result = run_policy_iteration(
        cons.mdp, clock_initial_policy(cons), budget=cons.budget(), watchers=[auditor]
    )
    report = check_clock_trace(result, auditor)
    assert report.ok
    appeals_seen = {ev.appeal for ev in result.trace}
    assert appeals_seen == {Fraction(1, 4), Fraction(3, 8), Fraction(5, 12)}


def test_check_clock_trace_n1():
    cons = build_clock(1)
    auditor = ClockAuditor(cons)
    result = run_policy_iteration(
        cons.mdp, clock_initial_policy(cons), budget=cons.budget(), watchers=[auditor]
    )
    assert len(result.trace) == 1
    assert check_clock_trace(result, auditor).ok


def test_printed_alpha_is_an_expected_fail():
    cons = build_clock(2, make_params(2, 0, alpha_mode="printed"))
    auditor = ClockAuditor(cons)
    result = run_policy_iteration(
        cons.mdp, clock_initial_policy(cons), budget=cons.budget(), watchers=[auditor]
    )
    report = check_clock_trace(result, auditor)
    assert not report.ok
    assert report.expected_fail
    assert not report.details["band_ok"]
    # The doubled calibration lands each switch at 1 - 1/(2i) instead.
    assert {ev.appeal for ev in result.trace} == {Fraction(1, 2), Fraction(3, 4)}


# ---------------------------------------------------------------------------
# Structural predicates on the full machine


NEG_ROT2 = negated_form(normalize_depths(rotation_circuit(2)))


@pytest.fixture(scope="module")
def rot2_run():
    cons = build_construction(NEG_ROT2)
    policy = initial_policy(cons, (1, 1))
    result = run_annotated(cons, policy)
    return cons, policy, result


def test_initial_policy_is_coherent(rot2_run):
    cons, policy, _ = rot2_run
    assert check_coherent(cons, policy, 0).ok
    # Pointing one x state at the wrong clock output breaks coherence.
    i = cons.or_gates()[0]
    broken = policy.with_switch(cons.index.x(0, i), cons.index.action(f"x0_{i}~>c1"))
    report = check_coherent(cons, broken, 0)
    assert not report.ok
    assert i in report.details["violations"]


def test_input_bits_b_correct_initially(rot2_run):
    cons, policy, _ = rot2_run
    correct = check_b_correct(cons, policy, (1, 1), 0)
    for i in cons.input_bits():
        assert correct[i]


def test_compute_ends_b_correct_and_final(rot2_run):
    cons, policy, result = rot2_run
    # The policy right before the first hand-over starts: every gate of the
    # working circuit must be final and encode the evaluated truth values.
    policies = result.policies()
    first_s1 = next(i for i, ev in enumerate(result.trace) if ev.annotations["role"] == "s1")
    before = policies[first_s1]
    correct = check_b_correct(cons, before, (1, 1), 0)
    final = check_final(cons, before, 0)
    assert all(correct.values())
    assert all(final.values())


def test_initial_input_bits_final_but_not_gates_not(rot2_run):
    cons, policy, _ = rot2_run
    final = check_final(cons, policy, 0)
    for i in cons.input_bits():
        assert final[i]
    # A gate whose arming switch is still pending sits above 7/2.
    assert not all(final[i] for i in cons.not_gates())


def test_corrupted_policy_flagged_not_b_correct(rot2_run):
    cons, policy, _ = rot2_run
    i = next(iter(cons.input_bits()))
    corrupted = policy.with_switch(cons.index.o(0, i), cons.index.action(f"o0_{i}->r0_{i}"))
    correct = check_b_correct(cons, corrupted, (1, 1), 0)
    assert not correct[i]


def test_phase_detection(rot2_run):
    cons, policy, result = rot2_run
    values = evaluate_values(cons.mdp, policy)
    assert phase_from_values(cons, values) == 0
    policies = result.policies()
    clock_events = [i for i, ev in enumerate(result.trace) if ev.annotations["role"] == "clock"]
    after_first = evaluate_values(cons.mdp, policies[clock_events[0] + 1])
    assert phase_from_values(cons, after_first) == 1


def test_decoded_bits(rot2_run):
    cons, policy, _ = rot2_run
    assert decode_input_bits(cons, policy, 0) == (1, 1)
    assert decode_input_bits(cons, policy, 1) == (1, 1)


def test_transition_reports(rot2_run):
    cons, _, result = rot2_run
    report = check_all_transitions(result, cons)
    assert report.ok
    first = check_phase_transition(result, cons, 1)
    assert first.ok
    assert first.details["bits_held"] == "11"
    assert first.details["next_bits"] == "10"  # the rotation of 11


def test_catalog_passes_and_no_unit_appeals(rot2_run):
    cons, _, result = rot2_run
    report = audit_appeal_catalog(result, cons)
    assert report.ok
    assert all(ev.appeal != 1 for ev in result.trace)


def test_idle_circuit_values_stay_below_band_spot_check(rot2_run):
    # At coherent policies mid-run, the idle circuit's gate values never
    # exceed the leading clock state's offset band for their depth.
    cons, _, result = rot2_run
    circuit = cons.circuit
    policies = result.policies()
    for step in range(0, len(policies), 17):
        policy = policies[step]
        values = evaluate_values(cons.mdp, policy)
        phase = phase_from_values(cons, values)
        if not check_coherent(cons, policy, phase).ok:
            continue
        base = values[cons.index.c(phase)]
        for i in range(1, circuit.size + 1):
            d = circuit.depth(i)
            assert values[cons.index.o(1 - phase, i)] <= base + cons.params.high[d]


def test_catalog_flags_corrupted_appeal(rot2_run):
    cons, _, result = rot2_run
    import copy

    bad = copy.deepcopy(result)
    victim = next(ev for ev in bad.trace if ev.annotations["role"] == "s1")
    victim.appeal = Fraction(10, 3)
    report = audit_appeal_catalog(bad, cons)
    assert not report.ok


def test_decode_phases_follows_iteration(rot2_run):
    cons, _, result = rot2_run
    phases = decode_phases(result, cons, (1, 1))
    expected = [iterate(rotation_circuit(2), (1, 1), i) for i in range(5)]
    assert phases == expected


# ---------------------------------------------------------------------------
# End to end


def test_end_to_end_identity_bit_constant():
    report = end_to_end(identity_circuit(2), (1, 1), 1)
    assert report.action_switch is False
    assert report.oracle_bitswitch is False
    assert report.dantzig_sol == report.oracle_circuitvalue
    assert report.verdicts_agree


def test_end_to_end_rotation_switches():
    report = end_to_end(rotation_circuit(2), (1, 1), 1)
    assert report.action_switch is True
    assert report.oracle_bitswitch is True
    assert report.verdicts_agree
    expected = [iterate(rotation_circuit(2), (1, 1), i) for i in range(5)]
    assert report.phases_decoded == expected


def test_end_to_end_requires_set_query_bit():
    with pytest.raises(ValueError):
        end_to_end(identity_circuit(2), (0, 1), 1)


def test_end_to_end_w_bound_mode_agrees():
    exact = end_to_end(rotation_circuit(2), (1, 1), 2, w_mode="exact")
    bound = end_to_end(rotation_circuit(2), (1, 1), 2, w_mode="bound")
    assert exact.dantzig_sol == bound.dantzig_sol == exact.oracle_circuitvalue


@pytest.mark.parametrize("circuit", [identity_circuit(2), rotation_circuit(2)], ids=["identity2", "rot2"])
def test_decide_mdp_runs_only_what_it_reads_and_agrees(circuit):
    bits = (1, 1)
    assert decide_mdp(circuit, bits, 1, "actionswitch") == decide_bitswitch(circuit, bits, 1)
    for w_mode in ("exact", "bound"):
        verdict = decide_mdp(circuit, bits, 1, "dantzigsol", w_mode=w_mode)
        assert verdict == decide_circuitvalue(circuit, bits, 1), w_mode
    with pytest.raises(ValueError):
        decide_mdp(circuit, (0, 1), 1, "actionswitch")


def test_end_to_end_three_bit_instance_with_true_decision():
    # Rotation on three bits, queried at the wrapped-around position: both
    # problems answer yes, so the freeze gadget must preserve an r-side bit.
    circuit = rotation_circuit(3)
    report = end_to_end(circuit, (1, 1, 1), 3)
    assert report.oracle_bitswitch is True and report.oracle_circuitvalue is True
    assert report.action_switch is True and report.dantzig_sol is True
    assert audit_appeal_catalog(report.run, report.construction).ok
    assert check_all_transitions(report.run, report.construction).ok


def test_end_to_end_asymmetric_three_bit_instance():
    # Genuine two-input Or gates and mixed start bits; the orbit reaches a
    # fixed point with the queried bit stuck at 1, so both answers are no.
    from dantziglab.circuit import Circuit, input_gate, not_gate, or_gate

    gates = (
        input_gate(),
        input_gate(),
        input_gate(),
        or_gate(2, 3),
        or_gate(1, 2),
        not_gate(5),
        or_gate(1, 1),
        # Output bits are the last three gates, in order.
        or_gate(4, 4),
        or_gate(7, 7),
        or_gate(6, 6),
    )
    circuit = Circuit(3, gates)  # F = (b2 or b3, b1, not (b1 or b2))
    report = end_to_end(circuit, (1, 0, 1), 1)
    assert report.action_switch is False and report.oracle_bitswitch is False
    assert report.dantzig_sol is False and report.oracle_circuitvalue is False
    expected = [iterate(circuit, (1, 0, 1), i) for i in range(9)]
    assert report.phases_decoded == expected
    assert audit_appeal_catalog(report.run, report.construction).ok
    assert check_all_transitions(report.run, report.construction).ok
    assert audit_appeal_catalog(report.run_z, report.construction_z).ok


def test_end_to_end_verdicts_on_randomized_two_bit_functions():
    # Sweep a handful of random 2-bit functions: the machine's verdicts and
    # per-phase decodings must track the circuit oracles on every one, and
    # the full catalog and transition audits must stay clean.
    import random

    from dantziglab.circuit import Circuit, input_gate, not_gate, or_gate

    rng = random.Random(3141)
    built = 0
    while built < 5:
        gates = [input_gate(), input_gate()]
        for _ in range(rng.randint(1, 4)):
            i = len(gates) + 1
            if rng.random() < 0.6:
                gates.append(or_gate(rng.randint(1, i - 1), rng.randint(1, i - 1)))
            else:
                gates.append(not_gate(rng.randint(1, i - 1)))
        outs = [rng.randint(1, len(gates)), rng.randint(1, len(gates))]
        for g in outs:
            gates.append(or_gate(g, g))
        circuit = Circuit(2, tuple(gates))
        bits = (1, rng.randint(0, 1))
        report = end_to_end(circuit, bits, 1)
        assert report.action_switch == report.oracle_bitswitch
        assert report.dantzig_sol == report.oracle_circuitvalue
        expected = [iterate(circuit, bits, i) for i in range(5)]
        assert report.phases_decoded == expected
        assert audit_appeal_catalog(report.run, report.construction).ok
        assert check_all_transitions(report.run, report.construction).ok
        built += 1
