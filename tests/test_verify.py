from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tight_decision_run
from dantziglab.circuit import (
    KIND_INPUT,
    Circuit,
    decide_bitswitch,
    decide_circuitvalue,
    evaluate,
    input_gate,
    iterate,
    negated_form,
    normalize_depths,
    not_gate,
    or_gate,
)
from dantziglab.construction import (
    MAGIC,
    Construction,
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
    make_params,
)
from dantziglab.library import constant_zero_circuit, identity_circuit, rotation_circuit
from dantziglab.lp import check_pi_simplex_equivalence
from dantziglab.mdp import (
    Policy,
    TieBreak,
    TraceEvent,
    appeals as action_appeals,
    decide_dantzig_mdp_sol,
    evaluate_values,
    make_policy,
    run_policy_iteration,
)
from dantziglab.verify import (
    FLOOR,
    ClockAuditor,
    ClockOracle,
    TraceAnnotator,
    audit_appeal_catalog,
    check_all_transitions,
    check_clock_trace,
    check_coherent,
    decode_input_bits,
    decode_phases,
    end_to_end,
    gray_code,
    least_significant_zero,
    phase_from_values,
    _transition_failures,
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


def clock_gray_policy(construction: Construction, j: int) -> Policy:
    """The clock policy the oracle predicts at step j.

    State i goes down to i' when its Gray bit is 1, and right to i-1 otherwise.
    """
    n = construction.params.n
    word = gray_code(n, j)
    index = construction.index
    mdp = construction.mdp
    picks = [mdp.state_actions[s][0] for s in range(mdp.num_states)]
    for i in range(1, n + 1):
        target = f"{i}'" if word[i - 1] == 1 else str(i - 1)
        picks[index.clock(i)] = index.action(f"{i}~>{target}")
    return make_policy(mdp, picks)


def clock_values(oracle, j):
    """``oracle.scaled(j)`` keyed by state name."""
    return dict(zip(oracle.names, oracle.scaled(j)))


def test_clock_value_formulas_against_exact_evaluation():
    for n in range(1, 5):
        cons = build_clock(n)
        t = cons.params.t
        oracle = ClockOracle(n)
        for j in range(2**n):
            policy = clock_gray_policy(cons, j)
            values = evaluate_values(cons.mdp, policy)
            for name, scaled in clock_values(oracle, j).items():
                assert values[cons.index.state(name)] == t * scaled, (n, j, name)


def test_clock_output_staircase():
    for n in (2, 3):
        oracle = ClockOracle(n)
        for j in range(2**n):
            vals = clock_values(oracle, j)
            if j % 2 == 0:
                assert (vals["c0"], vals["c1"]) == (j, j + 1)
            else:
                assert (vals["c0"], vals["c1"]) == (j + 1, j)


def test_prime_state_values():
    for n in (2, 3, 4):
        oracle = ClockOracle(n)
        for j in range(2**n):
            assert clock_values(oracle, j)["1'"] == 2**n
            assert clock_values(oracle, j)["2'"] == 2 ** (n - 1)


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


def test_clock_auditor_flags_a_policy_or_a_value_off_the_oracle():
    cons = build_clock(3)
    auditor = ClockAuditor(cons)
    for j in range(2**3):
        policy = clock_gray_policy(cons, j)
        auditor.check_policy(j, policy, evaluate_values(cons.mdp, policy))
    assert auditor.policy_failures == []
    # Gray words 4 and 5 differ in bit 3 alone, so the fifth policy handed
    # in as the fourth is off the sequence at clock state 3 only.
    policy = clock_gray_policy(cons, 5)
    auditor.check_policy(4, policy, evaluate_values(cons.mdp, clock_gray_policy(cons, 4)))
    assert auditor.policy_failures == ["step 4: state 3 off the Gray-code sequence"]
    auditor.policy_failures.clear()
    values = evaluate_values(cons.mdp, policy)
    values[cons.index.state("c1")] += Fraction(1, 10**9)
    auditor.check_policy(5, policy, values)
    assert auditor.policy_failures == ["step 5: value of c1 differs from the oracle"]


def test_clock_auditor_reads_the_closed_forms_of_values_and_gray_code():
    # At every step of every clock up to n = 6 the auditor passes the Gray
    # policy with the values clock_values gives at step j (times t) at the
    # states it names; the others hold a number it must not read.  A policy
    # one Gray bit off, or one value off by t, is recorded at that state.
    for n in range(1, 7):
        cons = build_clock(n)
        t = cons.params.t
        index = cons.index
        auditor = ClockAuditor(cons)
        for j in range(2**n):
            policy = clock_gray_policy(cons, j)
            values = [Fraction(-1, 3)] * cons.mdp.num_states
            for name, scaled in clock_values(ClockOracle(n), j).items():
                values[index.state(name)] = t * scaled
            auditor.check_policy(j, policy, values)
            assert auditor.policy_failures == [], (n, j)
            for i, bit in enumerate(gray_code(n, j), 1):
                off = index.action(f"{i}~>{i - 1}" if bit else f"{i}~>{i}'")
                auditor.check_policy(j, policy.with_switch(index.clock(i), off), values)
                assert auditor.policy_failures == [f"step {j}: state {i} off the Gray-code sequence"]
                auditor.policy_failures.clear()
            for name in clock_values(ClockOracle(n), j):
                shifted = list(values)
                shifted[index.state(name)] += t
                auditor.check_policy(j, policy, shifted)
                assert auditor.policy_failures == [f"step {j}: value of {name} differs from the oracle"]
                auditor.policy_failures.clear()


def test_clock_auditor_flags_a_switch_outside_the_clock():
    # Every state of a clock but the clock states has one action, so no run
    # switches one; the auditor is handed such an event directly.
    cons = build_clock(3)
    auditor = ClockAuditor(cons)
    policy = clock_initial_policy(cons)
    c0 = cons.index.state("c0")
    (only,) = cons.mdp.state_actions[c0]
    auditor(TraceEvent(0, c0, only, only, Fraction(1, 4)), policy, evaluate_values(cons.mdp, policy), [])
    assert auditor.switch_failures == ["step 0: switch outside the clock at c0"]
    assert auditor.policy_failures == auditor.band_failures == []


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
    assert auditor.band_failures == [
        "step 0: appeal 3/4 != 3/8",
        "step 0: appeal 3/4 outside [1/4, 1/2)",
        "step 1: appeal 1/2 != 1/4",
        "step 1: appeal 1/2 outside [1/4, 1/2)",
        "step 2: appeal 3/4 != 3/8",
        "step 2: appeal 3/4 outside [1/4, 1/2)",
    ]


@pytest.mark.parametrize(
    "appeal, failures",
    [
        (Fraction(5, 12), []),
        (Fraction(1, 3), ["step 0: appeal 1/3 != 5/12"]),
        (Fraction(1, 5), ["step 0: appeal 1/5 != 5/12", "step 0: appeal 1/5 outside [1/4, 1/2)"]),
    ],
)
def test_clock_auditor_tests_the_band_on_the_switch_appeal_it_is_handed(appeal, failures):
    # At step 0 the clock switches state 3, whose appeal is 1/2 - 1/12; an
    # appeal that differs from it is also checked against [1/4, 1/2) itself.
    cons = build_clock(3)
    auditor = ClockAuditor(cons)
    policy = clock_initial_policy(cons)
    sid = cons.index.clock(3)
    event = TraceEvent(0, sid, policy.choice[sid], cons.index.action("3~>3'"), appeal)
    auditor(event, policy, evaluate_values(cons.mdp, policy), [])
    assert auditor.band_failures == failures
    assert auditor.policy_failures == auditor.switch_failures == []


# ---------------------------------------------------------------------------
# Structural predicates on the full machine


NEG_ROT2 = negated_form(normalize_depths(rotation_circuit(2)))


def check_b_correct(
    construction: Construction, policy: Policy, bits: Sequence[int], phase: int
) -> dict[int, bool]:
    """Per gate: does the output state's value encode the gate's truth on ``bits``?"""
    circuit = construction.circuit
    assert circuit is not None
    values = evaluate_values(construction.mdp, policy)
    truth = evaluate(circuit, bits)
    index = construction.index
    base = values[index.c(phase)]
    out = {}
    for i in range(1, circuit.size + 1):
        d = circuit.depth(i)
        offset = construction.params.high[d] if truth[i - 1] else construction.params.low[d]
        out[i] = values[index.o(phase, i)] == base + offset
    return out


def check_final(construction: Construction, policy: Policy, phase: int) -> dict[int, bool]:
    """Per gate: finished, in the inductive no-high-appeal sense.

    A state is settled when none of its actions has appeal above 7/2; a
    gate is final when every strictly shallower gate is final and its own
    states are settled.
    """
    circuit = construction.circuit
    assert circuit is not None
    mdp = construction.mdp
    index = construction.index
    values = evaluate_values(mdp, policy)
    gains = action_appeals(mdp, values)

    def settled(state: int) -> bool:
        return all(gains[aid] <= FLOOR for aid in mdp.state_actions[state])

    depths = circuit.depths()
    final: dict[int, bool] = {}
    order = sorted(range(1, circuit.size + 1), key=lambda i: depths[i - 1])
    for i in order:
        below = all(final[i2] for i2 in final if depths[i2 - 1] < depths[i - 1])
        kind = circuit.gate(i).kind
        if kind == KIND_INPUT:
            own = all(
                settled(s)
                for s in (index.o(phase, i), index.l(phase, i), index.r(phase, i))
            )
        elif kind == "or":
            own = all(settled(s) for s in (index.o(phase, i), index.state(f"v{phase}_{i}"), index.x(phase, i)))
        else:
            own = all(settled(s) for s in (index.o(phase, i), index.a(phase, i)))
        final[i] = below and own
    return final


@pytest.fixture(scope="module")
def rot2_run():
    cons = build_construction(NEG_ROT2)
    policy = initial_policy(cons, (1, 1))
    result = run_policy_iteration(cons.mdp, policy, budget=cons.budget(), watchers=[TraceAnnotator(cons)])
    return cons, policy, result


def test_initial_policy_is_coherent(rot2_run):
    cons, policy, _ = rot2_run
    assert check_coherent(cons, policy, 0) == []
    # Pointing one x state at the wrong clock output breaks coherence.
    i = cons.or_gates()[0]
    broken = policy.with_switch(cons.index.x(0, i), cons.index.action(f"x0_{i}~>c1"))
    assert check_coherent(cons, broken, 0) == [f"gate {i}: x(own) detached"]


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


@pytest.mark.parametrize("off", [Fraction(1, 2**80), Fraction(-1, 2**80)])
@pytest.mark.parametrize("phase", [0, 1])
def test_a_phase_gap_off_by_2_to_the_minus_80_raises_its_fraction_message(rot2_run, phase, off):
    cons, policy, _ = rot2_run
    values = list(evaluate_values(cons.mdp, policy))
    c0, c1 = cons.index.c(0), cons.index.c(1)
    if phase:
        values[c0], values[c1] = values[c1], values[c0]
    assert phase_from_values(cons, values) == phase
    values[c1] += off
    gap = values[c1] - values[c0]
    with pytest.raises(AssertionError) as info:
        phase_from_values(cons, values)
    assert str(info.value) == f"clock outputs differ by {gap}, not by the phase gap"


def test_decoded_bits(rot2_run):
    cons, policy, _ = rot2_run
    assert decode_input_bits(cons, policy, 0) == (1, 1)
    assert decode_input_bits(cons, policy, 1) == (1, 1)


def test_transition_reports(rot2_run):
    cons, _, result = rot2_run
    # Two bits make 2^2 - 1 clock switches, so three hand-overs to audit.
    report = check_all_transitions(result, cons)
    assert report.ok and report.failures == []
    assert report.details == {"boundaries": 3}


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
        if check_coherent(cons, policy, phase):
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


CATALOG_ROLES = {
    "clock", "s1", "s2", "s3a", "s3b", "s4a", "s4b", "s4c", "copy", "copy-echo", "not-arm", "not-write",
    "not-track", "or-open", "or-shelf", "or-pick", "stale", "residual", "freeze-arm", "freeze", "unexpected",
}


@pytest.fixture(scope="module")
def catalog_runs():
    """The ``end_to_end`` records of rot2 and const0_2 from 11 at z = 1, under both problems."""
    return {
        (name, problem): end_to_end(circuit, (1, 1), 1, problem)
        for name, circuit in (("rot2", rotation_circuit(2)), ("const0_2", constant_zero_circuit(2)))
        for problem in ("actionswitch", "dantzigsol")
    }


def test_catalog_names_the_event_whose_appeal_is_off_for_every_role(catalog_runs):
    # On rot2 and const0_2, under both problems, the first event of each
    # role in turn is given appeal 0; the catalog must fail and name it.
    seen = set()
    for circuit in ("rot2", "const0_2"):
        for problem in ("actionswitch", "dantzigsol"):
            e = catalog_runs[circuit, problem]
            assert audit_appeal_catalog(e.run, e.construction).ok
            first = {}
            for pos, ev in enumerate(e.run.trace):
                first.setdefault(ev.annotations["role"], pos)
            for role, pos in first.items():
                trace = list(e.run.trace)
                trace[pos] = dataclasses.replace(trace[pos], appeal=Fraction(0))
                report = audit_appeal_catalog(dataclasses.replace(e.run, trace=trace), e.construction)
                named = f"event {trace[pos].iteration} ("
                assert not report.ok and any(f.startswith(named) for f in report.failures), (problem, role)
            seen |= first.keys()
    assert seen == CATALOG_ROLES


def _relabeled(role):
    return lambda ev: dataclasses.replace(ev, annotations={**ev.annotations, "role": role})


RESIDUAL_CEILING = f"appeal {MAGIC} not below the residual ceiling {MAGIC}"


@pytest.mark.parametrize(
    "problem, role, offset, edit, message",
    [
        ("actionswitch", "s1", 0, lambda ev: dataclasses.replace(ev, annotations={}), "missing role annotation"),
        ("actionswitch", "s1", 0, lambda ev: dataclasses.replace(ev, appeal=Fraction(1)),
         "switched at appeal exactly 1"),
        ("actionswitch", "residual", 0, lambda ev: dataclasses.replace(ev, appeal=MAGIC), RESIDUAL_CEILING),
        ("dantzigsol", "freeze", 1, lambda ev: dataclasses.replace(_relabeled("residual")(ev), appeal=MAGIC),
         RESIDUAL_CEILING),
        ("actionswitch", "s1", 0, _relabeled("bogus"), "unclassified switch (role bogus)"),
    ],
    ids=["missing-role", "appeal-1", "residual-ceiling", "residual-ceiling-after-freeze", "unclassified"],
)
def test_catalog_names_the_event_each_check_rejects(catalog_runs, problem, role, offset, edit, message):
    # One event of const0_2's run, found by its role (the one after it for
    # an offset of 1), is edited so that exactly this check fails on it.
    e = catalog_runs["const0_2", problem]
    trace = list(e.run.trace)
    pos = [ev.annotations["role"] for ev in trace].index(role) + offset
    ev = trace[pos] = edit(trace[pos])
    report = audit_appeal_catalog(dataclasses.replace(e.run, trace=trace), e.construction)
    name = e.construction.mdp.state_names[ev.state]
    assert not report.ok
    assert f"event {ev.iteration} ({name}, {ev.annotations.get('role')}): {message}" in report.failures


def test_transitions_flag_a_class_that_starts_before_the_previous_completes(rot2_run):
    # Swap the last s1 event and the first s2 event of the first boundary.
    cons, _, result = rot2_run
    roles = [ev.annotations["role"] for ev in result.trace]
    clock = roles.index("clock")
    last_s1 = max(pos for pos in range(clock) if roles[pos] == "s1")
    first_s2 = roles.index("s2")
    assert last_s1 < first_s2 < clock
    trace = list(result.trace)
    trace[last_s1], trace[first_s2] = trace[first_s2], trace[last_s1]
    report = check_all_transitions(dataclasses.replace(result, trace=trace), cons)
    assert report.failures == ["boundary 1: class s2 starts before the previous class completes"]


def _first_phase(result):
    """Boundary 1 of a run: its phase's (position, event) pairs and the policies that open and close it."""
    clock = next(pos for pos, ev in enumerate(result.trace) if ev.annotations["role"] == "clock")
    return list(enumerate(result.trace[: clock + 1])), result.initial, result.policies()[clock + 1]


def _first_of(events, role):
    return next(k for k, ev in enumerate(events) if ev.annotations["role"] == role)


def _without_first(events, role):
    k = _first_of(events, role)
    return events[:k] + events[k + 1 :]


def _first_moved(events, role, to):
    events = list(events)
    events.insert(to, events.pop(_first_of(events, role)))
    return events


def _holding_switch_after_first_s1(cons, events):
    k = _first_of(events, "s1")
    stray = dataclasses.replace(
        events[k], state=cons.index.o(1, 1), new_action=cons.index.action("o1_1->r1_1"), annotations={"phase": 0}
    )
    return events[: k + 1] + [stray] + events[k + 1 :]


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda cons, events: _without_first(events, "s1"), "class s1: 1 events, expected 2"),
        (lambda cons, events: _first_moved(events, "s4a", len(events)), "class s4a continues past the clock switch"),
        (lambda cons, events: _first_moved(events, "s4a", 0), "hookup/detach work starts before re-homing completes"),
        (_holding_switch_after_first_s1, "holding state o1_1 switched during the hand-over"),
    ],
    ids=["s1-short", "s4a-past-clock", "hookup-early", "holding-switched"],
)
def test_transitions_name_each_event_out_of_script(rot2_run, edit, expected):
    # One edit to the events of rot2's first phase, renumbered from its start.
    cons, _, result = rot2_run
    segment, before, after = _first_phase(result)
    assert _transition_failures(cons, segment, before, after) == []
    events = edit(cons, [ev for _, ev in segment])
    assert _transition_failures(cons, list(enumerate(events)), before, after) == [expected]


@pytest.mark.parametrize(
    "action, expected",
    [
        ("x1_3~>c0", ["post-boundary policy is not coherent", "  gate 3: x(own) detached"]),
        ("o1_1->r1_1", ["post-boundary bits (0, 0) do not encode the next iterate (1, 0)"]),
        ("o0_1->r0_1", ["outgoing bit 1 not re-homed for copying"]),
        ("a1_4~>c0", ["arming state of gate 4 not reset for the new phase"]),
    ],
    ids=["incoherent", "wrong-bits", "not-re-homed", "arming-not-reset"],
)
def test_transitions_name_each_fault_of_the_policy_after_the_clock(rot2_run, action, expected):
    # The policy right after rot2's first clock switch, with one action switched in.
    cons, _, result = rot2_run
    segment, before, after = _first_phase(result)
    aid = cons.index.action(action)
    broken = after.with_switch(cons.mdp.actions[aid].state, aid)
    assert _transition_failures(cons, segment, before, broken) == expected


def test_policies_replay_the_trace(rot2_run):
    _, policy, result = rot2_run
    policies = result.policies()
    assert len(policies) == len(result.trace) + 1
    assert policies[0] == result.initial == policy
    assert policies[-1] == result.policy
    for ev, before, after in zip(result.trace, policies, policies[1:]):
        assert before.choice[ev.state] == ev.old_action
        assert before.with_switch(ev.state, ev.new_action) == after


def test_decode_phases_follows_iteration(rot2_run):
    cons, _, result = rot2_run
    phases = decode_phases(result, cons, (1, 1))
    expected = [iterate(rotation_circuit(2), (1, 1), i) for i in range(5)]
    assert phases == expected


# ---------------------------------------------------------------------------
# End to end


def test_end_to_end_identity_bit_constant():
    switch = end_to_end(identity_circuit(2), (1, 1), 1, "actionswitch")
    assert switch.verdict is False and switch.oracle is False
    sol = end_to_end(identity_circuit(2), (1, 1), 1, "dantzigsol")
    assert sol.verdict == sol.oracle


def test_end_to_end_rotation_switches():
    switch = end_to_end(rotation_circuit(2), (1, 1), 1, "actionswitch")
    assert switch.verdict is True and switch.oracle is True
    sol = end_to_end(rotation_circuit(2), (1, 1), 1, "dantzigsol")
    assert sol.verdict == sol.oracle
    expected = [iterate(rotation_circuit(2), (1, 1), i) for i in range(5)]
    assert decode_phases(switch.run, switch.construction, (1, 1)) == expected


def test_end_to_end_requires_set_query_bit():
    for problem in ("actionswitch", "dantzigsol"):
        with pytest.raises(ValueError):
            end_to_end(identity_circuit(2), (0, 1), 1, problem)
    with pytest.raises(ValueError, match="unknown"):
        end_to_end(identity_circuit(2), (1, 1), 1, "bitswitch")


def _tight_verdict(plain, bits, z) -> bool:
    cons, run = tight_decision_run(plain, bits, z)
    return decide_dantzig_mdp_sol(cons.mdp, run, cons.index.action(f"o0_{z}->r0_{z}"))


def test_end_to_end_w_bound_mode_agrees():
    # The closed-form w end_to_end scales the gadget by and the tight w,
    # the plain run's top value, give the same DantzigSol verdict.
    circuit, bits = rotation_circuit(2), (1, 1)
    sol = end_to_end(circuit, bits, 2, "dantzigsol")
    assert sol.verdict == sol.oracle
    assert _tight_verdict(end_to_end(circuit, bits, 2, "actionswitch"), bits, 2) == sol.verdict


@pytest.mark.parametrize("circuit", [identity_circuit(2), rotation_circuit(2)], ids=["identity2", "rot2"])
def test_decide_mdp_runs_only_what_it_reads_and_agrees(circuit, count_runs):
    # Each call makes one greedy run, on the reduction its problem names:
    # the plain construction for actionswitch, the decision variant (the
    # one with the freeze gadget's b1 state) for dantzigsol.
    bits = (1, 1)
    switch = end_to_end(circuit, bits, 1, "actionswitch")
    assert count_runs == [switch.construction.mdp]
    assert "b1" not in switch.construction.mdp.state_names
    assert switch.verdict == switch.oracle == decide_bitswitch(circuit, bits, 1)
    sol = end_to_end(circuit, bits, 1, "dantzigsol")
    assert count_runs == [switch.construction.mdp, sol.construction.mdp]
    assert "b1" in sol.construction.mdp.state_names
    assert sol.verdict == sol.oracle == decide_circuitvalue(circuit, bits, 1)
    assert decode_phases(switch.run, switch.construction, bits) == [iterate(circuit, bits, i) for i in range(5)]
    assert _tight_verdict(switch, bits, 1) == sol.verdict


def test_end_to_end_runs_each_reduction_once_on_first_read(count_runs):
    # The record is eager: the call makes the one run, and reading its
    # fields or decoding its phases afterwards makes none.
    sol = end_to_end(identity_circuit(1), (1,), 1, "dantzigsol")
    assert count_runs == [sol.construction.mdp]
    assert sol.verdict == sol.oracle
    switch = end_to_end(identity_circuit(1), (1,), 1, "actionswitch")
    assert count_runs == [sol.construction.mdp, switch.construction.mdp]
    assert switch.verdict == switch.oracle
    assert switch.run is switch.run and sol.run is sol.run
    phases = decode_phases(switch.run, switch.construction, (1,))
    assert phases == [iterate(identity_circuit(1), (1,), i) for i in range(3)]
    assert len(count_runs) == 2


def test_end_to_end_three_bit_instance_with_true_decision():
    # Rotation on three bits, queried at the wrapped-around position: both
    # problems answer yes, so the freeze gadget must preserve an r-side bit.
    circuit = rotation_circuit(3)
    switch = end_to_end(circuit, (1, 1, 1), 3, "actionswitch")
    sol = end_to_end(circuit, (1, 1, 1), 3, "dantzigsol")
    assert switch.oracle is True and sol.oracle is True
    assert switch.verdict is True and sol.verdict is True
    assert audit_appeal_catalog(switch.run, switch.construction).ok
    assert check_all_transitions(switch.run, switch.construction).ok


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
    switch = end_to_end(circuit, (1, 0, 1), 1, "actionswitch")
    sol = end_to_end(circuit, (1, 0, 1), 1, "dantzigsol")
    assert switch.verdict is False and switch.oracle is False
    assert sol.verdict is False and sol.oracle is False
    expected = [iterate(circuit, (1, 0, 1), i) for i in range(9)]
    assert decode_phases(switch.run, switch.construction, (1, 0, 1)) == expected
    assert audit_appeal_catalog(switch.run, switch.construction).ok
    assert check_all_transitions(switch.run, switch.construction).ok
    assert audit_appeal_catalog(sol.run, sol.construction).ok


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
        switch = end_to_end(circuit, bits, 1, "actionswitch")
        sol = end_to_end(circuit, bits, 1, "dantzigsol")
        assert switch.verdict == switch.oracle
        assert sol.verdict == sol.oracle
        expected = [iterate(circuit, bits, i) for i in range(5)]
        assert decode_phases(switch.run, switch.construction, bits) == expected
        assert audit_appeal_catalog(switch.run, switch.construction).ok
        assert check_all_transitions(switch.run, switch.construction).ok
        built += 1


@st.composite
def random_circuits(draw):
    """A well-formed circuit on n <= 3 bits with at most 2n + 2 gates in all, a start string, and a query bit set in it.

    Each Or or Not gate reads any earlier gates, so gates that reach no
    output, even ones deeper than the outputs, come up often.
    """
    n = draw(st.integers(1, 3))
    gates = [input_gate() for _ in range(n)]
    for i in range(n + 1, draw(st.integers(n, 2 * n + 2)) + 1):
        earlier = st.integers(1, i - 1)
        gates.append(draw(st.builds(or_gate, earlier, earlier) | st.builds(not_gate, earlier)))
    z = draw(st.integers(1, n))
    bits = tuple(1 if i == z else draw(st.integers(0, 1)) for i in range(1, n + 1))
    return Circuit(n, tuple(gates)), bits, z


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.sampled_from(["lowest", "highest"]) | st.integers(0, 99).map("random:{}".format))
def test_random_circuits_build_and_track_their_oracles_under_every_tie_rule(instance, tie):
    circuit, bits, z = instance
    switch = end_to_end(circuit, bits, z, "actionswitch", tie=TieBreak(tie))
    sol = end_to_end(circuit, bits, z, "dantzigsol", tie=TieBreak(tie))
    assert switch.verdict == switch.oracle
    assert sol.verdict == sol.oracle
    expected = [iterate(circuit, bits, i) for i in range(2**circuit.n + 1)]
    assert decode_phases(switch.run, switch.construction, bits) == expected
    assert audit_appeal_catalog(switch.run, switch.construction).ok
    assert check_all_transitions(switch.run, switch.construction).ok
    assert audit_appeal_catalog(sol.run, sol.construction).ok
    if circuit.n <= 2:
        # The LP half of the acyclic invariant: every basis the lockstep
        # meets under this tie rule has a singleton order.
        cons = switch.construction
        lockstep = check_pi_simplex_equivalence(
            cons.mdp, switch.run.initial, cons.index.si(), tie=TieBreak(tie), budget=cons.budget()
        )
        assert lockstep.ok and lockstep.pivots == switch.run.iterations
