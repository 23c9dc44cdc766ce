"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines.  Every tolerance here is exact rational equality or an
exactly-known band; nothing is compared approximately.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from dantziglab.circuit import (
    decide_bitswitch,
    decide_circuitvalue,
    iterate,
    negated_form,
    normalize_depths,
)
from dantziglab.construction import (
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
    make_params,
)
from dantziglab.library import (
    constant_zero_circuit,
    identity_circuit,
    rotation_circuit,
    shuttle_machine,
    unary_counter_machine,
)
from dantziglab.lp import check_pi_simplex_equivalence
from dantziglab.mdp import (
    Mdp,
    add_gadget,
    appeals,
    decide_action_switch,
    decide_dantzig_mdp_sol,
    evaluate_gain,
    evaluate_values,
    make_policy,
    parse_tiebreak,
    run_policy_iteration,
)
from dantziglab.turing import compile_machine, simulate
from dantziglab.verify import (
    ClockAuditor,
    ClockOracle,
    audit_appeal_catalog,
    check_clock_trace,
    end_to_end,
)

ONE = Fraction(1)

INSTANCES = {
    "identity2": (identity_circuit(2), (1, 1), 1),
    "rot2": (rotation_circuit(2), (1, 1), 1),
    "const0_2": (constant_zero_circuit(2), (1, 1), 1),
    "rot3": (rotation_circuit(3), (1, 1, 1), 1),
}

TIE_RULES = ("lowest", "highest", "random:7", "random:991")

_E2E_CACHE: dict = {}


def e2e(name: str, tie: str = "lowest", w_mode: str = "exact"):
    key = (name, tie, w_mode)
    if key not in _E2E_CACHE:
        circuit, bits, z = INSTANCES[name]
        _E2E_CACHE[key] = end_to_end(
            circuit, bits, z, tie=parse_tiebreak(tie), w_mode=w_mode
        )
    return _E2E_CACHE[key]


def ok(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS — {message}")


def test_criterion_1_clock_reproduction():
    started = time.monotonic()
    for n in range(1, 9):
        cons = build_clock(n)
        auditor = ClockAuditor(cons)
        result = run_policy_iteration(
            cons.mdp, clock_initial_policy(cons), budget=cons.budget(), watchers=[auditor]
        )
        assert len(result.trace) == 2**n - 1
        report = check_clock_trace(result, auditor)
        assert report.ok, report.failures[:3]
        oracle = ClockOracle(n)
        t = cons.params.t
        for j, policy in enumerate(result.policies()):
            values = evaluate_values(cons.mdp, policy)
            c0 = values[cons.index.c(0)]
            c1 = values[cons.index.c(1)]
            expected = (t * j, t * (j + 1)) if j % 2 == 0 else (t * (j + 1), t * j)
            assert (c0, c1) == expected
        for j, ev in enumerate(result.trace):
            i = cons.index.state_info[ev.state].i
            assert ev.appeal == Fraction(1, 2) - Fraction(1, 4 * i)
            assert Fraction(1, 4) <= ev.appeal < Fraction(1, 2)
    elapsed = time.monotonic() - started
    assert elapsed <= 5.0, f"clock sweep took {elapsed:.2f}s"
    ok(1, f"clocks n=1..8 follow the Gray-code oracle exactly ({elapsed:.2f}s)")


def test_criterion_2_appeal_catalog():
    report = e2e("rot2")
    cons, run = report.construction, report.run
    audit = audit_appeal_catalog(run, cons)
    assert audit.ok, audit.failures[:5]
    seen = {}
    for ev in run.trace:
        seen.setdefault(ev.annotations["role"], set()).add(ev.appeal)
    assert seen["s3a"] == {Fraction(8, 5)}
    assert seen["s1"] == {Fraction(17, 5)}
    assert all(Fraction(16, 5) <= a <= Fraction(33, 10) for a in seen["s2"])
    assert Fraction(16, 5) in seen["s2"]
    assert seen["s4c"] == {Fraction(9, 10)}
    assert seen["s4b"] == {Fraction(19, 20)}
    assert seen["copy"] == {Fraction(9, 2)}
    assert seen["not-write"] == {Fraction(4)}
    depths = {
        cons.circuit.depth(i) for i in cons.not_gates()
    }
    expected_arming = {Fraction(7, 2) + Fraction(1, 2 * d) for d in depths}
    assert seen["not-arm"] == expected_arming
    assert all(ev.appeal != 1 for ev in run.trace)
    first_s1 = next(i for i, ev in enumerate(run.trace) if ev.annotations["role"] == "s1")
    assert all(ev.appeal >= Fraction(7, 2) for ev in run.trace[:first_s1])
    ok(2, f"full catalog exact on the 2-bit instance ({len(run.trace)} switches)")


@pytest.mark.parametrize("name", ["identity2", "rot2", "const0_2", "rot3"])
def test_criterion_3_action_switch(name):
    started = time.monotonic()
    circuit, bits, z = INSTANCES[name]
    report = e2e(name)
    oracle = decide_bitswitch(circuit, bits, z)
    assert report.action_switch == oracle
    cons = report.construction
    query = cons.index.action(f"o0_{z}->r0_{z}")
    verdict = decide_action_switch(
        cons.mdp, initial_policy(cons, bits), query, budget=cons.budget()
    )
    assert verdict == oracle
    n = circuit.n
    expected = [iterate(circuit, bits, i) for i in range(2**n + 1)]
    assert report.phases_decoded == expected
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    ok(3, f"{name}: action-switch verdict {verdict} matches, phases decode ({elapsed:.1f}s)")


@pytest.mark.parametrize("name", ["identity2", "rot2", "const0_2", "rot3"])
def test_criterion_4_dantzig_mdp_sol(name):
    circuit, bits, z = INSTANCES[name]
    oracle = decide_circuitvalue(circuit, bits, z)
    final_bit = iterate(circuit, bits, 2**circuit.n)[z - 1]
    for w_mode in ("exact", "bound"):
        report = e2e(name, w_mode=w_mode)
        assert report.dantzig_sol == oracle, (name, w_mode)
        cons_z = report.construction_z
        final = report.run_z.policy
        target = cons_z.index.target(final.choice[cons_z.index.o(0, z)])
        encoded = 1 if target == cons_z.index.l(0, z) else 0
        assert encoded == final_bit
        query = cons_z.index.action(f"o0_{z}->r0_{z}")
        verdict = decide_dantzig_mdp_sol(
            cons_z.mdp, initial_policy(cons_z, bits), query, budget=cons_z.budget()
        )
        assert verdict == oracle
    ok(4, f"{name}: decision verdict matches the iterate bit under both w modes")


def test_criterion_5_lockstep_equivalence():
    for n in (1, 2, 3):
        cons = build_clock(n)
        report = check_pi_simplex_equivalence(
            cons.mdp, clock_initial_policy(cons), cons.index.si(), budget=cons.budget()
        )
        assert report.ok and report.pivots == 2**n - 1
        assert all(entry["ok"] for entry in report.iterations)
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    report = check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, (1,)), cons.index.si(), budget=cons.budget()
    )
    assert report.ok and report.first_divergence is None
    ok(5, f"pivoting retraces switching with zero divergences ({report.pivots} pivots on the full machine)")


def test_criterion_6_gadget_property_suite():
    rng = random.Random(271828)
    for _ in range(500):
        m = Mdp()
        sink = m.add_state("sink")
        m.add_action(sink, {sink: ONE}, 0)
        t = m.add_state("t")
        m.add_action(t, {sink: ONE}, Fraction(rng.randint(-60, 60), rng.randint(1, 11)))
        s = m.add_state("s")
        direct = m.add_action(s, {sink: ONE}, Fraction(rng.randint(-60, 60), rng.randint(1, 11)))
        r_d = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        r_f = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        p = Fraction(rng.randint(1, 64), 64)
        gadget = add_gadget(m, s, t, r_d, r_f, p)
        hop = m.num_states - 1
        base = {sink: 0, t: 1, hop: m.num_actions - 1}

        using = make_policy(m, {**base, s: gadget})
        values = evaluate_values(m, using)
        assert values[s] == values[t] + r_f + r_d / p

        avoiding = make_policy(m, {**base, s: direct})
        values = evaluate_values(m, avoiding)
        b = values[t] - values[s]
        assert appeals(m, avoiding, values)[gadget] == p * (b + r_f) + r_d
    ok(6, "both detour identities hold exactly on 500 random embeddings")


def test_criterion_7_zero_gain_everywhere():
    checked = 0
    for name in INSTANCES:
        circuit, bits, z = INSTANCES[name]
        report = e2e(name)
        for cons, run in ((report.construction, report.run), (report.construction_z, report.run_z)):
            for policy in (run.initial, run.policy):
                gains = evaluate_gain(cons.mdp, policy)
                assert all(g == 0 for g in gains)
                checked += 1
    ok(7, f"average reward is 0 at every state on {checked} start/optimal policies")


def test_criterion_8_tiebreak_invariance():
    for name in INSTANCES:
        base = e2e(name)
        for tie in TIE_RULES:
            report = e2e(name, tie=tie)
            assert report.action_switch == base.action_switch, (name, tie)
            assert report.dantzig_sol == base.dantzig_sol, (name, tie)
    ok(8, f"verdicts identical under {', '.join(TIE_RULES)}")


def test_criterion_9_machine_pipeline():
    for machine, tape, expect_halt in (
        (unary_counter_machine(), (1, 1, 1), True),
        (shuttle_machine(), (1, 0, 0), False),
    ):
        circuit, start, z = compile_machine(machine, tape, 3)
        direct = simulate(machine, tape, 3, 2**circuit.n)
        assert direct is expect_halt
        assert decide_circuitvalue(circuit, start, z) == direct
    ok(9, "compiled step circuits agree with the direct machine simulator")


def test_criterion_10_calibration_regression():
    calibrated = build_clock(3)
    auditor = ClockAuditor(calibrated)
    result = run_policy_iteration(
        calibrated.mdp, clock_initial_policy(calibrated), budget=calibrated.budget(), watchers=[auditor]
    )
    assert check_clock_trace(result, auditor).ok

    printed = build_clock(3, make_params(3, 0, alpha_mode="printed"))
    auditor = ClockAuditor(printed)
    result = run_policy_iteration(
        printed.mdp, clock_initial_policy(printed), budget=printed.budget(), watchers=[auditor]
    )
    report = check_clock_trace(result, auditor)
    assert not report.ok
    assert report.expected_fail
    assert not report.details["band_ok"]
    ok(10, "printed calibration fails the band check as an expected failure; calibrated passes")
