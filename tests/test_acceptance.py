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

from conftest import evaluate_gain, plain_run, tight_decision_run
from dantziglab.circuit import (
    decide_bitswitch,
    decide_circuitvalue,
    iterate,
    negated_form,
    normalize_depths,
)
from dantziglab.construction import (
    bound_w,
    build_clock,
    build_construction,
    build_construction_z,
    clock_initial_policy,
    derive_params,
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
    decode_phases,
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


def e2e(name: str, problem: str, tie: str = "lowest"):
    key = (name, problem, tie)
    if key not in _E2E_CACHE:
        circuit, bits, z = INSTANCES[name]
        _E2E_CACHE[key] = end_to_end(circuit, bits, z, problem, tie=parse_tiebreak(tie))
    return _E2E_CACHE[key]


_PLAIN_CACHE: dict = {}


def plain(name: str):
    """The whole plain run of an instance under ``lowest``: ``end_to_end`` stops a true actionswitch run early."""
    if name not in _PLAIN_CACHE:
        circuit, bits, _ = INSTANCES[name]
        _PLAIN_CACHE[name] = plain_run(circuit, bits)
    return _PLAIN_CACHE[name]


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
    cons, run = plain("rot2")
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
    report = e2e(name, "actionswitch")
    oracle = decide_bitswitch(circuit, bits, z)
    assert report.verdict == report.oracle == oracle
    cons = report.construction
    query = cons.index.action(f"o0_{z}->r0_{z}")
    verdict = decide_action_switch(cons.mdp, report.run, query)
    assert verdict == oracle
    n = circuit.n
    expected = [iterate(circuit, bits, i) for i in range(2**n + 1)]
    full = plain(name)
    assert decide_action_switch(full.construction.mdp, full.run, query) == verdict
    assert decode_phases(full.run, full.construction, bits) == expected
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    ok(3, f"{name}: action-switch verdict {verdict} matches, phases decode ({elapsed:.1f}s)")


@pytest.mark.parametrize("name", ["identity2", "rot2", "const0_2", "rot3"])
def test_criterion_4_dantzig_mdp_sol(name):
    circuit, bits, z = INSTANCES[name]
    oracle = decide_circuitvalue(circuit, bits, z)
    final_bit = iterate(circuit, bits, 2**circuit.n)[z - 1]
    report = e2e(name, "dantzigsol")
    assert report.verdict == report.oracle == oracle
    # The tight scale, the plain run's top value, is the reward of si' and
    # sits below the closed-form bound end_to_end scales the gadget by.
    full = plain(name)
    params = full.construction.params
    w = max(full.run.values)
    assert w == params.t * 2 ** (params.n + 1) <= bound_w(params)
    for cons_z, run_z in ((report.construction, report.run), tight_decision_run(full, bits, z)):
        final = run_z.policy
        target = cons_z.index.target(final.choice[cons_z.index.o(0, z)])
        encoded = 1 if target == cons_z.index.l(0, z) else 0
        assert encoded == final_bit
        query = cons_z.index.action(f"o0_{z}->r0_{z}")
        verdict = decide_dantzig_mdp_sol(cons_z.mdp, run_z, query)
        assert verdict == oracle
    ok(4, f"{name}: decision verdict matches the iterate bit at the bound and the tight w")


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
    # Each acceptance instance, plain and as the decision variant the CLI
    # builds for ``dantzigsol``: the pivot count is that of a plain run, made
    # without the lockstep.
    pivots = {}
    for name, (circuit, bits, z) in INSTANCES.items():
        negated = negated_form(normalize_depths(circuit))
        variants = {
            name: build_construction(negated),
            f"{name}/z": build_construction_z(negated, z, w=bound_w(derive_params(negated))),
        }
        for label, cons in variants.items():
            plain = run_policy_iteration(cons.mdp, initial_policy(cons, bits), budget=cons.budget())
            wide = check_pi_simplex_equivalence(
                cons.mdp, initial_policy(cons, bits), cons.index.si(), budget=cons.budget()
            )
            assert wide.ok and wide.first_divergence is None and wide.pivots == len(plain.trace), label
            assert all(entry["ok"] for entry in wide.iterations)
            pivots[label] = wide.pivots
    assert (pivots["identity2"], pivots["rot2"], pivots["rot3"]) == (133, 232, 692)
    ok(
        5,
        "pivoting retraces switching with zero divergences "
        f"({report.pivots} pivots on identity1, "
        + ", ".join(f"{count} on {label}" for label, count in pivots.items())
        + ")",
    )


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
        assert appeals(m, values)[gadget] == p * (b + r_f) + r_d
    ok(6, "both detour identities hold exactly on 500 random embeddings")


def test_criterion_7_zero_gain_everywhere():
    checked = 0
    for name in INSTANCES:
        circuit, bits, z = INSTANCES[name]
        sol = e2e(name, "dantzigsol")
        for cons, run in (plain(name), (sol.construction, sol.run)):
            for policy in (run.initial, run.policy):
                gains = evaluate_gain(cons.mdp, policy)
                assert all(g == 0 for g in gains)
                checked += 1
    ok(7, f"average reward is 0 at every state on {checked} start/optimal policies")


def test_criterion_8_tiebreak_invariance():
    for name in INSTANCES:
        for problem in ("actionswitch", "dantzigsol"):
            base = e2e(name, problem)
            for tie in TIE_RULES:
                assert e2e(name, problem, tie=tie).verdict == base.verdict, (name, problem, tie)
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
