"""Independent oracles and trace auditors for the compiled machine.

Nothing in this module feeds the solvers; everything here recomputes
expected behaviour by an independent route and compares:

* a closed-form clock oracle (reflected binary Gray code plus explicit
  value formulas), checked against the policies and exact values of the
  run it watches;
* a trace annotator that tags every greedy switch with the phase it
  happened in and the gadget role it plays;
* an appeal-catalog auditor asserting each tagged switch fired at its
  exactly-known appeal (or inside its exactly-known band);
* a structural predicate on policies, coherence: the housekeeping
  conditions every mid-phase policy meets (the paper's B-correct and final
  invariants are predicates of ``tests/test_verify.py``, their only user);
* a phase-transition auditor asserting the scripted event classes complete
  in order across each clock tick and hand over a clean start policy;
* the one path to the MDP-side verdicts: ``end_to_end`` builds and runs
  the one reduction its problem reads (the plain construction for
  ActionSwitch, the decision variant scaled by the closed-form ``bound_w``
  for DantzigSol) and answers it beside its circuit oracle; ``decode_phases``
  reads the per-phase bit-strings of a plain run for comparison against
  direct circuit iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .circuit import BitString, Circuit, KIND_INPUT, decide_bitswitch, decide_circuitvalue, evaluate
from .circuit import negated_form, normalize_depths
from .construction import (
    Construction,
    ConstructionError,
    MAGIC,
    RJPRIME,
    bound_w,
    build_construction,
    build_construction_z,
    derive_params,
    initial_policy,
)
from .mdp import (
    PIResult,
    Policy,
    TieBreak,
    TraceEvent,
    decide_action_switch,
    decide_dantzig_mdp_sol,
    run_policy_iteration,
)

HALF = Fraction(1, 2)
FLOOR = Fraction(7, 2)


@dataclass
class Report:
    name: str
    ok: bool
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)  # JSON-native values: report.json writes them as they are
    expected_fail: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "expected_fail": self.expected_fail,
            "failures": list(self.failures),
            "details": dict(self.details),
        }


# ---------------------------------------------------------------------------
# Gray-code clock oracle


def least_significant_zero(j: int) -> int:
    """The lowest i with bit i of j clear: the bit that j + 1 sets and j does not."""
    return (~j & (j + 1)).bit_length()


def gray_code(n: int, j: int) -> BitString:
    """The j-th reflected binary Gray code word; entry i-1 is bit i.

    Bit i of the word equals bit n-i+1 of j XOR (j >> 1), so the word read
    backwards is the usual binary rendering.
    """
    if not 0 <= j < 2**n:
        raise ValueError(f"index {j} outside 0..2^{n}-1")
    g = j ^ (j >> 1)
    return tuple([g >> (n - i) & 1 for i in range(1, n + 1)])


@dataclass(frozen=True)
class ClockOracle:
    """Closed forms for the clock's policies, values, and switch appeals."""

    n: int

    def f(self, i: int) -> int:
        return self.n - i + 1

    def flip_position(self, j: int) -> int:
        """The clock state switched when leaving the j-th policy."""
        return self.f(least_significant_zero(j))

    def switch_appeal(self, i: int) -> Fraction:
        return HALF - Fraction(1, 4 * i)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The states ``scaled`` gives values for, in its order: named once per oracle, not at every j."""
        return ("si", "si'", "0", "c1", "c0", *(name for i in range(1, self.n + 1) for name in (f"{i}'", str(i))))

    def scaled(self, j: int) -> list[int]:
        """Expected state values at the j-th policy, in units of the phase gap, in the order of ``names``."""
        vals = [0, 2 ** (self.n + 1), 0, 1 + 2 * (j >> 1), 2 * ((j + 1) >> 1)]
        for f in range(self.n, 0, -1):  # f(i) for i = 1..n: the values of i' and i
            vals += ((1 << f) + (j >> (f + 1) << (f + 1)), (j + (1 << (f - 1))) >> f << f)
        return vals


class ClockAuditor:
    """Watcher that checks a standalone-clock run against the Gray-code oracle.

    At every switch it checks the policy the run hands it against the
    Gray-code sequence, that policy's values against the value formulas,
    and the switch itself (the appeals it is handed go unread);
    ``check_clock_trace`` checks the final policy and writes the report.
    """

    def __init__(self, construction: Construction):
        self.construction = construction
        n = construction.params.n
        self.oracle = ClockOracle(n)
        index = construction.index
        # Looked up once per run: each clock state with its actions for Gray
        # bit 0 (right) and 1 (down), the state behind each of the oracle's
        # value names, and the phase gap t as an int pair.
        self.clock_moves = [
            (index.clock(i), (index.action(f"{i}~>{i - 1}"), index.action(f"{i}~>{i}'"))) for i in range(1, n + 1)
        ]
        self.value_states = [(name, index.state(name)) for name in self.oracle.names]
        self.t = construction.params.t.as_integer_ratio()
        # Each clock state's switch appeal, and whether it lies in [1/4, 1/2).
        appeals = {i: self.oracle.switch_appeal(i) for i in range(1, n + 1)}
        self.expected_appeals = {i: (a, Fraction(1, 4) <= a < HALF) for i, a in appeals.items()}
        self.policy_failures: list[str] = []
        self.switch_failures: list[str] = []
        self.band_failures: list[str] = []

    def __call__(
        self, event: TraceEvent, policy: Policy, values: Sequence[Fraction], gains: Sequence[Fraction]
    ) -> None:
        j = event.iteration
        self.check_policy(j, policy, values)
        info = self.construction.index.state_info[event.state]
        if info.kind != "clock":
            name = self.construction.mdp.state_names[event.state]
            self.switch_failures.append(f"step {j}: switch outside the clock at {name}")
            return
        if info.i != self.oracle.flip_position(j):
            self.switch_failures.append(
                f"step {j}: switched state {info.i}, expected {self.oracle.flip_position(j)}"
            )
        expected_appeal, in_band = self.expected_appeals[info.i]
        if event.appeal != expected_appeal:
            self.band_failures.append(f"step {j}: appeal {event.appeal} != {expected_appeal}")
            in_band = Fraction(1, 4) <= event.appeal < HALF
        if not in_band:
            self.band_failures.append(f"step {j}: appeal {event.appeal} outside [1/4, 1/2)")

    def check_policy(self, j: int, policy: Policy, values: Sequence[Fraction]) -> None:
        """The j-th policy and its values; steps past the last Gray word go unchecked."""
        n = self.oracle.n
        if j >= 2**n:
            return
        for i, ((sid, moves), bit) in enumerate(zip(self.clock_moves, gray_code(n, j)), 1):
            if policy.choice[sid] != moves[bit]:
                self.policy_failures.append(f"step {j}: state {i} off the Gray-code sequence")
        t_num, t_den = self.t
        for (name, sid), scaled in zip(self.value_states, self.oracle.scaled(j)):
            num, den = values[sid].as_integer_ratio()
            # value == t * scaled, cross-multiplied over the integers
            if num * t_den != t_num * scaled * den:
                self.policy_failures.append(f"step {j}: value of {name} differs from the oracle")


def check_clock_trace(result: PIResult, auditor: ClockAuditor) -> Report:
    """Finish a clock audit on the run the auditor watched.

    Hard checks: 2^n - 1 switches, the exact policy sequence, exact values
    at every step, and each switch at appeal exactly 1/2 - 1/(4i) inside
    [1/4, 1/2).  Under the alternative (printed) clock calibration the
    appeal checks fail by design; the report marks that as an expected
    failure so comparison runs can be told apart from real regressions.
    """
    params = auditor.construction.params
    switches = len(result.trace)
    auditor.check_policy(switches, result.policy, result.values)
    failures = []
    if switches != 2**params.n - 1:
        failures.append(f"expected {2 ** params.n - 1} switches, saw {switches}")
    failures += auditor.policy_failures + auditor.switch_failures
    band_failures = auditor.band_failures
    return Report(
        "clock",
        not failures and not band_failures,
        failures + band_failures,
        {
            "orientation": "down-on-one",
            "iterations": switches,
            "alpha_mode": params.alpha_mode,
            "band_ok": not band_failures,
        },
        bool(band_failures) and not failures and params.alpha_mode == "printed",
    )


# ---------------------------------------------------------------------------
# Phase detection and trace annotation


def phase_from_values(construction: Construction, values: Sequence[Fraction]) -> int:
    """0 when c1 leads c0 by the phase gap, 1 the other way around: int pairs, cross-multiplied."""
    c1, c0, tn, td = construction.phase_reads
    an, ad = values[c1].as_integer_ratio()
    bn, bd = values[c0].as_integer_ratio()
    gn, gd = an * bd - bn * ad, ad * bd
    if gn * td == tn * gd:
        return 0
    if gn * td == -tn * gd:
        return 1
    raise AssertionError(f"clock outputs differ by {Fraction(gn, gd)}, not by the phase gap")


def decode_input_bits(construction: Construction, policy: Policy, copy: int) -> BitString:
    """Read the bit-string held by one circuit copy: o at l means 1, at r means 0."""
    assert construction.circuit is not None
    index = construction.index
    bits = []
    for i in construction.input_bits():
        target = index.target(policy.choice[index.o(copy, i)])
        bits.append(1 if target == index.l(copy, i) else 0)
    return tuple(bits)


class TraceAnnotator:
    """Watcher that tags each event with its phase and gadget role."""

    def __init__(self, construction: Construction):
        self.construction = construction

    def __call__(
        self, event: TraceEvent, policy: Policy, values: Sequence[Fraction], gains: Sequence[Fraction]
    ) -> None:
        phase = phase_from_values(self.construction, values)
        event.annotations["phase"] = phase
        role, extra = classify_event(self.construction, event, phase)
        event.annotations["role"] = role
        event.annotations.update(extra)


def classify_event(construction: Construction, event: TraceEvent, phase: int) -> tuple[str, dict]:
    index = construction.index
    info = index.state_info[event.state]
    tinfo = index.state_info[index.target(event.new_action)]
    kind = info.kind
    if kind == "clock":
        return "clock", {"i": info.i}
    if kind == "b":
        return "freeze-arm", {}
    if kind in ("sink", "sink_pre", "zero", "clock_prime", "c", "detour"):
        return "unexpected", {}

    circuit = construction.circuit
    assert circuit is not None and info.copy is not None and info.gate is not None
    j, gate = info.copy, info.gate
    extra = {"copy": j, "gate": gate, "depth": circuit.depth(gate)}
    own_side = j == phase

    if kind == "l":
        if tinfo.kind == "c" and tinfo.i == 1 - phase:
            return ("s3a" if own_side else "s1"), extra
        if tinfo.kind == "b":
            return "freeze", extra
        return "unexpected", extra
    if kind == "r":
        if tinfo.kind == "c" and tinfo.i == 1 - phase and not own_side:
            return "s2", extra
        if tinfo.kind == "o" and own_side:
            return "s4a", extra
        if tinfo.kind == "b":
            return "freeze", extra
        return "unexpected", extra
    if kind == "o":
        gate_kind = circuit.gate(gate).kind
        if gate_kind == KIND_INPUT:
            if tinfo.kind == "r":
                return ("copy-echo" if own_side else "copy"), extra
            if tinfo.kind == "l":
                return ("s3b" if own_side else "residual"), extra
            return "unexpected", extra
        if gate_kind == "or":
            if not own_side:
                return "stale", extra
            return ("or-open" if tinfo.kind == "v" else "or-shelf"), extra
        if not own_side:
            return "stale", extra
        return ("not-write" if tinfo.kind == "a" else "not-track"), extra
    if kind == "v":
        return ("or-pick" if own_side else "stale"), extra
    if kind == "a":
        if tinfo.kind == "c" and tinfo.i == 1 - phase:
            return ("not-arm" if own_side else "s4b"), extra
        return "unexpected", extra
    if kind == "x":
        if tinfo.kind == "c" and tinfo.i == 1 - phase:
            return "s4c", extra
        return "unexpected", extra
    return "unexpected", extra


# ---------------------------------------------------------------------------
# Appeal catalog


def audit_appeal_catalog(result: PIResult, construction: Construction) -> Report:
    """Assert every switch fired at the exactly-known appeal for its role.

    Scripted transition switches have pinned values (17/5, 16/5..33/10,
    8/5, 19/20, 9/10) or pinned two-sided bands; circuit evaluation and
    copying always runs at or above 7/2; nothing ever switches at appeal
    exactly 1; residual end-game switches stay below the ``MAGIC`` ceiling.
    """
    params = construction.params
    failures: list[str] = []
    counts: dict[str, int] = {}
    hookup_lo, hookup_hi = params.stage4_hookup_band()
    s2_values = {
        Fraction(16, 5),
        params.p6 * (3 * params.t / 2 - params.low[params.d_c]),
    }

    def fail(ev: TraceEvent, message: str) -> None:
        name = construction.mdp.state_names[ev.state]
        failures.append(f"event {ev.iteration} ({name}, {ev.annotations.get('role')}): {message}")

    first_s1_seen = False
    frozen = False
    arming_floor: Fraction | None = None
    for ev in result.trace:
        role = ev.annotations.get("role")
        if role is None:
            fail(ev, "missing role annotation")
            continue
        counts[role] = counts.get(role, 0) + 1
        appeal = ev.appeal
        if appeal == 1:
            fail(ev, "switched at appeal exactly 1")
        if not first_s1_seen and role not in ("clock", "s1") and appeal < FLOOR:
            fail(ev, f"appeal {appeal} below 7/2 during evaluation/copy work")
        if frozen:
            # Once the decision gadget fires, the tail is cleanup around the
            # now-huge escape values; only the floor and ceilings still apply.
            if role == "residual":
                if appeal >= MAGIC:
                    fail(ev, f"appeal {appeal} not below the residual ceiling {MAGIC}")
            elif appeal < FLOOR:
                fail(ev, f"post-freeze cleanup at appeal {appeal} below 7/2")
            continue
        if role == "clock":
            expected = ClockOracle(params.n).switch_appeal(ev.annotations["i"])
            if appeal != expected:
                fail(ev, f"clock appeal {appeal} != {expected}")
            if not Fraction(1, 4) <= appeal < HALF:
                fail(ev, f"clock appeal {appeal} outside [1/4, 1/2)")
            first_s1_seen = False  # a new phase's work begins
            arming_floor = None
        elif role == "s1":
            first_s1_seen = True
            if appeal != Fraction(17, 5):
                fail(ev, f"appeal {appeal} != 17/5")
        elif role == "s2":
            if appeal not in s2_values:
                fail(ev, f"appeal {appeal} not an expected detach value")
            if not Fraction(16, 5) <= appeal <= RJPRIME:
                fail(ev, f"appeal {appeal} outside [16/5, {RJPRIME}]")
        elif role == "s3a":
            if appeal != Fraction(8, 5):
                fail(ev, f"appeal {appeal} != 8/5")
        elif role == "s3b":
            if appeal != params.stage3_rehome_appeal():
                fail(ev, f"appeal {appeal} != re-homing value")
        elif role == "s4a":
            if not hookup_lo <= appeal <= hookup_hi:
                fail(ev, f"appeal {appeal} outside hookup band [{hookup_lo}, {hookup_hi}]")
        elif role == "s4b":
            if appeal != Fraction(19, 20):
                fail(ev, f"appeal {appeal} != 19/20")
        elif role == "s4c":
            if appeal != Fraction(9, 10):
                fail(ev, f"appeal {appeal} != 9/10")
        elif role in ("copy", "copy-echo"):
            if appeal != Fraction(9, 2):
                fail(ev, f"appeal {appeal} != 9/2")
        elif role == "not-arm":
            expected = FLOOR + Fraction(1, 2 * ev.annotations["depth"])
            if appeal != expected:
                fail(ev, f"appeal {appeal} != {expected}")
            if arming_floor is not None and appeal > arming_floor:
                fail(ev, "arming switches out of depth order")
            arming_floor = appeal
        elif role == "not-write":
            if appeal != 4:
                fail(ev, f"appeal {appeal} != 4")
        elif role in ("or-open", "or-shelf", "or-pick", "not-track", "stale"):
            if appeal < FLOOR:
                fail(ev, f"appeal {appeal} below 7/2")
        elif role == "residual":
            if appeal >= MAGIC:
                fail(ev, f"appeal {appeal} not below the residual ceiling {MAGIC}")
            if appeal != params.residual_rehome_appeal():
                fail(ev, f"appeal {appeal} != residual re-homing value")
        elif role == "freeze-arm":
            if appeal != Fraction(1, 5):
                fail(ev, f"appeal {appeal} != 1/5")
        elif role == "freeze":
            frozen = True
            if construction.w is None or appeal <= params.t:
                fail(ev, "freeze switch does not dominate the phase gap")
        else:
            fail(ev, f"unclassified switch (role {role})")
    return Report("catalog", not failures, failures, {"counts": dict(sorted(counts.items()))})


# ---------------------------------------------------------------------------
# Structural policy predicates


def _chooses(construction: Construction, policy: Policy, state: int, target: int) -> bool:
    return construction.index.target(policy.choice[state]) == target


def check_coherent(construction: Construction, policy: Policy, phase: int) -> list[str]:
    """The housekeeping conditions every mid-phase policy must satisfy: one line per failed one."""
    index = construction.index
    circuit = construction.circuit
    assert circuit is not None
    c_own = index.c(phase)
    failures = []

    def check(gate: int, condition: bool, label: str) -> None:
        if not condition:
            failures.append(f"gate {gate}: {label}")

    for i in construction.input_bits():
        src = index.o(phase, circuit.copy_source(i))
        check(i, _chooses(construction, policy, index.l(phase, i), c_own), "l(own) not at own clock state")
        check(i, _chooses(construction, policy, index.r(phase, i), c_own), "r(own) not at own clock state")
        check(i, _chooses(construction, policy, index.l(1 - phase, i), c_own), "l(other) not at own clock state")
        check(i, _chooses(construction, policy, index.r(1 - phase, i), src), "r(other) not at the paired output")
    for i in construction.or_gates():
        check(i, _chooses(construction, policy, index.x(phase, i), c_own), "x(own) detached")
        check(i, _chooses(construction, policy, index.x(1 - phase, i), c_own), "x(other) detached")
    for i in construction.not_gates():
        check(i, _chooses(construction, policy, index.a(1 - phase, i), c_own), "arming state (other) detached")
    return failures


# ---------------------------------------------------------------------------
# Phase transitions


STAGE_ORDER = ("s1", "s2", "s3a", "s3b", "s4a", "s4b", "s4c")


Segment = list[tuple[int, TraceEvent]]  # one phase's events with their trace positions


def _phases(result: PIResult) -> Iterator[tuple[Segment, Policy]]:
    """Read the trace forward once: each phase's events and the policy the phase opens with.

    A phase ends with its clock switch, so the next one opens with the
    policy right after that switch; the last phase runs to the end of the
    trace.  Each boundary costs one policy snapshot.
    """
    choice = list(result.initial.choice)
    segment: Segment = []
    opening = result.initial
    for pos, ev in enumerate(result.trace):
        segment.append((pos, ev))
        choice[ev.state] = ev.new_action
        if ev.annotations.get("role") == "clock":
            yield segment, opening
            segment, opening = [], Policy(tuple(choice))
    yield segment, opening


def _transition_failures(construction: Construction, segment: Segment, before: Policy, after: Policy) -> list[str]:
    """Audit the scripted hand-over of one phase: its events and the policies that open and close it.

    Hard assertions: each event class completes with the expected
    multiplicity; classes s1 through s3b strictly precede one another and
    the hookup/detach classes, which all precede the single clock switch;
    the holding states of the incoming circuit are never switched once the
    hand-over starts; and the policy right after the clock switch is
    coherent for the new phase and encodes the next iterate.  The
    interleaving *within* the final three classes is neither asserted
    nor reported.
    """
    circuit = construction.circuit
    assert circuit is not None
    failures: list[str] = []

    phase = segment[0][1].annotations["phase"]
    bits_held = decode_input_bits(construction, before, phase)
    next_bits = _apply_negated(circuit, bits_held)

    positions: dict[str, list[int]] = {}
    for pos, ev in segment:
        positions.setdefault(ev.annotations.get("role", "?"), []).append(pos)

    n_bits = circuit.n
    expected_counts = {
        "s1": n_bits,
        "s2": n_bits,
        "s3a": n_bits,
        "s3b": sum(1 for b in bits_held if b == 0),
        "s4a": n_bits,
        "s4b": len(construction.not_gates()),
        "s4c": 2 * len(construction.or_gates()),
        "clock": 1,
    }
    for role, expected in expected_counts.items():
        seen = len(positions.get(role, []))
        if seen != expected:
            failures.append(f"class {role}: {seen} events, expected {expected}")

    ordered = ["s1", "s2", "s3a", "s3b"]
    previous_last = -1
    for role in ordered:
        if role not in positions:
            continue
        first, last = min(positions[role]), max(positions[role])
        if first <= previous_last:
            failures.append(f"class {role} starts before the previous class completes")
        previous_last = last
    finishing = [p for role in ("s4a", "s4b", "s4c") for p in positions.get(role, [])]
    if finishing and previous_last >= min(finishing):
        failures.append("hookup/detach work starts before re-homing completes")
    clock_pos = positions.get("clock", [segment[-1][0]])[0]
    for role in STAGE_ORDER:
        if positions.get(role) and max(positions[role]) > clock_pos:
            failures.append(f"class {role} continues past the clock switch")

    if "s1" in positions:
        first_s1 = min(positions["s1"])
        for pos, ev in segment:
            if pos < first_s1:
                continue
            info = construction.index.state_info[ev.state]
            if info.kind == "o" and circuit.gate(info.gate).kind == KIND_INPUT and info.copy == 1 - phase:
                failures.append(f"holding state o{1 - phase}_{info.gate} switched during the hand-over")

    new_phase = 1 - phase
    incoherent = check_coherent(construction, after, new_phase)
    if incoherent:
        failures.append("post-boundary policy is not coherent")
        failures.extend("  " + f for f in incoherent)
    decoded = decode_input_bits(construction, after, new_phase)
    if decoded != next_bits:
        failures.append(f"post-boundary bits {decoded} do not encode the next iterate {next_bits}")
    index = construction.index
    for i in construction.input_bits():
        if not _chooses(construction, after, index.o(phase, i), index.l(phase, i)):
            failures.append(f"outgoing bit {i} not re-homed for copying")
    for i in construction.not_gates():
        if not _chooses(construction, after, index.a(new_phase, i), index.c(new_phase)):
            failures.append(f"arming state of gate {i} not reset for the new phase")

    return failures


def _apply_negated(circuit: Circuit, bits: Sequence[int]) -> BitString:
    """One step of the underlying function: invert the negated circuit's outputs."""
    truth = evaluate(circuit, bits)
    return tuple(1 - truth[circuit.copy_source(i) - 1] for i in range(1, circuit.n + 1))


def check_all_transitions(result: PIResult, construction: Construction) -> Report:
    """Audit every phase boundary: each phase with the policy the next one opens with."""
    phases = list(_phases(result))
    failures = [
        f"boundary {b}: {msg}"
        for b, ((segment, before), (_, after)) in enumerate(zip(phases, phases[1:]), start=1)
        for msg in _transition_failures(construction, segment, before, after)
    ]
    return Report("transitions", not failures, failures, {"boundaries": len(phases) - 1})


# ---------------------------------------------------------------------------
# End to end


def decode_phases(result: PIResult, construction: Construction, b_init: Sequence[int]) -> list[BitString]:
    """The bit-string the active circuit holds at the start of each phase.

    Entry 0 is the starting string; entry k is decoded right after the k-th
    clock switch; the final entry is decoded from copy 0 once both of its
    anchor states have detached after the last switch (the moment the last
    iterate is fully delivered, just before end-game cleanup re-homes it).
    """
    index = construction.index
    phases = list(_phases(result))
    decoded: list[BitString] = [tuple(b_init)]
    for k, (_, opening) in enumerate(phases[1:], start=1):
        decoded.append(decode_input_bits(construction, opening, k % 2))
    tail, opening = phases[-1]
    c0 = index.c(0)
    anchors = [s for i in construction.input_bits() for s in (index.l(0, i), index.r(0, i))]
    choice = list(opening.choice)

    def settled() -> bool:
        return all(index.target(choice[s]) == c0 for s in anchors)

    for _, ev in tail:
        if settled():
            break
        choice[ev.state] = ev.new_action
    if settled():
        decoded.append(decode_input_bits(construction, Policy(tuple(choice)), 0))
    return decoded


@dataclass(frozen=True)
class EndToEnd:
    """One reduction of a circuit-iteration instance, its greedy run, and both answers to its problem."""

    construction: Construction
    run: PIResult
    verdict: bool
    oracle: bool


def end_to_end(
    circuit_f: Circuit,
    b_init: Sequence[int],
    z: int,
    problem: str,
    *,
    tie: TieBreak = TieBreak(),
    budget: int | None = None,
) -> EndToEnd:
    """Build and run the one reduction ``problem`` reads, and answer it.

    ``actionswitch`` runs the plain construction and asks whether the run
    ever switches the query action o0_z -> r0_z in; the circuit oracle is
    ``decide_bitswitch``.  ``dantzigsol`` runs the decision variant, the
    plain construction plus the freeze gadget scaled by the closed-form
    ``bound_w``, and asks whether its optimum keeps that action; the oracle
    is ``decide_circuitvalue``.  The run carries the trace annotator.  An
    ``actionswitch`` run ends at the first switch that enters the query
    action (``until``); only a false answer's run reaches the optimum.

    ``circuit_f`` implements the iterated function directly (not yet
    negated); the start string must have bit z set, since the query action
    must be unused initially.
    """
    if problem not in ("actionswitch", "dantzigsol"):
        raise ValueError(f"unknown MDP-side problem {problem!r}")
    b_init = tuple(b_init)
    if b_init[z - 1] != 1:
        raise ConstructionError("the MDP-side problems need bit z of the start string set")
    negated = negated_form(normalize_depths(circuit_f))
    if problem == "actionswitch":
        construction = build_construction(negated)
        decide, oracle = decide_action_switch, decide_bitswitch
    else:
        construction = build_construction_z(negated, z, w=bound_w(derive_params(negated)))
        decide, oracle = decide_dantzig_mdp_sol, decide_circuitvalue
    query = construction.index.action(f"o0_{z}->r0_{z}")
    run = run_policy_iteration(
        construction.mdp,
        initial_policy(construction, b_init),
        tie=tie,
        budget=budget if budget is not None else construction.budget(),
        watchers=[TraceAnnotator(construction)],
        until=(lambda event: event.new_action == query) if decide is decide_action_switch else None,
    )
    verdict = decide(construction.mdp, run, query)
    return EndToEnd(construction, run, verdict, oracle(circuit_f, b_init, z))
