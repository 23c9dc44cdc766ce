from __future__ import annotations

import dataclasses

import pytest

from dantziglab.circuit import decide_bitswitch, decide_circuitvalue, iterate, outputs
from dantziglab.library import shuttle_machine, unary_counter_machine, writer_machine
from dantziglab.turing import (
    MalformedMachineError,
    Machine,
    compile_machine,
    machine_from_json,
    machine_to_json,
    simulate,
)
from dantziglab.verify import audit_appeal_catalog, check_all_transitions, decode_phases, end_to_end


def reference_simulator(machine, input_bits, space, max_steps):
    """Independent step-by-step simulator (kept separate from the package's)."""
    tape = list(input_bits) + [0] * (space - len(input_bits)) + [1]
    head, state = machine.head_start, machine.initial
    moves = {"L": -1, "R": 1, "S": 0}
    for _ in range(max_steps):
        key = (state, tape[head - 1])
        if key not in machine.transitions:
            return True
        state, write, move = machine.transitions[key]
        tape[head - 1] = write
        head = min(max(head + moves[move], 1), space + 1)
    return False


def test_malformed_machines_rejected():
    with pytest.raises(MalformedMachineError):
        Machine(states=("a",), initial="b", head_start=1)
    with pytest.raises(MalformedMachineError):
        Machine(states=("a",), initial="a", head_start=1, transitions={("a", 0): ("a", 0, "X")})
    with pytest.raises(MalformedMachineError):
        Machine(states=("a", "a"), initial="a", head_start=1)


def test_json_round_trip():
    m = unary_counter_machine()
    assert machine_from_json(machine_to_json(m)) == m


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.update(head_start=1.9),
        lambda data: data.update(head_start=True),
        lambda data: data["transitions"].update({"w,0": ["h", True, "S"]}),
        lambda data: data["transitions"].update({"w,0": ["h", 0.0, "S"]}),
    ],
    ids=["float-head", "bool-head", "bool-write", "float-write"],
)
def test_machine_json_takes_integers_only(edit):
    # int() would start the head on cell 1 for 1.9 and write 1 for true.
    data = machine_to_json(writer_machine())
    edit(data)
    with pytest.raises(MalformedMachineError, match="expected an integer"):
        machine_from_json(data)


def test_negative_space_bound_is_named():
    with pytest.raises(MalformedMachineError, match="space bound -1 is negative"):
        compile_machine(writer_machine(), (), -1)


@pytest.mark.parametrize("make", [writer_machine, shuttle_machine, unary_counter_machine])
@pytest.mark.parametrize("space", [1, 2])
def test_equal_machines_compile_to_the_same_instance(make, space):
    # Compilation must not depend on the insertion order of the transitions.
    m = make()
    round_trip = machine_from_json(machine_to_json(m))
    reversed_copy = dataclasses.replace(m, transitions=dict(reversed(m.transitions.items())))
    assert round_trip == m == reversed_copy
    compiled = compile_machine(m, (1,), space)
    assert compile_machine(round_trip, (1,), space) == compiled
    assert compile_machine(reversed_copy, (1,), space) == compiled


def test_immediate_writer_accepts():
    # A machine that halts on its first step makes the marker bit reachable.
    m = writer_machine()
    circuit, start, z = compile_machine(m, (1, 1), 3)
    assert z == 4
    assert start[z - 1] == 1
    assert decide_circuitvalue(circuit, start, z) is True
    assert decide_bitswitch(circuit, start, z) is True


def test_shuttle_never_halts():
    m = shuttle_machine()
    circuit, start, z = compile_machine(m, (1, 0), 2)
    assert simulate(m, (1, 0), 2, 2**circuit.n) is False
    assert decide_circuitvalue(circuit, start, z) is False
    assert decide_bitswitch(circuit, start, z) is False


def test_step_circuit_tracks_reference_simulation():
    # The compiled circuit's orbit must follow the machine configuration by
    # configuration, not just agree on the final verdict.
    m = unary_counter_machine()
    space = 3
    circuit, start, z = compile_machine(m, (1, 1, 1), space)
    tape = [1, 1, 1, 1]
    head, state = m.head_start, m.initial
    moves = {"L": -1, "R": 1, "S": 0}
    cur = start
    state_index = {q: i for i, q in enumerate(m.states)}
    for _ in range(6):
        cur = outputs(circuit, cur)
        key = (state, tape[head - 1])
        if key in m.transitions:
            state, write, move = m.transitions[key]
            tape[head - 1] = write
            head = min(max(head + moves[move], 1), space + 1)
        else:
            tape[space] = 0
        assert list(cur[: space + 1]) == tape
        head_bits = cur[space + 1 : space + 3]
        assert head_bits == tuple((head - 1) >> t & 1 for t in range(2))
        sbits = cur[space + 3 :]
        assert sbits == tuple(state_index[state] >> t & 1 for t in range(len(sbits)))


def encode_configuration(tape, head, state, head_w, state_w):
    """Tape cells, then the 0-based head cell and the state index, least significant bit first."""
    return tuple(tape) + tuple(head >> t & 1 for t in range(head_w)) + tuple(state >> t & 1 for t in range(state_w))


@pytest.mark.parametrize("make", [writer_machine, shuttle_machine, unary_counter_machine])
@pytest.mark.parametrize("space", [1, 2, 3])
def test_one_compiled_step_matches_a_reference_step_on_every_configuration(make, space):
    # Every tape of space+1 cells, every head cell and every state: the
    # circuit's output is the configuration one machine step later.  A
    # halted configuration keeps everything except the marker cell, which
    # clears.
    m = make()
    circuit, _, _ = compile_machine(m, (), space)
    moves = {"L": -1, "R": 1, "S": 0}
    cells = space + 1
    head_w = max(1, (cells - 1).bit_length())
    state_w = circuit.n - cells - head_w
    for q, state in enumerate(m.states):
        for head in range(cells):
            for word in range(2**cells):
                tape = [word >> p & 1 for p in range(cells)]
                before = encode_configuration(tape, head, q, head_w, state_w)
                key = (state, tape[head])
                if key in m.transitions:
                    next_state, write, move = m.transitions[key]
                    tape[head] = write
                    after = encode_configuration(
                        tape,
                        min(max(head + moves[move], 0), cells - 1),
                        m.states.index(next_state),
                        head_w,
                        state_w,
                    )
                else:
                    tape[-1] = 0
                    after = encode_configuration(tape, head, q, head_w, state_w)
                assert outputs(circuit, before) == after, (state, head, before)


@pytest.mark.parametrize(
    "machine,input_bits",
    [
        (writer_machine(), (0, 1)),
        (shuttle_machine(), (0, 0)),
        (unary_counter_machine(), (1, 1, 1)),
        (unary_counter_machine(), (1, 0, 1)),
    ],
)
def test_verdict_matches_reference_simulator(machine, input_bits):
    space = 3
    circuit, start, z = compile_machine(machine, input_bits, space)
    budget = 2**circuit.n
    assert decide_circuitvalue(circuit, start, z) == reference_simulator(
        machine, input_bits, space, budget
    )


def test_halted_configuration_is_a_fixed_point():
    m = writer_machine()
    circuit, start, z = compile_machine(m, (1,), 2)
    settled = iterate(circuit, start, 4)
    assert outputs(circuit, settled) == settled
    assert settled[z - 1] == 0


@pytest.mark.parametrize("problem", ["actionswitch", "dantzigsol"])
def test_the_whole_chain_on_a_compiled_machine(problem):
    # Machine -> circuit -> MDP -> greedy run -> verdict, on writer at space 1
    # (n = 4, 16 phases).  The compiled instance queries the marker cell,
    # which clears on the step after the machine halts: circuitvalue (read
    # by dantzigsol) is "halts within 2^n steps", and bitswitch (read by
    # actionswitch) holds when the halt at step h leaves room for an even
    # iterate after it, h + 2 <= 2^n.
    machine = writer_machine()
    circuit, start, z = compile_machine(machine, (), 1)
    assert circuit.n == 4
    horizon = 2**circuit.n
    halt = next(h for h in range(horizon) if simulate(machine, (), 1, h + 1))
    assert halt + 2 <= horizon
    answer = {"actionswitch": True, "dantzigsol": simulate(machine, (), 1, horizon)}[problem]
    assert answer is True  # writer halts on its first step

    record = end_to_end(circuit, start, z, problem)
    assert record.oracle == answer
    assert record.verdict == answer
    if problem == "actionswitch":
        run, cons = record.run, record.construction
        assert audit_appeal_catalog(run, cons).ok
        assert check_all_transitions(run, cons).ok
        phases = decode_phases(run, cons, start)
        assert len(phases) == horizon + 1
        assert phases == [iterate(circuit, start, i) for i in range(horizon + 1)]


@pytest.mark.xfail(
    strict=True,
    reason="the compiled verdict is 'halts, or writes 0 on the marker cell': this machine clears it and runs on",
)
def test_verdict_ignores_a_zero_written_on_the_marker_cell():
    # Writes 0 wherever it reads and moves right forever, so at space 1 it
    # overwrites the marker cell (cell 2) without ever halting.
    m = Machine(
        states=("a",),
        initial="a",
        head_start=1,
        transitions={("a", 0): ("a", 0, "R"), ("a", 1): ("a", 0, "R")},
    )
    circuit, start, z = compile_machine(m, (1,), 1)
    assert simulate(m, (1,), 1, 2**circuit.n) is False
    assert decide_circuitvalue(circuit, start, z) is False
