"""Space-bounded Turing machines compiled into circuit-iteration instances.

A configuration of a machine running in space ``n`` is packed into a single
bit-string: tape cells 1..n, then the halt flag, then the head position,
then the control state, both in binary (least significant bit first).  The
head stays on cells 1..n, so the flag is no tape cell: it starts at 1 and
is cleared in the step after the machine halts, after which the
configuration is a fixed point.  So "bit n+1 eventually becomes 0", which
is what the iteration problems ask about, means "the machine halts".

Only Or and Not gates are emitted, each distinct gate once; conjunctions
are synthesized by De Morgan's law.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from .circuit import BitString, Circuit, CircuitBuilder, Gate, json_int, not_gate, or_gate

MOVES = {"L": -1, "R": 1, "S": 0}


class MalformedMachineError(ValueError):
    pass


@dataclass(frozen=True)
class Machine:
    """Deterministic machine with binary tape alphabet.

    ``transitions`` maps (state, symbol) to (next state, written symbol,
    move).  A missing entry means the machine halts in that situation.
    """

    states: tuple[str, ...]
    initial: str
    head_start: int
    transitions: dict[tuple[str, int], tuple[str, int, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.states:
            raise MalformedMachineError("machine needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise MalformedMachineError("duplicate state names")
        if self.initial not in self.states:
            raise MalformedMachineError(f"unknown initial state {self.initial!r}")
        if self.head_start < 1:
            raise MalformedMachineError("head position is 1-based")
        for (q, s), (q2, w, move) in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise MalformedMachineError(f"transition ({q},{s}) uses unknown state")
            if s not in (0, 1) or w not in (0, 1):
                raise MalformedMachineError("tape alphabet is binary")
            if move not in MOVES:
                raise MalformedMachineError(f"bad move {move!r}")


def machine_from_json(data: dict) -> Machine:
    try:
        if type(data["states"]) is not list:
            raise TypeError(f"states must be a list, got {data['states']!r}")
        states = tuple(str(s) for s in data["states"])
        transitions = {}
        for key, value in data["transitions"].items():
            state, sym = key.rsplit(",", 1)
            if sym not in ("0", "1"):  # so no two keys name one (state, symbol) pair
                raise ValueError(f"transition key {key!r} must end in ,0 or ,1")
            nxt, write, move = value
            transitions[(state, int(sym))] = (str(nxt), json_int(write), str(move))
        return Machine(
            states=states,
            initial=str(data["initial"]),
            head_start=json_int(data.get("head_start", 1)),
            transitions=transitions,
        )
    except MalformedMachineError:
        raise
    except Exception as exc:
        raise MalformedMachineError(f"malformed machine JSON: {exc}") from exc


def machine_to_json(machine: Machine) -> dict:
    return {
        "states": list(machine.states),
        "initial": machine.initial,
        "head_start": machine.head_start,
        "transitions": {
            f"{q},{s}": [q2, w, move]
            for (q, s), (q2, w, move) in sorted(machine.transitions.items())
        },
    }


def load_machine(path: str) -> Machine:
    with open(path, "r", encoding="utf-8") as fh:
        return machine_from_json(json.load(fh))


def initial_tape(machine: Machine, input_bits: tuple[int, ...], space: int) -> list[int]:
    """Tape cells 1..space: the input, then zero padding."""
    if space < 0:
        raise MalformedMachineError(f"space bound {space} is negative")
    if len(input_bits) > space:
        raise MalformedMachineError("input longer than the space bound")
    if machine.head_start > space:
        raise MalformedMachineError("head starts beyond the tape")
    return list(input_bits) + [0] * (space - len(input_bits))


def simulate(machine: Machine, input_bits: tuple[int, ...], space: int, max_steps: int) -> bool:
    """Run the machine directly; True iff it halts within ``max_steps`` steps.

    Moves past either end of cells 1..space leave the head in place,
    matching the compiled circuit's clamping.
    """
    tape = initial_tape(machine, input_bits, space)
    head = machine.head_start
    state = machine.initial
    for _ in range(max_steps):
        key = (state, tape[head - 1])
        if key not in machine.transitions:
            return True
        state, write, move = machine.transitions[key]
        tape[head - 1] = write
        head = min(max(head + MOVES[move], 1), space)
    return False


class _LogicBuilder(CircuitBuilder):
    """Gate emitter that emits each distinct gate once, with AND via De Morgan.

    ``NOT`` folds a double negation and ``OR`` folds ``Or(a, a)`` to ``a``;
    any other gate already made is returned, not emitted again.  The output
    layer of ``circuit`` goes through the raw ``emit``.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.made: dict[Gate, int] = {}

    def _once(self, gate: Gate) -> int:
        if gate not in self.made:
            self.made[gate] = self.emit(gate)
        return self.made[gate]

    def NOT(self, a: int) -> int:
        g = self.gates[a - 1]
        if g.kind == "not":
            return g.inputs[0]
        return self._once(not_gate(a))

    def OR(self, a: int, b: int) -> int:
        return a if a == b else self._once(or_gate(min(a, b), max(a, b)))

    def AND(self, a: int, b: int) -> int:
        return self.NOT(self.OR(self.NOT(a), self.NOT(b)))

    def or_all(self, terms: list[int]) -> int:
        if not terms:
            return self.NOT(self.OR(1, self.NOT(1)))
        return reduce(self.OR, terms)

    def and_all(self, terms: list[int]) -> int:
        return reduce(self.AND, terms)

    def literal(self, a: int, positive: bool) -> int:
        return a if positive else self.NOT(a)


def _width(count: int) -> int:
    w = 1
    while (1 << w) < count:
        w += 1
    return w


def compile_machine(machine: Machine, input_bits: tuple[int, ...], space: int) -> tuple[Circuit, BitString, int]:
    """Compile one machine step into a circuit-iteration instance.

    Returns (circuit, start configuration, z) with z = space+1, the halt
    flag: the circuit-value question on that instance answers whether the
    machine, on the given input within its space bound, halts within 2^n
    steps.  Transitions are compiled in sorted order, so equal machines
    give the same circuit whatever order their ``transitions`` dict was
    filled in.
    """
    tape0 = initial_tape(machine, input_bits, space)
    z = space + 1
    head_w = _width(space)
    state_w = _width(len(machine.states))
    n_bits = z + head_w + state_w

    b = _LogicBuilder(n_bits)
    # Input gate k is bit k of the configuration: tape cells, flag, head, state.
    tape_vars = list(range(1, z))
    head_vars = list(range(z + 1, z + head_w + 1))
    state_vars = list(range(z + head_w + 1, n_bits + 1))

    def match(vars_: list[int], value: int) -> int:
        return b.and_all([b.literal(v, bool(value >> t & 1)) for t, v in enumerate(vars_)])

    at_pos = [match(head_vars, p) for p in range(space)]
    in_state = {q: match(state_vars, qi) for qi, q in enumerate(machine.states)}
    state_index = {q: qi for qi, q in enumerate(machine.states)}

    # trig[(q, s, p)]: machine is in state q reading symbol s at cell p+1.
    trig: dict[tuple[str, int, int], int] = {}
    for (q, s) in sorted(machine.transitions):
        for p in range(space):
            trig[(q, s, p)] = b.and_all([in_state[q], at_pos[p], b.literal(tape_vars[p], bool(s))])
    halted = b.NOT(b.or_all(list(trig.values())))

    new_tape = []
    for p in range(space):
        write1 = [t for (q, s, pp), t in trig.items() if pp == p and machine.transitions[(q, s)][1] == 1]
        write0 = [t for (q, s, pp), t in trig.items() if pp == p and machine.transitions[(q, s)][1] == 0]
        new_tape.append(b.OR(b.or_all(write1), b.AND(tape_vars[p], b.NOT(b.or_all(write0)))))
    new_flag = b.AND(z, b.NOT(halted))

    def encode(vars_: list[int], value_after: Callable[[str, int, int], int]) -> list[int]:
        """Each bit after the step: set by the triggers whose result has it set, kept once halted."""
        bits = []
        for t, v in enumerate(vars_):
            sources = [trigger for (q, s, p), trigger in trig.items() if value_after(q, s, p) >> t & 1]
            bits.append(b.OR(b.or_all(sources), b.AND(halted, v)))
        return bits

    new_head = encode(
        head_vars, lambda q, s, p: min(max(p + MOVES[machine.transitions[(q, s)][2]], 0), space - 1)
    )
    new_state = encode(state_vars, lambda q, s, p: state_index[machine.transitions[(q, s)][0]])

    circuit = b.circuit(new_tape + [new_flag] + new_head + new_state)
    head0 = machine.head_start - 1
    state0 = state_index[machine.initial]
    start = tuple(tape0) + (1,) + tuple(head0 >> t & 1 for t in range(head_w)) + tuple(
        state0 >> t & 1 for t in range(state_w)
    )
    return circuit, start, z
