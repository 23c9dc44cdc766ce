"""Space-bounded Turing machines compiled into circuit-iteration instances.

A configuration of a machine running in space ``n`` is packed into a single
bit-string: tape cells 1..n+1, then the head position, then the control
state, both in binary (least significant bit first).  The compiled circuit
computes the successor configuration.  Cell n+1 starts at 1 and is cleared
in the step after the machine halts, after which the configuration is a
fixed point.  A step that writes 0 with the head on cell n+1 clears it too,
so "bit n+1 eventually becomes 0", which is what the iteration problems ask
about, means "the machine halts, or writes 0 on the marker cell".

Only Or and Not gates are emitted; conjunctions are synthesized by
De Morgan's law.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .circuit import BitString, Circuit, CircuitBuilder, json_int, not_gate, or_gate

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
    """Tape cells 1..space+1: the input, zero padding, and the marker cell."""
    if space < 0:
        raise MalformedMachineError(f"space bound {space} is negative")
    if len(input_bits) > space:
        raise MalformedMachineError("input longer than the space bound")
    if machine.head_start > space + 1:
        raise MalformedMachineError("head starts beyond the tape")
    tape = list(input_bits) + [0] * (space - len(input_bits)) + [1]
    return tape


def simulate(machine: Machine, input_bits: tuple[int, ...], space: int, max_steps: int) -> bool:
    """Run the machine directly; True iff it halts within ``max_steps`` steps.

    Moves past either tape end leave the head in place, matching the
    compiled circuit's clamping.
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
        head = min(max(head + MOVES[move], 1), space + 1)
    return False


class _LogicBuilder(CircuitBuilder):
    """Gate emitter with AND via De Morgan and double-negation folding."""

    _false: int | None = None
    _true: int | None = None

    def NOT(self, a: int) -> int:
        g = self.gates[a - 1]
        if g.kind == "not":
            return g.inputs[0]
        return self.emit(not_gate(a))

    def OR(self, a: int, b: int) -> int:
        return self.emit(or_gate(a, b))

    def AND(self, a: int, b: int) -> int:
        return self.NOT(self.OR(self.NOT(a), self.NOT(b)))

    def or_all(self, terms: list[int]) -> int:
        if not terms:
            return self.FALSE()
        acc = terms[0]
        for t in terms[1:]:
            acc = self.OR(acc, t)
        return acc

    def and_all(self, terms: list[int]) -> int:
        if not terms:
            return self.TRUE()
        acc = terms[0]
        for t in terms[1:]:
            acc = self.AND(acc, t)
        return acc

    def TRUE(self) -> int:
        if self._true is None:
            self._true = self.OR(1, self.NOT(1))
        return self._true

    def FALSE(self) -> int:
        if self._false is None:
            self._false = self.NOT(self.TRUE())
        return self._false

    def literal(self, a: int, positive: bool) -> int:
        return a if positive else self.NOT(a)


def _width(count: int) -> int:
    w = 1
    while (1 << w) < count:
        w += 1
    return w


def compile_machine(machine: Machine, input_bits: tuple[int, ...], space: int) -> tuple[Circuit, BitString, int]:
    """Compile one machine step into a circuit-iteration instance.

    Returns (circuit, start configuration, z) with z = space+1: the
    circuit-value question on that instance answers whether the machine,
    on the given input within its space bound, halts or writes 0 on the
    marker cell z.  Transitions are compiled in sorted order, so equal
    machines give the same circuit whatever order their ``transitions``
    dict was filled in.
    """
    tape0 = initial_tape(machine, input_bits, space)
    cells = space + 1
    head_w = _width(cells)
    state_w = _width(len(machine.states))
    n_bits = cells + head_w + state_w

    b = _LogicBuilder(n_bits)
    # Input gate k is bit k of the configuration: tape cells, head, state.
    tape_vars = list(range(1, cells + 1))
    head_vars = list(range(cells + 1, cells + head_w + 1))
    state_vars = list(range(cells + head_w + 1, n_bits + 1))

    def match(vars_: list[int], value: int) -> int:
        return b.and_all([b.literal(v, bool(value >> t & 1)) for t, v in enumerate(vars_)])

    at_pos = [match(head_vars, p) for p in range(cells)]
    in_state = {q: match(state_vars, qi) for qi, q in enumerate(machine.states)}
    state_index = {q: qi for qi, q in enumerate(machine.states)}

    # trig[(q, s, p)]: machine is in state q reading symbol s at cell p+1.
    trig: dict[tuple[str, int, int], int] = {}
    for (q, s) in sorted(machine.transitions):
        for p in range(cells):
            trig[(q, s, p)] = b.and_all([in_state[q], at_pos[p], b.literal(tape_vars[p], bool(s))])
    halted = b.NOT(b.or_all(list(trig.values())))

    new_tape = []
    for p in range(cells):
        write1 = [t for (q, s, pp), t in trig.items() if pp == p and machine.transitions[(q, s)][1] == 1]
        write0 = [t for (q, s, pp), t in trig.items() if pp == p and machine.transitions[(q, s)][1] == 0]
        keep = b.AND(tape_vars[p], b.NOT(b.or_all(write0)))
        if p == cells - 1:
            # The marker cell is cleared on halting and then never rewritten.
            keep = b.AND(keep, b.NOT(halted))
        new_tape.append(b.OR(b.or_all(write1), keep))

    def encode(vars_: list[int], value_after: Callable[[str, int, int], int]) -> list[int]:
        """Each bit after the step: set by the triggers whose result has it set, kept once halted."""
        bits = []
        for t, v in enumerate(vars_):
            sources = [trigger for (q, s, p), trigger in trig.items() if value_after(q, s, p) >> t & 1]
            bits.append(b.OR(b.or_all(sources), b.AND(halted, v)))
        return bits

    new_head = encode(
        head_vars, lambda q, s, p: min(max(p + MOVES[machine.transitions[(q, s)][2]], 0), cells - 1)
    )
    new_state = encode(state_vars, lambda q, s, p: state_index[machine.transitions[(q, s)][0]])

    circuit = b.circuit(new_tape + new_head + new_state)
    head0 = machine.head_start - 1
    state0 = state_index[machine.initial]
    start = tuple(tape0) + tuple(head0 >> t & 1 for t in range(head_w)) + tuple(
        state0 >> t & 1 for t in range(state_w)
    )
    return circuit, start, cells
