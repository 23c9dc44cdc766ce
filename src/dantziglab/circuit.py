"""Boolean circuits as indexed gate lists, plus the iteration decision problems.

A circuit with n input/output bits is a list of gates indexed 1..n+k.  Gates
1..n are the input bits; every later gate is Or(a, b) or Not(a) over earlier
gates; the last n gates (indices k+1..k+n) are the output bits, in order.
Input bit i is paired with output gate k+i (``copy_source``), which is the
value it receives when the circuit's output is fed back into its input.

Circuits used by the MDP compiler must additionally be depth-normalized:
both inputs of every Or gate have equal depth, every Not gate has depth at
least 2, and all output bits share a single depth.  ``normalize_depths``
establishes those invariants by inserting dummy Or gates (an Or whose two
inputs coincide), preserving the circuit's input/output behaviour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

KIND_INPUT = "input"
KIND_OR = "or"
KIND_NOT = "not"


class CircuitError(ValueError):
    pass


class IndexOutOfRangeError(CircuitError):
    """Gate index outside 1..n+k."""


class LengthMismatchError(CircuitError):
    """Bit-string length does not match the circuit's bit count."""


@dataclass(frozen=True)
class Gate:
    kind: str
    inputs: tuple[int, ...] = ()


def input_gate() -> Gate:
    return Gate(KIND_INPUT)


def or_gate(a: int, b: int) -> Gate:
    return Gate(KIND_OR, (a, b))


def not_gate(a: int) -> Gate:
    return Gate(KIND_NOT, (a,))


BitString = tuple[int, ...]


def parse_bits(text: str) -> BitString:
    """Parse "101" into (1, 0, 1); position 1 of the string is bit 1."""
    if not text or any(ch not in "01" for ch in text):
        raise CircuitError(f"not a bit-string: {text!r}")
    return tuple(int(ch) for ch in text)


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise CircuitError("need at least one input bit")
        if len(self.gates) < self.n:
            raise CircuitError("fewer gates than input bits")
        for pos, g in enumerate(self.gates):
            i = pos + 1
            if i <= self.n:
                if g.kind != KIND_INPUT:
                    raise CircuitError(f"gate {i} must be an input bit")
                continue
            if g.kind == KIND_INPUT:
                raise CircuitError(f"gate {i}: input bits must come first")
            if g.kind == KIND_OR:
                if len(g.inputs) != 2:
                    raise CircuitError(f"gate {i}: Or takes two inputs")
            elif g.kind == KIND_NOT:
                if len(g.inputs) != 1:
                    raise CircuitError(f"gate {i}: Not takes one input")
            else:
                raise CircuitError(f"gate {i}: unknown kind {g.kind!r}")
            for j in g.inputs:
                if not 1 <= j < i:
                    raise CircuitError(f"gate {i}: input {j} breaks topological order")

    @property
    def size(self) -> int:
        return len(self.gates)

    @property
    def k(self) -> int:
        return len(self.gates) - self.n

    def gate(self, i: int) -> Gate:
        if not 1 <= i <= self.size:
            raise IndexOutOfRangeError(f"gate index {i} outside 1..{self.size}")
        return self.gates[i - 1]

    def output_gates(self) -> list[int]:
        return list(range(self.k + 1, self.k + self.n + 1))

    def copy_source(self, i: int) -> int:
        """Output gate paired with input bit i (recomputed, never cached)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRangeError(f"input bit {i} outside 1..{self.n}")
        return self.k + i

    def depths(self) -> tuple[int, ...]:
        out = [0] * self.size
        for pos, g in enumerate(self.gates):
            if g.kind != KIND_INPUT:
                out[pos] = 1 + max(out[j - 1] for j in g.inputs)
        return tuple(out)

    def depth(self, i: int) -> int:
        self.gate(i)
        return self.depths()[i - 1]

    def circuit_depth(self) -> int:
        """Common depth of the output bits (max output depth if unnormalized)."""
        d = self.depths()
        return max(d[i - 1] for i in self.output_gates())

    def normalization_problems(self) -> list[str]:
        d = self.depths()
        problems = []
        for pos, g in enumerate(self.gates):
            i = pos + 1
            if g.kind == KIND_OR and d[g.inputs[0] - 1] != d[g.inputs[1] - 1]:
                problems.append(f"Or gate {i} has inputs of unequal depth")
            if g.kind == KIND_NOT and d[pos] < 2:
                problems.append(f"Not gate {i} has depth {d[pos]} < 2")
        outs = self.output_gates()
        if len({d[i - 1] for i in outs}) > 1:
            problems.append("output bits have differing depths")
        return problems

    def is_normalized(self) -> bool:
        return not self.normalization_problems()


def evaluate(c: Circuit, bits: Sequence[int]) -> tuple[int, ...]:
    """Truth value of every gate under the given input; index i lives at [i-1]."""
    if len(bits) != c.n:
        raise LengthMismatchError(f"expected {c.n} bits, got {len(bits)}")
    vals = [0] * c.size
    for pos, g in enumerate(c.gates):
        if g.kind == KIND_INPUT:
            vals[pos] = 1 if bits[pos] else 0
        elif g.kind == KIND_OR:
            vals[pos] = vals[g.inputs[0] - 1] | vals[g.inputs[1] - 1]
        else:
            vals[pos] = 1 - vals[g.inputs[0] - 1]
    return tuple(vals)


def outputs(c: Circuit, bits: Sequence[int]) -> BitString:
    """The output bit-string: the circuit applied once to ``bits``."""
    vals = evaluate(c, bits)
    return tuple(vals[i - 1] for i in c.output_gates())


def iterate(c: Circuit, bits: Sequence[int], steps: int) -> BitString:
    """Apply the circuit's n-bit function ``steps`` times."""
    if steps < 0:
        raise CircuitError("steps must be nonnegative")
    cur = tuple(bits)
    for _ in range(steps):
        cur = outputs(c, cur)
    return cur


def decide_bitswitch(c: Circuit, bits: Sequence[int], z: int) -> bool:
    """Is there an even i <= 2^n for which bit z of the i-th iterate is 0?

    The interesting instances have bit z of the start string equal to 1; the
    predicate is evaluated the same way regardless.
    """
    if not 1 <= z <= c.n:
        raise IndexOutOfRangeError(f"bit index {z} outside 1..{c.n}")
    cur = tuple(bits)
    for i in range(1, 2**c.n + 1):
        cur = outputs(c, cur)
        if i % 2 == 0 and cur[z - 1] == 0:
            return True
    return False


def decide_circuitvalue(c: Circuit, bits: Sequence[int], z: int) -> bool:
    """Is bit z of the 2^n-th iterate equal to 0?"""
    if not 1 <= z <= c.n:
        raise IndexOutOfRangeError(f"bit index {z} outside 1..{c.n}")
    return iterate(c, bits, 2**c.n)[z - 1] == 0


class _Rebuilder:
    """Accumulates gates for a new circuit while remapping old indices."""

    def __init__(self, n: int):
        self.n = n
        self.gates: list[Gate] = [input_gate() for _ in range(n)]
        self.depth: list[int] = [0] * n

    def emit(self, gate: Gate) -> int:
        self.gates.append(gate)
        if gate.kind == KIND_INPUT:
            self.depth.append(0)
        else:
            self.depth.append(1 + max(self.depth[j - 1] for j in gate.inputs))
        return len(self.gates)

    def pad(self, idx: int, target_depth: int) -> int:
        """Raise a gate to the target depth with dummy Or gates."""
        while self.depth[idx - 1] < target_depth:
            idx = self.emit(or_gate(idx, idx))
        return idx


def normalize_depths(c: Circuit) -> Circuit:
    """Insert dummy Or gates until the three depth invariants hold.

    The result computes the same n-bit function; an already-normalized
    circuit comes back unchanged.
    """
    rb = _Rebuilder(c.n)
    remap: dict[int, int] = {i: i for i in range(1, c.n + 1)}
    for old in range(c.n + 1, c.size + 1):
        g = c.gate(old)
        if g.kind == KIND_OR:
            a, b = (remap[j] for j in g.inputs)
            da, db = rb.depth[a - 1], rb.depth[b - 1]
            if da < db:
                a = rb.pad(a, db)
            elif db < da:
                b = rb.pad(b, da)
            remap[old] = rb.emit(or_gate(a, b))
        else:
            a = remap[g.inputs[0]]
            if rb.depth[a - 1] < 1:
                a = rb.pad(a, 1)
            remap[old] = rb.emit(not_gate(a))
    outs = [remap[i] for i in c.output_gates()]
    depth_target = max(rb.depth[i - 1] for i in outs)
    aligned = all(rb.depth[i - 1] == depth_target for i in outs)
    in_place = outs == list(range(len(rb.gates) - c.n + 1, len(rb.gates) + 1))
    if not (aligned and in_place):
        # One fresh dummy layer per output keeps the outputs last and in order.
        outs = [rb.pad(i, depth_target) for i in outs]
        outs = [rb.emit(or_gate(i, i)) for i in outs]
    return Circuit(c.n, tuple(rb.gates))


def negated_form(c: Circuit) -> Circuit:
    """Invert every output bit by stacking one Not gate per output, renormalized."""
    gates = list(c.gates)
    for i in c.output_gates():
        gates.append(not_gate(i))
    return normalize_depths(Circuit(c.n, tuple(gates)))


def circuit_to_json(c: Circuit) -> dict:
    items = []
    for g in c.gates:
        if g.kind == KIND_INPUT:
            items.append({"kind": KIND_INPUT})
        else:
            items.append({"kind": g.kind, "inp": list(g.inputs)})
    return {"n": c.n, "gates": items}


def circuit_from_json(data: dict) -> Circuit:
    try:
        n = int(data["n"])
        gates = []
        for item in data["gates"]:
            kind = item["kind"]
            if kind == KIND_INPUT:
                gates.append(input_gate())
            elif kind == KIND_OR:
                a, b = item["inp"]
                gates.append(or_gate(int(a), int(b)))
            elif kind == KIND_NOT:
                (a,) = item["inp"]
                gates.append(not_gate(int(a)))
            else:
                raise CircuitError(f"unknown gate kind {kind!r}")
    except (KeyError, TypeError) as exc:
        raise CircuitError(f"malformed circuit JSON: {exc}") from exc
    return Circuit(n, tuple(gates))


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_json(json.load(fh))


def save_circuit(c: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_json(c), fh, indent=2, sort_keys=True)
        fh.write("\n")
