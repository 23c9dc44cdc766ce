"""Small built-in circuits and machines used by the CLI and the test suite."""

from __future__ import annotations

from .circuit import Circuit, CircuitBuilder, input_gate, not_gate, or_gate
from .turing import Machine


def identity_circuit(n: int) -> Circuit:
    """F(B) = B; the outputs are the input bits themselves."""
    return Circuit(n, tuple(input_gate() for _ in range(n)))


def rotation_circuit(n: int) -> Circuit:
    """F(b1, ..., bn) = (b2, ..., bn, not b1)."""
    b = CircuitBuilder(n)
    lifted = b.emit(or_gate(1, 1))
    return b.circuit([*range(2, n + 1), b.emit(not_gate(lifted))])


def constant_zero_circuit(n: int) -> Circuit:
    """F(B) = 0...0."""
    b = CircuitBuilder(n)
    true_gate = b.emit(or_gate(1, b.emit(not_gate(1))))  # b1 or not b1 == 1
    return b.circuit([b.emit(not_gate(true_gate))] * n)


def bitwise_not_circuit(n: int) -> Circuit:
    """F(B) = complement of B."""
    b = CircuitBuilder(n)
    return b.circuit([b.emit(not_gate(i)) for i in range(1, n + 1)])


def writer_machine() -> Machine:
    """Writes 0 wherever it starts, then halts."""
    return Machine(
        states=("w", "h"),
        initial="w",
        head_start=1,
        transitions={("w", 0): ("h", 0, "S"), ("w", 1): ("h", 0, "S")},
    )


def shuttle_machine() -> Machine:
    """Bounces between the tape ends forever (never halts)."""
    return Machine(
        states=("right", "left"),
        initial="right",
        head_start=1,
        transitions={
            ("right", 0): ("right", 1, "R"),
            ("right", 1): ("left", 1, "L"),
            ("left", 1): ("left", 1, "L"),
            ("left", 0): ("right", 0, "R"),
        },
    )


def unary_counter_machine() -> Machine:
    """Clears a block of 1s from the left, then halts on the first 0."""
    return Machine(
        states=("scan", "back"),
        initial="scan",
        head_start=1,
        transitions={
            ("scan", 1): ("back", 0, "R"),
            ("back", 1): ("scan", 1, "R"),
        },
    )


BUILTIN_CIRCUITS = {
    "identity1": lambda: identity_circuit(1),
    "identity2": lambda: identity_circuit(2),
    "rot2": lambda: rotation_circuit(2),
    "rot3": lambda: rotation_circuit(3),
    "not2": lambda: bitwise_not_circuit(2),
    "const0_2": lambda: constant_zero_circuit(2),
}

BUILTIN_MACHINES = {
    "writer": writer_machine,
    "shuttle": shuttle_machine,
    "unary": unary_counter_machine,
}
