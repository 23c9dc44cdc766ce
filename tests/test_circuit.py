from __future__ import annotations

import itertools
import random

import pytest

from conftest import is_normalized

from dantziglab.circuit import (
    Circuit,
    CircuitError,
    IndexOutOfRangeError,
    LengthMismatchError,
    circuit_from_json,
    circuit_to_json,
    decide_bitswitch,
    decide_circuitvalue,
    evaluate,
    input_gate,
    iterate,
    negated_form,
    normalize_depths,
    not_gate,
    or_gate,
    outputs,
    parse_bits,
)
from dantziglab.library import (
    bitwise_not_circuit,
    constant_zero_circuit,
    identity_circuit,
    rotation_circuit,
)


def all_inputs(n):
    return itertools.product((0, 1), repeat=n)


def naive_eval(c: Circuit, bits):
    """Independent recursive evaluator used as the oracle."""

    def value(i):
        g = c.gate(i)
        if g.kind == "input":
            return bits[i - 1]
        if g.kind == "or":
            return value(g.inputs[0]) | value(g.inputs[1])
        return 1 - value(g.inputs[0])

    return tuple(value(i) for i in range(1, c.size + 1))


def test_depth_base_cases():
    c = Circuit(2, (input_gate(), input_gate(), or_gate(1, 2)))
    assert c.depth(1) == 0
    assert c.depth(3) == 1
    c2 = Circuit(2, (input_gate(), input_gate(), or_gate(1, 2), not_gate(3)))
    assert c2.depth(4) == 2
    with pytest.raises(IndexOutOfRangeError):
        c2.depth(9)
    # Computed once per circuit; the cache changes neither equality nor hash.
    assert c2.depths() is c2.depths() == (0, 0, 1, 2)
    twin = Circuit(2, c2.gates)
    assert twin == c2 and hash(twin) == hash(c2)


def test_topological_violation_rejected():
    with pytest.raises(CircuitError):
        Circuit(1, (input_gate(), or_gate(2, 1)))


def test_evaluate_truth_tables():
    c = Circuit(2, (input_gate(), input_gate(), or_gate(1, 2)))
    assert evaluate(c, (0, 0))[2] == 0
    assert evaluate(c, (1, 0))[2] == 1
    c2 = Circuit(1, (input_gate(), or_gate(1, 1), not_gate(2)))
    assert evaluate(c2, (1,))[2] == 0
    with pytest.raises(LengthMismatchError):
        evaluate(c, (1,))


def _random_circuit(rng, n, extra):
    gates = [input_gate() for _ in range(n)]
    for _ in range(extra):
        i = len(gates) + 1
        if rng.random() < 0.6:
            gates.append(or_gate(rng.randint(1, i - 1), rng.randint(1, i - 1)))
        else:
            gates.append(not_gate(rng.randint(1, i - 1)))
    # Ensure n output gates exist beyond the inputs.
    while len(gates) < 2 * n:
        gates.append(or_gate(1, len(gates)))
    return Circuit(n, tuple(gates))


def test_evaluate_matches_naive_recursion():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 3)
        c = _random_circuit(rng, n, rng.randint(1, 16))
        for bits in all_inputs(n):
            assert evaluate(c, bits) == naive_eval(c, bits)


def test_normalize_fixpoint_keeps_gate_count():
    c = normalize_depths(negated_form(identity_circuit(2)))
    again = normalize_depths(c)
    assert again.size == c.size
    assert again.gates == c.gates


def test_normalize_pads_unbalanced_or_by_depth_gap():
    # An Or over inputs of depths 1 and 3 needs exactly two dummy gates.
    gates = (
        input_gate(),
        or_gate(1, 1),  # depth 1
        or_gate(2, 2),  # depth 2
        or_gate(3, 3),  # depth 3
        or_gate(2, 4),  # unbalanced: depths 1 and 3
    )
    c = Circuit(1, gates)
    normalized = normalize_depths(c)
    assert is_normalized(normalized)
    # Exactly two dummy gates: one per unit of depth gap on the shallow side.
    assert normalized.size == c.size + 2
    assert sum(1 for g in normalized.gates if g.inputs and g.inputs[0] == g.inputs[1]) == sum(
        1 for g in c.gates if g.inputs and g.inputs[0] == g.inputs[1]
    ) + 2
    for bits in all_inputs(1):
        assert outputs(normalized, bits) == outputs(c, bits)


def test_normalize_lifts_not_over_input():
    c = Circuit(1, (input_gate(), not_gate(1)))
    normalized = normalize_depths(c)
    assert is_normalized(normalized)
    for bits in all_inputs(1):
        assert outputs(normalized, bits) == outputs(c, bits)
    d = normalized.depths()
    for i in range(1, normalized.size + 1):
        if normalized.gate(i).kind == "not":
            assert d[i - 1] >= 2


def test_normalize_preserves_semantics_randomized():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 4)
        c = _random_circuit(rng, n, rng.randint(0, 12))
        normalized = normalize_depths(c)
        assert is_normalized(normalized)
        for bits in all_inputs(n):
            assert outputs(normalized, bits) == outputs(c, bits)


def test_normalize_drops_the_gates_that_reach_no_output():
    # Gates 3 and 4 feed no output; gate 4 sits deeper than the outputs 5 and 6.
    c = Circuit(2, (input_gate(), input_gate(), not_gate(1), or_gate(3, 2), or_gate(2, 2), or_gate(1, 1)))
    assert c.dead_gates() == [3, 4]
    assert c.normalization_problems()[:2] == ["gate 3 reaches no output", "gate 4 reaches no output"]
    normalized = normalize_depths(c)
    assert normalized.gates == (input_gate(), input_gate(), or_gate(2, 2), or_gate(1, 1))
    assert is_normalized(normalized) and normalized.dead_gates() == []
    for bits in all_inputs(2):
        assert outputs(normalized, bits) == outputs(c, bits)


def test_negated_identity_is_a_not_chain():
    c = negated_form(identity_circuit(1))
    assert is_normalized(c)
    assert outputs(c, (0,)) == (1,)
    assert outputs(c, (1,)) == (0,)


def test_negated_constant():
    zero = constant_zero_circuit(1)
    neg = negated_form(normalize_depths(zero))
    for bits in all_inputs(1):
        assert outputs(neg, bits) == (1,)


def test_negation_inverts_every_output_exhaustively():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        c = normalize_depths(_random_circuit(rng, n, rng.randint(0, 10)))
        neg = negated_form(c)
        assert is_normalized(neg)
        for bits in all_inputs(n):
            assert outputs(neg, bits) == tuple(1 - b for b in outputs(c, bits))


def test_negated_two_bit_function():
    # F(b1, b2) = (b2, not b1); its negation is (not b2, b1).
    c = normalize_depths(rotation_circuit(2))
    neg = negated_form(c)
    for b1, b2 in all_inputs(2):
        assert outputs(neg, (b1, b2)) == (1 - b2, b1)


def test_iterate_examples():
    c = rotation_circuit(2)
    assert iterate(c, (1, 0), 0) == (1, 0)
    assert iterate(c, (1, 0), 4) == (1, 0)
    flip = bitwise_not_circuit(2)
    assert iterate(flip, (0, 1), 2) == (0, 1)
    with pytest.raises(CircuitError):
        iterate(c, (1, 0), -1)


def _orbit_decisions(c, bits, z):
    """One-line reference: materialize the whole orbit and scan it."""
    orbit = [tuple(bits)]
    for _ in range(2**c.n):
        orbit.append(outputs(c, orbit[-1]))
    bitswitch = any(i % 2 == 0 and orbit[i][z - 1] == 0 for i in range(1, 2**c.n + 1))
    circuitvalue = orbit[2**c.n][z - 1] == 0
    return bitswitch, circuitvalue


def test_bitswitch_trivial_cases():
    ident = identity_circuit(2)
    assert decide_bitswitch(ident, (1, 1), 1) is False
    flip = bitwise_not_circuit(2)
    assert decide_bitswitch(flip, (1, 0), 1) is False  # even iterates restore
    rot = rotation_circuit(2)
    assert decide_bitswitch(rot, (1, 1), 1) is True  # brute force over i in {2, 4}


def test_circuitvalue_trivial_cases():
    ident = identity_circuit(2)
    assert decide_circuitvalue(ident, (0, 1), 1) is True
    flip = bitwise_not_circuit(2)
    assert decide_circuitvalue(flip, (0, 1), 1) is True
    assert decide_circuitvalue(flip, (1, 1), 1) is False
    rot = rotation_circuit(2)
    assert decide_circuitvalue(rot, (1, 0), 1) is False  # the 4th iterate of 10 is 10 again


def test_decisions_match_orbit_reference():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        c = _random_circuit(rng, n, rng.randint(0, 10))
        for bits in all_inputs(n):
            for z in range(1, n + 1):
                expect_bs, expect_cv = _orbit_decisions(c, bits, z)
                assert decide_bitswitch(c, bits, z) == expect_bs
                assert decide_circuitvalue(c, bits, z) == expect_cv


def test_copy_source_pairs_input_with_output():
    c = normalize_depths(rotation_circuit(3))
    for i in range(1, 4):
        assert c.copy_source(i) == c.k + i
    neg = negated_form(c)
    for i in range(1, 4):
        assert neg.copy_source(i) == neg.k + i


def test_json_round_trip():
    c = negated_form(normalize_depths(rotation_circuit(2)))
    assert circuit_from_json(circuit_to_json(c)) == c


@pytest.mark.parametrize(
    "data",
    [
        {"n": 1, "gates": [{"kind": "input"}, {"kind": "or", "inp": [1.7, 1]}]},
        {"n": 1, "gates": [{"kind": "input"}, {"kind": "not", "inp": [True]}]},
        {"n": 1.0, "gates": [{"kind": "input"}]},
    ],
    ids=["float-input", "bool-input", "float-n"],
)
def test_circuit_json_takes_integers_only(data):
    # int() would read 1.7 as gate 1 and true as gate 1; neither is a gate index.
    with pytest.raises(CircuitError, match="expected an integer"):
        circuit_from_json(data)


def test_parse_bits():
    assert parse_bits("101") == (1, 0, 1)
    with pytest.raises(CircuitError):
        parse_bits("10x")
