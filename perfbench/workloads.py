"""The benchmark's workloads: the CLI commands one pass runs, and the gate each must pass.

Every gate's expected answer comes from outside the MDP engine: the circuit
oracles (``circuit.decide_bitswitch``/``decide_circuitvalue``), the direct
machine simulator (``turing.simulate``), or counts recorded for this
benchmark.  A gate returns the list of its failures; an empty list passes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

EXIT_TRUE = 0
EXIT_FALSE = 1

# (builtin circuit, start bits, queried bit z, MDP-side problem)
ACCEPTANCE = (
    ("identity2", "11", 1, "actionswitch"),
    ("const0_2", "11", 1, "actionswitch"),
    ("rot2", "11", 1, "dantzigsol"),
    ("rot3", "111", 1, "dantzigsol"),
)
# (builtin machine, input tape, space bound)
MACHINES = (("unary", "111", 3), ("writer", "", 1))

CLOCK_BITS = 11

# Counts the verify reports carry at the commit that introduced this
# benchmark; they do not depend on the tie rule.  "counts" is the total of
# the catalog's per-role switch counts.
CLOCK_EXPECTED = {"clock": {"iterations": 2**CLOCK_BITS - 1}}
IDENTITY2_EXPECTED = {
    "catalog": {"counts": 133},
    "transitions": {"boundaries": 3},
    "equivalence": {"pivots": 133},
}

Gate = Callable[[int, str, str], list]


@dataclass
class Command:
    argv: list  # dantziglab CLI arguments, without --tie and --out
    gate: Gate  # (exit code, stdout, output directory) -> failures
    outputs: tuple = ()  # files in the output directory hashed with stdout

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    why: str
    build: Callable  # (package) -> None: build, or compile, every instance used
    commands: Callable  # (package, work directory) -> list[Command]


def _bits(text: str) -> tuple:
    return tuple(int(ch) for ch in text)


def verdict_gate(problem: str, expected: bool, agreement: bool) -> Gate:
    """Exit code exactly 0 for true, exactly 1 for false, and the verdict printed.

    For the MDP-side problems the CLI also prints its own comparison with
    the circuit oracle, which must read "agrees".
    """
    word = str(expected).lower()
    prefix = f"{problem}: {word} (agrees with" if agreement else f"{problem}: {word}"

    def gate(code: int, stdout: str, out_dir: str) -> list:
        failures = []
        want = EXIT_TRUE if expected else EXIT_FALSE
        if code != want:
            failures.append(f"exit code {code}, expected {want} for verdict {word}")
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith(prefix):
            failures.append(f"stdout {stdout[:80]!r} does not start with {prefix!r}")
        return failures

    return gate


def _detail(details: dict, key: str):
    value = details.get(key)
    return sum(value.values()) if isinstance(value, dict) else value


def report_gate(expected: dict) -> Gate:
    """Exit code 0, every report ok, and the recorded iteration and pivot counts."""

    def gate(code: int, stdout: str, out_dir: str) -> list:
        failures = [] if code == 0 else [f"exit code {code}, expected 0"]
        try:
            with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
                reports = json.load(fh)["reports"]
        except (OSError, ValueError, KeyError) as exc:
            return failures + [f"no readable report.json: {exc}"]
        by_name = {r["name"]: r for r in reports}
        if sorted(by_name) != sorted(expected):
            failures.append(f"reports {sorted(by_name)}, expected {sorted(expected)}")
        failures += [f"report {r['name']} is not ok" for r in reports if r.get("ok") is not True]
        for name, fields in expected.items():
            details = by_name.get(name, {}).get("details", {})
            for key, want in fields.items():
                got = _detail(details, key)
                if got != want:
                    failures.append(f"report {name}: {key} = {got}, expected {want}")
        return failures

    return gate


def machine_verdicts(package, machine, tape: tuple, space: int) -> dict:
    """Both verdicts on a compiled machine, derived from ``turing.simulate`` alone.

    The compiled instance iterates its step circuit 2^n times and queries the
    tape's marker cell, which the circuit clears on the step after the
    machine halts and never rewrites.  So circuitvalue is "halts within
    2^n steps", and bitswitch is true when the machine halts at step h with
    h + 2 <= 2^n, which leaves an even iterate after the marker clears.
    That needs the halted configuration to stay halted once the marker
    reads 0, which holds for the machines used here: ``writer`` halts in a
    state without transitions and ``unary`` halts reading 0 on the marker.
    A machine that does not halt in time cannot be settled this way.
    """
    turing = package.turing
    horizon = 2 ** turing.compile_machine(machine, tape, space)[0].n
    halt = next((h for h in range(horizon) if turing.simulate(machine, tape, space, h + 1)), None)
    if halt is None or halt + 2 > horizon:
        raise ValueError("the machine must halt within 2^n - 2 steps for the simulator to settle bitswitch")
    return {
        "circuitvalue": turing.simulate(machine, tape, space, horizon),
        "bitswitch": True,
    }


# ---------------------------------------------------------------------------
# decide-acceptance


def _build_acceptance(package) -> None:
    circuit, construction = package.circuit, package.construction
    for name, bits, z, _ in ACCEPTANCE:
        negated = circuit.negated_form(circuit.normalize_depths(package.library.BUILTIN_CIRCUITS[name]()))
        cons = construction.build_construction(negated)
        construction.initial_policy(cons, _bits(bits))
        cons_z = construction.build_construction_z(negated, z, w=construction.bound_w(cons.params))
        construction.initial_policy(cons_z, _bits(bits))
    for name, tape, space in MACHINES:
        package.turing.compile_machine(package.library.BUILTIN_MACHINES[name](), _bits(tape), space)


def _acceptance_commands(package, work: str) -> list:
    circuit = package.circuit
    commands = []
    for name, bits, z, problem in ACCEPTANCE:
        raw = package.library.BUILTIN_CIRCUITS[name]()
        oracle = circuit.decide_bitswitch if problem == "actionswitch" else circuit.decide_circuitvalue
        expected = oracle(raw, _bits(bits), z)
        argv = ["decide", "--builtin", name, "--bits", bits, "--z", str(z), "--problem", problem]
        commands.append(Command(argv, verdict_gate(problem, expected, agreement=True)))
    os.makedirs(work, exist_ok=True)
    for name, tape, space in MACHINES:
        machine = package.library.BUILTIN_MACHINES[name]()
        path = os.path.join(work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(package.turing.machine_to_json(machine), fh, indent=2, sort_keys=True)
        verdicts = machine_verdicts(package, machine, _bits(tape), space)
        source = ["--tm", path, "--space", str(space)] + (["--input", tape] if tape else [])
        for problem in ("bitswitch", "circuitvalue"):
            argv = ["decide"] + source + ["--problem", problem]
            commands.append(Command(argv, verdict_gate(problem, verdicts[problem], agreement=False)))
    return commands


# ---------------------------------------------------------------------------
# clock-11 and verify-all-identity2


def _build_clock(package) -> None:
    construction = package.construction
    cons = construction.build_clock(CLOCK_BITS, construction.make_params(CLOCK_BITS, 0))
    construction.clock_initial_policy(cons)


def _clock_commands(package, work: str) -> list:
    argv = ["verify", "--builtin", f"clock:n={CLOCK_BITS}", "--which", "clock"]
    return [Command(argv, report_gate(CLOCK_EXPECTED), ("report.json",))]


def _build_identity2(package) -> None:
    circuit, construction = package.circuit, package.construction
    negated = circuit.negated_form(circuit.normalize_depths(package.library.BUILTIN_CIRCUITS["identity2"]()))
    cons = construction.build_construction(negated)
    construction.initial_policy(cons, (1, 1))


def _identity2_commands(package, work: str) -> list:
    argv = ["verify", "--builtin", "identity2", "--bits", "11", "--which", "all"]
    return [Command(argv, report_gate(IDENTITY2_EXPECTED), ("report.json",))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decide-acceptance",
            "the user-facing decide path on the four acceptance circuits and two compiled machines: "
            "value solve and appeals dominate",
            _build_acceptance,
            _acceptance_commands,
        ),
        Workload(
            "clock-11",
            "2,047 cheap switches on a 49-state MDP: fixed per-switch costs and the Gray-code oracle dominate",
            _build_clock,
            _clock_commands,
        ),
        Workload(
            "verify-all-identity2",
            "annotated run, catalog and transition audits, and PI/simplex lockstep: LP work dominates, "
            "the MDP engine does not",
            _build_identity2,
            _identity2_commands,
        ),
    )
}
