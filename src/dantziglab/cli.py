"""Command-line entry point: build, run, verify, and decide.

Exit codes: 0 success (or verdict true for ``decide``), 1 verdict false,
2 input error, 3 iteration budget exceeded, 4 internal invariant violation.
Outputs are deterministic: the same configuration produces byte-identical
files, and every number appearing in any output is an exact fraction
string.

Each command accepts only the flags it reads (``COMMANDS``), so its parser
rejects any other flag, under that command's usage line, and ``--help``
lists exactly what it reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import library
from .circuit import (
    Circuit,
    CircuitError,
    decide_bitswitch,
    decide_circuitvalue,
    load_circuit,
    negated_form,
    normalize_depths,
    parse_bits,
)
from .construction import (
    Construction,
    ConstructionError,
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
    make_params,
    manifest,
)
from .lp import LpError, check_pi_simplex_equivalence, lp_manifest, lp_to_text, mdp_to_primal
from .mdp import (
    CrosscheckError,
    IterationBudgetExceededError,
    MdpError,
    NonZeroGainPolicyError,
    TieBreak,
    UnsupportedChainStructureError,
    fresh_value_check,
    mdp_to_json,
    parse_tiebreak,
    run_policy_iteration,
    trace_to_jsonl,
)
from .turing import MalformedMachineError, compile_machine, load_machine
from .verify import (
    ClockAuditor,
    Report,
    TraceAnnotator,
    audit_appeal_catalog,
    check_all_transitions,
    check_clock_trace,
    end_to_end,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class InputError(ValueError):
    pass


@dataclass
class Instance:
    kind: str  # "clock" | "circuit"
    n: int
    circuit: Circuit | None = None  # as loaded: the iterated function itself
    bits: tuple[int, ...] | None = None
    z: int | None = None
    label: str = ""


def _load_instance(args: argparse.Namespace) -> Instance:
    sources = [bool(args.circuit), bool(args.tm), bool(args.builtin)]
    if sum(sources) != 1:
        raise InputError("choose exactly one of --circuit, --tm, --builtin")
    if not args.tm and (args.input is not None or args.space is not None):
        raise InputError("--input and --space set up a --tm machine; drop them")
    if args.builtin and args.builtin.startswith("clock:n="):
        if args.bits is not None or args.z is not None:
            raise InputError("a clock has no start string or queried bit; drop --bits and --z")
        try:
            n = int(args.builtin.split("=", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad clock size in {args.builtin!r}") from exc
        if n < 1:
            raise InputError("clock needs n >= 1")
        return Instance("clock", n, label=args.builtin)
    if args.alpha not in (None, "calibrated"):
        raise InputError(f"--alpha {args.alpha} calibrates clocks only; drop it for a circuit or machine")
    bits = parse_bits(args.bits) if args.bits else None
    z = args.z
    if args.builtin:
        name = args.builtin
        if name not in library.BUILTIN_CIRCUITS:
            raise InputError(
                f"unknown builtin {name!r}; circuits: {sorted(library.BUILTIN_CIRCUITS)}, "
                "clocks: clock:n=K"
            )
        raw = library.BUILTIN_CIRCUITS[name]()
    elif args.circuit:
        try:
            raw = load_circuit(args.circuit)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load circuit: {exc}") from exc
    else:
        if args.bits is not None or args.z is not None:
            raise InputError("--tm sets the start string and the queried bit itself; drop --bits and --z")
        try:
            machine = load_machine(args.tm)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load machine: {exc}") from exc
        if args.space is None:
            raise InputError("--tm needs --space")
        tape = parse_bits(args.input) if args.input else ()
        raw, start, cell = compile_machine(machine, tape, args.space)
        bits = start
        z = cell
    if bits is not None and len(bits) != raw.n:
        raise InputError(f"instance has {raw.n} bits, got start string of length {len(bits)}")
    if z is not None and not 1 <= z <= raw.n:
        raise InputError(f"bit index {z} outside 1..{raw.n}")
    return Instance(
        "circuit",
        raw.n,
        circuit=raw,
        bits=bits,
        z=z,
        label=args.builtin or args.circuit or args.tm,
    )


def _build(instance: Instance, args: argparse.Namespace) -> Construction:
    if instance.kind == "clock":
        return build_clock(instance.n, make_params(instance.n, 0, alpha_mode=args.alpha))
    assert instance.circuit is not None
    return build_construction(negated_form(normalize_depths(instance.circuit)))


def _start_policy(cons: Construction, instance: Instance):
    if instance.kind == "clock":
        return clock_initial_policy(cons)
    if instance.bits is None:
        raise InputError("circuit instances need --bits for the starting policy")
    return initial_policy(cons, instance.bits)


def _budget(cons: Construction, args: argparse.Namespace) -> int:
    return args.budget if args.budget is not None else cons.budget()


def _write(args: argparse.Namespace, name: str, text: str) -> str:
    path = os.path.join(args.out, name)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return path


def _write_json(args: argparse.Namespace, name: str, data: dict) -> str:
    return _write(args, name, json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    cons = _build(instance, args)
    _write_json(args, "manifest.json", manifest(cons))
    _write_json(args, "mdp.json", mdp_to_json(cons.mdp))
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    _write(args, "lp.txt", lp_to_text(lp))
    _write_json(args, "lp.json", lp_manifest(lp))
    print(
        f"built {instance.label}: {cons.mdp.num_states} states, "
        f"{cons.mdp.num_actions} actions -> {args.out}"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    cons = _build(instance, args)
    policy = _start_policy(cons, instance)
    result = run_policy_iteration(
        cons.mdp, policy, tie=args.tie, budget=_budget(cons, args), watchers=[TraceAnnotator(cons)]
    )
    _write(args, "trace.jsonl", trace_to_jsonl(cons.mdp, result.trace))
    summary = {
        "instance": instance.label,
        "iterations": result.iterations,
        "optimal": True,
        "tie": args.tie.label,
        "final_policy": {
            cons.mdp.state_names[s]: cons.mdp.actions[a].name
            for s, a in enumerate(result.policy.choice)
        },
    }
    _write_json(args, "summary.json", summary)
    print(f"ran {instance.label}: {result.iterations} switches, optimal=True")
    return EXIT_OK


AUDIT_NEEDS = {"clock": "clock", "catalog": "circuit", "transition": "circuit"}


def _verify_reports(instance: Instance, args: argparse.Namespace) -> list:
    """Every requested audit, made on one run that carries all of their watchers.

    The first watcher, ``fresh_value_check``, checks the values of every
    policy the run reaches against a fresh evaluation, before any audit
    reads them; ``run`` and ``decide`` check only the final policy.
    """
    which = args.which
    if AUDIT_NEEDS.get(which, instance.kind) != instance.kind:
        raise InputError(f"{which} verification needs a {AUDIT_NEEDS[which]} instance")
    wants = {
        name
        for name in ("clock", "catalog", "transition", "equivalence")
        if which in ("all", name) and AUDIT_NEEDS.get(name, instance.kind) == instance.kind
    }
    cons = _build(instance, args)
    policy = _start_policy(cons, instance)
    budget = _budget(cons, args)
    clock = ClockAuditor(cons) if "clock" in wants else None
    watchers = [fresh_value_check(cons.mdp)]
    if clock is not None:
        watchers.append(clock)
    if wants & {"catalog", "transition"}:
        watchers.append(TraceAnnotator(cons))
    if "equivalence" in wants:
        eq = check_pi_simplex_equivalence(
            cons.mdp,
            policy,
            cons.index.si(),
            tie=args.tie,
            budget=budget,
            watchers=watchers,
        )
        result = eq.run
    else:
        result = run_policy_iteration(cons.mdp, policy, tie=args.tie, budget=budget, watchers=watchers)

    reports = []
    if clock is not None:
        reports.append(check_clock_trace(result, clock))
    if "catalog" in wants:
        reports.append(audit_appeal_catalog(result, cons))
    if "transition" in wants:
        reports.append(check_all_transitions(result, cons))
    if "equivalence" in wants:
        failures = [] if eq.ok else [f"diverged at iteration {eq.first_divergence}"]
        reports.append(Report("equivalence", eq.ok, failures, eq.as_dict()))
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    reports = _verify_reports(instance, args)
    payload = {"instance": instance.label, "reports": [r.as_dict() for r in reports]}
    _write_json(args, "report.json", payload)
    passed = True
    for r in reports:
        status = "pass" if r.ok else ("expected-fail" if r.expected_fail else "FAIL")
        print(f"{r.name}: {status}")
        for line in r.failures[:20]:
            print(f"  {line}")
        if not r.ok and not r.expected_fail:
            passed = False
    return EXIT_OK if passed else EXIT_INVARIANT


CIRCUIT_ORACLES = {"bitswitch": decide_bitswitch, "circuitvalue": decide_circuitvalue}


def cmd_decide(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if instance.kind != "circuit":
        raise InputError("decision problems need a circuit or machine instance")
    if instance.bits is None or instance.z is None:
        raise InputError("decision problems need --bits and --z (or a --tm instance)")
    circuit = instance.circuit
    assert circuit is not None
    bits, z = instance.bits, instance.z

    problem = args.problem
    if problem in CIRCUIT_ORACLES:
        if args.budget is not None:
            raise InputError(f"{problem} runs no greedy iteration and never reads --budget; drop it")
        verdict = CIRCUIT_ORACLES[problem](circuit, bits, z)
        print(f"{problem}: {str(verdict).lower()}")
        return EXIT_OK if verdict else EXIT_FALSE

    if 2**circuit.n > 64 and args.budget is None:
        raise InputError(
            f"{circuit.n}-bit instance means 2^{circuit.n} phases; that is beyond desk scale "
            "for the MDP-side problems (set --budget explicitly to force it, or use "
            "the bitswitch/circuitvalue oracles)"
        )
    result = end_to_end(circuit, bits, z, problem, tie=args.tie, budget=args.budget)
    verdict, oracle = result.verdict, result.oracle
    agree = "agrees with" if verdict == oracle else "DISAGREES with"
    print(f"{problem}: {str(verdict).lower()} ({agree} the circuit oracle: {str(oracle).lower()})")
    if verdict != oracle:
        return EXIT_INVARIANT
    return EXIT_OK if verdict else EXIT_FALSE


def _tiebreak(text: str) -> TieBreak:
    try:
        return parse_tiebreak(text)
    except MdpError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


FLAGS = {
    "circuit": dict(help="circuit JSON file"),
    "tm": dict(help="machine JSON file"),
    "builtin": dict(help="builtin instance name (see library) or clock:n=K"),
    "input": dict(help="machine input tape bits"),
    "space": dict(type=int, help="machine space bound"),
    "bits": dict(help="starting bit-string"),
    "z": dict(type=int, help="queried bit index (1-based)"),
    "tie": dict(type=_tiebreak, default=TieBreak(), help="lowest | highest | random:SEED"),
    "alpha": dict(
        default="calibrated",
        choices=["calibrated", "printed"],
        help="clock detour calibration (clock instances only)",
    ),
    "budget": dict(type=int, help="iteration cap"),
    "out": dict(default=".", help="output directory"),
    "which": dict(default="all", choices=["clock", "catalog", "transition", "equivalence", "all"]),
    "problem": dict(required=True, choices=[*CIRCUIT_ORACLES, "actionswitch", "dantzigsol"]),
}
SOURCE = ("circuit", "tm", "builtin", "input", "space")
# The flags each command reads, and so the only ones its parser accepts.
# build never reads --tie, and decide writes nothing to --out; each keeps the
# flag so that one --tie and one --out can be passed to every command alike
# (CI's hash-seed loop and the benchmark runner do so).
COMMANDS = {
    "build": (cmd_build, SOURCE + ("tie", "alpha", "out")),
    "run": (cmd_run, SOURCE + ("bits", "tie", "alpha", "budget", "out")),
    "verify": (cmd_verify, SOURCE + ("bits", "tie", "alpha", "budget", "out", "which")),
    "decide": (cmd_decide, SOURCE + ("bits", "z", "tie", "budget", "out", "problem")),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: no default is mutable, no action appends."""
    parser = argparse.ArgumentParser(
        prog="dantziglab",
        description="Exact-arithmetic greedy policy iteration laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        # _load_instance reads every flag: one this command does not take is None.
        p.set_defaults(handler=fn, parser=p, **{flag: None for flag in FLAGS if flag not in flags})
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unread = _parser().parse_known_args(argv)
    if unread:  # reported by the command's own parser, so its usage line names the command
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.handler(args)
    except (InputError, CircuitError, ConstructionError, MalformedMachineError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IterationBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        AssertionError,
        CrosscheckError,
        LpError,
        NonZeroGainPolicyError,
        UnsupportedChainStructureError,
    ) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
