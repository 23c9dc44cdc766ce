"""Command-line entry point: build, run, verify, and decide.

Exit codes: 0 success (or verdict true for ``decide``), 1 verdict false,
2 input error, 3 iteration budget exceeded, 4 internal invariant violation.
Outputs are deterministic: the same configuration produces byte-identical
files, and every number appearing in any output is an exact fraction
string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import library
from .circuit import Circuit, load_circuit, negated_form, normalize_depths, parse_bits
from .construction import (
    Construction,
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
    make_params,
    manifest,
)
from .lp import check_pi_simplex_equivalence, lp_manifest, lp_to_text, mdp_to_primal
from .mdp import (
    CrosscheckError,
    IterationBudgetExceededError,
    TieBreak,
    mdp_to_json,
    parse_tiebreak,
    run_policy_iteration,
    trace_to_jsonl,
)
from .turing import compile_machine, load_machine
from .verify import (
    ClockAuditor,
    Report,
    TraceAnnotator,
    audit_appeal_catalog,
    check_all_transitions,
    check_clock_trace,
    end_to_end,
    run_annotated,
)
from .circuit import decide_bitswitch, decide_circuitvalue

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class InputError(ValueError):
    pass


@dataclass
class RunConfig:
    tie: TieBreak
    alpha_mode: str
    budget: int | None
    out: str


@dataclass
class Instance:
    kind: str  # "clock" | "circuit"
    n: int
    circuit: Circuit | None = None  # as loaded: the iterated function itself
    bits: tuple[int, ...] | None = None
    z: int | None = None
    label: str = ""


def _parse_config(args: argparse.Namespace) -> RunConfig:
    try:
        return RunConfig(
            tie=parse_tiebreak(args.tie),
            alpha_mode=args.alpha,
            budget=args.budget,
            out=args.out,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# The commands that read each run flag; every command reads --tie and --out.
FLAG_READERS = {"bits": ("run", "verify", "decide"), "z": ("decide",), "budget": ("run", "verify", "decide")}


def _reject_unread_flags(args: argparse.Namespace) -> None:
    unread = [
        f"--{name}"
        for name, readers in FLAG_READERS.items()
        if getattr(args, name) is not None and args.command not in readers
    ]
    if unread:
        them = "them" if len(unread) > 1 else "it"
        raise InputError(f"{args.command} never reads {' or '.join(unread)}; drop {them}")


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
        _reject_unread_flags(args)
        return Instance("clock", n, label=args.builtin)
    if args.alpha != "calibrated":
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
    _reject_unread_flags(args)
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


def _build(instance: Instance, config: RunConfig) -> Construction:
    if instance.kind == "clock":
        return build_clock(instance.n, make_params(instance.n, 0, alpha_mode=config.alpha_mode))
    assert instance.circuit is not None
    return build_construction(negated_form(normalize_depths(instance.circuit)))


def _start_policy(cons: Construction, instance: Instance):
    if instance.kind == "clock":
        return clock_initial_policy(cons)
    if instance.bits is None:
        raise InputError("circuit instances need --bits for the starting policy")
    return initial_policy(cons, instance.bits)


def _budget(cons: Construction, config: RunConfig) -> int:
    return config.budget if config.budget is not None else cons.budget()


def _write(config: RunConfig, name: str, text: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_json(config: RunConfig, name: str, data: dict) -> str:
    return _write(config, name, json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    config = _parse_config(args)
    instance = _load_instance(args)
    cons = _build(instance, config)
    _write_json(config, "manifest.json", manifest(cons))
    _write_json(config, "mdp.json", mdp_to_json(cons.mdp))
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    _write(config, "lp.txt", lp_to_text(lp))
    _write_json(config, "lp.json", lp_manifest(lp))
    print(
        f"built {instance.label}: {cons.mdp.num_states} states, "
        f"{cons.mdp.num_actions} actions -> {config.out}"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _parse_config(args)
    instance = _load_instance(args)
    cons = _build(instance, config)
    policy = _start_policy(cons, instance)
    result = run_annotated(cons, policy, tie=config.tie, budget=_budget(cons, config))
    _write(config, "trace.jsonl", trace_to_jsonl(cons.mdp, result.trace))
    summary = {
        "instance": instance.label,
        "iterations": result.iterations,
        "optimal": True,
        "tie": config.tie.label(),
        "final_policy": {
            cons.mdp.state_names[s]: cons.mdp.actions[a].name
            for s, a in enumerate(result.policy.choice)
        },
    }
    _write_json(config, "summary.json", summary)
    print(f"ran {instance.label}: {result.iterations} switches, optimal=True")
    return EXIT_OK


AUDIT_NEEDS = {"clock": "clock", "catalog": "circuit", "transition": "circuit"}


def _verify_reports(instance: Instance, config: RunConfig, which: str) -> list:
    """Every requested audit, made on one run that carries all of their watchers.

    The run also checks the values of every policy it reaches against a
    fresh evaluation (``crosscheck``); ``run`` and ``decide`` check only
    the final policy.
    """
    if AUDIT_NEEDS.get(which, instance.kind) != instance.kind:
        raise InputError(f"{which} verification needs a {AUDIT_NEEDS[which]} instance")
    wants = {
        name
        for name in ("clock", "catalog", "transition", "equivalence")
        if which in ("all", name) and AUDIT_NEEDS.get(name, instance.kind) == instance.kind
    }
    cons = _build(instance, config)
    policy = _start_policy(cons, instance)
    budget = _budget(cons, config)
    clock = ClockAuditor(cons) if "clock" in wants else None
    watchers = [clock] if clock is not None else []
    if wants & {"catalog", "transition"}:
        watchers.append(TraceAnnotator(cons))
    if "equivalence" in wants:
        eq = check_pi_simplex_equivalence(
            cons.mdp,
            policy,
            cons.index.si(),
            tie=config.tie,
            budget=budget,
            watchers=watchers,
            crosscheck=True,
        )
        result = eq.run
    else:
        result = run_policy_iteration(
            cons.mdp, policy, tie=config.tie, budget=budget, watchers=watchers, crosscheck=True
        )

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
    config = _parse_config(args)
    instance = _load_instance(args)
    reports = _verify_reports(instance, config, args.which)
    payload = {"instance": instance.label, "reports": [r.as_dict() for r in reports]}
    _write_json(config, "report.json", payload)
    passed = True
    for r in reports:
        status = "pass" if r.ok else ("expected-fail" if r.expected_fail else "FAIL")
        print(f"{r.name}: {status}")
        for line in r.failures[:20]:
            print(f"  {line}")
        if not r.ok and not r.expected_fail:
            passed = False
    return EXIT_OK if passed else EXIT_INVARIANT


def cmd_decide(args: argparse.Namespace) -> int:
    config = _parse_config(args)
    instance = _load_instance(args)
    if instance.kind != "circuit":
        raise InputError("decision problems need a circuit or machine instance")
    if instance.bits is None or instance.z is None:
        raise InputError("decision problems need --bits and --z (or a --tm instance)")
    circuit = instance.circuit
    assert circuit is not None
    bits, z = instance.bits, instance.z

    problem = args.problem
    if problem == "bitswitch":
        verdict = decide_bitswitch(circuit, bits, z)
        print(f"bitswitch: {str(verdict).lower()}")
        return EXIT_OK if verdict else EXIT_FALSE
    if problem == "circuitvalue":
        verdict = decide_circuitvalue(circuit, bits, z)
        print(f"circuitvalue: {str(verdict).lower()}")
        return EXIT_OK if verdict else EXIT_FALSE

    if 2**circuit.n > 64 and config.budget is None:
        raise InputError(
            f"{circuit.n}-bit instance means 2^{circuit.n} phases; that is beyond desk scale "
            "for the MDP-side problems (set --budget explicitly to force it, or use "
            "the bitswitch/circuitvalue oracles)"
        )
    result = end_to_end(circuit, bits, z, problem, tie=config.tie, budget=config.budget)
    verdict, oracle = result.verdict, result.oracle
    agree = "agrees with" if verdict == oracle else "DISAGREES with"
    print(f"{problem}: {str(verdict).lower()} ({agree} the circuit oracle: {str(oracle).lower()})")
    if verdict != oracle:
        return EXIT_INVARIANT
    return EXIT_OK if verdict else EXIT_FALSE


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", help="circuit JSON file")
    p.add_argument("--tm", help="machine JSON file")
    p.add_argument("--builtin", help="builtin instance name (see library) or clock:n=K")
    p.add_argument("--input", help="machine input tape bits", default=None)
    p.add_argument("--space", type=int, help="machine space bound", default=None)
    p.add_argument("--bits", help="starting bit-string", default=None)
    p.add_argument("--z", type=int, help="queried bit index (1-based)", default=None)
    p.add_argument("--tie", default="lowest", help="lowest | highest | random:SEED")
    p.add_argument(
        "--alpha",
        default="calibrated",
        choices=["calibrated", "printed"],
        help="clock detour calibration (clock instances only)",
    )
    p.add_argument("--budget", type=int, default=None, help="iteration cap")
    p.add_argument("--out", default=".", help="output directory")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: no default is mutable, no action appends."""
    parser = argparse.ArgumentParser(
        prog="dantziglab",
        description="Exact-arithmetic greedy policy iteration laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("build", cmd_build),
        ("run", cmd_run),
        ("verify", cmd_verify),
        ("decide", cmd_decide),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "verify":
            p.add_argument(
                "--which",
                default="all",
                choices=["clock", "catalog", "transition", "equivalence", "all"],
            )
        if name == "decide":
            p.add_argument(
                "--problem",
                required=True,
                choices=["bitswitch", "circuitvalue", "actionswitch", "dantzigsol"],
            )
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    from .circuit import CircuitError
    from .construction import ConstructionError
    from .lp import LpError
    from .turing import MalformedMachineError

    try:
        return args.handler(args)
    except (InputError, CircuitError, ConstructionError, MalformedMachineError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IterationBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssertionError, CrosscheckError, LpError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
