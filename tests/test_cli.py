from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import re

import pytest

from conftest import planting_walk, save_circuit

from dantziglab import mdp
from dantziglab.circuit import decide_bitswitch
from dantziglab.cli import _parser, main
from dantziglab.library import identity_circuit, rotation_circuit
from dantziglab.library import writer_machine
from dantziglab.turing import machine_to_json


def run_cli(*argv):
    return main(list(argv))


def exit_code(*argv):
    """main's return code, or the code its parser exits with."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_build_clock(tmp_path):
    out = str(tmp_path / "clock")
    assert run_cli("build", "--builtin", "clock:n=3", "--out", out) == 0
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["num_states"] == 4 * 3 + 5
    assert os.path.exists(os.path.join(out, "mdp.json"))
    assert os.path.exists(os.path.join(out, "lp.txt"))


def test_build_circuit_file(tmp_path):
    path = str(tmp_path / "rot2.json")
    save_circuit(rotation_circuit(2), path)
    out = str(tmp_path / "built")
    assert run_cli("build", "--circuit", path, "--out", out) == 0


def test_bad_json_is_input_error(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert run_cli("build", "--circuit", path, "--out", str(tmp_path)) == 2


def test_unknown_builtin_is_input_error(tmp_path):
    assert run_cli("build", "--builtin", "nonsense", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize(
    "argv, first",
    [
        (["build", "--builtin", "identity1"], "manifest.json"),
        (["run", "--builtin", "identity1", "--bits", "1"], "trace.jsonl"),
        (["verify", "--builtin", "identity1", "--bits", "1", "--which", "all"], "report.json"),
    ],
    ids=["build", "run", "verify"],
)
def test_an_unwritable_out_is_input_error(tmp_path, capsys, argv, first):
    # --out names an existing file, so nothing can be written under it; an
    # escaping OSError would exit 1, which reads as "verdict false".
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(*argv, "--out", str(blocker)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {os.path.join(str(blocker), first)}: ")
    assert blocker.read_text() == ""


def test_run_clock_event_count(tmp_path):
    out = str(tmp_path / "run2")
    assert run_cli("run", "--builtin", "clock:n=2", "--out", out) == 0
    trace = read(os.path.join(out, "trace.jsonl")).strip().splitlines()
    assert len(trace) == 3
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["optimal"] is True and summary["iterations"] == 3


def test_budget_exceeded_exit_code(tmp_path):
    assert (
        run_cli("run", "--builtin", "clock:n=3", "--budget", "1", "--out", str(tmp_path)) == 3
    )


def test_verify_clock_passes(tmp_path):
    assert run_cli("verify", "--builtin", "clock:n=3", "--which", "clock", "--out", str(tmp_path)) == 0


def test_verify_printed_alpha_expected_fail_exits_zero(tmp_path):
    out = str(tmp_path / "printed")
    assert (
        run_cli(
            "verify", "--builtin", "clock:n=3", "--which", "clock", "--alpha", "printed",
            "--out", out,
        )
        == 0
    )
    report = json.loads(read(os.path.join(out, "report.json")))
    (clock_report,) = report["reports"]
    assert clock_report["expected_fail"] is True and clock_report["ok"] is False


def test_verify_equivalence_clock(tmp_path):
    assert (
        run_cli(
            "verify", "--builtin", "clock:n=3", "--which", "equivalence", "--out", str(tmp_path)
        )
        == 0
    )


def test_verify_all_on_circuit(tmp_path):
    out = str(tmp_path / "ver")
    assert (
        run_cli(
            "verify", "--builtin", "identity1", "--bits", "1", "--which", "all", "--out", out
        )
        == 0
    )
    report = json.loads(read(os.path.join(out, "report.json")))
    names = {r["name"] for r in report["reports"]}
    assert names == {"catalog", "transitions", "equivalence"}


def test_decide_verdicts_and_exit_codes(tmp_path):
    out = str(tmp_path)
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", "bitswitch", "--out", out) == 0
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", "circuitvalue", "--out", out) == 1
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", "actionswitch", "--out", out) == 0
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", "dantzigsol", "--out", out) == 1
    # The decision variant's scale is always the closed-form bound, and the
    # option that once picked it is gone (spelled in two pieces here so that a
    # search for it finds no live use).
    with pytest.raises(SystemExit) as exc:
        run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                "--problem", "dantzigsol", "--w" + "-mode", "bound", "--out", out)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "problem, decide, line",
    [
        ("dantzigsol", mdp.decide_dantzig_mdp_sol, "dantzigsol: true (DISAGREES with the circuit oracle: false)"),
        ("actionswitch", mdp.decide_action_switch, "actionswitch: false (DISAGREES with the circuit oracle: true)"),
    ],
    ids=["dantzigsol", "actionswitch"],
)
def test_decide_exits_4_when_the_mdp_verdict_disagrees_with_the_oracle(
    tmp_path, capsys, patch_everywhere, problem, decide, line
):
    patch_everywhere(decide, lambda *args: not decide(*args))
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", problem, "--out", str(tmp_path)) == 4
    assert capsys.readouterr().out == line + "\n"


def test_decide_on_machine_instance(tmp_path):
    path = str(tmp_path / "writer.json")
    with open(path, "w") as fh:
        json.dump(machine_to_json(writer_machine()), fh)
    assert run_cli("decide", "--tm", path, "--input", "1", "--space", "2",
                   "--problem", "circuitvalue", "--out", str(tmp_path)) == 0


def test_tm_instance_rejects_bits_and_z(tmp_path, capsys):
    # A machine instance brings its own start string and queried cell;
    # a --bits or --z beside --tm is an input error, never silently dropped.
    path = str(tmp_path / "writer.json")
    with open(path, "w") as fh:
        json.dump(machine_to_json(writer_machine()), fh)
    for extra in (["--bits", "000"], ["--z", "2"], ["--z", "2", "--bits", "000"]):
        assert run_cli("decide", "--tm", path, "--space", "1", *extra,
                       "--problem", "circuitvalue", "--out", str(tmp_path)) == 2, extra
        assert "drop --bits and --z" in capsys.readouterr().err
    assert run_cli("run", "--tm", path, "--space", "1", "--bits", "000",
                   "--out", str(tmp_path)) == 2


def test_outputs_are_deterministic(tmp_path):
    # random:+3 is the same rule as random:3, and the summary names it so.
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["run", "--builtin", "identity1", "--bits", "1"]
    assert run_cli(*args, "--tie", "random:3", "--out", out1) == 0
    assert run_cli(*args, "--tie", "random:+3", "--out", out2) == 0
    for name in ("trace.jsonl", "summary.json"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))
    assert json.loads(read(os.path.join(out2, "summary.json")))["tie"] == "random:3"


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["verify", "--builtin", "identity1", "--bits", "1", "--which", "all"]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert read(os.path.join(out1, "report.json")) == read(os.path.join(out2, "report.json"))


def test_decide_guards_oversized_mdp_instances(tmp_path, capsys, patch_everywhere):
    # 7 bits mean 128 phases: the MDP-side problems are refused without an
    # explicit budget, before anything is built; the oracle-side ones still
    # run, and an explicit budget runs the MDP side up to its cap.
    from dantziglab import construction

    path = str(tmp_path / "identity7.json")
    save_circuit(identity_circuit(7), path)
    args = ["decide", "--circuit", path, "--bits", "1111111", "--z", "1", "--out", str(tmp_path)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the desk-scale guard fires before any build")

    build, build_z = construction.build_construction, construction.build_construction_z
    patch_everywhere(build, forbidden)
    patch_everywhere(build_z, forbidden)
    for problem in ("actionswitch", "dantzigsol"):
        assert run_cli(*args, "--problem", problem) == 2, problem
        assert "beyond desk scale" in capsys.readouterr().err
    assert run_cli(*args, "--problem", "bitswitch") == 1
    patch_everywhere(forbidden, build)
    assert run_cli(*args, "--problem", "actionswitch", "--budget", "5") == 3
    assert "budget exceeded" in capsys.readouterr().err
    # The same guard on a 7-bit machine instance.
    path = str(tmp_path / "writer.json")
    with open(path, "w") as fh:
        json.dump(machine_to_json(writer_machine()), fh)
    assert run_cli("decide", "--tm", path, "--input", "1", "--space", "3",
                   "--problem", "actionswitch", "--out", str(tmp_path)) == 2


def test_non_integer_json_and_a_negative_space_are_input_errors(tmp_path, capsys):
    path = str(tmp_path / "float.json")
    with open(path, "w") as fh:
        json.dump({"n": 1, "gates": [{"kind": "input"}, {"kind": "or", "inp": [1.7, 1]}]}, fh)
    assert run_cli("build", "--circuit", path, "--out", str(tmp_path)) == 2
    assert "expected an integer, got 1.7" in capsys.readouterr().err
    path = str(tmp_path / "writer.json")
    with open(path, "w") as fh:
        json.dump({**machine_to_json(writer_machine()), "head_start": 1.9}, fh)
    assert run_cli("build", "--tm", path, "--space", "1", "--out", str(tmp_path)) == 2
    assert "expected an integer, got 1.9" in capsys.readouterr().err
    with open(path, "w") as fh:
        json.dump(machine_to_json(writer_machine()), fh)
    assert run_cli("decide", "--tm", path, "--space", "-1", "--problem", "circuitvalue",
                   "--out", str(tmp_path)) == 2
    assert "space bound -1 is negative" in capsys.readouterr().err


def test_construction_constants_are_fixed(tmp_path, capsys):
    out = str(tmp_path / "fixed")
    assert run_cli("build", "--builtin", "identity1", "--out", out) == 0
    params = json.loads(read(os.path.join(out, "manifest.json")))["params"]
    assert (params["bl"], params["ro"], params["magic"]) == ("31/10", "1", "3/25")
    # They are not options: argparse rejects them.
    for flag, value in (("--bl", "3"), ("--ro", "1"), ("--magic", "3/25")):
        with pytest.raises(SystemExit) as exc:
            run_cli("build", "--builtin", "identity1", flag, value, "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build"], "calibrates clocks only"),
        (["run", "--bits", "1"], "calibrates clocks only"),
        (["verify", "--bits", "1", "--which", "catalog"], "calibrates clocks only"),
        # decide takes no clock, so its parser offers no --alpha.
        *(
            (["decide", "--bits", "1", "--z", "1", "--problem", problem], "unrecognized arguments: --alpha printed")
            for problem in ("actionswitch", "bitswitch")
        ),
    ],
    ids=["build", "run", "verify", "decide-actionswitch", "decide-bitswitch"],
)
def test_printed_alpha_on_a_circuit_is_an_input_error(tmp_path, capsys, argv, message):
    # Only clocks read the alpha calibration.
    out = str(tmp_path / "printed")
    assert exit_code(*argv, "--builtin", "identity1", "--alpha", "printed", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--builtin", "rot2", "--bits", "11", "--space", "3", "--input", "101"], "--tm machine"),
        (["run", "--builtin", "rot2", "--bits", "11", "--input", "101"], "--tm machine"),
        (["build", "--builtin", "clock:n=3", "--space", "2"], "--tm machine"),
        (["run", "--builtin", "clock:n=3", "--bits", "11"], "drop --bits and --z"),
        (["verify", "--builtin", "clock:n=3", "--bits", "111", "--which", "clock"], "drop --bits and --z"),
        (["decide", "--builtin", "clock:n=3", "--z", "1", "--problem", "bitswitch"], "drop --bits and --z"),
        # The circuit oracles run no greedy iteration for a budget to cap.
        *(
            (
                ["decide", "--builtin", "rot2", "--bits", "11", "--z", "1", "--problem", problem, "--budget", "5"],
                f"{problem} runs no greedy iteration and never reads --budget; drop it",
            )
            for problem in ("bitswitch", "circuitvalue")
        ),
    ],
)
def test_flags_the_instance_does_not_read_are_input_errors(tmp_path, capsys, argv, message):
    out = str(tmp_path / "unread")
    assert run_cli(*argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["run", "--builtin", "rot2", "--bits", "11"], ["--z", "1"]),
        (["verify", "--builtin", "rot2", "--bits", "11", "--which", "catalog"], ["--z", "1"]),
        (["run", "--builtin", "clock:n=3", "--bits", "11"], ["--z", "1"]),
        (["run", "--builtin", "clock:n=3"], ["--z", "1"]),
        (["build", "--builtin", "rot2"], ["--bits", "11", "--z", "1"]),
        (["build", "--builtin", "rot2"], ["--budget", "5"]),
        (["build", "--builtin", "clock:n=3"], ["--budget", "5"]),
    ],
    ids=[
        "run-z", "verify-z", "run-clock-z", "run-clock-only-z", "build-bits-z", "build-budget", "build-clock-budget",
    ],
)
def test_a_flag_the_command_never_reads_is_rejected_by_its_parser(tmp_path, capsys, argv, unread):
    # Only decide reads --z, and build runs nothing.
    out = str(tmp_path / "unread")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *unread, "--out", out)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(unread)}\n" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["build", "--builtin", "rot2"], ["--bits", "11"]),
        (["run", "--builtin", "rot2", "--bits", "11"], ["--z", "1"]),
        (["verify", "--builtin", "rot2", "--bits", "11"], ["--z", "1"]),
        (["decide", "--builtin", "rot2", "--bits", "11", "--z", "1", "--problem", "bitswitch"], ["--alpha", "printed"]),
    ],
    ids=["build", "run", "verify", "decide"],
)
def test_an_unread_flag_is_reported_with_the_command_usage(tmp_path, capsys, argv, unread):
    # The usage line names the command and so the flags it does take.
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *unread, "--out", str(tmp_path / "unread"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dantziglab {argv[0]} [-h] ")
    assert f"\ndantziglab {argv[0]}: error: unrecognized arguments: {' '.join(unread)}\n" in err


def test_each_command_offers_exactly_the_flags_it_reads(capsys):
    source = {"--circuit", "--tm", "--builtin", "--input", "--space"}
    expected = {
        "build": source | {"--tie", "--alpha", "--out"},
        "run": source | {"--bits", "--tie", "--alpha", "--budget", "--out"},
        "verify": source | {"--bits", "--tie", "--alpha", "--budget", "--out", "--which"},
        "decide": source | {"--bits", "--z", "--tie", "--budget", "--out", "--problem"},
    }
    (commands,) = [a.choices for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in commands.items()
    }
    assert offered == expected
    with pytest.raises(SystemExit) as exc:
        run_cli("build", "--help")
    assert exc.value.code == 0
    shown = capsys.readouterr().out
    assert "--builtin" in shown
    for flag in ("--bits", "--z", "--budget"):
        assert flag not in shown, flag


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parsed(pattern):
    """(path, syntax tree, source lines) of each file under the repository root that the pattern matches."""
    out = []
    for path in sorted(glob.glob(os.path.join(REPO, pattern))):
        text = read(path)
        out.append((os.path.relpath(path, REPO), ast.parse(text), text.splitlines()))
    return out


def test_src_defines_only_what_it_calls_and_imports_only_what_it_uses():
    # Code only the tests call lives in the tests.  A definition is called
    # when src/ or perfbench/ names it: as a name, an attribute, or a part
    # of a dotted string in perfbench/ (its span table names functions that
    # way).  Docstrings and comments name nothing.
    src = _parsed("src/dantziglab/*.py")
    bench = _parsed("perfbench/*.py")
    named = set()
    for _, tree, _ in src + bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    for _, tree, _ in bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
                named.update(node.value.split("."))
    uncalled = [
        f"{path}: {node.name}"
        for path, tree, _ in src
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert uncalled == []
    # An import no line of its module reads, unless marked as a re-export.
    unused = []
    for path, tree, lines in src:
        read_here = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read_here and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path}:{alias.lineno}: {bound}")
    assert unused == []


@pytest.mark.parametrize("tie", ["random:x", "coinflip", "random:", "random", "Lowest"])
def test_an_unknown_tie_break_is_rejected_by_the_parser(tmp_path, capsys, tie):
    out = str(tmp_path / "tie")
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--builtin", "rot2", "--bits", "11", "--tie", tie, "--out", out)
    assert exc.value.code == 2
    assert f"unknown tie-break {tie!r} (use lowest, highest, or random:SEED)" in capsys.readouterr().err
    assert not os.path.exists(out)


DECIMAL = re.compile(r"\d+\.\d+")


def test_no_decimals_anywhere_in_outputs(tmp_path):
    out = str(tmp_path / "clean")
    assert run_cli("build", "--builtin", "rot2", "--out", out) == 0
    assert run_cli("run", "--builtin", "rot2", "--bits", "10", "--out", out) == 0
    for name in os.listdir(out):
        assert not DECIMAL.search(read(os.path.join(out, name))), name


def test_decide_with_query_bit_unset_is_input_error(tmp_path):
    assert run_cli("decide", "--builtin", "rot2", "--bits", "01", "--z", "1",
                   "--problem", "actionswitch", "--out", str(tmp_path)) == 2


def test_equivalence_budget_exceeded_exit_code(tmp_path):
    assert run_cli("verify", "--builtin", "clock:n=3", "--which", "equivalence",
                   "--budget", "2", "--out", str(tmp_path)) == 3


def test_verify_all_evaluates_each_policy_once(tmp_path, patch_everywhere):
    evaluated = []
    appealed = []
    original_values, original_appeals = mdp.evaluate_values, mdp.appeals

    def counting_values(m, policy):
        evaluated.append(policy)
        return original_values(m, policy)

    def counting_appeals(m, policy, values):
        appealed.append(policy)
        return original_appeals(m, policy, values)

    patch_everywhere(original_values, counting_values)
    patch_everywhere(original_appeals, counting_appeals)
    out = str(tmp_path / "ver")
    assert run_cli("verify", "--builtin", "clock:n=3", "--which", "all", "--out", out) == 0
    report = json.loads(read(os.path.join(out, "report.json")))
    assert [r["name"] for r in report["reports"]] == ["clock", "equivalence"]
    # verify's first watcher checks each policy of the 7-switch run after the
    # start against one fresh evaluation, which the engine's own update never
    # calls, and the run checks its final policy the same way.  The engine,
    # the clock oracle and the lockstep share one full appeal pass at the
    # start; after each switch the engine recomputes only the appeals it
    # changed, and the run ends with the one from-scratch pass it checks
    # the kept appeals against.
    assert len(evaluated) == 8
    assert len(appealed) == 2


def test_a_crosscheck_failure_exits_4_not_verdict_false(tmp_path, monkeypatch, capsys):
    # One wrong kept value that no re-solved state's chosen action reads:
    # verify's first watcher compares every switch with a fresh evaluation,
    # before any auditor reads it.
    monkeypatch.setattr(mdp, "_acyclic_expectation", planting_walk("kept"))
    assert run_cli("verify", "--builtin", "rot2", "--bits", "11", "--which", "all", "--out", str(tmp_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: after switch 1 the kept value of ")


def test_a_residual_failure_exits_4_not_verdict_false(tmp_path, monkeypatch, capsys):
    # One wrong re-solved value: its chosen action's appeal is not 0.
    monkeypatch.setattr(mdp, "_acyclic_expectation", planting_walk("resolved"))
    assert run_cli("verify", "--builtin", "rot2", "--bits", "11", "--which", "all", "--out", str(tmp_path)) == 4
    err = capsys.readouterr().err
    assert err == "invariant violation: after switch 1 the chosen action at o0_3 has appeal -1, not 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--builtin", "rot2", "--bits", "11"],
        ["decide", "--builtin", "rot2", "--bits", "11", "--z", "1", "--problem", "dantzigsol"],
        ["decide", "--builtin", "rot2", "--bits", "11", "--z", "1", "--problem", "actionswitch"],
    ],
    ids=["run", "decide-dantzigsol", "decide-actionswitch"],
)
def test_a_wrong_solved_form_fails_the_bellman_residual(tmp_path, monkeypatch, capsys, argv):
    # The solved form forgets to divide a rewarded self-loop's reward by the
    # leaving mass.  evaluate_values reads the same form, so the run's values
    # agree with it; only the appeals, read off the raw transitions, see it.
    solve = mdp.Action.solved.func

    def unscaled(act):
        stay = act.transitions.get(act.state, 0)
        if stay == 1:
            return None
        _, targets, groups = solve(act)
        return act.reward, targets, groups

    monkeypatch.setattr(mdp.Action, "solved", property(unscaled))
    assert run_cli(*argv, "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: after switch 9 the chosen action at o0_12 has appeal 8/9, not 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--builtin", "rot2", "--bits", "11"],
        ["verify", "--builtin", "rot2", "--bits", "11", "--which", "catalog"],
        ["decide", "--builtin", "rot2", "--bits", "11", "--z", "1", "--problem", "dantzigsol"],
    ],
    ids=["run", "verify-catalog", "decide-dantzigsol"],
)
def test_a_run_that_stops_early_exits_4_not_optimal(tmp_path, monkeypatch, capsys, argv):
    # The greedy step reports an optimum after switch 50 while positive
    # appeals remain; the kept numbers are all right, so only the final
    # certificate (no fresh appeal positive) can catch it.
    step = mdp.dantzig_step
    calls = []

    def stopping(*args):
        calls.append(None)
        return None if len(calls) > 50 else step(*args)

    monkeypatch.setattr(mdp, "dantzig_step", stopping)
    assert run_cli(*argv, "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(
        r"invariant violation: the run stopped after switch 50, but a fresh evaluation gives \S+ "
        r"the positive appeal \d",
        captured.err,
    )


@pytest.mark.parametrize("error", [mdp.NonZeroGainPolicyError])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--builtin", "rot2", "--bits", "11"],
        ["decide", "--builtin", "rot2", "--bits", "11", "--z", "1", "--problem", "dantzigsol"],
    ],
    ids=["run", "decide-dantzigsol"],
)
def test_a_chain_structure_error_exits_4_not_verdict_false(tmp_path, monkeypatch, capsys, argv, error):
    # The incremental re-solve after a switch meets a chain structure the
    # evaluator cannot handle; for decide, exit 1 would read as "false".
    walk = mdp._acyclic_expectation

    def failing(m, policy, *, values=None, roots=None):
        if roots is not None:
            raise error("planted recurrent class")
        return walk(m, policy, values=values, roots=roots)

    monkeypatch.setattr(mdp, "_acyclic_expectation", failing)
    assert run_cli(*argv, "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: planted recurrent class\n"


def test_a_non_greedy_clock_switch_fails_the_clock_audit(tmp_path, monkeypatch):
    # The third switch takes the best appeal below the maximum; the run
    # still ends at the optimum, but off the Gray-code sequence.
    step = mdp.dantzig_step
    calls = []

    def lower(m, policy, pick, positive):
        calls.append(None)
        if len(calls) == 3:
            top = max(positive.values())
            positive = {aid: appeal for aid, appeal in positive.items() if appeal < top}
        return step(m, policy, pick, positive)

    monkeypatch.setattr(mdp, "dantzig_step", lower)
    out = str(tmp_path / "ver")
    assert run_cli("verify", "--builtin", "clock:n=3", "--which", "clock", "--out", out) == 4
    (report,) = json.loads(read(os.path.join(out, "report.json")))["reports"]
    assert report["ok"] is False and report["expected_fail"] is False
    failures = report["failures"]
    assert failures[0] == "expected 7 switches, saw 5"
    assert any(f.endswith("off the Gray-code sequence") for f in failures)
    assert any(re.fullmatch(r"step \d+: switched state \d, expected \d", f) for f in failures)


def test_a_lockstep_oracle_failure_exits_4_not_verdict_false(tmp_path, monkeypatch, capsys):
    from dantziglab import lp

    original = lp.Lockstep.finish

    def perturbing(self, result):
        self.basis.x_b[0] += 1  # a kept basic solution off after the last switch
        return original(self, result)

    monkeypatch.setattr(lp.Lockstep, "finish", perturbing)
    out = str(tmp_path / "ver")
    assert run_cli("verify", "--builtin", "identity1", "--bits", "1", "--which", "equivalence",
                   "--out", out) == 4
    assert capsys.readouterr().out == "equivalence: FAIL\n  diverged at iteration 22\n"
    (report,) = json.loads(read(os.path.join(out, "report.json")))["reports"]
    final = report["details"]["iterations"][-1]
    assert report["ok"] is False and final["ok"] is False and final["dual_match"]


def test_verify_all_never_builds_the_full_policy_list(tmp_path, monkeypatch):
    def forbidden(self):
        raise AssertionError("the audits read the trace forward and keep one policy per boundary")

    monkeypatch.setattr(mdp.PIResult, "policies", forbidden)
    out = str(tmp_path / "ver")
    assert run_cli("verify", "--builtin", "identity1", "--bits", "1", "--which", "all", "--out", out) == 0
    report = json.loads(read(os.path.join(out, "report.json")))
    assert [r["name"] for r in report["reports"]] == ["catalog", "transitions", "equivalence"]


def test_decide_actionswitch_builds_no_decision_variant(tmp_path, patch_everywhere):
    from dantziglab import construction

    def forbidden(*args, **kwargs):
        raise AssertionError("actionswitch never reads the decision variant")

    patch_everywhere(construction.build_construction_z, forbidden)
    expected = decide_bitswitch(identity_circuit(2), (1, 1), 1)
    assert run_cli("decide", "--builtin", "identity2", "--bits", "11", "--z", "1",
                   "--problem", "actionswitch", "--out", str(tmp_path)) == (0 if expected else 1)


def test_decide_runs_only_the_reductions_its_problem_reads(tmp_path, count_runs):
    # One run each: actionswitch runs the plain construction, dantzigsol the
    # decision variant alone (the one with the freeze gadget's b1 state).
    for problem, decision_variant in (("actionswitch", False), ("dantzigsol", True)):
        count_runs.clear()
        assert run_cli("decide", "--builtin", "identity1", "--bits", "1", "--z", "1",
                       "--problem", problem, "--out", str(tmp_path)) in (0, 1)
        assert len(count_runs) == 1, problem
        assert ("b1" in count_runs[0].state_names) == decision_variant, problem
