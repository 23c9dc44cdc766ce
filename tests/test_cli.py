from __future__ import annotations

import json
import os
import re
import sys

from dantziglab import mdp
from dantziglab.circuit import decide_bitswitch, save_circuit
from dantziglab.cli import main
from dantziglab.library import identity_circuit, rotation_circuit
from dantziglab.library import writer_machine
from dantziglab.turing import machine_to_json


def run_cli(*argv):
    return main(list(argv))


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
    # The closed-form w: dantzigsol then runs the decision variant alone.
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", "actionswitch", "--w-mode", "bound", "--out", out) == 0
    assert run_cli("decide", "--builtin", "rot2", "--bits", "11", "--z", "1",
                   "--problem", "dantzigsol", "--w-mode", "bound", "--out", out) == 1


def test_decide_on_machine_instance(tmp_path):
    path = str(tmp_path / "writer.json")
    with open(path, "w") as fh:
        json.dump(machine_to_json(writer_machine()), fh)
    assert run_cli("decide", "--tm", path, "--input", "1", "--space", "2",
                   "--problem", "circuitvalue", "--out", str(tmp_path)) == 0


def test_outputs_are_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["run", "--builtin", "identity1", "--bits", "1", "--tie", "random:13"]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    for name in ("trace.jsonl", "summary.json"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["verify", "--builtin", "identity1", "--bits", "1", "--which", "all"]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert read(os.path.join(out1, "report.json")) == read(os.path.join(out2, "report.json"))


def test_decide_guards_oversized_mdp_instances(tmp_path):
    # A 7-bit machine instance means 128 phases: the MDP-side problems are
    # refused without an explicit budget (the oracle-side ones still run).
    path = str(tmp_path / "writer.json")
    with open(path, "w") as fh:
        json.dump(machine_to_json(writer_machine()), fh)
    assert run_cli("decide", "--tm", path, "--input", "1", "--space", "3",
                   "--problem", "actionswitch", "--out", str(tmp_path)) == 2


def test_threshold_overrides_flow_into_params(tmp_path):
    out = str(tmp_path / "tweaked")
    assert run_cli("build", "--builtin", "identity1", "--bl", "3", "--out", out) == 0
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["params"]["bl"] == "3"
    # An override that breaks the scripted switch ordering is an input error.
    assert run_cli("build", "--builtin", "identity1", "--ro", "1/2", "--out", out) == 2
    assert run_cli("build", "--builtin", "identity1", "--bl", "6", "--out", out) == 2


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


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` in every dantziglab module that refers to it."""
    for name, module in list(sys.modules.items()):
        if name == "dantziglab" or name.startswith("dantziglab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_verify_all_evaluates_each_policy_once(tmp_path, monkeypatch):
    evaluated = []
    original = mdp.evaluate_values

    def counting(m, policy):
        evaluated.append(policy)
        return original(m, policy)

    _patch_everywhere(monkeypatch, original, counting)
    out = str(tmp_path / "ver")
    assert run_cli("verify", "--builtin", "clock:n=3", "--which", "all", "--out", out) == 0
    report = json.loads(read(os.path.join(out, "report.json")))
    assert [r["name"] for r in report["reports"]] == ["clock", "equivalence"]
    # One evaluation per policy of the 7-switch run, plus one to fix the
    # Gray-code orientation.
    assert len(evaluated) == 8 + 1


def test_decide_actionswitch_builds_no_decision_variant(tmp_path, monkeypatch):
    from dantziglab import construction

    def forbidden(*args, **kwargs):
        raise AssertionError("actionswitch never reads the decision variant")

    _patch_everywhere(monkeypatch, construction.build_construction_z, forbidden)
    expected = decide_bitswitch(identity_circuit(2), (1, 1), 1)
    assert run_cli("decide", "--builtin", "identity2", "--bits", "11", "--z", "1",
                   "--problem", "actionswitch", "--out", str(tmp_path)) == (0 if expected else 1)
