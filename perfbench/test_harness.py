"""Smoke test of the benchmark harness on tiny instances.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import run as bench
from tracing import Tracer, layer_split, self_times
from workloads import Command, report_gate, verdict_gate

CLOCK3 = Command(
    ["verify", "--builtin", "clock:n=3", "--which", "clock"],
    report_gate({"clock": {"iterations": 7}}),
    ("report.json",),
)
IDENTITY1 = Command(
    ["verify", "--builtin", "identity1", "--bits", "1", "--which", "all"],
    report_gate({"catalog": {"counts": 22}, "transitions": {"boundaries": 1}, "equivalence": {"pivots": 22}}),
    ("report.json",),
)
DECIDE_ARGV = ["decide", "--builtin", "identity1", "--bits", "1", "--z", "1", "--problem", "actionswitch"]


@pytest.fixture(scope="module")
def package():
    return bench.import_package()


def decide(package, argv=DECIDE_ARGV, *, flip=False) -> Command:
    expected = package.circuit.decide_bitswitch(package.library.BUILTIN_CIRCUITS["identity1"](), (1,), 1)
    return Command(argv, verdict_gate("actionswitch", expected != flip, agreement=True))


def test_untraced_passes_pass_every_gate(package, tmp_path):
    runner = bench.Runner(package, [CLOCK3, IDENTITY1, decide(package)], "lowest", tmp_path)
    runner.run_pass()
    runner.run_pass()
    assert runner.attempted == 6
    assert runner.failures == []


def test_traced_spans_nest_and_self_times_add_up(package, tmp_path):
    runner = bench.Runner(package, [CLOCK3, IDENTITY1], "random:5", tmp_path)
    tracer = runner.tracer = Tracer()
    tracer.install(package)
    try:
        runner.run_pass()
        wall = runner.run_pass().wall
    finally:
        tracer.restore()
    assert runner.failures == []
    assert bench.count_drift(runner.splits) == []
    assert not hasattr(package.lp.evaluate_values, "__wrapped__")
    assert not hasattr(package.verify.TraceAnnotator.__call__, "__wrapped__")

    spans = tracer.spans
    roots = [s for s in spans if s.parent < 0]
    assert [s.name for s in roots if s.name != "bench.sampler"] == ["cli.main", "cli.main"]
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    own = self_times(spans)
    assert min(own) >= 0
    assert sum(own) == pytest.approx(sum(s.end - s.start for s in roots), rel=1e-9)

    split = runner.splits[-1]
    assert split["timings"]["bench.traced_wall_s"] == pytest.approx(wall, abs=1e-3)
    counts = split["counts"]
    assert counts["mdp.switches"] == 7 + 22  # clock:n=3, then the identity1 annotated run
    assert counts["lp.pivots"] == 22
    assert counts["numerics.inversions"] == 23  # one basis per lockstep iteration
    assert counts["mdp.evaluations"] >= counts["mdp.switches"]
    assert 0.9 <= split["timings"]["bench.layer_coverage"] <= 1.0


def test_gate_catches_wrong_verdict_crash_and_changed_bytes(package, tmp_path):
    crash = decide(package, DECIDE_ARGV + ["--budget", "0"])
    runner = bench.Runner(package, [decide(package, flip=True), crash, CLOCK3], "lowest", tmp_path)
    runner.run_pass()
    problems = {f["command"]: f["problems"] for f in runner.failures}
    assert len(problems) == 2
    assert any("exit code 1, expected 0" in p for p in problems[" ".join(DECIDE_ARGV)])
    assert any(p.startswith("crashed: MdpError") for p in problems[crash.label])

    runner.first_digests[2] = "not the digest"
    runner.run_pass()
    assert runner.failures[-1]["problems"] == ["output bytes differ from the first pass"]

    wrong_count = Command(CLOCK3.argv, report_gate({"clock": {"iterations": 8}}), ("report.json",))
    runner = bench.Runner(package, [wrong_count], "lowest", tmp_path)
    runner.run_pass()
    assert runner.failures[0]["problems"] == ["report clock: iterations = 7, expected 8"]


def test_benchmark_json_names_every_reported_metric():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sample = bench.PassSample(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    end_to_end, per_layer = bench.result_metrics([sample], [sample], [layer_split([])], [1.0], 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == bench.unit_of(metric["name"])


def test_recorded_counts_flag_drift_between_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", tmp_path)
    counts = {"mdp.switches": 7, "lp.pivots": 0}
    assert bench.check_recorded_counts("clock-11", 3, counts) == []
    assert bench.check_recorded_counts("clock-11", 3, counts) == []
    assert bench.check_recorded_counts("clock-11", 4, {**counts, "mdp.switches": 8}) == []
    assert len(bench.check_recorded_counts("clock-11", 3, {**counts, "mdp.switches": 8})) == 1
