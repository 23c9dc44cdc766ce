"""In-memory spans around dantziglab's layer functions, and the per-layer split.

A ``Tracer`` wraps the public functions listed in ``SPANS`` from outside the
package: it replaces every module attribute (and class attribute, for
methods) that refers to a wrapped function, so that callers that imported
the function by name, such as ``lp.evaluate_values``, are traced too.
``restore`` puts the originals back.

Each call records one span: name, start, end, parent span and an optional
note taken from the return value (switch and pivot counts, policy-list
lengths).  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested because the benchmark runs in
one thread.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass

# (module, attribute, span name).  The layer is the span name's prefix.
SPANS = (
    ("cli", "main", "cli.main"),
    ("mdp", "evaluate_values", "mdp.evaluate"),
    ("mdp", "appeals", "mdp.appeals"),
    ("mdp", "dantzig_step", "mdp.select"),
    ("mdp", "run_policy_iteration", "mdp.run"),
    ("mdp", "PIResult.policies", "mdp.policies"),
    ("lp", "mdp_to_primal", "lp.primal"),
    ("lp", "dual_and_reduced_costs", "lp.reduced_costs"),
    ("lp", "make_basis", "lp.basis"),
    ("lp", "simplex_dantzig_step", "lp.ratio_test"),
    ("lp", "check_pi_simplex_equivalence", "lp.lockstep"),
    ("numerics", "inverse", "numerics.inverse"),
    ("numerics", "solve_linear_system", "numerics.dense_solve"),
    ("construction", "build_clock", "construction.build"),
    ("construction", "build_construction", "construction.build"),
    ("construction", "build_construction_z", "construction.build"),
    ("construction", "initial_policy", "construction.policy"),
    ("construction", "clock_initial_policy", "construction.policy"),
    ("verify", "check_clock_trace", "verify.clock_oracle"),
    ("verify", "TraceAnnotator.__call__", "verify.annotate"),
    ("verify", "audit_appeal_catalog", "verify.catalog"),
    ("verify", "check_all_transitions", "verify.transitions"),
    ("verify", "decode_phases", "verify.decode"),
    ("verify", "end_to_end", "verify.end_to_end"),
    ("circuit", "decide_bitswitch", "circuit.oracle"),
    ("circuit", "decide_circuitvalue", "circuit.oracle"),
    ("circuit", "normalize_depths", "circuit.normalize"),
    ("circuit", "negated_form", "circuit.normalize"),
    ("turing", "compile_machine", "turing.compile"),
)

LAYERS = ("cli", "mdp", "lp", "numerics", "construction", "verify", "circuit", "turing")

# What a span keeps from its function's return value.
NOTES = {
    "mdp.run": lambda result: result.iterations,
    "mdp.select": lambda step: step is not None,
    "mdp.policies": len,
    "lp.ratio_test": lambda step: step is not None,
    "lp.lockstep": lambda report: report.pivots,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    note: object = None


class Tracer:
    """Records spans while installed; ``spans`` keeps every call in order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every function in ``SPANS`` within the imported ``package``."""
        modules = [
            mod
            for name, mod in sorted(vars(package).items())
            if getattr(mod, "__name__", "").startswith(package.__name__ + ".")
        ] + [package]
        for module_name, attr, span_name in SPANS:
            module = getattr(package, module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[method]
                self._rebind(owner, method, self._wrap(original, span_name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def call(self, name: str, fn):
        """Call ``fn()`` inside a span of its own."""
        return self._wrap(fn, name)()

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _intervals(spans: list[Span], parent_name: str, step_name: str) -> list[float]:
    """Time per productive step: from the parent's start, or the previous step's end, to each step's end.

    A step whose note is false (it found the optimum) ends the series.
    """
    first_step: dict[int, float] = {}
    out: list[float] = []
    for s in spans:
        if s.name != step_name or s.parent < 0 or spans[s.parent].name != parent_name:
            continue
        if not s.note:
            continue
        prev = first_step.get(s.parent, spans[s.parent].start)
        out.append(s.end - prev)
        first_step[s.parent] = s.end
    return out


def _ms_percentile(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def layer_split(spans: list[Span]) -> dict:
    """Per-layer timings (seconds or ms) and exact counts for one traced pass.

    The pass's wall time is the time inside ``cli.main`` less the speed
    sampler's ``bench.sampler`` spans, as for an untraced pass.
    """
    own = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in self_by_name.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t

    def self_s(name: str) -> float:
        return self_by_name.get(name, 0.0)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def notes(name: str) -> int:
        return sum(int(s.note) for s in spans if s.name == name)

    switches = notes("mdp.run")
    pivots = notes("lp.lockstep")
    switch_times = _intervals(spans, "mdp.run", "mdp.select")
    pivot_times = _intervals(spans, "lp.lockstep", "lp.ratio_test")
    wall_s = sum(s.end - s.start for s in spans if s.parent < 0 and s.name == "cli.main")
    wall_s -= sum(s.end - s.start for s in spans if s.parent >= 0 and s.name == "bench.sampler")
    covered = sum(t for layer, t in layer_self.items() if layer != "cli")

    timings = {
        "mdp.evaluate_s": self_s("mdp.evaluate"),
        "mdp.appeals_s": self_s("mdp.appeals"),
        "mdp.select_s": self_s("mdp.select"),
        "mdp.ms_per_switch": total("mdp.run") / switches * 1e3 if switches else 0.0,
        "mdp.switch_p50_ms": _ms_percentile(switch_times, 50),
        "mdp.switch_p99_ms": _ms_percentile(switch_times, 99),
        "lp.reduced_cost_s": self_s("lp.reduced_costs"),
        "lp.basis_s": self_s("lp.basis"),
        "lp.ratio_test_s": self_s("lp.ratio_test"),
        "lp.ms_per_pivot": total("lp.lockstep") / pivots * 1e3 if pivots else 0.0,
        "lp.pivot_p50_ms": _ms_percentile(pivot_times, 50),
        "lp.pivot_p99_ms": _ms_percentile(pivot_times, 99),
        "numerics.inverse_s": self_s("numerics.inverse"),
        "numerics.dense_solve_s": self_s("numerics.dense_solve"),
        "verify.clock_oracle_s": self_s("verify.clock_oracle"),
        "verify.annotate_s": self_s("verify.annotate"),
        "verify.catalog_s": self_s("verify.catalog"),
        "verify.transitions_s": self_s("verify.transitions"),
        "verify.decode_s": self_s("verify.decode"),
        "construction.build_s": layer_self["construction"],
        "circuit.oracle_s": self_s("circuit.oracle"),
        "turing.compile_s": self_s("turing.compile"),
        "cli.self_s": layer_self["cli"],
        "bench.traced_wall_s": wall_s,
        "bench.layer_coverage": covered / wall_s if wall_s else 0.0,
    }
    timings.update({f"layer.{layer}_self_s": t for layer, t in layer_self.items()})
    counts = {
        "mdp.pi_runs": calls.get("mdp.run", 0),
        "mdp.switches": switches,
        "mdp.evaluations": calls.get("mdp.evaluate", 0),
        "mdp.appeal_passes": calls.get("mdp.appeals", 0),
        "lp.pivots": pivots,
        "lp.reduced_cost_passes": calls.get("lp.reduced_costs", 0),
        "numerics.inversions": calls.get("numerics.inverse", 0),
        "numerics.dense_solves": calls.get("numerics.dense_solve", 0),
        "verify.policies_materialized": notes("mdp.policies"),
        "construction.builds": calls.get("construction.build", 0),
    }
    samples = {"switches": len(switch_times), "pivots": len(pivot_times)}  # behind the percentiles
    return {"timings": timings, "counts": counts, "samples": samples}
