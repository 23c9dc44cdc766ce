"""dantziglab benchmark: one workload through the real CLI, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload clock-11 --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing needs
installing.  A pass runs every command of the workload in-process through
``dantziglab.cli.main(argv)`` and gates each result against an oracle that
is independent of the engine.  Seed 0 runs the commands with
``--tie lowest``, seed k > 0 with ``--tie random:k``.

With ``--trace 0`` the run repeats untraced passes for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it spends the first half
on untraced passes and the second half on passes traced per module (see
``tracing.py``) and reports the per-layer metrics.  Every metric is printed
by name with its unit; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracing import Tracer, layer_split  # noqa: E402  (this directory is sys.path[0])
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
SAMPLE_INTERVAL_S = 0.2
STATE_DIR = ROOT / ".bench_state"
WORK_DIR = ROOT / ".bench_work"

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_COUNTS = (
    "mdp.pi_runs",
    "mdp.switches",
    "mdp.evaluations",
    "mdp.appeal_passes",
    "lp.pivots",
    "lp.reduced_cost_passes",
    "numerics.inversions",
    "numerics.dense_solves",
    "verify.policies_materialized",
    "construction.builds",
)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PER_LAYER_COUNTS:
        return "count"
    if name.endswith("_ms") or name.startswith(("mdp.ms_", "lp.ms_")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "mdp.evaluations_per_switch":
        return "evals/switch"
    return "ratio"


def import_package():
    """Import dantziglab afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dantziglab" or m.startswith("dantziglab.")]:
        del sys.modules[name]
    package = importlib.import_module("dantziglab")
    importlib.import_module("dantziglab.cli")
    if Path(package.__file__).resolve().parent != SRC / "dantziglab":
        raise ImportError(f"dantziglab imported from {package.__file__}, not from {SRC}")
    return package


def measure_setup(workload) -> tuple:
    """Import plus building every instance, once untimed and then SETUP_REPEATS times."""
    times = []
    for rep in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        package = import_package()
        workload.build(package)
        if rep:
            times.append(time.perf_counter() - start)
    return package, times


def reference_loop() -> None:
    """A fixed exact-arithmetic loop that uses no dantziglab code: one ``ref``."""
    total, table = Fraction(0), {}
    for i in range(300):
        x = Fraction(i % 17, 1 + i % 23) * Fraction(5, 3) + Fraction(1, 2)
        table[i % 97] = x
        total += x - table.get(i * 7 % 97, 0)


class SpeedSampler:
    """Times the reference loop every SAMPLE_INTERVAL_S of wall time while a pass runs.

    The host's speed drifts by up to 1.5x within minutes, and by more than
    any usable bound between runs.  A SIGALRM handler runs the reference
    loop between the program's bytecodes, so its samples spread evenly over
    the pass, and a pass's time divided by their mean cancels the drift.
    The handler's own time (about 2%) is subtracted from the command times.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.walls: list = []
        self.cpus: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def tick(self, signum=None, frame=None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if self.tracer is None:
            reference_loop()
        else:
            self.tracer.call("bench.sampler", reference_loop)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.walls:  # a pass shorter than one interval
            self.tick()


@dataclass
class PassSample:
    wall: float  # seconds inside cli.main, summed over the pass's commands, sampler excluded
    cpu: float
    wall_ref: float  # wall over the mean reference-loop wall time sampled during the pass
    cpu_ref: float  # cpu over the mean reference-loop CPU time
    ref_s: float  # that mean reference-loop wall time
    elapsed: float  # the pass's whole duration, gates included


class Runner:
    """Runs passes over a workload's commands; gates and hashes every result."""

    def __init__(self, package, commands: list, tie: str, work: Path):
        self.package = package
        self.commands = commands
        self.tie = tie
        self.work = work
        self.first_digests: list = [None] * len(commands)
        self.passes = 0
        self.attempted = 0
        self.failures: list = []  # one entry per failed command
        self.tracer: Tracer | None = None  # set, and installed, while passes are traced
        self.splits: list = []  # the per-layer split of each traced pass

    def run_pass(self) -> PassSample:
        self.passes += 1
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.spans.clear()
        wall = cpu = 0.0
        with SpeedSampler(self.tracer) as sampler:
            for i, command in enumerate(self.commands):
                self.attempted += 1
                command_wall, command_cpu, problems = self._run(i, command, sampler)
                wall += command_wall
                cpu += command_cpu
                if problems:
                    self.failures.append({"pass": self.passes, "command": command.label, "problems": problems})
        if self.tracer is not None:
            self.splits.append(layer_split(self.tracer.spans))
        ref_wall, ref_cpu = statistics.mean(sampler.walls), statistics.mean(sampler.cpus)
        return PassSample(wall, cpu, wall / ref_wall, cpu / ref_cpu, ref_wall, time.perf_counter() - start)

    def _run(self, i: int, command, sampler: SpeedSampler) -> tuple:
        out_dir = self.work / f"cmd{i}"
        for name in command.outputs:
            (out_dir / name).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = command.argv + ["--tie", self.tie, "--out", str(out_dir)]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        spent_wall0, spent_cpu0 = sampler.spent_wall, sampler.spent_cpu
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.package.cli.main(argv)
        except SystemExit as exc:
            code, problems = None, [f"exited through SystemExit({exc.code}): {stderr.getvalue()[-200:]!r}"]
        except Exception as exc:  # a crash is a failed command, never a verdict
            where = traceback.extract_tb(exc.__traceback__)[-1]
            code, problems = None, [f"crashed: {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"]
        wall = time.perf_counter() - wall0 - (sampler.spent_wall - spent_wall0)
        cpu = time.process_time() - cpu0 - (sampler.spent_cpu - spent_cpu0)
        if code is None:
            return wall, cpu, problems
        problems = command.gate(code, stdout.getvalue(), str(out_dir))
        digest = hashlib.sha256(stdout.getvalue().encode())
        for name in command.outputs:
            path = out_dir / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        if self.first_digests[i] is None:
            self.first_digests[i] = digest.hexdigest()
        elif digest.hexdigest() != self.first_digests[i]:
            problems.append("output bytes differ from the first pass")
        return wall, cpu, problems


def run_passes(runner: Runner, until: float) -> list:
    """At least one pass; another only while its expected end stays before ``until``."""
    samples = []
    while True:
        samples.append(runner.run_pass())
        typical = statistics.median(s.elapsed for s in samples)
        if time.perf_counter() + typical > until:
            return samples


def count_drift(splits: list) -> list:
    """Traced passes whose per-layer counts differ from the first traced pass's."""
    first = splits[0]["counts"]
    return [
        f"traced pass {k}: counts {split['counts']} differ from pass 1: {first}"
        for k, split in enumerate(splits[1:], start=2)
        if split["counts"] != first
    ]


def source_digest() -> str:
    """Hash of the package and benchmark sources: the key for recorded counts."""
    digest = hashlib.sha256()
    for path in sorted(list((SRC / "dantziglab").rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_recorded_counts(workload: str, seed: int, counts: dict) -> list:
    """Compare with the counts an earlier run of the same sources and seed recorded."""
    path = STATE_DIR / source_digest() / f"{workload}-seed{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            return [f"counts {counts} differ from an earlier run's {recorded}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit_hash(),
        "source_digest": source_digest(),
    }


def result_metrics(untraced: list, traced: list, splits: list, setup_times: list, error_rate: float) -> tuple:
    """The end-to-end metrics, and the per-layer ones when there are traced passes.

    Per-layer timings are medians over the traced passes; counts come from
    the first traced pass (every other traced pass must repeat them).
    """
    wall_ref = statistics.median(s.wall_ref for s in untraced)
    end_to_end = {
        "wall_ref": wall_ref,
        "cpu_ref": statistics.median(s.cpu_ref for s in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not splits:
        return end_to_end, None
    ref_s = statistics.median(s.ref_s for s in untraced)
    per_layer = {
        key: statistics.median(split["timings"][key] for split in splits)
        for key in splits[0]["timings"]
    }
    counts = splits[0]["counts"]
    per_layer.update({key: counts[key] for key in PER_LAYER_COUNTS})
    switches = counts["mdp.switches"]
    per_layer["mdp.evaluations_per_switch"] = counts["mdp.evaluations"] / switches if switches else 0.0
    per_layer["bench.trace_overhead_s"] = (statistics.median(s.wall_ref for s in traced) - wall_ref) * ref_s
    per_layer.update({
        "wall_s": statistics.median(s.wall for s in untraced),
        "cpu_s": statistics.median(s.cpu for s in untraced),
        "ref_s": ref_s,
        "error_rate": error_rate,
    })
    return end_to_end, per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workload = WORKLOADS[args.workload]
    tie = "lowest" if args.seed == 0 else f"random:{args.seed}"
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    traced_samples, splits, nondeterminism = [], [], []
    try:
        package, setup_times = measure_setup(workload)
        runner = Runner(package, workload.commands(package, str(work)), tie, work)
        start = time.perf_counter()
        untraced = run_passes(runner, start + (args.seconds / 2 if args.trace else args.seconds))
        if args.trace:
            runner.tracer = Tracer()
            runner.tracer.install(package)
            try:
                traced_samples = run_passes(runner, start + args.seconds)
            finally:
                runner.tracer.restore()
            splits = runner.splits
            nondeterminism = count_drift(splits) + check_recorded_counts(args.workload, args.seed, splits[0]["counts"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    failed = len(runner.failures)
    error_rate = failed / runner.attempted
    end_to_end, per_layer = result_metrics(untraced, traced_samples, splits, setup_times, error_rate)
    reported = per_layer if per_layer is not None else end_to_end
    metrics = {**end_to_end, **(per_layer or {}), "error_rate": error_rate}
    for name, value in metrics.items():
        print(f"{name:34s} {value!r} {unit_of(name)}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "tie": tie,
        "host": host_record(),
        "passes": {"untraced": len(untraced), "traced": len(traced_samples)},
        "pass_wall_s": [s.wall for s in untraced],
        "pass_wall_ref": [s.wall_ref for s in untraced],
        "pass_ref_s": [s.ref_s for s in untraced],
        "setup_samples_s": setup_times,
        "layer_split": splits[0] if splits else None,
        "failures": runner.failures[:20],
        "nondeterminism": nondeterminism,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not nondeterminism,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
