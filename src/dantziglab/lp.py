"""The linear-programming mirror of the switching engine.

An MDP whose policies all funnel into one absorbing zero-reward sink turns
into a max-form primal LP: one equality row per non-sink state, one column
per action available there, with the column of an action at state s holding
+1 at row s minus the action's entry probability at every row.  The
right-hand side is uniformly 1/n.

A policy corresponds to the basis of its chosen columns.  The basis defines
a dual solution equal to the policy's state values, and reduced costs equal
to the appeals, so greedy largest-coefficient pivoting retraces greedy
largest-appeal switching step for step.  ``Lockstep`` verifies that
correspondence exactly, as a watcher on the policy-iteration run it is
attached to: at every switch it compares its own basis, duals and reduced
costs with the policy, values and appeals the run hands it (the very
appeals the run picks its switch from), then makes its own pivot.  The LP
side resolves ties with its own picker from the run's ``TieBreak``, so a
seeded rule draws from a generator of its own, seeded like the run's.  It
never evaluates a policy or computes an appeal, so it stays independent of
the engine it audits.

A basis keeps its inverse B⁻¹ by columns: column i is the sparse dict
{position: B⁻¹[position][i]}.  The rows of Bᵀ are the basis columns of
the LP, so one ``numerics.inverse`` call per basis on those columns gives
(Bᵀ)⁻¹, whose rows are exactly these columns.  The basis is I - Pᵀ on the
non-sink states, so its inverse is the transpose of Σ Pᵏ, the fundamental
matrix of the absorbing chain: column i holds position j exactly when row
j's state is reachable from row i's state under the policy.  Every basis a
run visits comes from a policy that is acyclic apart from self-loops, so
Bᵀ is triangular under a permutation and ``inverse`` substitutes in
singleton order without elimination: a hop or a detour column makes its
state's inverse column a copy of its target's plus one entry (see
``numerics``).  The entering direction combines the two or three inverse
columns at the entering column's nonzero rows.

A basis also keeps its basic solution x_B, its duals y and its reduced
costs.  Only the start basis computes them from scratch, with
``Basis.basic_solution`` (each position's entries summed across the
inverse's columns, times the uniform right-hand side 1/n) and
``dual_and_reduced_costs``.  Every pivot then carries them over by the
revised-simplex update (Dantzig & Orchard-Hays 1954): with d the entering
direction, r the leaving position, θ = x_r/d_r and rc_q the entering
reduced cost, x_B' = x_B − θ·d with x_r' = θ, y' = y + (rc_q/d_r)·B⁻¹[r],
and only the columns with a nonzero in a row where y changed get their
reduced cost recomputed.  The two from-scratch functions stay as the
oracle: at the final policy the lockstep recomputes all three vectors and
counts any difference from the kept ones as a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .mdp import Mdp, PIResult, Picker, Policy, TieBreak, TraceEvent, Watcher, run_policy_iteration
# The LP side never evaluates a policy.  The alias stays importable only
# because the benchmark's tracer test (perfbench/test_harness.py) restores
# it by name; it goes when that test is mended.
from .mdp import evaluate_values  # noqa: F401
from .numerics import ONE, ZERO, SingularMatrixError, format_rational, inverse, same


class LpError(ValueError):
    pass


class NoSinkError(LpError):
    """The designated sink is not an absorbing zero-reward state."""


class SingularBasisError(LpError):
    """A policy's columns are dependent: its policy graph has a trapped cycle."""


class UnboundedDirectionError(LpError):
    """No leaving candidate: cannot happen on a well-formed instance."""


class DegenerateLeavingError(LpError):
    """The ratio test tied: the instance or the converter is wrong."""


class PivotInvariantError(LpError):
    """The leaving column was not the other action at the entering state."""


@dataclass
class LinearProgram:
    mdp: Mdp
    sink: int
    rows: list[int]
    row_of: dict[int, int]
    cols: list[int]
    col_of: dict[int, int]
    objective: list[Fraction]
    columns: list[dict[int, Fraction]]
    rhs: list[Fraction]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    @cached_property
    def row_cols(self) -> list[list[int]]:
        """For each row, the columns with a nonzero in it; built once per LP."""
        out: list[list[int]] = [[] for _ in self.rows]
        for j, column in enumerate(self.columns):
            for i in column:
                out[i].append(j)
        return out


def mdp_to_primal(mdp: Mdp, sink: int) -> LinearProgram:
    """Max-form flow LP over the non-sink states.

    Every action at the sink must be a probability-1 zero-reward self-loop;
    the sink's row and columns are dropped.
    """
    for aid in mdp.state_actions[sink]:
        act = mdp.actions[aid]
        if act.transitions != {sink: ONE} or act.reward != 0:
            raise NoSinkError(f"state {mdp.state_names[sink]} is not an absorbing zero-reward sink")
    rows = [s for s in range(mdp.num_states) if s != sink]
    if not rows:
        raise LpError(f"the MDP has no state besides the sink {mdp.state_names[sink]}")
    row_of = {s: i for i, s in enumerate(rows)}
    cols = [aid for s in rows for aid in mdp.state_actions[s]]
    col_of = {aid: j for j, aid in enumerate(cols)}
    objective = []
    columns = []
    for aid in cols:
        act = mdp.actions[aid]
        column: dict[int, Fraction] = {row_of[act.state]: ONE}
        for target, p in act.transitions.items():
            if target == sink:
                continue
            i = row_of[target]
            column[i] = column.get(i, ZERO) - p
        columns.append({i: v for i, v in column.items() if v})
        objective.append(act.reward)
    n = len(rows)
    rhs = [Fraction(1, n)] * n
    return LinearProgram(mdp, sink, rows, row_of, cols, col_of, objective, columns, rhs)


@dataclass
class Basis:
    lp: LinearProgram
    cols: tuple[int, ...]  # one column index per row, in row order
    inv_cols: list[dict[int, Fraction]]  # column i of B^-1 as {pos: B^-1[pos][i]}
    # Kept from pivot to pivot; ``fresh_vectors`` is their oracle.
    x_b: list[Fraction]  # basic solution, per row position
    y: list[Fraction]  # duals, per row
    reduced: list[Fraction]  # reduced costs, per column

    def action_ids(self) -> frozenset[int]:
        return frozenset(self.lp.cols[j] for j in self.cols)

    def basic_solution(self) -> list[Fraction]:
        """x_B = B^-1 · rhs: each position's entries across the inverse's columns, summed, times 1/n.

        The right-hand side is uniformly 1/n, as ``mdp_to_primal`` builds it.
        """
        sums = [ZERO] * len(self.cols)
        for column in self.inv_cols:
            for pos, v in column.items():
                sums[pos] += v
        share = self.lp.rhs[0]
        return [share * v for v in sums]

    def direction(self, col: int) -> list[Fraction]:
        """The entering direction B^-1 · a_col: a combination of the inverse's columns at a_col's rows."""
        out = [ZERO] * len(self.cols)
        for i, a in self.lp.columns[col].items():
            for pos, v in self.inv_cols[i].items():
                out[pos] += v if a == 1 else a * v
        return out


Kept = tuple[list[Fraction], list[Fraction], list[Fraction]]  # x_B, y, reduced costs


def make_basis(lp: LinearProgram, cols: Sequence[int], kept: Kept | None = None) -> Basis:
    """The basis of ``cols``: its inverse, and ``kept`` or, without it, ``fresh_vectors``."""
    if len(cols) != lp.num_rows:
        raise LpError(f"basis needs {lp.num_rows} columns, got {len(cols)}")
    try:
        inv_cols = inverse([lp.columns[j] for j in cols])  # the rows of Bᵀ are the basis columns
    except SingularMatrixError as exc:
        raise SingularBasisError(f"dependent basis columns: {exc}") from exc
    basis = Basis(lp, tuple(cols), inv_cols, [], [], [])
    basis.x_b, basis.y, basis.reduced = kept if kept is not None else fresh_vectors(basis)
    return basis


def basis_from_policy(lp: LinearProgram, policy: Policy) -> Basis:
    """The basis of the policy's chosen columns, in row (state) order, its vectors fresh."""
    cols = []
    for s in lp.rows:
        aid = policy.choice[s]
        if aid not in lp.col_of:
            raise LpError(f"policy's action at state {s} is not an LP column")
        cols.append(lp.col_of[aid])
    return make_basis(lp, cols)


def dual_and_reduced_costs(lp: LinearProgram, basis: Basis) -> tuple[list[Fraction], list[Fraction]]:
    """Dual solution y (per row) and reduced costs (per column) of the basis, from scratch."""
    # y = B^-T · c_B: y[i] is column i of B^-1 against the basic objective.
    c_b = [lp.objective[j] for j in basis.cols]
    y = [sum((c_b[p] * v for p, v in column.items() if c_b[p]), ZERO) for column in basis.inv_cols]
    reduced = []
    for j in range(lp.num_cols):
        acc = lp.objective[j]
        for i, v in lp.columns[j].items():
            acc -= v * y[i]
        reduced.append(acc)
    return y, reduced


def fresh_vectors(basis: Basis) -> Kept:
    """x_B, y and the reduced costs of the basis, computed from scratch."""
    return (basis.basic_solution(), *dual_and_reduced_costs(basis.lp, basis))


@dataclass
class SimplexStep:
    basis: Basis
    entering: int  # column index
    leaving: int  # column index
    reduced_cost: Fraction


def simplex_dantzig_step(
    lp: LinearProgram,
    basis: Basis,
    pick: Picker,
) -> SimplexStep | None:
    """One largest-reduced-cost pivot, or None at optimality.

    It reads the basis's kept reduced costs and basic solution, and the
    next basis carries its own, updated from this pivot.  ``pick`` is the
    tie picker (``TieBreak.picker``), made once per lockstep and applied to
    (state, action) pairs as the engine applies its own.  The ratio test
    must have a unique minimizer, and the leaving column must be the basic
    action at the entering column's state; both are structural facts here,
    so their failure aborts loudly rather than falling back to an
    anti-cycling rule.
    """
    actions = lp.mdp.actions
    best: Fraction | None = None
    candidates: list[tuple[int, int]] = []
    for j, rc in enumerate(basis.reduced):
        if rc.numerator <= 0:  # the sign, exactly: a Fraction's denominator is positive
            continue
        if best is None or rc > best:
            best = rc
            candidates = [(actions[lp.cols[j]].state, lp.cols[j])]
        elif rc == best:
            candidates.append((actions[lp.cols[j]].state, lp.cols[j]))
    if best is None:
        return None
    state, aid = pick(candidates)
    entering = lp.col_of[aid]

    direction = basis.direction(entering)
    x_b = basis.x_b
    best_ratio: Fraction | None = None
    leaving_pos: int | None = None
    tie_count = 0
    for pos, d in enumerate(direction):
        if d.numerator <= 0:
            continue
        ratio = x_b[pos] / d
        if best_ratio is None or ratio < best_ratio:
            best_ratio = ratio
            leaving_pos = pos
            tie_count = 1
        elif ratio == best_ratio:
            tie_count += 1
    if leaving_pos is None:
        raise UnboundedDirectionError("entering column has no positive direction entry")
    if tie_count > 1:
        raise DegenerateLeavingError("ratio test minimizer is not unique")
    leaving = basis.cols[leaving_pos]
    enter_state = actions[aid].state
    leave_state = actions[lp.cols[leaving]].state
    if enter_state != leave_state:
        raise PivotInvariantError(
            f"leaving column lives at state {leave_state}, entering at {enter_state}"
        )
    return SimplexStep(
        _pivot(lp, basis, entering, leaving_pos, direction, best_ratio, best), entering, leaving, best
    )


def _pivot(
    lp: LinearProgram,
    basis: Basis,
    entering: int,
    r: int,
    direction: Sequence[Fraction],
    theta: Fraction,
    rc: Fraction,
) -> Basis:
    """The basis with ``entering`` at position r, its kept vectors updated, not recomputed."""
    x_b = list(basis.x_b)
    for pos, d in enumerate(direction):
        if d:
            x_b[pos] -= theta * d
    x_b[r] = theta
    inv_r = {i: column[r] for i, column in enumerate(basis.inv_cols) if r in column}  # B^-1[r]
    factor = rc / direction[r]
    y = list(basis.y)
    for i, v in inv_r.items():
        y[i] += factor * v
    reduced = list(basis.reduced)
    for j in {j for i in inv_r for j in lp.row_cols[i]}:
        acc = lp.objective[j]
        for i, v in lp.columns[j].items():
            acc -= v * y[i]
        reduced[j] = acc
    cols = list(basis.cols)
    cols[r] = entering
    return make_basis(lp, cols, (x_b, y, reduced))


@dataclass
class EquivalenceReport:
    iterations: list[dict] = field(default_factory=list)
    ok: bool = True
    first_divergence: int | None = None
    pivots: int = 0
    run: PIResult | None = None  # the audited run, when the checker drove it

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pivots": self.pivots,
            "first_divergence": self.first_divergence,
            "iterations": self.iterations,
        }


class Lockstep:
    """Watcher that mirrors every switch of a run with one simplex pivot.

    At each switch, and once more at the final policy (``finish``), it
    compares exactly: the basis equals the policy's chosen columns, the
    dual solution equals the state values, every reduced cost equals the
    appeal the run computed for that action, and the pivot enters the
    switched-in action, drops the switched-out one and has the switch's
    appeal as its reduced cost (at the final policy: no pivot at all).
    The duals and reduced costs it compares are the basis's kept ones, so
    at the final policy it also recomputes x_B, y and the reduced costs
    from scratch, and a difference from the kept ones fails that
    iteration.  A mismatch is recorded, and the first one marks the
    report, but the lockstep keeps pivoting on its own basis and
    comparing; once the two sides cannot both move on, it stops.
    """

    def __init__(self, mdp: Mdp, policy: Policy, sink: int, *, tie: TieBreak = TieBreak()):
        self.lp = mdp_to_primal(mdp, sink)
        self.basis = basis_from_policy(self.lp, policy)
        self.pick = tie.picker()
        self.report = EquivalenceReport()
        self.stopped = False

    def finish(self, result: PIResult) -> EquivalenceReport:
        self(None, result.policy, result.values, result.appeals)
        return self.report

    def __call__(
        self, event: TraceEvent | None, policy: Policy, values: Sequence[Fraction], gains: Sequence[Fraction]
    ) -> None:
        """Compare at one switch, or at the final policy when ``event`` is None."""
        if self.stopped:
            return
        lp, basis, report = self.lp, self.basis, self.report
        iteration = len(report.iterations)
        y, reduced = basis.y, basis.reduced
        entry: dict = {
            "iteration": iteration,
            "basis_match": basis.action_ids() == frozenset(policy.choice[s] for s in lp.rows),
            "dual_match": same(y, [values[s] for s in lp.rows]) and values[lp.sink] == 0,
            "reduced_cost_match": same(reduced, [gains[a] for a in lp.cols]),
        }
        step = simplex_dantzig_step(lp, basis, self.pick)
        if event is None or step is None:
            entry["same_entering"] = event is None and step is None
        else:
            entry["same_entering"] = (
                lp.cols[step.entering] == event.new_action
                and lp.cols[step.leaving] == event.old_action
                and step.reduced_cost == event.appeal
            )
        entry["ok"] = all(
            entry[k] for k in ("basis_match", "dual_match", "reduced_cost_match", "same_entering")
        )
        if event is None:
            entry["ok"] &= (basis.x_b, y, reduced) == fresh_vectors(basis)
        report.iterations.append(entry)
        if not entry["ok"] and report.first_divergence is None:
            report.ok = False
            report.first_divergence = iteration
        if event is None or step is None:
            self.stopped = True
            return
        self.basis = step.basis
        report.pivots += 1


def check_pi_simplex_equivalence(
    mdp: Mdp,
    policy: Policy,
    sink: int,
    *,
    tie: TieBreak = TieBreak(),
    budget: int,
    watchers: Iterable[Watcher] = (),
) -> EquivalenceReport:
    """Run greedy policy iteration once, with a ``Lockstep`` auditing that run.

    At every switch, and at the final policy, the lockstep compares its own
    basis, duals, reduced costs and pivot with what the run hands it, and at
    the final policy its kept vectors with a from-scratch solve; its ties
    come from its own picker, made from the same ``tie`` as the run's.
    ``watchers`` go to the same run, ahead of the lockstep, and the report
    keeps the run as ``run``.
    """
    lockstep = Lockstep(mdp, policy, sink, tie=tie)
    result = run_policy_iteration(mdp, policy, tie=tie, budget=budget, watchers=[*watchers, lockstep])
    report = lockstep.finish(result)
    report.run = result
    return report


def lp_to_text(lp: LinearProgram) -> str:
    """Human-readable max-form rendering with exact fraction coefficients."""
    lines = ["Maximize"]
    terms = " + ".join(
        f"{format_rational(c)} x{j}" for j, c in enumerate(lp.objective) if c
    )
    lines.append(f" obj: {terms if terms else '0'}")
    lines.append("Subject To")
    by_row: list[list[str]] = [[] for _ in range(lp.num_rows)]
    for j in range(lp.num_cols):
        for i, v in sorted(lp.columns[j].items()):
            sign = "+" if v > 0 else "-"
            by_row[i].append(f"{sign} {format_rational(abs(v))} x{j}")
    for i, parts in enumerate(by_row):
        lines.append(f" r{i}: {' '.join(parts)} = {format_rational(lp.rhs[i])}")
    lines.append("Bounds")
    lines.append(" x >= 0")
    lines.append("End")
    return "\n".join(lines) + "\n"


def lp_manifest(lp: LinearProgram) -> dict:
    return {
        "rows": [lp.mdp.state_names[s] for s in lp.rows],
        "rhs": [format_rational(v) for v in lp.rhs],
        "columns": [
            {
                "action": lp.mdp.actions[aid].name,
                "objective": format_rational(lp.objective[j]),
                "entries": {str(i): format_rational(v) for i, v in sorted(lp.columns[j].items())},
            }
            for j, aid in enumerate(lp.cols)
        ],
    }
