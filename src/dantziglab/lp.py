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
the LP, so ``numerics.inverse`` on those columns gives (Bᵀ)⁻¹, whose rows
are exactly these columns.  The basis is I - Pᵀ on the non-sink states, so
its inverse is the transpose of Σ Pᵏ, the fundamental matrix of the
absorbing chain: column i holds position j exactly when row j's state is
reachable from row i's state under the policy.  Every basis a run visits
must come from a policy that is acyclic apart from self-loops, and
``make_basis`` checks it: Bᵀ is then triangular under a permutation and
``inverse`` substitutes in singleton order without elimination, a hop or a
detour column making its state's inverse column a copy of its target's
plus one entry (see ``numerics``).  A basis with no singleton order, whose
policy has a cycle, raises ``SingularBasisError``.
The entering direction combines the two or three inverse columns at the
entering column's nonzero rows, and keeps only its nonzeros: the ratio
test and the x_B update walk that support, never a dense vector.

A basis also keeps its basic solution x_B, its duals y and its reduced
costs.  Only the start basis computes them from scratch, with
``Basis.basic_solution`` (each position's entries summed across the
inverse's columns, times the uniform right-hand side 1/n) and
``dual_and_reduced_costs``.  Every pivot then carries them over by the
revised-simplex update (Dantzig & Orchard-Hays 1954): with d the entering
direction, r the leaving position, θ = x_r/d_r and rc_q the entering
reduced cost, x_B' = x_B − θ·d with x_r' = θ, y' = y + (rc_q/d_r)·B⁻¹[r],
and only the columns with a nonzero in a row where y changed get their
reduced cost recomputed.  The basis also keeps its positive map, each
column of positive reduced cost with its ``numerics.keyed`` selection
key, as the engine keeps its positive appeals; a pivot re-keys only the
columns it recomputes, and the next pivot picks the largest reduced cost
and its ties from the map alone by ``numerics.greedy_top``, which compares
ints only.  A reduced cost of 0 is the shared ``ZERO``.

The pivot's arithmetic runs on int pairs.  The entering direction, a
column's reduced cost, the ratio test and the x_B and y updates read each
operand's ``as_integer_ratio()``, add and multiply numerators and
denominators as ints (numerators alone where two denominators are equal)
and build one normalizing ``Fraction`` per result, so every number handed
on is a Fraction.  The ratio test compares x_r/d_r by cross-multiplying,
its minimizer and tie check exact, and builds θ once.  The from-scratch
oracle (x_B, y and B⁻¹·B = I) runs on int pairs too, and still builds
one Fraction per entry of x_B and y, none for the check.  These kernels
are the LP side's own and share no helper with the engine it audits.

The lockstep compares each vector only where it moved.  It keeps tuple
snapshots of both sides of each comparison from the last time it passed,
and compares exactly the positions where either side's entry is not the
snapshot's object.  An entry neither side moved is the very pair that
comparison found equal, and a Fraction never changes, so the result is
that of the full comparison; a failure resets the snapshots to
sentinels, so the next comparison reads every entry, as the first does.

The inverse is carried too, with one ``inverse`` call per basis.  By the
same update column i of B⁻¹ loses (d − e_r)·B⁻¹[r][i]/d_r, so only the
columns of the states that reach the switched one change: about three per
pivot on the acceptance instances.  The pivot re-solves those and shares
every other column, never changed in place, with the basis before.  The
from-scratch computations stay as the oracle: at the final policy the
lockstep checks Bᵀ·X = I exactly against the LP's own columns, recomputes
all three vectors and the positive map, and counts any failure or
difference as a divergence.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import is_not

from .mdp import Mdp, PIResult, Picker, Policy, TieBreak, TraceEvent, Watcher, run_policy_iteration
# The LP side never evaluates a policy.  The alias stays importable only
# because the benchmark's tracer test (perfbench/test_harness.py) restores
# it by name; it goes when that test is mended.
from .mdp import evaluate_values  # noqa: F401
from .numerics import ONE, ZERO, Key, SingularMatrixError, format_rational, greedy_top, inverse, keyed, positive_keys


class LpError(ValueError):
    pass


class NoSinkError(LpError):
    """The designated sink is not an absorbing zero-reward state."""


class SingularBasisError(LpError):
    """A policy's columns have no singleton order: its policy graph has a cycle, transient or trapped."""


def _sum(n: int, d: int, un: int, ud: int) -> tuple[int, int]:
    """``n/d + un/ud`` as an unreduced int pair, adding the numerators alone when the denominators are equal."""
    return (n + un, d) if d == ud else (n * ud + un * d, d * ud)


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
        own = act.state
        column: dict[int, Fraction] = {row_of[own]: ONE}
        for target, p in act.transitions.items():
            if target != sink:
                column[row_of[target]] = ONE - p if target == own else -p
        columns.append({i: v for i, v in column.items() if v})
        objective.append(act.reward)
    n = len(rows)
    rhs = [Fraction(1, n)] * n
    return LinearProgram(mdp, sink, rows, row_of, cols, col_of, objective, columns, rhs)


@dataclass
class Basis:
    lp: LinearProgram
    cols: tuple[int, ...]  # one column index per row, in row order
    inv_cols: list[dict[int, Fraction]]  # column i of B^-1 as {pos: B^-1[pos][i]}, never changed in place
    # Kept from pivot to pivot; ``fresh_vectors`` and ``positive_keys`` are their oracle.
    x_b: list[Fraction]  # basic solution, per row position
    y: list[Fraction]  # duals, per row
    reduced: list[Fraction]  # reduced costs, per column
    positive: dict[int, Key]  # each column of positive reduced cost -> keyed(rc)

    def basic_solution(self) -> list[Fraction]:
        """x_B = B^-1 · rhs: each position's entries across the inverse's columns, summed, times 1/n.

        The right-hand side is uniformly 1/n, as ``mdp_to_primal`` builds it.  The sums are int pairs.
        """
        sums = [(0, 1)] * len(self.cols)
        for column in self.inv_cols:
            for pos, v in column.items():
                sums[pos] = _sum(*sums[pos], *v.as_integer_ratio())
        sn, sd = self.lp.rhs[0].as_integer_ratio()
        return [Fraction(n * sn, d * sd) for n, d in sums]

    def inverts(self) -> bool:
        """Bᵀ·X = I exactly: B^-1 · a_j, as int pairs, is e_p for the basic column j at each position p."""
        for p, j in enumerate(self.cols):
            pairs = self._combined(j)
            n, d = pairs.pop(p, (0, 1))
            if n != d or any(other for other, _ in pairs.values()):
                return False
        return True

    def direction(self, col: int) -> dict[int, Fraction]:
        """The entering direction B^-1 · a_col over its support: the inverse's columns at a_col's rows, combined.

        An entry that cancels to 0 is left out.
        """
        return {pos: Fraction(n, d) for pos, (n, d) in self._combined(col).items() if n}

    def _combined(self, col: int) -> dict[int, tuple[int, int]]:
        """B^-1 · a_col as unreduced int pairs, one per position any of the combined columns holds."""
        out: dict[int, tuple[int, int]] = {}
        for i, a in self.lp.columns[col].items():
            an, ad = a.as_integer_ratio()
            for pos, v in self.inv_cols[i].items():
                n, d = v.as_integer_ratio()
                out[pos] = _sum(*out[pos], n * an, d * ad) if pos in out else (n * an, d * ad)
        return out


class _BasicColumns(Sequence):
    """The basis columns in row order, the rows of Bᵀ, each read from the LP only where ``inverse`` reads it."""

    def __init__(self, lp: LinearProgram, cols: tuple[int, ...]):
        self.columns, self.cols = lp.columns, cols

    def __len__(self) -> int:
        return len(self.cols)

    def __getitem__(self, p: int) -> dict[int, Fraction]:
        return self.columns[self.cols[p]]


# x_B, y, the reduced costs and the positive map
Kept = tuple[list[Fraction], list[Fraction], list[Fraction], dict[int, Key]]


def make_basis(
    lp: LinearProgram,
    cols: Sequence[int],
    kept: Kept | None = None,
    known: list[dict[int, Fraction] | None] | None = None,
    rows: Iterable[int] | None = None,
) -> Basis:
    """The basis of ``cols``: its inverse, and ``kept`` or, without it, ``fresh_vectors`` and ``positive_keys``.

    ``known`` (the inverse's columns carried over) and ``rows`` (the positions to re-solve) go to ``inverse``.
    """
    if len(cols) != lp.num_rows:
        raise LpError(f"basis needs {lp.num_rows} columns, got {len(cols)}")
    cols = tuple(cols)
    try:
        inv_cols = inverse(_BasicColumns(lp, cols), known=known, rows=rows)
    except SingularMatrixError as exc:
        raise SingularBasisError(f"the basis's policy has a cycle: {exc}") from exc
    basis = Basis(lp, cols, inv_cols, [], [], [], {})
    if kept is None:
        x_b, y, reduced = fresh_vectors(basis)
        kept = x_b, y, reduced, positive_keys(reduced)
    basis.x_b, basis.y, basis.reduced, basis.positive = kept
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


def _reduced_cost(lp: LinearProgram, j: int, y: Sequence[Fraction]) -> Fraction:
    """Column j's reduced cost c_j - a_j · y against the duals y; 0 is the shared ``ZERO``."""
    n, d = lp.objective[j].as_integer_ratio()
    for i, v in lp.columns[j].items():
        an, ad = v.as_integer_ratio()
        yn, yd = y[i].as_integer_ratio()
        n, d = _sum(n, d, -an * yn, ad * yd)
    return Fraction(n, d) if n else ZERO


def dual_and_reduced_costs(lp: LinearProgram, basis: Basis) -> tuple[list[Fraction], list[Fraction]]:
    """Dual solution y (per row) and reduced costs (per column) of the basis, from scratch, on int pairs."""
    # y = B^-T · c_B: y[i] is column i of B^-1 against the basic objective.
    c_b = [lp.objective[j].as_integer_ratio() for j in basis.cols]
    y = []
    for column in basis.inv_cols:
        n, d = 0, 1
        for p, v in column.items():
            cn, cd = c_b[p]
            if cn:
                vn, vd = v.as_integer_ratio()
                n, d = _sum(n, d, cn * vn, cd * vd)
        y.append(Fraction(n, d) if n else ZERO)
    return y, [_reduced_cost(lp, j, y) for j in range(lp.num_cols)]


def fresh_vectors(basis: Basis) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
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

    It reads the basis's kept positive map and basic solution, and the next
    basis carries its own, updated from this pivot.  ``numerics.greedy_top``
    finds the largest reduced cost and the columns that share it, the
    candidates, comparing ints only; the step's reduced cost is the kept
    Fraction itself.  ``pick`` is the
    tie picker (``TieBreak.picker``), made once per lockstep and applied to
    (state, action) pairs as the engine applies its own, in any order.  The
    ratio test reads only the direction's support; it must have a unique
    minimizer, and the leaving column must be the basic action at the
    entering column's state.  Both are structural facts here, so their
    failure aborts loudly rather than falling back to an anti-cycling rule.
    """
    actions = lp.mdp.actions
    if not basis.positive:
        return None
    best, columns = greedy_top(basis.positive)
    state, aid = pick([(actions[lp.cols[j]].state, lp.cols[j]) for j in columns])
    entering = lp.col_of[aid]

    direction = basis.direction(entering)
    leaving_pos, theta = _ratio_test(direction, basis.x_b)
    leaving = basis.cols[leaving_pos]
    enter_state = actions[aid].state
    leave_state = actions[lp.cols[leaving]].state
    if enter_state != leave_state:
        raise LpError(f"leaving column lives at state {leave_state}, entering at {enter_state}")
    return SimplexStep(
        _pivot(lp, basis, entering, leaving_pos, direction, theta, best), entering, leaving, best
    )


def _ratio_test(direction: dict[int, Fraction], x_b: Sequence[Fraction]) -> tuple[int, Fraction]:
    """The leaving position r, the unique minimizer of x_B[r]/d_r over d's positive entries, and θ = x_B[r]/d_r.

    Each ratio is the pair (x_n·d_d, x_d·d_n) with a positive denominator, so two compare exactly cross-multiplied.
    """
    r = ties = bn = 0
    bd = 1
    for pos, d in direction.items():
        dn, dd = d.as_integer_ratio()
        if dn <= 0:
            continue
        xn, xd = x_b[pos].as_integer_ratio()
        n, q = xn * dd, xd * dn
        if not ties or n * bd < bn * q:
            r, ties, bn, bd = pos, 1, n, q
        elif n * bd == bn * q:
            ties += 1
    if not ties:
        raise LpError("entering column has no positive direction entry")
    if ties > 1:
        raise LpError("ratio test minimizer is not unique")
    return r, Fraction(bn, bd)


def _pivot(
    lp: LinearProgram,
    basis: Basis,
    entering: int,
    r: int,
    direction: dict[int, Fraction],
    theta: Fraction,
    rc: Fraction,
) -> Basis:
    """The basis with ``entering`` at position r, its kept vectors and positive map updated, not recomputed."""
    tn, td = theta.as_integer_ratio()
    x_b = list(basis.x_b)
    for pos, d in direction.items():
        dn, dd = d.as_integer_ratio()
        x_b[pos] = Fraction(*_sum(*x_b[pos].as_integer_ratio(), -tn * dn, td * dd))
    x_b[r] = theta
    inv_r = {i: column[r] for i, column in enumerate(basis.inv_cols) if r in column}  # B^-1[r]
    (rn, rd), (dn, dd) = rc.as_integer_ratio(), direction[r].as_integer_ratio()
    fn, fd = rn * dd, rd * dn  # rc/d_r
    y = list(basis.y)
    for i, v in inv_r.items():
        vn, vd = v.as_integer_ratio()
        y[i] = Fraction(*_sum(*y[i].as_integer_ratio(), fn * vn, fd * vd))
    reduced = list(basis.reduced)
    positive = dict(basis.positive)
    for j in {j for i in inv_r for j in lp.row_cols[i]}:
        reduced[j] = value = _reduced_cost(lp, j, y)
        if value.numerator > 0:
            positive[j] = keyed(value)
        else:
            positive.pop(j, None)
    cols = list(basis.cols)
    cols[r] = entering
    # Column i of B^-1 changes exactly when row i's state reaches r's (B^-1[r][i] != 0).
    # Position p's column is nonzero only at row p and p's targets' rows, so the
    # positions whose columns meet a changed inverse column are these same indices.
    known: list[dict[int, Fraction] | None] = list(basis.inv_cols)
    for i in inv_r:
        known[i] = None
    return make_basis(lp, cols, (x_b, y, reduced, positive), known, inv_r)


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
    at the final policy it also recomputes x_B, y, the reduced costs and
    the positive map from scratch, and a difference from the kept ones
    fails that iteration.  A mismatch is recorded, and the first one marks
    the report, but the lockstep keeps pivoting on its own basis and
    comparing; once the two sides cannot both move on, it stops.
    """

    def __init__(self, mdp: Mdp, policy: Policy, sink: int, *, tie: TieBreak = TieBreak()):
        self.lp = mdp_to_primal(mdp, sink)
        self.basis = basis_from_policy(self.lp, policy)
        self.pick = tie.picker()
        self.report = EquivalenceReport()
        self.stopped = False
        # One shared sentinel, repeated at every index of both vectors: no entry handed in is it.
        self.unseen = ((object(),) * len(mdp.actions),) * 2
        self.seen = {"dual": self.unseen, "reduced_cost": self.unseen}

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
        entry: dict = {
            "iteration": iteration,
            "basis_match": tuple(map(lp.cols.__getitem__, basis.cols))
            == tuple(map(policy.choice.__getitem__, lp.rows)),
            "dual_match": self._agrees("dual", basis.y, values, lp.rows, lp.row_of) and values[lp.sink] == 0,
            "reduced_cost_match": self._agrees("reduced_cost", basis.reduced, gains, lp.cols, lp.col_of),
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
            fresh = fresh_vectors(basis)
            kept = (basis.x_b, basis.y, basis.reduced)
            entry["ok"] &= basis.inverts() and kept == fresh and basis.positive == positive_keys(fresh[2])
        report.iterations.append(entry)
        if not entry["ok"] and report.first_divergence is None:
            report.ok = False
            report.first_divergence = iteration
        if event is None or step is None:
            self.stopped = True
            return
        self.basis = step.basis
        report.pivots += 1

    def _agrees(
        self, name: str, ours: Sequence[Fraction], theirs: Sequence[Fraction], index: list[int], position: dict
    ) -> bool:
        """``ours[p] == theirs[index[p]]`` at every LP position p, compared only where either side moved.

        An entry moved when it is not the object in the snapshot of the
        last comparison that passed; ``position`` maps the run's indices
        back to LP positions.  A failure resets the snapshots to sentinels.
        """
        seen_ours, seen_theirs = self.seen[name]
        moved = set(compress(count(), map(is_not, ours, seen_ours)))
        moved.update(position[i] for i in compress(count(), map(is_not, theirs, seen_theirs)) if i in position)
        ok = [ours[p] for p in moved] == [theirs[index[p]] for p in moved]
        self.seen[name] = (tuple(ours), tuple(theirs)) if ok else self.unseen
        return ok


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
