from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import policy_graph_is_acyclic
from hypothesis import assume, given, settings, strategies as st

from dantziglab.circuit import negated_form, normalize_depths
from dantziglab.cli import main
from dantziglab.construction import (
    bound_w,
    build_clock,
    build_construction,
    build_construction_z,
    clock_initial_policy,
    derive_params,
    initial_policy,
)
from dantziglab.library import constant_zero_circuit, identity_circuit, rotation_circuit, writer_machine
from dantziglab.lp import (
    Lockstep,
    LpError,
    NoSinkError,
    SingularBasisError,
    _pivot,
    _ratio_test,
    _reduced_cost,
    basis_from_policy,
    check_pi_simplex_equivalence,
    dual_and_reduced_costs,
    fresh_vectors,
    lp_manifest,
    lp_to_text,
    mdp_to_primal,
    simplex_dantzig_step,
)
from dantziglab.mdp import (
    Mdp,
    TieBreak,
    add_gadget,
    appeals,
    evaluate_values,
    fresh_value_check,
    make_policy,
    parse_tiebreak,
    run_policy_iteration,
)
from dantziglab.numerics import ZERO, inverse, positive_keys
from dantziglab.turing import compile_machine

ONE = Fraction(1)


def objective_value(lp, basis):
    """c_B · x_B: the objective at the basis's basic solution."""
    x = basis.basic_solution()
    return sum((lp.objective[j] * x[pos] for pos, j in enumerate(basis.cols)), start=Fraction(0))


def tiny_mdp():
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    s = m.add_state("s")
    low = m.add_action(s, {sink: ONE}, 1)
    high = m.add_action(s, {sink: ONE}, 4)
    return m, sink, s, low, high


def test_primal_shape_smallest_case():
    m, sink, s, low, high = tiny_mdp()
    lp = mdp_to_primal(m, sink)
    assert lp.num_rows == 1 and lp.num_cols == 2
    assert lp.rhs == [Fraction(1, 1)]
    assert lp.columns[0] == {0: ONE}
    assert lp.objective == [1, 4]


def test_no_sink_rejected():
    m = Mdp()
    s = m.add_state()
    m.add_action(s, {s: ONE}, 1)  # rewarded loop is not a sink
    with pytest.raises(NoSinkError):
        mdp_to_primal(m, s)


def test_sink_only_mdp_rejected():
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    with pytest.raises(LpError, match="no state besides the sink"):
        mdp_to_primal(m, sink)


def test_detour_column_entry_is_p_at_its_own_row():
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    s = m.add_state("s")
    t = m.add_state("t")
    m.add_action(t, {sink: ONE}, 0)
    m.add_action(s, {sink: ONE}, 0)
    gadget = add_gadget(m, s, t, 0, 0, Fraction(1, 3))
    lp = mdp_to_primal(m, sink)
    col = lp.columns[lp.col_of[gadget]]
    # Row of s carries 1 - (1 - p) = p; the hop row carries -p.
    assert col[lp.row_of[s]] == Fraction(1, 3)
    assert col[lp.row_of[m.num_states - 1]] == -Fraction(1, 3)


def test_construction_primal_dimensions():
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    assert lp.num_rows == cons.mdp.num_states - 1
    sink_actions = len(cons.mdp.state_actions[cons.index.si()])
    assert lp.num_cols == cons.mdp.num_actions - sink_actions


def _plain_and_decision(circuit, z):
    negated = negated_form(normalize_depths(circuit))
    return [build_construction(negated), build_construction_z(negated, z, w=bound_w(derive_params(negated)))]


def _writer_plain_and_decision():
    circuit, _, z = compile_machine(writer_machine(), (), 1)
    return _plain_and_decision(circuit, z)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda circuit=circuit: _plain_and_decision(circuit, 1), id=name)
        for name, circuit in (
            ("identity2", identity_circuit(2)),
            ("const0_2", constant_zero_circuit(2)),
            ("rot2", rotation_circuit(2)),
            ("rot3", rotation_circuit(3)),
        )
    ]
    + [pytest.param(lambda: [build_clock(n) for n in range(1, 6)], id="clock1-5")]
    + [pytest.param(_writer_plain_and_decision, id="writer")],
)
def test_every_primal_column_is_its_own_row_minus_its_transitions_off_the_sink(make):
    # Column of action a at state s: e_s - sum over targets t != sink of p(t) * e_t,
    # summed here with Fraction operators; entries that cancel to 0 are left out.
    for cons in make():
        sink = cons.index.si()
        lp = mdp_to_primal(cons.mdp, sink)
        assert lp.cols == [aid for s in lp.rows for aid in cons.mdp.state_actions[s]]
        for j, aid in enumerate(lp.cols):
            act = cons.mdp.actions[aid]
            expected = {lp.row_of[act.state]: Fraction(1)}
            for target, p in act.transitions.items():
                if target != sink:
                    row = lp.row_of[target]
                    expected[row] = expected.get(row, Fraction(0)) - p
            assert lp.columns[j] == {i: v for i, v in expected.items() if v != 0}, act.name


def test_initial_basis_is_feasible_and_triangular():
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    policy = initial_policy(cons, (1,))
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    x = basis.basic_solution()
    assert all(v >= 0 for v in x)
    # Permutable to triangular with nonzero diagonal == the chosen-action
    # graph has no cycle apart from self-loops.
    assert policy_graph_is_acyclic(cons.mdp, policy)


def test_two_state_probability_one_cycle_is_singular():
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    a_state = m.add_state("a")
    b_state = m.add_state("b")
    to_b = m.add_action(a_state, {b_state: ONE}, 0)
    to_a = m.add_action(b_state, {a_state: ONE}, 0)
    m.add_action(a_state, {sink: ONE}, 0)
    lp = mdp_to_primal(m, sink)
    policy = make_policy(m, [0, to_b, to_a])
    with pytest.raises(SingularBasisError):
        basis_from_policy(lp, policy)


def test_a_transient_two_cycle_basis_is_refused():
    # The cycle leaks to the sink, so its basis is nonsingular, but it has
    # no singleton order: no run's policy has a cycle, and the LP checks it.
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    a_state = m.add_state("a")
    b_state = m.add_state("b")
    to_b = m.add_action(a_state, {b_state: ONE}, 0)
    to_a = m.add_action(b_state, {a_state: Fraction(1, 2), sink: Fraction(1, 2)}, 0)
    lp = mdp_to_primal(m, sink)
    with pytest.raises(SingularBasisError, match=r"^the basis's policy has a cycle: no singleton order: "):
        basis_from_policy(lp, make_policy(m, [0, to_b, to_a]))


def test_dual_equals_values_and_reduced_costs_equal_appeals():
    cons = build_clock(2)
    policy = clock_initial_policy(cons)
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    y, reduced = dual_and_reduced_costs(lp, basis)
    values = evaluate_values(cons.mdp, policy)
    gains = appeals(cons.mdp, values)
    for s in lp.rows:
        assert y[lp.row_of[s]] == values[s]
    for j, aid in enumerate(lp.cols):
        assert reduced[j] == gains[aid]
    # Basic columns have zero reduced cost.
    for pos in basis.cols:
        assert reduced[pos] == 0


def test_pivot_matches_switch_and_objective_increases():
    cons = build_clock(2)
    policy = clock_initial_policy(cons)
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    tie = TieBreak()
    event = run_policy_iteration(cons.mdp, policy, tie=tie, budget=cons.budget()).trace[0]
    step = simplex_dantzig_step(lp, basis, tie.picker())
    assert step is not None
    assert lp.cols[step.entering] == event.new_action
    assert lp.cols[step.leaving] == event.old_action
    assert objective_value(lp, step.basis) > objective_value(lp, basis)


def test_optimum_returns_none_and_dual_feasible():
    m, sink, s, low, high = tiny_mdp()
    lp = mdp_to_primal(m, sink)
    basis = basis_from_policy(lp, make_policy(m, [0, high]))
    assert simplex_dantzig_step(lp, basis, TieBreak().picker()) is None
    y, reduced = dual_and_reduced_costs(lp, basis)
    assert all(rc <= 0 for rc in reduced)
    # Dual constraints: v_s - sum p(j|a) v_j >= r(a) for every action.
    for j, aid in enumerate(lp.cols):
        act = m.actions[aid]
        lhs = y[lp.row_of[act.state]] - sum(
            p * y[lp.row_of[t]] for t, p in act.transitions.items() if t != sink
        )
        assert lhs >= act.reward


def test_lockstep_trivial_two_state():
    m, sink, s, low, high = tiny_mdp()
    report = check_pi_simplex_equivalence(m, make_policy(m, [0, low]), sink, budget=10)
    assert report.ok and report.pivots == 1


@pytest.mark.parametrize("n", [2, 3])
def test_lockstep_clock(n):
    cons = build_clock(n)
    policy = clock_initial_policy(cons)
    report = check_pi_simplex_equivalence(
        cons.mdp, policy, cons.index.si(), budget=cons.budget()
    )
    assert report.ok
    assert report.pivots == 2**n - 1
    assert all(entry["ok"] for entry in report.iterations)


def _identity1_lockstep():
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    return check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, (1,)), cons.index.si(), budget=cons.budget()
    )


def test_lockstep_full_construction():
    report = _identity1_lockstep()
    assert report.ok
    assert report.first_divergence is None


def test_lockstep_bases_solve_their_systems_exactly(monkeypatch):
    # Every basis the identity1 lockstep visits, checked against the LP's own
    # sparse columns, objective and right-hand side: B·x_B = rhs, Bᵀ·y = c_B,
    # and B·d = a_q for the direction d of each pivot's entering column q.
    import dantziglab.lp as lp_module

    visited = []
    original = lp_module.simplex_dantzig_step

    def recording_step(lp, basis, *args):
        step = original(lp, basis, *args)
        visited.append((lp, basis, step))
        return step

    monkeypatch.setattr(lp_module, "simplex_dantzig_step", recording_step)
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    report = check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, (1,)), cons.index.si(), budget=cons.budget()
    )
    assert report.ok and report.pivots == 22
    assert len(visited) == 23 and visited[-1][2] is None

    def times_b(lp, basis, x):
        out = [Fraction(0)] * lp.num_rows
        for pos, j in enumerate(basis.cols):
            for i, v in lp.columns[j].items():
                out[i] += v * x[pos]
        return out

    def times_column(lp, y, j):
        return sum((v * y[i] for i, v in lp.columns[j].items()), start=Fraction(0))

    for lp, basis, step in visited:
        assert times_b(lp, basis, basis.basic_solution()) == lp.rhs
        y, reduced = dual_and_reduced_costs(lp, basis)
        for j in basis.cols:
            assert times_column(lp, y, j) == lp.objective[j]
        # The kept vectors, carried over from pivot to pivot, equal the
        # from-scratch ones and solve the same systems on their own.
        assert basis.x_b == basis.basic_solution()
        assert basis.y == y and basis.reduced == reduced
        assert times_b(lp, basis, basis.x_b) == lp.rhs
        for j in basis.cols:
            assert times_column(lp, basis.y, j) == lp.objective[j]
        for j in range(lp.num_cols):
            assert basis.reduced[j] == lp.objective[j] - times_column(lp, basis.y, j)
        if step is not None:
            a_q = [lp.columns[step.entering].get(i, Fraction(0)) for i in range(lp.num_rows)]
            # The direction holds its support only; read densely, a missing position is 0.
            support = basis.direction(step.entering)
            d = [support.get(pos, Fraction(0)) for pos in range(lp.num_rows)]
            assert times_b(lp, basis, d) == a_q
            assert step.basis.cols != basis.cols


def _reached_from(lp, basis):
    """For each basic row j, the rows whose states its state reaches under the basis's policy.

    Read from the raw MDP transitions of the basic actions, not from the LP
    columns; paths end at the sink.  Every row reaches itself.
    """
    mdp = lp.mdp
    step = {}
    for j in basis.cols:
        act = mdp.actions[lp.cols[j]]
        step[lp.row_of[act.state]] = [lp.row_of[t] for t in act.transitions if t != lp.sink]
    reached = []
    for start in range(lp.num_rows):
        seen = {start}
        stack = [start]
        while stack:
            for i in step[stack.pop()]:
                if i not in seen:
                    seen.add(i)
                    stack.append(i)
        reached.append(seen)
    return reached


def assert_inverse_pattern_is_reachability(lp, basis):
    # B = I - Pᵀ on the transient rows, so B⁻¹ = (Σ Pᵏ)ᵀ: a nonnegative sum in
    # which no entry cancels.  Column i holds key j exactly when row j's state
    # is reachable from row i's state; a stored zero or a lost nonzero fails.
    reached = _reached_from(lp, basis)
    assert len(basis.inv_cols) == lp.num_rows
    for i, column in enumerate(basis.inv_cols):
        assert set(column) == reached[i]
        assert all(v > 0 for v in column.values())


def _recording_lockstep(monkeypatch, circuit, bits, tie="lowest"):
    """The lockstep report of a plain construction, and every basis it visited, in order."""
    import dantziglab.lp as lp_module

    visited = []
    original = lp_module.simplex_dantzig_step

    def recording_step(lp, basis, *args):
        visited.append((lp, basis))
        return original(lp, basis, *args)

    monkeypatch.setattr(lp_module, "simplex_dantzig_step", recording_step)
    cons = build_construction(negated_form(normalize_depths(circuit)))
    report = check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, bits), cons.index.si(), tie=TieBreak(tie), budget=cons.budget()
    )
    return report, visited


def test_basis_inverse_holds_exactly_the_reachable_pairs(monkeypatch):
    report, visited = _recording_lockstep(monkeypatch, identity_circuit(1), (1,))
    assert report.ok and len(visited) == 23
    for lp, basis in visited:
        assert_inverse_pattern_is_reachability(lp, basis)

    # A sample of rot2's bases, rebuilt from the policies its run visits.
    cons = build_construction(negated_form(normalize_depths(rotation_circuit(2))))
    result = run_policy_iteration(cons.mdp, initial_policy(cons, (1, 1)), budget=cons.budget())
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    policies = result.policies()
    sample = [*policies[:-1:20], policies[-1]]
    assert len(sample) >= 10
    for policy in sample:
        assert_inverse_pattern_is_reachability(lp, basis_from_policy(lp, policy))


@pytest.mark.parametrize(
    "name, tie",
    [("identity2", "lowest"), ("identity2", "highest"), ("identity2", "random:3"), ("rot2", "lowest")],
)
def test_every_lockstep_basis_carries_the_inverse_a_fresh_solve_gives(monkeypatch, name, tie):
    # A pivot at position r re-solves exactly the inverse columns i with
    # B⁻¹[r][i] ≠ 0 and shares every other column, the same dict, with the
    # basis before it.  Read after the whole run, each basis's columns still
    # equal a from-scratch inverse of its own basic columns, so no later
    # pivot changed a shared column in place.
    circuit, bits = {"identity2": (identity_circuit(2), (1, 1)), "rot2": (rotation_circuit(2), (1, 1))}[name]
    report, visited = _recording_lockstep(monkeypatch, circuit, bits, tie)
    assert report.ok and len(visited) == report.pivots + 1
    resolved = 0
    for (lp, before), (_, after) in zip(visited, visited[1:]):
        (r,) = [p for p, (j, k) in enumerate(zip(before.cols, after.cols)) if j != k]
        for i, column in enumerate(before.inv_cols):
            assert (after.inv_cols[i] is column) is (r not in column)
        resolved += sum(r in column for column in before.inv_cols)
    assert resolved < report.pivots * lp.num_rows / 10
    for lp, basis in visited:
        assert basis.inv_cols == inverse([lp.columns[j] for j in basis.cols])


@pytest.mark.parametrize(
    "name, tie",
    [("identity2", "lowest"), ("identity2", "highest"), ("identity2", "random:3"), ("rot2", "lowest")],
)
def test_every_lockstep_basis_keeps_the_positive_map_a_fresh_pass_gives(monkeypatch, name, tie):
    # Each pivot re-keys only the columns whose reduced cost it recomputes;
    # at every basis the kept map still equals the one built from a
    # from-scratch reduced-cost pass, and it is empty only at the optimum.
    circuit, bits = {"identity2": (identity_circuit(2), (1, 1)), "rot2": (rotation_circuit(2), (1, 1))}[name]
    report, visited = _recording_lockstep(monkeypatch, circuit, bits, tie)
    assert report.ok and len(visited) == report.pivots + 1
    for lp, basis in visited:
        assert basis.positive == positive_keys(dual_and_reduced_costs(lp, basis)[1])
    assert all(basis.positive for _, basis in visited[:-1]) and not visited[-1][1].positive


def _identity1_lockstep_handed(hand):
    """The identity1 lockstep report, with each switch's values passed through ``hand(iteration, values)`` first."""
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    policy = initial_policy(cons, (1,))
    lockstep = Lockstep(cons.mdp, policy, cons.index.si())

    def watch(event, policy, values, gains):
        lockstep(event, policy, hand(event.iteration, values), gains)

    result = run_policy_iteration(cons.mdp, policy, budget=cons.budget(), watchers=[watch])
    return lockstep.finish(result), cons.index.si()


def test_lockstep_flags_a_value_put_back_to_the_object_before_the_switch():
    # At switch 5 one value the switch changed is handed as the very object
    # handed at switch 4.  The run's side did not move there, but the
    # lockstep's dual did, so that entry is compared and fails.
    k = 5
    handed = []

    def put_back(iteration, values):
        values = list(values)
        if iteration == k:
            before = handed[-1]
            s = next(s for s, (v, w) in enumerate(zip(values, before)) if v != w)
            values[s] = before[s]
        handed.append(values)
        return values

    report, _ = _identity1_lockstep_handed(put_back)
    assert report.ok is False and report.first_divergence == k
    entry = report.iterations[k]
    assert entry["dual_match"] is False
    assert entry["basis_match"] and entry["reduced_cost_match"] and entry["same_entering"]
    assert all(e["ok"] for i, e in enumerate(report.iterations) if i != k)


def test_lockstep_flags_a_mismatch_written_into_a_list_it_was_handed_before():
    # One list is handed at every switch, refreshed in place.  At switch 5 a
    # value that switch leaves alone is written over with a wrong one: a
    # snapshot that kept the handed list itself would change along with it
    # and see nothing move.
    k = 5
    shared = []
    last = []

    def in_place(iteration, values):
        if iteration == k:
            s = next(s for s in range(1, len(values)) if values[s] is last[s] and values[s] != 0)
        last[:] = values
        shared[:] = values
        if iteration == k:
            shared[s] = values[s] + 1
        return shared

    report, sink = _identity1_lockstep_handed(in_place)
    assert sink == 0
    assert report.ok is False and report.first_divergence == k
    assert report.iterations[k]["dual_match"] is False
    assert all(e["ok"] for e in report.iterations[:k])


def test_after_a_failing_comparison_the_next_reads_every_entry():
    # The same wrong object is handed at switches 5 and 6, for a state whose
    # value switches 4 to 7 leave alone, so neither side's entry moves
    # between those two comparisons.  Only because the failure at 5 resets
    # the snapshots does switch 6 compare that entry and fail too; at 7 the
    # right object is back and the comparison passes.
    k = 5
    recorded = []
    _identity1_lockstep_handed(lambda iteration, values: recorded.append(values) or values)
    s = next(
        s for s in range(1, len(recorded[k])) if all(recorded[i][s] is recorded[k][s] for i in range(k - 1, k + 3))
    )
    wrong = recorded[k][s] + 1

    def planted(iteration, values):
        if iteration in (k, k + 1):
            values = list(values)
            values[s] = wrong
        return values

    report, _ = _identity1_lockstep_handed(planted)
    assert report.first_divergence == k
    assert [e["dual_match"] for e in report.iterations[k - 1 : k + 3]] == [True, False, False, True]
    assert all(e["ok"] for i, e in enumerate(report.iterations) if i not in (k, k + 1))


def test_a_corrupted_carried_column_fails_the_final_oracle(tmp_path, monkeypatch):
    # The fifth pivot leaves its shortest inverse column doubled.  No later
    # pivot re-solves that column, and no comparison with the run reads it,
    # so only the final check, Bᵀ·X = I on the final basis, can see it.
    import dantziglab.lp as lp_module

    original = lp_module._pivot
    planted = []

    def corrupting(lp, *args):
        basis = original(lp, *args)
        planted.append(basis)
        if len(planted) == 5:
            i = min(range(lp.num_rows), key=lambda i: len(basis.inv_cols[i]))
            basis.inv_cols[i] = {pos: 2 * v for pos, v in basis.inv_cols[i].items()}
        return basis

    monkeypatch.setattr(lp_module, "_pivot", corrupting)
    cons = build_construction(negated_form(normalize_depths(identity_circuit(2))))
    report = check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, (1, 1)), cons.index.si(), budget=cons.budget()
    )
    assert report.pivots == 133 and len(report.iterations) == 134
    assert report.ok is False and report.first_divergence == 133
    final = report.iterations[133]
    assert final["basis_match"] and final["dual_match"] and final["reduced_cost_match"]
    assert final["same_entering"] and final["ok"] is False
    assert planted[-1].inverts() is False
    planted.clear()
    argv = ["verify", "--builtin", "identity2", "--bits", "11", "--which", "equivalence"]
    assert main([*argv, "--out", str(tmp_path)]) == 4


def test_final_oracle_flags_an_inverse_that_the_kept_vectors_cannot_see(monkeypatch):
    # One entry of the final inverse moves to another column, at a position
    # whose basic column has objective 0: every x_B sum, every dual and hence
    # every reduced cost stays the same, so the from-scratch vectors agree
    # with the kept ones, and only Bᵀ·X = I fails.
    import dantziglab.lp as lp_module

    original = lp_module.Lockstep.finish

    def moving(self, result):
        basis, lp = self.basis, self.lp
        i = next(i for i, j in enumerate(basis.cols) if lp.objective[j] == 0)
        other = (i + 1) % lp.num_rows
        column = dict(basis.inv_cols[i])
        moved = column.pop(i)
        target = dict(basis.inv_cols[other])
        target[i] = target.get(i, 0) + moved
        basis.inv_cols[i], basis.inv_cols[other] = column, target
        assert fresh_vectors(basis) == (basis.x_b, basis.y, basis.reduced)
        return original(self, result)

    monkeypatch.setattr(lp_module.Lockstep, "finish", moving)
    report = _identity1_lockstep()
    assert report.pivots == 22 and report.ok is False and report.first_divergence == 22
    assert all(e["ok"] for e in report.iterations[:22])


def test_feasibility_preserved_across_pivots():
    cons = build_clock(2)
    policy = clock_initial_policy(cons)
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    pick = TieBreak().picker()
    objective = objective_value(lp, basis)
    while True:
        assert all(v >= 0 for v in basis.basic_solution())
        step = simplex_dantzig_step(lp, basis, pick)
        if step is None:
            break
        assert objective_value(lp, step.basis) >= objective
        objective = objective_value(lp, step.basis)
        basis = step.basis


def test_an_exact_tie_under_one_shared_rule_keeps_both_sides_aligned():
    m, sink, s, low, high = tiny_mdp()
    mid = m.add_action(s, {sink: ONE}, 4)  # exact tie with `high`
    policy = make_policy(m, [0, low])
    report = check_pi_simplex_equivalence(m, policy, sink, tie=TieBreak(), budget=10)
    assert report.ok  # shared deterministic tie-break keeps them aligned


def test_lockstep_flags_a_run_made_under_another_tie_rule():
    # The run breaks the exact tie towards `high`, the lockstep towards `mid`.
    m, sink, s, low, high = tiny_mdp()
    mid = m.add_action(s, {sink: ONE}, 4)
    policy = make_policy(m, [0, low])
    lockstep = Lockstep(m, policy, sink, tie=TieBreak("highest"))
    result = run_policy_iteration(m, policy, tie=TieBreak(), budget=10, watchers=[lockstep])
    assert result.trace[0].new_action == high
    report = lockstep.finish(result)
    assert report.ok is False
    assert report.first_divergence == 0
    first = report.iterations[0]
    assert first["basis_match"] and first["dual_match"] and first["reduced_cost_match"]
    assert first["same_entering"] is False and first["ok"] is False
    # Recording goes on past the first divergence: the lockstep pivots to
    # `mid` and compares once more at the run's final policy.
    assert len(report.iterations) == 2 and report.pivots == 1
    assert not any(entry["ok"] for entry in report.iterations)


def test_lockstep_computes_reduced_costs_from_scratch_only_at_start_and_finish(monkeypatch):
    # Each pivot carries the duals and reduced costs over; only the start
    # basis and the final oracle compute them in full, whatever the pivot count.
    import dantziglab.lp as lp_module

    calls = []
    original = lp_module.dual_and_reduced_costs
    monkeypatch.setattr(
        lp_module, "dual_and_reduced_costs", lambda *args: calls.append(1) or original(*args)
    )
    for n in (2, 3):
        calls.clear()
        cons = build_clock(n)
        report = check_pi_simplex_equivalence(
            cons.mdp, clock_initial_policy(cons), cons.index.si(), budget=cons.budget()
        )
        assert report.ok and report.pivots == 2**n - 1
        assert len(calls) == 2
        assert len(report.run.trace) == report.pivots


@pytest.mark.parametrize("kept", ["dual", "reduced_cost"])
def test_lockstep_flags_a_pivot_update_that_perturbs_a_kept_vector(monkeypatch, kept):
    # The fifth pivot's update leaves one kept dual, or the reduced cost of
    # one basic column, off by 1; the comparison at the next switch must fail.
    import dantziglab.lp as lp_module

    pivots = []
    original = lp_module._pivot

    def perturbing(lp, *args):
        basis = original(lp, *args)
        pivots.append(basis)
        if len(pivots) == 5:
            if kept == "dual":
                basis.y[0] += 1
            else:
                basis.reduced[basis.cols[0]] -= 1
        return basis

    monkeypatch.setattr(lp_module, "_pivot", perturbing)
    report = _identity1_lockstep()
    assert report.pivots == 22
    assert report.ok is False and report.first_divergence == 5
    entry = report.iterations[5]
    assert entry["ok"] is False and entry["basis_match"] and entry["same_entering"]
    assert entry[f"{kept}_match"] is False
    assert all(e["ok"] for e in report.iterations[:5])


def test_final_oracle_flags_a_kept_vector_perturbed_after_the_last_switch(monkeypatch):
    # x_B is compared with nothing from the run, so only the from-scratch
    # recomputation at the final policy can see it go wrong.
    import dantziglab.lp as lp_module

    original = lp_module.Lockstep.finish

    def perturbing(self, result):
        self.basis.x_b[0] += 1
        return original(self, result)

    monkeypatch.setattr(lp_module.Lockstep, "finish", perturbing)
    report = _identity1_lockstep()
    assert report.pivots == 22 and len(report.iterations) == 23
    assert report.ok is False and report.first_divergence == 22
    final = report.iterations[22]
    assert final["basis_match"] and final["dual_match"] and final["reduced_cost_match"]
    assert final["same_entering"] and final["ok"] is False
    assert all(e["ok"] for e in report.iterations[:22])


def test_lockstep_stops_once_its_side_finds_no_pivot_but_the_run_goes_on(monkeypatch):
    # From switch k on the LP side finds no pivot while the run still
    # switches: switch k fails its comparison, the lockstep stops there, and
    # neither the later switches nor the final policy add an iteration.
    import dantziglab.lp as lp_module

    k = 5
    steps = []
    original = lp_module.simplex_dantzig_step

    def exhausted(*args):
        steps.append(1)
        return original(*args) if len(steps) <= k else None

    monkeypatch.setattr(lp_module, "simplex_dantzig_step", exhausted)
    report = _identity1_lockstep()
    assert report.ok is False and report.first_divergence == k
    assert report.pivots == k and len(report.iterations) == k + 1 and len(steps) == k + 1
    assert report.iterations[k]["same_entering"] is False
    assert all(e["ok"] for e in report.iterations[:k])
    assert report.run.iterations == 22 and max(report.run.appeals) <= 0


def test_lockstep_with_seeded_ties():
    # Two states with tied top appeals: both engines must draw the same
    # candidate from their same-seeded generators at every iteration.
    m = Mdp()
    sink = m.add_state("sink")
    m.add_action(sink, {sink: ONE}, 0)
    picks = {sink: 0}
    for name in ("u", "v", "w"):
        s = m.add_state(name)
        picks[s] = m.add_action(s, {sink: ONE}, 0)
        m.add_action(s, {sink: ONE}, 3)
    policy = make_policy(m, picks)
    for seed in (1, 2, 99):
        report = check_pi_simplex_equivalence(
            m, policy, sink, tie=TieBreak(f"random:{seed}"), budget=20
        )
        assert report.ok and report.pivots == 3


@pytest.mark.parametrize("tie", ["lowest", "highest", "random:3"])
def test_lockstep_passes_on_identity2_under_every_tie_rule(tie):
    # Both greedy pivots pick with ``numerics.greedy_top``, so the simplex
    # enters the run's action at the run's appeal at every switch; a zero
    # reduced cost is the shared ``ZERO``, as a zero appeal is.
    cons = build_construction(negated_form(normalize_depths(identity_circuit(2))))
    policy = initial_policy(cons, (1, 1))
    lockstep = Lockstep(cons.mdp, policy, cons.index.si(), tie=parse_tiebreak(tie))
    run = run_policy_iteration(
        cons.mdp, policy, tie=parse_tiebreak(tie), budget=cons.budget(), watchers=[lockstep]
    )
    report = lockstep.finish(run)
    assert report.ok and report.pivots == run.iterations > 0
    assert all(rc is ZERO for rc in lockstep.basis.reduced if not rc)
    assert all(appeal is ZERO for appeal in run.appeals if not appeal)


@st.composite
def funnel_mdps(draw):
    """A random MDP in which every policy funnels into the sink, state 0.

    State 0 is an absorbing zero-reward sink.  Every other state has one to
    three actions; each moves to one to three lower-numbered states and may
    stay put with some mass, never all of it.
    """
    n = draw(st.integers(2, 8))
    m = Mdp()
    for _ in range(n):
        m.add_state()
    m.add_action(0, {0: ONE}, 0)
    weights = st.integers(1, 4)
    for s in range(1, n):
        for _ in range(draw(st.integers(1, 3))):
            below = st.lists(st.integers(0, s - 1), min_size=1, max_size=3, unique=True)
            out = {t: draw(weights) for t in draw(below)}
            if draw(st.booleans()):
                out[s] = draw(weights)
            total = sum(out.values())
            m.add_action(s, {t: Fraction(w, total) for t, w in out.items()}, draw(st.integers(-5, 5)))
    return m


@settings(max_examples=100, deadline=None)
@given(funnel_mdps())
def test_lockstep_agrees_on_random_funnel_mdps(m):
    # The PI/simplex correspondence is not special to the construction:
    # on any MDP whose policies all funnel into the sink, the greedy run and
    # the largest-reduced-cost simplex pivot alike, under every tie rule.
    start = make_policy(m, [actions[0] for actions in m.state_actions])
    for tie in (TieBreak(), TieBreak("highest"), TieBreak("random:7")):
        report = check_pi_simplex_equivalence(
            m, start, 0, tie=tie, budget=1000, watchers=[fresh_value_check(m)]
        )
        assert report.ok and report.first_divergence is None, tie
        assert report.pivots == len(report.run.trace)


def big_rationals(low=-(2**70)):
    return st.builds(Fraction, st.integers(low, 2**70), st.integers(1, 2**70))


@st.composite
def splits(draw, parts):
    """``parts`` positive probabilities over one denominator up to 2^70, summing to 1: just 1 for one part."""
    denominator = draw(st.integers(max(parts, 2), 2**70))
    cuts = draw(st.lists(st.integers(1, denominator - 1), min_size=parts - 1, max_size=parts - 1, unique=True))
    bounds = [0, *sorted(cuts), denominator]
    return [Fraction(b - a, denominator) for a, b in zip(bounds, bounds[1:])]


@st.composite
def big_funnel_bases(draw):
    """A funnel MDP with sink 0, its LP, and the basis of a drawn policy.

    Each action moves to one to three lower-numbered states and may stay
    put with some mass, its probabilities over denominators up to 2^70, and
    a sole exit is a hop of probability 1: the LP's columns hold ±1, 1 less
    a self-loop's mass, and minus each exit's probability.  Every policy is
    acyclic, so every basis, and every basis one column away, inverts.
    """
    n = draw(st.integers(2, 6))
    m = Mdp()
    for _ in range(n):
        m.add_state()
    m.add_action(0, {0: ONE}, 0)
    for s in range(1, n):
        for _ in range(draw(st.integers(1, 3))):
            ends = draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=3, unique=True))
            ends += [s] * draw(st.booleans())
            m.add_action(s, dict(zip(ends, draw(splits(len(ends))))), draw(big_rationals()))
    lp = mdp_to_primal(m, 0)
    policy = make_policy(m, [draw(st.sampled_from(actions)) for actions in m.state_actions])
    return m, lp, basis_from_policy(lp, policy)


def textbook_reduced_cost(lp, j, y):
    return lp.objective[j] - sum((a * y[i] for i, a in lp.columns[j].items()), start=Fraction(0))


@settings(max_examples=60, deadline=None)
@given(big_funnel_bases(), st.data())
def test_direction_and_reduced_cost_kernels_match_fraction_arithmetic(case, data):
    # The int-pair kernels against the same sums in Fraction operators.  A
    # basic column's direction is a unit vector, so its other entries all
    # cancel to 0, and the support must leave each of them out.
    _, lp, basis = case
    for j, column in enumerate(lp.columns):
        dense = [
            sum((a * basis.inv_cols[i].get(pos, 0) for i, a in column.items()), start=Fraction(0))
            for pos in range(lp.num_rows)
        ]
        direction = basis.direction(j)
        assert direction == {pos: d for pos, d in enumerate(dense) if d}
        assert all(type(d) is Fraction for d in direction.values())
    drawn = data.draw(st.lists(big_rationals(), min_size=lp.num_rows, max_size=lp.num_rows))
    for y in (basis.y, drawn):
        for j in range(lp.num_cols):
            rc = _reduced_cost(lp, j, y)
            assert type(rc) is Fraction and rc == textbook_reduced_cost(lp, j, y)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ratio_test_kernel_finds_the_unique_least_ratio_or_raises(data):
    # Ratios drawn from a pool of at most three make exact ties common.
    n = data.draw(st.integers(1, 8))
    pool = data.draw(st.lists(big_rationals(0), min_size=1, max_size=3))
    entries = st.sampled_from([ONE, -ONE]) | big_rationals().filter(bool)
    direction, x_b = {}, []
    for pos in range(n):
        d = data.draw(st.none() | entries)
        if d is not None:
            direction[pos] = d
        x_b.append(data.draw(st.sampled_from(pool)) * d if d and d > 0 else data.draw(big_rationals(0)))
    direction = {pos: direction[pos] for pos in data.draw(st.permutations(list(direction)))}
    ratios = {pos: x_b[pos] / d for pos, d in direction.items() if d > 0}
    if not ratios:
        with pytest.raises(LpError, match="no positive direction entry"):
            _ratio_test(direction, x_b)
        return
    least = min(ratios.values())
    at = [pos for pos, ratio in ratios.items() if ratio == least]
    if len(at) > 1:
        with pytest.raises(LpError, match="not unique"):
            _ratio_test(direction, x_b)
        return
    r, theta = _ratio_test(direction, x_b)
    assert (r, theta) == (at[0], least) and type(theta) is Fraction


@settings(max_examples=60, deadline=None)
@given(big_funnel_bases(), st.data())
def test_pivot_kernel_updates_match_fraction_arithmetic(case, data):
    # Swap one column into its state's position, first on drawn x_B, y, θ
    # and rc, where the update is plain arithmetic to check term by term,
    # then on the basis's own, where it must give the new basis's fresh vectors.
    m, lp, basis = case
    outside = [j for j in range(lp.num_cols) if j not in basis.cols]
    assume(outside)
    entering = data.draw(st.sampled_from(outside))
    r = lp.row_of[m.actions[lp.cols[entering]].state]
    direction = basis.direction(entering)
    rows = range(lp.num_rows)
    x_b, y = (data.draw(st.lists(big_rationals(), min_size=lp.num_rows, max_size=lp.num_rows)) for _ in "xy")
    theta, rc = data.draw(big_rationals()), data.draw(big_rationals())
    new = _pivot(lp, replace(basis, x_b=x_b, y=y), entering, r, direction, theta, rc)
    expected_x = [x_b[pos] - theta * direction.get(pos, 0) for pos in rows]
    expected_x[r] = theta
    expected_y = [y[i] + rc / direction[r] * basis.inv_cols[i].get(r, 0) for i in rows]
    assert new.x_b == expected_x and new.y == expected_y
    assert all(type(v) is Fraction for v in (*new.x_b, *new.y))
    moved = {j for i in rows if new.y[i] != y[i] for j in lp.row_cols[i]}
    assert all(new.reduced[j] == textbook_reduced_cost(lp, j, new.y) for j in moved)

    theta = basis.x_b[r] / direction[r]
    new = _pivot(lp, basis, entering, r, direction, theta, basis.reduced[entering])
    assert new.cols[r] == entering
    assert (new.x_b, new.y, new.reduced) == fresh_vectors(new)
    assert new.positive == positive_keys(new.reduced)


def textbook_oracle(lp, basis, images=None):
    """x_B, y and whether B^-1·B = I, from the basis's inverse columns in Fraction operators alone.

    x_B[pos] = Σ_i B^-1[pos][i]·rhs[i], y[i] = Σ_p c_B[p]·B^-1[p][i], and B^-1·a_j is
    Σ_i a_j[i]·(column i of B^-1), which must be e_p for the basic column j at position p.
    ``images`` keeps each B^-1·a_j by j and the inverse column objects it read, for
    bases that share columns and are all kept alive, so the ids stay theirs.
    """
    x_b = [Fraction(0)] * lp.num_rows
    for i, column in enumerate(basis.inv_cols):
        for pos, v in column.items():
            x_b[pos] += v * lp.rhs[i]
    y = [sum((lp.objective[basis.cols[p]] * v for p, v in column.items()), Fraction(0)) for column in basis.inv_cols]

    images = {} if images is None else images

    def image(j):
        key = (j, *(id(basis.inv_cols[i]) for i in lp.columns[j]))
        if key not in images:
            out = {}
            for i, a in lp.columns[j].items():
                for pos, v in basis.inv_cols[i].items():
                    out[pos] = out.get(pos, 0) + a * v
            images[key] = {pos: v for pos, v in out.items() if v}
        return images[key]

    return x_b, y, all(image(j) == {p: 1} for p, j in enumerate(basis.cols))


def assert_oracle_kernels_match_fraction_arithmetic(lp, basis, images=None):
    """The int-pair oracle equals ``textbook_oracle``, every number it hands out a Fraction; returns that reference."""
    x_b, y, inverts = expected = textbook_oracle(lp, basis, images)
    fresh = basis.basic_solution(), dual_and_reduced_costs(lp, basis)[0]
    assert fresh == (x_b, y) and basis.inverts() is inverts
    assert all(type(v) is Fraction for v in (*fresh[0], *fresh[1]))
    return expected


class Inert(Fraction):
    """A Fraction that refuses every arithmetic operator and comparison: a kernel that applies one raises."""

    def _refuse(self, *other):
        raise AssertionError("an int-pair kernel applied a Fraction operator")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _refuse
    __neg__ = __bool__ = __eq__ = __lt__ = __gt__ = __le__ = __ge__ = _refuse


def inert_copy(lp, basis):
    """The basis, over a copy of its LP, with every inverse entry, cost, coefficient and right-hand side ``Inert``."""
    inert = replace(
        lp,
        objective=[Inert(c) for c in lp.objective],
        columns=[{i: Inert(a) for i, a in column.items()} for column in lp.columns],
        rhs=[Inert(v) for v in lp.rhs],
    )
    return inert, replace(basis, lp=inert, inv_cols=[{p: Inert(v) for p, v in c.items()} for c in basis.inv_cols])


@settings(max_examples=80, deadline=None)
@given(big_funnel_bases(), st.data())
def test_oracle_kernels_match_fraction_arithmetic(case, data):
    # The from-scratch oracle's int-pair kernels, on the basis's own inverse
    # and on drawn sparse columns with denominators up to 2^70: each drawn
    # column is the true one with entries nudged, dropped or added, or a
    # random one, so B^-1·B = I holds on some draws and fails on others.
    # On an ``Inert`` copy the kernels give the same results, so they read
    # each number's int pair and apply no Fraction operator.
    _, lp, basis = case
    assert assert_oracle_kernels_match_fraction_arithmetic(lp, basis)[2]
    inert_lp, inert = inert_copy(lp, basis)
    assert (inert.basic_solution(), dual_and_reduced_costs(inert_lp, inert), inert.inverts()) == (
        basis.basic_solution(),
        dual_and_reduced_costs(lp, basis),
        True,
    )
    positions = st.integers(0, lp.num_rows - 1)
    inv_cols = []
    for column in basis.inv_cols:
        kind = data.draw(st.sampled_from(["same", "nudged", "dropped", "added", "random"]))
        column = dict(column)
        if kind == "nudged":
            pos = data.draw(st.sampled_from(sorted(column)))
            column[pos] += data.draw(big_rationals().filter(bool))
        elif kind == "dropped":
            column.pop(data.draw(st.sampled_from(sorted(column))))
        elif kind == "added":
            column[data.draw(positions)] = data.draw(big_rationals().filter(bool))
        elif kind == "random":
            column = data.draw(st.dictionaries(positions, big_rationals().filter(bool), max_size=lp.num_rows))
        inv_cols.append(column)
    assert_oracle_kernels_match_fraction_arithmetic(lp, replace(basis, inv_cols=inv_cols))


@pytest.mark.parametrize("name", ["identity2", "rot2"])
def test_oracle_kernels_match_fraction_arithmetic_on_every_lockstep_basis(monkeypatch, name):
    circuit = {"identity2": identity_circuit(2), "rot2": rotation_circuit(2)}[name]
    report, visited = _recording_lockstep(monkeypatch, circuit, (1, 1))
    assert report.ok and len(visited) == report.pivots + 1
    images = {}
    for lp, basis in visited:
        assert assert_oracle_kernels_match_fraction_arithmetic(lp, basis, images) == (basis.x_b, basis.y, True)


def test_a_nudged_final_inverse_entry_fails_the_final_oracle(tmp_path, monkeypatch):
    # One entry of identity2's final inverse moves by 2^-80.  Every
    # comparison with the run passes, and only the final oracle reads the
    # inverse again: B^-1·B = I fails there, so the last iteration diverges.
    import dantziglab.lp as lp_module

    original = lp_module.Lockstep.finish
    nudged = []

    def nudging(self, result):
        basis = self.basis
        i = max(range(len(basis.inv_cols)), key=lambda i: len(basis.inv_cols[i]))
        column = dict(basis.inv_cols[i])
        pos = max(column)
        column[pos] += Fraction(1, 2**80)
        basis.inv_cols[i] = column
        nudged.append(basis.inverts())
        return original(self, result)

    monkeypatch.setattr(lp_module.Lockstep, "finish", nudging)
    cons = build_construction(negated_form(normalize_depths(identity_circuit(2))))
    report = check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, (1, 1)), cons.index.si(), budget=cons.budget()
    )
    assert nudged == [False]
    assert report.pivots == 133 and report.ok is False and report.first_divergence == 133
    assert all(e["ok"] for e in report.iterations[:133])
    final = report.iterations[133]
    assert final["basis_match"] and final["dual_match"] and final["reduced_cost_match"] and final["same_entering"]
    argv = ["verify", "--builtin", "identity2", "--bits", "11", "--which", "equivalence"]
    assert main([*argv, "--out", str(tmp_path)]) == 4


def test_lp_export_has_no_decimals():
    cons = build_clock(2)
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    text = lp_to_text(lp)
    assert "Maximize" in text and "End" in text
    assert "." not in text
    import json

    blob = json.dumps(lp_manifest(lp))
    # Fraction strings only: no decimal points outside state names.
    assert ".5" not in blob and "0.0" not in blob
