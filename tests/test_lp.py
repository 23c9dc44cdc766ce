from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import policy_graph_is_acyclic
from hypothesis import given, settings, strategies as st

from dantziglab.circuit import negated_form, normalize_depths
from dantziglab.construction import (
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
)
from dantziglab.library import identity_circuit, rotation_circuit
from dantziglab.lp import (
    Lockstep,
    LpError,
    NoSinkError,
    SingularBasisError,
    basis_from_policy,
    check_pi_simplex_equivalence,
    dual_and_reduced_costs,
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
    run_policy_iteration,
)

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


def test_dual_equals_values_and_reduced_costs_equal_appeals():
    cons = build_clock(2)
    policy = clock_initial_policy(cons)
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    y, reduced = dual_and_reduced_costs(lp, basis)
    values = evaluate_values(cons.mdp, policy)
    gains = appeals(cons.mdp, policy, values)
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
            assert times_b(lp, basis, basis.direction(step.entering)) == a_q
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


def test_basis_inverse_holds_exactly_the_reachable_pairs(monkeypatch):
    import dantziglab.lp as lp_module

    visited = []
    original = lp_module.simplex_dantzig_step

    def recording_step(lp, basis, *args):
        visited.append((lp, basis))
        return original(lp, basis, *args)

    monkeypatch.setattr(lp_module, "simplex_dantzig_step", recording_step)
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    report = check_pi_simplex_equivalence(
        cons.mdp, initial_policy(cons, (1,)), cons.index.si(), budget=cons.budget()
    )
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
