from __future__ import annotations

from fractions import Fraction

import pytest

from dantziglab.circuit import negated_form, normalize_depths
from dantziglab.construction import (
    build_clock,
    build_construction,
    clock_initial_policy,
    initial_policy,
)
from dantziglab.library import identity_circuit
from dantziglab.lp import (
    EquivalenceViolationError,
    Lockstep,
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
    dantzig_step,
    evaluate_values,
    make_policy,
    run_policy_iteration,
)

ONE = Fraction(1)


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
    sink_actions = len(cons.mdp.actions_at(cons.index.si()))
    assert lp.num_cols == cons.mdp.num_actions - sink_actions


def test_initial_basis_is_feasible_and_triangular():
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    policy = initial_policy(cons, (1,))
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    x = basis.basic_solution()
    assert all(v >= 0 for v in x)
    # Permutable to triangular with nonzero diagonal == the chosen-action
    # graph has no two-state cycle; verified via the strongly connected
    # components of the graph without self-loops.
    from dantziglab.mdp import _sccs, _successors

    succ = _successors(cons.mdp, policy)
    loop_free = [[t for t in targets if t != s] for s, targets in enumerate(succ)]
    assert all(len(comp) == 1 for comp in _sccs(loop_free))


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
    tie = TieBreak.lowest()
    _, event = dantzig_step(cons.mdp, policy, tie)
    step = simplex_dantzig_step(lp, basis, tie)
    assert step is not None
    assert lp.cols[step.entering] == event.new_action
    assert lp.cols[step.leaving] == event.old_action
    assert step.basis.objective_value() > basis.objective_value()


def test_optimum_returns_none_and_dual_feasible():
    m, sink, s, low, high = tiny_mdp()
    lp = mdp_to_primal(m, sink)
    basis = basis_from_policy(lp, make_policy(m, [0, high]))
    assert simplex_dantzig_step(lp, basis, TieBreak.lowest()) is None
    y, reduced = dual_and_reduced_costs(lp, basis)
    assert all(rc <= 0 for rc in reduced)
    # Dual constraints: v_s - sum p(j|a) v_j >= r(a) for every action.
    for j, aid in enumerate(lp.cols):
        act = m.action(aid)
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


def test_lockstep_full_construction():
    cons = build_construction(negated_form(normalize_depths(identity_circuit(1))))
    policy = initial_policy(cons, (1,))
    report = check_pi_simplex_equivalence(
        cons.mdp, policy, cons.index.si(), budget=cons.budget()
    )
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

    for lp, basis, step in visited:
        assert times_b(lp, basis, basis.basic_solution()) == lp.rhs
        y, _ = dual_and_reduced_costs(lp, basis)
        for j in basis.cols:
            assert sum((v * y[i] for i, v in lp.columns[j].items()), start=Fraction(0)) == lp.objective[j]
        if step is not None:
            a_q = [lp.columns[step.entering].get(i, Fraction(0)) for i in range(lp.num_rows)]
            assert times_b(lp, basis, basis.direction(step.entering)) == a_q
            assert step.basis.cols != basis.cols


def test_feasibility_preserved_across_pivots():
    cons = build_clock(2)
    policy = clock_initial_policy(cons)
    lp = mdp_to_primal(cons.mdp, cons.index.si())
    basis = basis_from_policy(lp, policy)
    tie = TieBreak.lowest()
    objective = basis.objective_value()
    while True:
        assert all(v >= 0 for v in basis.basic_solution())
        step = simplex_dantzig_step(lp, basis, tie)
        if step is None:
            break
        assert step.basis.objective_value() >= objective
        objective = step.basis.objective_value()
        basis = step.basis


def test_divergence_raises_with_report():
    # Sanity-check the violation path by corrupting the tie-break pairing.
    m, sink, s, low, high = tiny_mdp()
    mid = m.add_action(s, {sink: ONE}, 4)  # exact tie with `high`
    policy = make_policy(m, [0, low])
    report = check_pi_simplex_equivalence(
        m,
        policy,
        sink,
        tie=TieBreak.lowest(),
        budget=10,
        raise_on_divergence=False,
    )
    assert report.ok  # shared deterministic tie-break keeps them aligned


def test_lockstep_flags_a_run_made_under_another_tie_rule():
    # The run breaks the exact tie towards `high`, the lockstep towards `mid`.
    m, sink, s, low, high = tiny_mdp()
    mid = m.add_action(s, {sink: ONE}, 4)
    policy = make_policy(m, [0, low])
    lockstep = Lockstep(m, policy, sink, tie=TieBreak.highest(), raise_on_divergence=False)
    result = run_policy_iteration(m, policy, tie=TieBreak.lowest(), budget=10, watchers=[lockstep])
    assert result.trace[0].new_action == high
    report = lockstep.finish(result)
    assert report.ok is False
    assert report.first_divergence == 0
    first = report.iterations[0]
    assert first["basis_match"] and first["dual_match"] and first["reduced_cost_match"]
    assert first["same_entering"] is False and first["ok"] is False

    strict = Lockstep(m, policy, sink, tie=TieBreak.highest())
    with pytest.raises(EquivalenceViolationError) as raised:
        run_policy_iteration(m, policy, tie=TieBreak.lowest(), budget=10, watchers=[strict])
    assert raised.value.report.first_divergence == 0
    assert raised.value.report.iterations == [first]


def test_lockstep_computes_reduced_costs_once_per_pivot(monkeypatch):
    import dantziglab.lp as lp_module

    calls = []
    original = lp_module.dual_and_reduced_costs
    monkeypatch.setattr(
        lp_module, "dual_and_reduced_costs", lambda *args: calls.append(1) or original(*args)
    )
    cons = build_clock(2)
    report = check_pi_simplex_equivalence(
        cons.mdp, clock_initial_policy(cons), cons.index.si(), budget=cons.budget()
    )
    assert report.ok and report.pivots == 3
    assert len(calls) == report.pivots + 1  # one per pivot, plus the optimum's check
    assert len(report.run.trace) == report.pivots


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
            m, policy, sink, tie=TieBreak.seeded(seed), budget=20
        )
        assert report.ok and report.pivots == 3


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
