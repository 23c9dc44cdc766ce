from __future__ import annotations

import json
import sys
from graphlib import CycleError, TopologicalSorter

import pytest
from hypothesis import settings

from dantziglab.circuit import circuit_to_json
from dantziglab.numerics import solve_linear_system

# The CI workflow loads this profile: the same examples on every run.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def patch_everywhere(monkeypatch):
    """Rebind a function in every dantziglab module that refers to it."""

    def patch(original, replacement):
        for name, module in list(sys.modules.items()):
            if name == "dantziglab" or name.startswith("dantziglab."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, replacement)

    return patch


@pytest.fixture
def count_runs(patch_everywhere):
    """Count greedy runs: the returned list gets one entry per ``run_policy_iteration`` call."""
    from dantziglab import mdp

    runs = []
    original = mdp.run_policy_iteration

    def counting(*args, **kwargs):
        runs.append(args[0])
        return original(*args, **kwargs)

    patch_everywhere(original, counting)
    return runs


def tight_decision_run(plain, b_init, z):
    """The decision variant at the tight scale w = the plain run's top value, and its run.

    ``plain`` is the ``end_to_end`` record of the ``actionswitch`` problem
    on the same instance; the variant is built from its negated circuit and
    run the way ``end_to_end`` runs its own, only with this ``w`` in place
    of ``bound_w``.
    """
    from dantziglab.construction import build_construction_z, initial_policy
    from dantziglab.mdp import run_policy_iteration
    from dantziglab.verify import TraceAnnotator

    w = max(plain.run.values)
    cons = build_construction_z(plain.construction.circuit, z, w=w)
    run = run_policy_iteration(
        cons.mdp, initial_policy(cons, b_init), budget=cons.budget(), watchers=[TraceAnnotator(cons)]
    )
    return cons, run


def policy_graph_is_acyclic(mdp, policy) -> bool:
    """Has the policy graph no cycle apart from self-loops?  Read off the raw transitions."""
    graph = {
        s: [t for t in mdp.actions[aid].transitions if t != s] for s, aid in enumerate(policy.choice)
    }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True


def evaluate_gain(mdp, policy) -> list:
    """Expected average reward (gain) per state under the policy: the absorbed loop reward, in expectation.

    Read off each chosen action's raw ``transitions``, so it shares nothing
    with the ``Action.solved`` equations the engine evaluates by.  An
    absorbing state's gain is its loop reward; any other state ``s`` gives
    the row ``(1 - p(s)) g(s) - sum p(t) g(t) = 0`` over its exits ``t``.
    One exact solve: a recurrent class of more than one state makes the
    system singular and raises ``SingularMatrixError``.
    """
    rows, rhs = [], []
    for s, aid in enumerate(policy.choice):
        act = mdp.actions[aid]
        stay = act.transitions.get(s, 0)
        if stay == 1:
            rows.append({s: 1})
            rhs.append(act.reward)
        else:
            row = {t: -p for t, p in act.transitions.items() if t != s}
            row[s] = 1 - stay
            rows.append(row)
            rhs.append(0)
    return solve_linear_system(rows, rhs)


def planting_walk(where: str):
    """``mdp._acyclic_expectation`` with one wrong value planted after each re-solve.

    The walk runs as is, then 1 is added to the value of the lowest
    re-solved state (``where="resolved"``), or of the lowest kept state that
    no re-solved state's chosen action enters (``where="kept"``).  The
    engine's residual check sees the first at once; the second leaves every
    residual at 0, so only a from-scratch evaluation can see it.
    """
    from dantziglab import mdp

    walk = mdp._acyclic_expectation

    def corrupting(m, policy, *, values=None, roots=None):
        kept = None if values is None else {s for s, v in enumerate(values) if v is not None}
        solved = walk(m, policy, values=values, roots=roots)
        if roots is not None:
            if where == "resolved":
                solved[min(roots)] += 1
            else:
                entered = {t for s in roots for t in m.actions[policy.choice[s]].transitions}
                solved[min(kept - entered)] += 1
        return solved

    return corrupting


def is_normalized(circuit) -> bool:
    """Is the circuit in the normal form the construction reads?"""
    return not circuit.normalization_problems()


def save_circuit(circuit, path: str) -> None:
    """Write the circuit as ``load_circuit`` reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_json(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")
