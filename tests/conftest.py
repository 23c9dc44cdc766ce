from __future__ import annotations

import sys
from graphlib import CycleError, TopologicalSorter

import pytest
from hypothesis import settings

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
