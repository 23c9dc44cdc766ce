from __future__ import annotations

import sys
from graphlib import CycleError, TopologicalSorter

import pytest


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


def tight_decision_run(report):
    """The decision variant at the tight scale w = the plain run's top value, and its run.

    ``report`` is an ``EndToEndReport``; the variant is built and run the way
    the report builds its own, only with this ``w`` in place of ``bound_w``.
    """
    from dantziglab.construction import build_construction_z, initial_policy
    from dantziglab.verify import run_annotated

    w = max(report.run.values)
    cons = build_construction_z(report.negated, report.z, w=w)
    start = initial_policy(cons, report.b_init)
    return cons, run_annotated(cons, start, tie=report.tie, budget=report.budget)


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
