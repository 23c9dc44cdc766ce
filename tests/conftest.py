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
