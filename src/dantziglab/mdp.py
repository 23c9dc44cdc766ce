"""Finite MDPs, exact policy evaluation, appeals, and the greedy switching engine.

The optimality criterion is expected total reward in the regime where every
recurrent class under the policies of interest is a single absorbing
zero-reward state.  Evaluation pins each absorbing state to value 0 and
solves the transient part of the value equation exactly.  Policies whose
chain structure falls outside that regime are rejected loudly: in this code
base such a policy indicates a construction bug, never a case to smooth over.

The switching engine ("greedy single-switch rule") always switches one
action of maximal positive appeal, with an explicit, reproducible tie-break.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numerics import ZERO, ONE, format_rational, rat, solve_linear_system


class MdpError(ValueError):
    pass


class BadProbabilityError(MdpError):
    pass


class NonZeroGainPolicyError(MdpError):
    """A recurrent class is not a single absorbing zero-reward state."""


class UnsupportedChainStructureError(MdpError):
    """A recurrent class has more than one state."""


class IterationBudgetExceededError(RuntimeError):
    pass


@dataclass
class Action:
    state: int
    reward: Fraction
    transitions: dict[int, Fraction]
    name: str


class Mdp:
    """States with indexed action lists; probabilities are exact rationals."""

    def __init__(self) -> None:
        self.state_names: list[str] = []
        self.actions: list[Action] = []
        self.state_actions: list[list[int]] = []

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    def add_state(self, name: str | None = None) -> int:
        sid = len(self.state_names)
        self.state_names.append(name if name is not None else str(sid))
        self.state_actions.append([])
        return sid

    def add_action(
        self,
        state: int,
        transitions: dict[int, Fraction],
        reward: Fraction | int,
        name: str | None = None,
    ) -> int:
        if not 0 <= state < self.num_states:
            raise MdpError(f"no such state {state}")
        cleaned: dict[int, Fraction] = {}
        total = ZERO
        for target, prob in transitions.items():
            p = rat(prob)
            if p < 0 or p > 1:
                raise BadProbabilityError(f"probability {p} outside [0, 1]")
            if not 0 <= target < self.num_states:
                raise MdpError(f"no such target state {target}")
            if p:
                cleaned[target] = cleaned.get(target, ZERO) + p
                total += p
        if total != 1:
            raise BadProbabilityError(f"transition probabilities sum to {total}, not 1")
        aid = len(self.actions)
        self.actions.append(Action(state, rat(reward), cleaned, name if name is not None else str(aid)))
        self.state_actions[state].append(aid)
        return aid

    def actions_at(self, state: int) -> list[int]:
        return self.state_actions[state]

    def action(self, aid: int) -> Action:
        return self.actions[aid]

    def validate(self) -> None:
        for s in range(self.num_states):
            if not self.state_actions[s]:
                raise MdpError(f"state {s} ({self.state_names[s]}) has no actions")


def add_gadget(
    mdp: Mdp,
    s: int,
    t: int,
    r_d: Fraction | int,
    r_f: Fraction | int,
    p: Fraction | int,
    *,
    intermediate_name: str | None = None,
    entry_name: str | None = None,
    exit_name: str | None = None,
) -> int:
    """Attach a probabilistic detour from s towards t.

    A fresh intermediate state is created; the new action at s pays r_d and
    moves to the intermediate with probability p (staying at s otherwise),
    and the intermediate hops to t deterministically with reward r_f.  Seen
    from s, the detour scales the appeal of reaching t by p and offsets it
    by r_d.  Returns the id of the new action at s.
    """
    p = rat(p)
    if not 0 < p <= 1:
        raise BadProbabilityError(f"detour probability must be in (0, 1], got {p}")
    mid = mdp.add_state(intermediate_name)
    transitions = {mid: p}
    if p != 1:
        transitions[s] = 1 - p
    entry = mdp.add_action(s, transitions, rat(r_d), entry_name)
    mdp.add_action(mid, {t: ONE}, rat(r_f), exit_name)
    return entry


@dataclass(frozen=True)
class Policy:
    choice: tuple[int, ...]

    def with_switch(self, state: int, action: int) -> "Policy":
        updated = list(self.choice)
        updated[state] = action
        return Policy(tuple(updated))


def make_policy(mdp: Mdp, choices: dict[int, int] | Sequence[int]) -> Policy:
    if isinstance(choices, dict):
        picks = [choices.get(s, -1) for s in range(mdp.num_states)]
    else:
        picks = list(choices)
    if len(picks) != mdp.num_states:
        raise MdpError("policy must choose at every state")
    for s, aid in enumerate(picks):
        if aid not in mdp.state_actions[s]:
            raise MdpError(f"policy picks action {aid} not available at state {s}")
    return Policy(tuple(picks))


def _successors(mdp: Mdp, policy: Policy) -> list[list[int]]:
    return [sorted(mdp.actions[policy.choice[s]].transitions) for s in range(mdp.num_states)]


def _sccs(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, iteratively."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_pi in range(pi, len(succ[v])):
                w = succ[v][next_pi]
                if index[w] == -1:
                    work[-1] = (v, next_pi + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _chain_structure(mdp: Mdp, policy: Policy) -> tuple[list[int], list[list[int]]]:
    """Absorbing states and SCCs of the policy chain; errors on any other recurrent class.

    Returns (absorbing, sccs).  A recurrent class here is an SCC of the
    policy graph with no outgoing edge.  Tarjan emits the SCCs in reverse
    topological order: each component comes after every component it
    reaches.
    """
    succ = _successors(mdp, policy)
    sccs = _sccs(succ)
    absorbing: list[int] = []
    for comp in sccs:
        members = set(comp)
        closed = all(t in members for v in comp for t in succ[v])
        if not closed:
            continue
        if len(comp) > 1:
            names = [mdp.state_names[v] for v in comp]
            raise UnsupportedChainStructureError(f"recurrent class with {len(comp)} states: {names}")
        absorbing.append(comp[0])
    return absorbing, sccs


def _pinned_expectation(
    mdp: Mdp,
    policy: Policy,
    sccs: list[list[int]],
    pinned: dict[int, Fraction],
    step_reward: Callable[[int], Fraction],
) -> list[Fraction]:
    """Solve v(s) = step_reward(s) + sum p(s'|s) v(s') with the absorbing states pinned.

    ``sccs`` are the policy graph's components in reverse topological
    order, as ``_chain_structure`` finds them.  When every component is a
    single state (the graph is acyclic apart from self-loops, which arise
    here only as a detour's return mass), the values follow by
    back-substitution along that order; otherwise the transient linear
    system is assembled and solved exactly.
    """
    n = mdp.num_states
    values: list[Fraction | None] = [None] * n
    for s, v in pinned.items():
        values[s] = v

    if all(len(comp) == 1 for comp in sccs):
        for (s,) in sccs:
            if values[s] is not None:
                continue
            act = mdp.actions[policy.choice[s]]
            self_mass = act.transitions.get(s, ZERO)
            acc = step_reward(s)
            for t, p in act.transitions.items():
                if t == s:
                    continue
                acc += p * values[t]  # type: ignore[operator]
            values[s] = acc / (1 - self_mass)
        return values  # type: ignore[return-value]

    transient = [s for s in range(n) if s not in pinned]
    idx = {s: i for i, s in enumerate(transient)}
    m = len(transient)
    rows = []
    rhs = []
    for s in transient:
        row = [ZERO] * m
        row[idx[s]] = ONE
        act = mdp.actions[policy.choice[s]]
        acc = step_reward(s)
        for t, p in act.transitions.items():
            if t in idx:
                row[idx[t]] -= p
            else:
                acc += p * pinned[t]
        rows.append(row)
        rhs.append(acc)
    solution = solve_linear_system(rows, rhs)
    for s, i in idx.items():
        values[s] = solution[i]
    return values  # type: ignore[return-value]


def evaluate_values(mdp: Mdp, policy: Policy) -> list[Fraction]:
    """Exact expected total reward per state under the policy.

    Requires every recurrent class to be a single absorbing zero-reward
    state; those states are pinned to value 0.
    """
    absorbing, sccs = _find_absorbing_or_raise(mdp, policy, require_zero_reward=True)
    pinned = {s: ZERO for s in absorbing}
    return _pinned_expectation(mdp, policy, sccs, pinned, lambda s: mdp.actions[policy.choice[s]].reward)


def evaluate_gain(mdp: Mdp, policy: Policy) -> list[Fraction]:
    """Expected average reward per state: the absorbed self-loop reward, in expectation."""
    absorbing, sccs = _find_absorbing_or_raise(mdp, policy, require_zero_reward=False)
    pinned = {s: mdp.actions[policy.choice[s]].reward for s in absorbing}
    return _pinned_expectation(mdp, policy, sccs, pinned, lambda s: ZERO)


def _find_absorbing_or_raise(
    mdp: Mdp, policy: Policy, *, require_zero_reward: bool
) -> tuple[list[int], list[list[int]]]:
    try:
        absorbing, sccs = _chain_structure(mdp, policy)
    except UnsupportedChainStructureError:
        if require_zero_reward:
            raise NonZeroGainPolicyError("recurrent class with more than one state")
        raise
    if require_zero_reward:
        for s in absorbing:
            reward = mdp.actions[policy.choice[s]].reward
            if reward != 0:
                raise NonZeroGainPolicyError(
                    f"absorbing state {mdp.state_names[s]} loops with reward {reward}"
                )
    return absorbing, sccs


def appeals(mdp: Mdp, policy: Policy, values: Sequence[Fraction]) -> list[Fraction]:
    """Appeal of every action: one-step lookahead minus the current value.

    Chosen actions come out exactly 0; positive appeal means switchable.
    """
    out = []
    for act in mdp.actions:
        acc = act.reward
        for t, p in act.transitions.items():
            acc += p * values[t]
        out.append(acc - values[act.state])
    return out


@dataclass(frozen=True)
class TieBreak:
    """Deterministic resolution among actions sharing the maximal appeal."""

    rule: str
    seed: int | None = None

    LOWEST = "lowest-state-then-action"
    HIGHEST = "highest-state-then-action"
    RANDOM = "seeded-random"

    @classmethod
    def lowest(cls) -> "TieBreak":
        return cls(cls.LOWEST)

    @classmethod
    def highest(cls) -> "TieBreak":
        return cls(cls.HIGHEST)

    @classmethod
    def seeded(cls, seed: int) -> "TieBreak":
        return cls(cls.RANDOM, seed)

    def make_rng(self) -> random.Random | None:
        if self.rule == self.RANDOM:
            if self.seed is None:
                raise MdpError("seeded-random tie-break needs a seed")
            return random.Random(self.seed)
        return None

    def select(self, candidates: list[tuple[int, int]], rng: random.Random | None) -> tuple[int, int]:
        """Pick from (state, action) pairs; the list may arrive in any order."""
        if self.rule == self.LOWEST:
            return min(candidates)
        if self.rule == self.HIGHEST:
            return max(candidates)
        if self.rule == self.RANDOM:
            if rng is None:
                raise MdpError("seeded-random tie-break needs its RNG")
            return rng.choice(sorted(candidates))
        raise MdpError(f"unknown tie-break rule {self.rule!r}")

    def label(self) -> str:
        if self.rule == self.RANDOM:
            return f"random:{self.seed}"
        return {self.LOWEST: "lowest", self.HIGHEST: "highest"}[self.rule]


def parse_tiebreak(text: str) -> TieBreak:
    if text == "lowest":
        return TieBreak.lowest()
    if text == "highest":
        return TieBreak.highest()
    if text.startswith("random:"):
        return TieBreak.seeded(int(text.split(":", 1)[1]))
    raise MdpError(f"unknown tie-break {text!r} (use lowest, highest, or random:SEED)")


@dataclass
class TraceEvent:
    iteration: int
    state: int
    old_action: int
    new_action: int
    appeal: Fraction
    annotations: dict = field(default_factory=dict)


# Sees each switch of a run as (event, policy before the switch, that
# policy's values, its appeals): the very numbers the run picked it from.
Watcher = Callable[[TraceEvent, Policy, Sequence[Fraction], Sequence[Fraction]], None]


def dantzig_step(
    mdp: Mdp,
    policy: Policy,
    tie: TieBreak,
    rng: random.Random | None = None,
    gains: Sequence[Fraction] | None = None,
) -> tuple[Policy, TraceEvent] | None:
    """One greedy switch: the action of maximal positive appeal, or None at optimum.

    ``gains`` may carry the policy's appeals when the caller has already
    computed them.
    """
    if gains is None:
        gains = appeals(mdp, policy, evaluate_values(mdp, policy))
    if rng is None:
        rng = tie.make_rng()
    best: Fraction | None = None
    candidates: list[tuple[int, int]] = []
    for aid, appeal in enumerate(gains):
        if appeal <= 0:
            continue
        if best is None or appeal > best:
            best = appeal
            candidates = [(mdp.actions[aid].state, aid)]
        elif appeal == best:
            candidates.append((mdp.actions[aid].state, aid))
    if best is None:
        return None
    state, aid = tie.select(candidates, rng)
    event = TraceEvent(0, state, policy.choice[state], aid, best)
    return policy.with_switch(state, aid), event


@dataclass
class PIResult:
    initial: Policy
    policy: Policy
    trace: list[TraceEvent]
    iterations: int
    optimal: bool
    values: list[Fraction]  # of the final policy
    appeals: list[Fraction]  # of the final policy

    def policies(self) -> list[Policy]:
        """Replay the trace: the policy before each switch, plus the final one."""
        return self.policies_at(range(len(self.trace) + 1))

    def policies_at(self, positions: Sequence[int]) -> list[Policy]:
        """The policy before switch k for each position k, in the order given.

        One replay of the trace that keeps only the requested positions;
        position ``len(trace)`` is the final policy.
        """
        wanted = set(positions)
        taken: dict[int, Policy] = {}
        choice = list(self.initial.choice)
        for k, ev in enumerate(self.trace):
            if k in wanted:
                taken[k] = Policy(tuple(choice))
            choice[ev.state] = ev.new_action
        taken[len(self.trace)] = Policy(tuple(choice))
        return [taken[k] for k in positions]

    def used_action(self, aid: int) -> bool:
        return any(ev.new_action == aid for ev in self.trace)


def default_budget(n_bits: int, num_states: int) -> int:
    """Iteration cap: ten times the expected phase count times the state count."""
    return 10 * (2**n_bits) * num_states


def run_policy_iteration(
    mdp: Mdp,
    policy: Policy,
    *,
    tie: TieBreak | None = None,
    budget: int,
    watchers: Iterable[Watcher] = (),
) -> PIResult:
    """Greedy single-switch policy iteration to optimality, with a full trace.

    This is the only loop that evaluates policies, and it computes each
    policy's values and appeals once.  Each watcher sees every switch as
    (event, policy before the switch, that policy's values, its appeals);
    the final policy, its values and its appeals come back on the result.
    """
    if budget <= 0:
        raise MdpError("iteration budget must be positive")
    if tie is None:
        tie = TieBreak.lowest()
    rng = tie.make_rng()
    watchers = list(watchers)
    initial = policy
    trace: list[TraceEvent] = []
    iteration = 0
    while True:
        values = evaluate_values(mdp, policy)
        gains = appeals(mdp, policy, values)
        step = dantzig_step(mdp, policy, tie, rng, gains)
        if step is None:
            return PIResult(initial, policy, trace, iteration, True, values, gains)
        if iteration >= budget:
            raise IterationBudgetExceededError(f"no optimum within {budget} switches")
        new_policy, event = step
        event.iteration = iteration
        for watch in watchers:
            watch(event, policy, values, gains)
        trace.append(event)
        policy = new_policy
        iteration += 1


def decide_action_switch(mdp: Mdp, result: PIResult, action: int) -> bool:
    """Does the greedy run handed here ever switch the given action in?"""
    if result.initial.choice[mdp.actions[action].state] == action:
        raise MdpError("starting policy already uses the queried action")
    return result.used_action(action)


def decide_dantzig_mdp_sol(mdp: Mdp, result: PIResult, action: int) -> bool:
    """Does the optimal policy the greedy run landed on use the given action?"""
    return result.policy.choice[mdp.actions[action].state] == action


def mdp_to_json(mdp: Mdp) -> dict:
    return {
        "states": list(mdp.state_names),
        "actions": [
            {
                "state": act.state,
                "name": act.name,
                "reward": format_rational(act.reward),
                "p": {str(t): format_rational(p) for t, p in sorted(act.transitions.items())},
            }
            for act in mdp.actions
        ],
    }


def mdp_from_json(data: dict) -> Mdp:
    mdp = Mdp()
    for name in data["states"]:
        mdp.add_state(str(name))
    for item in data["actions"]:
        mdp.add_action(
            int(item["state"]),
            {int(t): rat(p) for t, p in item["p"].items()},
            rat(item["reward"]),
            item.get("name"),
        )
    mdp.validate()
    return mdp


def trace_to_jsonl(mdp: Mdp, trace: Sequence[TraceEvent]) -> str:
    lines = []
    for ev in trace:
        lines.append(
            json.dumps(
                {
                    "iteration": ev.iteration,
                    "state": ev.state,
                    "state_name": mdp.state_names[ev.state],
                    "old_action": ev.old_action,
                    "new_action": ev.new_action,
                    "action_name": mdp.actions[ev.new_action].name,
                    "appeal": format_rational(ev.appeal),
                    "annotations": {k: str(v) for k, v in sorted(ev.annotations.items())},
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
