"""Finite MDPs, exact policy evaluation, appeals, and the greedy switching engine.

The optimality criterion is expected total reward in the regime where every
recurrent class under the policies of interest is a single absorbing
zero-reward state.  Evaluation pins each absorbing state to value 0 and
solves the transient part of the value equation exactly.  Policies whose
chain structure falls outside that regime are rejected loudly: in this code
base such a policy indicates a construction bug, never a case to smooth over.

When the policy graph is acyclic apart from self-loops, evaluation is one
depth-first walk that back-substitutes in post-order: each action carries
its value equation already solved for its own state, with its exits
grouped by coefficient, so a state whose chosen action leaves for a single
other state costs one addition, or none, and a fair coin one addition and
one multiplication.
Only when the walk meets a cycle (or a rewarded absorbing state) does
evaluation build the same solved equations as sparse rows and
eliminate them exactly.  That one elimination is also the chain-structure
check: with the absorbing states pinned, the system is singular exactly
when a recurrent class has more than one state, so a singular solve is
reported as that class, as a singular LP basis is.

The switching engine ("greedy single-switch rule") always switches one
action of maximal positive appeal.  Ties are resolved by a ``TieBreak``, one
label (``lowest``, ``highest`` or ``random:SEED``) that gives each run its
own picker, so a seeded run draws from a generator no other code shares.
It evaluates the start policy and computes every appeal in full once per
run.  After a switch it finds the states whose values changed by walking
back from the switched state over one static index, the actions with a
transition into each state, following only the actions the new policy
chooses.  It re-solves just those states, by the same depth-first walk
started from them over the kept values of the others, and recomputes only
the appeals that read their values.  A switch that closes a cycle or picks
a rewarded self-loop sends the run to a full evaluation instead.  Values
come from each action's ``solved`` equation, appeals from its
``lookahead``, read straight off the raw transitions: so after each
re-solve the run checks the Bellman residual, that every re-solved state's
chosen action has appeal exactly 0, by arithmetic the evaluation does not
share.  Each positive appeal is kept with an integer key, its floor at
``_KEY_BITS`` fraction bits, so the greedy pick compares machine ints and
reaches the Fractions only where two keys are equal.
``evaluate_values`` and the full ``appeals`` pass are the oracles: every
run ends by checking its kept values and appeals against them, compared as
integer pairs (``numerics.same``), and that no fresh appeal is positive.
The watcher ``fresh_value_check`` checks the values of every policy a run
reaches against the same oracle.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .numerics import ZERO, ONE, SingularMatrixError, format_rational, rat, same, solve_linear_system


class MdpError(ValueError):
    pass


class BadProbabilityError(MdpError):
    pass


class NonZeroGainPolicyError(MdpError):
    """A recurrent class is not a single absorbing zero-reward state."""


class IterationBudgetExceededError(RuntimeError):
    pass


class CrosscheckError(RuntimeError):
    """The values or appeals a run kept differ from a from-scratch evaluation, or leave a Bellman residual."""


@dataclass
class Action:
    """One action: its state, reward and transition probabilities.

    Actions do not change after ``Mdp.add_action``; ``solved`` and
    ``lookahead`` are each computed from them once, on first use, and kept.
    """

    state: int
    reward: Fraction
    transitions: dict[int, Fraction]
    name: str

    @cached_property
    def solved(self) -> tuple[Fraction, tuple[int, ...], tuple[tuple[Fraction, tuple[int, ...]], ...]] | None:
        """The value equation ``v(s) = reward + sum p(t) v(t)`` solved for this state's value.

        Returns ``(base, targets, groups)``: ``targets`` are the exits
        ``t != s`` in transition order, and ``groups`` pairs each distinct
        coefficient ``c`` with the exits it scales, so that
        ``v(s) = base + sum c (sum v(t))``.  With self-loop mass ``p``,
        ``base`` is ``reward / (1 - p)`` and each ``c`` is ``p(t) / (1 - p)``.
        A fair coin, such as a clock's primed state, is one group of two
        exits.  A pure self-loop fixes no value and gives None.
        """
        stay = self.transitions.get(self.state, ZERO)
        if stay == 1:
            return None
        leave = 1 - stay
        targets = tuple(t for t in self.transitions if t != self.state)
        groups: dict[Fraction, list[int]] = {}
        for t in targets:
            groups.setdefault(self.transitions[t] / leave, []).append(t)
        return self.reward / leave, targets, tuple((c, tuple(ts)) for c, ts in groups.items())

    @cached_property
    def lookahead(self) -> tuple[Fraction, Fraction, tuple[tuple[int, Fraction], ...]]:
        """The one-step lookahead read straight off ``transitions``, for ``_appeal``.

        Returns ``(reward, leave, exits)``: ``leave`` is 1 minus the
        self-loop mass and ``exits`` are the transitions ``(t, p)`` with
        ``t != state``, undivided.  It shares nothing with ``solved``, so an
        appeal checks the values ``solved`` gave by a route of its own.
        """
        exits = tuple((t, p) for t, p in self.transitions.items() if t != self.state)
        return self.reward, 1 - self.transitions.get(self.state, ZERO), exits


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


def _acyclic_expectation(
    mdp: Mdp,
    policy: Policy,
    *,
    values: list[Fraction | None] | None = None,
    roots: Iterable[int] | None = None,
) -> list[Fraction] | None:
    """The values of a policy graph with no cycle apart from self-loops, or None.

    One iterative depth-first walk over each chosen action's ``solved``
    exits gives a state its value in post-order, once every exit has one;
    a sole exit's coefficient is exactly 1, so it costs no multiplication,
    and each group of exits sharing a coefficient costs one.
    An absorbing state (``solved`` is None) is pinned to 0.  The walk gives
    up and returns None when it reaches a state still on its path (the
    policy has a cycle), or an absorbing state with a nonzero reward; the
    caller then takes the path that reports or solves those.

    By default the walk knows no value and starts from every state.  Given
    start ``values``, it keeps each entry that is not None and fills the
    others in place; given ``roots``, it starts from those alone, which must
    then include every None entry.  The engine re-solves the states a switch
    changed this way.  A kept entry is read as is, so the walk neither
    enters nor checks the states behind it.
    """
    actions, choice = mdp.actions, policy.choice
    n = len(choice)
    if values is None:
        values = [None] * n
    if roots is None:
        roots = range(n)
    on_path = [False] * n
    for root in roots:
        if values[root] is not None:
            continue
        path = [root]
        on_path[root] = True
        while path:
            s = path[-1]
            act = actions[choice[s]]
            solved = act.solved
            if solved is None:
                if act.reward:
                    return None
                values[s] = ZERO
            else:
                base, targets, groups = solved
                pending = None
                for t in targets:
                    if values[t] is None:
                        pending = t
                        break
                if pending is not None:
                    if on_path[pending]:
                        return None
                    on_path[pending] = True
                    path.append(pending)
                    continue
                if len(targets) == 1:
                    acc = values[targets[0]]
                else:
                    acc = None
                    for c, ts in groups:
                        term = values[ts[0]]
                        for t in ts[1:]:
                            term += values[t]  # type: ignore[operator]
                        acc = c * term if acc is None else acc + c * term  # type: ignore[operator]
                values[s] = acc + base if base else acc
            on_path[s] = False
            path.pop()
    return values  # type: ignore[return-value]


def _solved_expectation(mdp: Mdp, policy: Policy) -> list[Fraction]:
    """Solve the value equation of any policy exactly, or raise for its chain structure.

    A rewarded absorbing state (``solved`` is None) is rejected, and the
    others are pinned to 0.  Every other state ``s`` gives the sparse row
    ``v(s) - sum c v(t) = base`` from its action's ``solved`` exits.  That
    system is ``I - Q`` over the unpinned states, and in exact arithmetic
    it is singular exactly when some of them never reach a pinned state,
    i.e. the policy has a recurrent class of more than one state.  The
    elimination reports that as ``SingularMatrixError``, which becomes the
    chain-structure error, as a singular LP basis does in
    ``lp.make_basis``.
    """
    actions, choice = mdp.actions, policy.choice
    n = len(choice)
    pinned: set[int] = set()
    for s in range(n):
        act = actions[choice[s]]
        if act.solved is None:
            if act.reward:
                raise NonZeroGainPolicyError(
                    f"absorbing state {mdp.state_names[s]} loops with reward {act.reward}"
                )
            pinned.add(s)
    transient = [s for s in range(n) if s not in pinned]
    idx = {s: i for i, s in enumerate(transient)}
    rows = []
    rhs = []
    for s in transient:
        base, _, groups = actions[choice[s]].solved  # type: ignore[misc]
        row = {idx[s]: ONE}
        for c, ts in groups:
            for t in ts:
                if t in idx:
                    row[idx[t]] = -c
        rows.append(row)
        rhs.append(base)
    try:
        solution = solve_linear_system(rows, rhs)
    except SingularMatrixError:
        raise NonZeroGainPolicyError("recurrent class with more than one state") from None
    solved = iter(solution)
    return [ZERO if s in pinned else next(solved) for s in range(n)]


def evaluate_values(mdp: Mdp, policy: Policy) -> list[Fraction]:
    """Exact expected total reward per state under the policy.

    Requires every recurrent class to be a single absorbing zero-reward
    state; those states are pinned to value 0.  An acyclic policy is
    back-substituted in one walk; a policy with a cycle, or a rewarded
    absorbing state, goes to the exact sparse solve, which rejects a
    rewarded absorbing state up front and a recurrent cycle by finding the
    system singular.  Total reward is the one criterion the lab solves for:
    the paper's average reward (gain) is 0 at every state of such a policy,
    which the tests check by a solve of their own.
    """
    values = _acyclic_expectation(mdp, policy)
    if values is not None:
        return values
    return _solved_expectation(mdp, policy)


def _appeal(act: Action, values: Sequence[Fraction]) -> Fraction:
    """``reward + sum p(t) v(t) - v(s)``, from ``Action.lookahead`` in few Fraction operations.

    A sole exit, whose probability is then ``leave``, gives
    ``reward + p (v(t) - v(s))``; any other action gives
    ``reward + sum p v(t) - leave v(s)``.
    """
    reward, leave, exits = act.lookahead
    if len(exits) == 1:
        t, p = exits[0]
        acc = values[t] - values[act.state]
        if p != 1:
            acc = p * acc
    else:
        acc = -leave * values[act.state]
        for t, p in exits:
            acc += p * values[t]
    return acc + reward if reward else acc


def appeals(mdp: Mdp, policy: Policy, values: Sequence[Fraction]) -> list[Fraction]:
    """Appeal of every action: one-step lookahead minus the current value.

    Chosen actions come out exactly 0; positive appeal means switchable.
    """
    return [_appeal(act, values) for act in mdp.actions]


Picker = Callable[[list[tuple[int, int]]], tuple[int, int]]

_TIE_LABEL = re.compile(r"lowest|highest|random:(0|-?[1-9][0-9]*)")


@dataclass(frozen=True)
class TieBreak:
    """Reproducible resolution among actions sharing the maximal appeal.

    ``label`` is the rule in the canonical form ``parse_tiebreak`` writes:
    ``lowest`` or ``highest`` picks the smallest or largest (state, action)
    pair, and ``random:SEED`` draws uniformly from the sorted pairs with a
    generator seeded by SEED.
    """

    label: str = "lowest"

    def __post_init__(self) -> None:
        if not _TIE_LABEL.fullmatch(self.label):
            raise MdpError(f"unknown tie-break {self.label!r} (use lowest, highest, or random:SEED)")

    def picker(self) -> Picker:
        """A function that picks one of a list of (state, action) pairs, whatever their order.

        A seeded rule's picker draws from a generator of its own, so each
        call gives a new one that starts from the seed.
        """
        if self.label == "lowest":
            return min
        if self.label == "highest":
            return max
        rng = random.Random(int(self.label.removeprefix("random:")))
        return lambda candidates: rng.choice(sorted(candidates))


def parse_tiebreak(text: str) -> TieBreak:
    """The rule a ``--tie`` text names, with its seed written canonically (``random:+3`` is ``random:3``)."""
    rule, colon, seed = text.partition(":")
    if rule == "random" and colon:
        try:
            text = f"random:{int(seed)}"
        except ValueError:
            pass
    return TieBreak(text)


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

# The fraction bits an appeal's selection key keeps.  Equal keys go on to
# compare the appeals, so no value of it changes a result.
_KEY_BITS = 64


def _keyed(appeal: Fraction) -> tuple[int, Fraction]:
    """``(floor(appeal * 2**_KEY_BITS), appeal)``: ordered exactly as the appeals are."""
    return (appeal.numerator << _KEY_BITS) // appeal.denominator, appeal


def dantzig_step(
    mdp: Mdp,
    policy: Policy,
    pick: Picker,
    positive: dict[int, tuple[int, Fraction]],
) -> tuple[Policy, TraceEvent] | None:
    """One greedy switch: the action of maximal positive appeal, or None at optimum.

    ``positive`` maps each action of positive appeal under the policy to
    ``_keyed(appeal)``.  Flooring keeps order, so the pairs sort exactly as
    their appeals do: the maximum and its ties are found comparing machine
    ints, and two appeals are compared as Fractions only where their keys
    are equal.  The engine
    builds the map from its one full appeal pass per run and, after each
    switch, updates only the appeals the switch changed.  ``pick`` is the
    run's tie picker (``TieBreak.picker``), made once per run; it picks the
    same action whatever order the candidates come in.
    """
    if not positive:
        return None
    top = max(positive.values())
    candidates = [(mdp.actions[aid].state, aid) for aid, key in positive.items() if key == top]
    state, aid = pick(candidates)
    event = TraceEvent(0, state, policy.choice[state], aid, top[1])
    return policy.with_switch(state, aid), event


@dataclass
class PIResult:
    initial: Policy
    policy: Policy
    trace: list[TraceEvent]
    values: list[Fraction]  # of the final policy
    appeals: list[Fraction]  # of the final policy

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def policies(self) -> list[Policy]:
        """Replay the trace: the policy before each switch, plus the final one."""
        choice = list(self.initial.choice)
        replayed = [self.initial]
        for ev in self.trace:
            choice[ev.state] = ev.new_action
            replayed.append(Policy(tuple(choice)))
        return replayed


def _switch_reach(
    mdp: Mdp, policy: Policy, entering: Sequence[Sequence[int]], state: int
) -> tuple[set[int], set[int]]:
    """The states whose values a switch at ``state`` changes, and the actions whose appeals it changes.

    The changed values are exactly those of ``state`` and of the states that
    reach it under the new ``policy``, since the change is
    ``(I - P_new)^-1`` applied to the appeal at ``state``.  An appeal reads
    only the values of its action's state and targets, so only the appeals
    of the actions at a changed state, or with a transition into one, can
    change.  The walk goes back from ``state`` over ``entering``, the
    actions with a transition into each state: every action it meets there
    is stale, and it goes on to the state of each one the policy chooses.
    """
    changed = {state}
    frontier = [state]
    stale: set[int] = set()
    while frontier:
        u = frontier.pop()
        stale.update(mdp.state_actions[u])
        for aid in entering[u]:
            stale.add(aid)
            s = mdp.actions[aid].state
            if policy.choice[s] == aid and s not in changed:
                changed.add(s)
                frontier.append(s)
    return changed, stale


def _crosscheck(
    kept: Sequence[Fraction], fresh: Sequence[Fraction], names: Sequence[str], what: str, switch: int
) -> None:
    """Raise ``CrosscheckError`` at the first entry where the kept numbers differ from fresh ones."""
    if same(kept, fresh):
        return
    for name, old, new in zip(names, kept, fresh):
        if old != new:
            raise CrosscheckError(
                f"after switch {switch} the kept {what} of {name} is {format_rational(old)}, "
                f"but a fresh evaluation gives {format_rational(new)}"
            )


def fresh_value_check(mdp: Mdp) -> Watcher:
    """A watcher that checks the values handed at each switch against a fresh evaluation.

    It raises ``CrosscheckError`` at the first state whose kept value
    differs from ``evaluate_values`` of the policy before the switch.  The
    first switch is skipped: its values are the start policy's own
    from-scratch evaluation.  Put first among a run's watchers, it fires
    before any other reads a wrong value; the final policy is checked by
    the run itself.
    """

    def check(
        event: TraceEvent, policy: Policy, values: Sequence[Fraction], gains: Sequence[Fraction]
    ) -> None:
        if event.iteration:
            _crosscheck(values, evaluate_values(mdp, policy), mdp.state_names, "value", event.iteration)

    return check


def run_policy_iteration(
    mdp: Mdp,
    policy: Policy,
    *,
    tie: TieBreak = TieBreak(),
    budget: int,
    watchers: Iterable[Watcher] = (),
) -> PIResult:
    """Greedy single-switch policy iteration to optimality, with a full trace.

    This is the only loop that switches policies.  It evaluates the start
    policy and computes every action's appeal once; after each switch it
    re-solves only the values and appeals the switch changes
    (``_switch_reach``), by one walk of ``_acyclic_expectation`` from the
    changed states over the kept values of the others.  That walk gives up
    only when the switch closed a cycle or chose a rewarded self-loop; the
    run then evaluates the new policy in full, which solves a transient
    cycle exactly and raises the chain-structure error for anything else.

    After each re-solve it raises ``CrosscheckError`` unless the appeal of
    every re-solved state's chosen action, just recomputed from the raw
    transitions, is exactly 0.  The positive appeals are kept with their
    integer keys for ``dantzig_step``.

    ``evaluate_values`` stays the oracle.  Every run ends by deriving its
    final policy's values and all appeals from scratch, and raises
    ``CrosscheckError`` unless they equal the kept ones and none of the
    fresh appeals is positive.  So the run may stop only at a policy the
    oracle finds optimal, whether or not the kept set of positive appeals
    was complete.  To check the values of every policy it reaches, attach
    ``fresh_value_check``.

    Each watcher sees every switch as (event, policy before the switch,
    that policy's values, its appeals); the final policy, its values and
    its appeals come back on the result.  No list handed out is changed
    afterwards.
    """
    if budget <= 0:
        raise MdpError("iteration budget must be positive")
    pick = tie.picker()
    watchers = list(watchers)
    initial = policy
    trace: list[TraceEvent] = []
    entering: list[list[int]] = [[] for _ in range(mdp.num_states)]  # actions with a transition into each state
    for aid, act in enumerate(mdp.actions):
        for t in act.transitions:
            entering[t].append(aid)
    values = evaluate_values(mdp, policy)
    gains = appeals(mdp, policy, values)
    positive = {aid: _keyed(appeal) for aid, appeal in enumerate(gains) if appeal > 0}
    while True:
        step = dantzig_step(mdp, policy, pick, positive)
        if step is None:
            oracle = evaluate_values(mdp, policy)
            _crosscheck(values, oracle, mdp.state_names, "value", len(trace))
            names = [a.name for a in mdp.actions]
            final = appeals(mdp, policy, oracle)
            _crosscheck(gains, final, names, "appeal", len(trace))
            for name, appeal in zip(names, final):
                if appeal.numerator > 0:
                    raise CrosscheckError(
                        f"the run stopped after switch {len(trace)}, but a fresh evaluation "
                        f"gives {name} the positive appeal {format_rational(appeal)}"
                    )
            return PIResult(initial, policy, trace, values, gains)
        if len(trace) >= budget:
            raise IterationBudgetExceededError(f"no optimum within {budget} switches")
        new_policy, event = step
        event.iteration = len(trace)
        for watch in watchers:
            watch(event, policy, values, gains)
        trace.append(event)
        policy = new_policy
        changed, stale = _switch_reach(mdp, policy, entering, event.state)
        start: list[Fraction | None] = list(values)
        for s in changed:
            start[s] = None
        resolved = _acyclic_expectation(mdp, policy, values=start, roots=changed)
        # None: the switch closed a cycle or picked a rewarded self-loop.
        values = resolved if resolved is not None else evaluate_values(mdp, policy)
        gains = list(gains)
        for aid in stale:
            appeal = gains[aid] = _appeal(mdp.actions[aid], values)
            if appeal.numerator > 0:
                positive[aid] = _keyed(appeal)
            else:
                positive.pop(aid, None)
        residual = [s for s in changed if gains[policy.choice[s]]]
        if residual:
            s = min(residual)
            raise CrosscheckError(
                f"after switch {len(trace)} the chosen action at {mdp.state_names[s]} "
                f"has appeal {format_rational(gains[policy.choice[s]])}, not 0"
            )


def decide_action_switch(mdp: Mdp, result: PIResult, action: int) -> bool:
    """Does the greedy run handed here ever switch the given action in?"""
    if result.initial.choice[mdp.actions[action].state] == action:
        raise MdpError("starting policy already uses the queried action")
    return any(ev.new_action == action for ev in result.trace)


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
