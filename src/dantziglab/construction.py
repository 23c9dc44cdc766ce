"""Compile a depth-normalized, output-negated circuit into the hard MDP.

The machine has three parts:

* a clock: a chain of detour-guarded states whose greedy solution walks a
  reflected binary Gray code, so the value gap between the two clock output
  states c0/c1 flips sign 2^n - 1 times (one flip per "phase");
* two copies of the circuit, built from input-bit, Or, and Not gadgets,
  whose state values encode gate truth relative to the leading clock state;
* cross-wiring so that in each phase one copy evaluates the function and
  the other copies the (negated) outputs into its input bits.

All scale constants derive from the circuit depth d: the phase gap
T = 3^(d+6), the per-depth bands b_k = 3^(d-k+2) with prefix sums L_k
(gate reads false) and H_k (gate reads true).  Detour probabilities are
chosen so that every scripted switch during a phase transition happens at
a distinct, exactly-known appeal; those appeal levels are what the trace
auditors in ``verify`` check.

Like the other detour numerators, the input-bit p3 numerator (``BL`` =
31/10) and the copy-hookup p7 numerator (``RO`` = 1) are fixed constants.
``MAGIC`` = 3/25 is the auditors' ceiling for residual end-game appeals,
kept strictly below both the 1/5 decision-freeze appeal and the clock
band.  The scripted switch ordering these constants must keep depends on
the circuit depth, so it is re-validated each time parameters are made.

The clock detour probabilities support two modes: ``calibrated`` (default)
makes the clock switch at state i have appeal exactly 1/2 - 1/(4i), inside
[1/4, 1/2); ``printed`` keeps an alternative exponent that lands the appeal
at 1 - 1/(2i) instead and exists for comparison runs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, KIND_INPUT, KIND_NOT, KIND_OR
from .mdp import (
    Mdp,
    Policy,
    add_gadget,
    default_budget,
    make_policy,
    mdp_to_json,
)
from .numerics import ONE, ZERO, format_rational, rat

HALF = Fraction(1, 2)
# Ceiling of the detach (s2) appeal band [16/5, RJPRIME] the catalog auditor checks.
RJPRIME = Fraction(33, 10)
# Numerators of the input-bit re-homing detour p3 and the copy-hookup detour p7.
BL = Fraction(31, 10)
RO = Fraction(1)
# Ceiling of the residual end-game appeals the catalog auditor checks.
MAGIC = Fraction(3, 25)


class ConstructionError(ValueError):
    pass


class MissingDependencyError(ConstructionError):
    """A gadget builder needs a state that has not been created yet."""


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    d_c: int
    t: Fraction
    b: tuple[Fraction, ...]
    low: tuple[Fraction, ...]
    high: tuple[Fraction, ...]
    alpha: tuple[Fraction, ...]
    alpha_mode: str

    @property
    def mid(self) -> Fraction:
        """Midpoint between the true and false output-depth values."""
        return (self.high[self.d_c] + self.low[self.d_c]) / 2

    def p1(self, d: int) -> Fraction:
        """Not-gate arming detour: fires at appeal exactly 7/2 + 1/(2d)."""
        return (Fraction(7, 2) + Fraction(1, 2 * d)) / self.high[d - 1]

    def p2(self, d: int) -> Fraction:
        """Not-gate disarming detour: fires at appeal exactly 19/20."""
        return Fraction(19, 20) / (2 * self.t - self.high[d - 1])

    @property
    def p3(self) -> Fraction:
        return BL / (3 * self.t / 2 + self.high[0])

    @property
    def p4(self) -> Fraction:
        return Fraction(17, 5) / (3 * self.t / 2 + self.high[0] - self.mid)

    @property
    def p5(self) -> Fraction:
        return Fraction(8, 5) / (self.t / 2 + self.mid - self.high[0])

    @property
    def p6(self) -> Fraction:
        return Fraction(16, 5) / (3 * self.t / 2 + self.low[0] - self.high[self.d_c])

    @property
    def p7(self) -> Fraction:
        return RO / (self.t / 2 + self.high[self.d_c] - self.low[0])

    def stage3_rehome_appeal(self) -> Fraction:
        """Exact appeal of the late re-homing of a compute-side input bit."""
        return self.p3 * (self.t / 2 + self.mid - self.low[0])

    def stage4_hookup_band(self) -> tuple[Fraction, Fraction]:
        """Exact bounds on the copy-hookup switch appeal."""
        return (self.p7 * self.t / 2, self.p7 * (self.t / 2 + self.high[self.d_c] - self.low[0]))

    def residual_rehome_appeal(self) -> Fraction:
        """Exact appeal of the end-game re-homing of a false input bit."""
        return self.p3 * (self.high[0] - self.low[0])

    def as_dict(self) -> dict:
        data = {
            "n": self.n,
            "d_c": self.d_c,
            "alpha_mode": self.alpha_mode,
            "t": format_rational(self.t),
            "b": [format_rational(x) for x in self.b],
            "low": [format_rational(x) for x in self.low],
            "high": [format_rational(x) for x in self.high],
            "alpha": [format_rational(x) for x in self.alpha],
            "bl": format_rational(BL),
            "ro": format_rational(RO),
            "magic": format_rational(MAGIC),
            "rjprime": format_rational(RJPRIME),
            "p3": format_rational(self.p3),
            "p4": format_rational(self.p4),
            "p5": format_rational(self.p5),
            "p6": format_rational(self.p6),
            "p7": format_rational(self.p7),
            "p1": {str(d): format_rational(self.p1(d)) for d in range(2, self.d_c + 1)},
            "p2": {str(d): format_rational(self.p2(d)) for d in range(2, self.d_c + 1)},
        }
        return data


def _alpha(i: int, n: int, t: Fraction, mode: str) -> Fraction:
    base = (HALF - Fraction(1, 4 * i)) / t
    f_i = n - i + 1
    if mode == "calibrated":
        return base / (2**f_i)
    if mode == "printed":
        return base / (2 ** (f_i - 1))
    raise ConstructionError(f"unknown alpha mode {mode!r}")


def make_params(n: int, d_c: int, *, alpha_mode: str = "calibrated") -> ConstructionParams:
    """Scale constants for an n-bit machine whose circuit has depth d_c."""
    if n < 1:
        raise ConstructionError("need at least one input bit")
    t = rat(3) ** (d_c + 6)
    b = tuple(rat(3) ** (d_c - k + 2) for k in range(d_c + 1))
    low = []
    high = []
    acc = ZERO
    for k in range(d_c + 1):
        low.append(acc)
        acc += b[k]
        high.append(acc)
    params = ConstructionParams(
        n=n,
        d_c=d_c,
        t=t,
        b=b,
        low=tuple(low),
        high=tuple(high),
        alpha=tuple(_alpha(i, n, t, alpha_mode) for i in range(1, n + 1)),
        alpha_mode=alpha_mode,
    )
    _check_params(params)
    return params


def _check_params(params: ConstructionParams) -> None:
    if params.high[params.d_c] > 2 * rat(3) ** (params.d_c + 2):
        raise ConstructionError("top band exceeds twice its leading term")
    if not params.high[params.d_c] < params.t / 2:
        raise ConstructionError("top band must stay below half the phase gap")
    probs = [params.p3, params.p4, params.p5, params.p6, params.p7]
    probs += [params.p1(d) for d in range(2, params.d_c + 1)]
    probs += [params.p2(d) for d in range(2, params.d_c + 1)]
    probs += list(params.alpha)
    for p in probs:
        if not 0 < p < 1:
            raise ConstructionError(f"derived probability {p} outside (0, 1)")
    # Thresholds must keep the scripted switch order intact.
    lo, hi = params.stage4_hookup_band()
    if not Fraction(19, 20) < lo:
        raise ConstructionError("copy-hookup appeal band dips below 19/20")
    if not hi < params.stage3_rehome_appeal():
        raise ConstructionError("copy-hookup band overlaps the re-homing appeal")
    if not params.stage3_rehome_appeal() < Fraction(8, 5):
        raise ConstructionError("re-homing appeal reaches the 8/5 stage level")
    if not params.residual_rehome_appeal() < MAGIC < Fraction(1, 5):
        raise ConstructionError("residual appeal ceiling out of place")


def derive_params(circuit: Circuit) -> ConstructionParams:
    """Scale constants for a normalized, output-negated circuit."""
    problems = circuit.normalization_problems()
    if problems:
        raise ConstructionError("circuit is not normalized: " + "; ".join(problems))
    return make_params(circuit.n, circuit.circuit_depth())


# ---------------------------------------------------------------------------
# State and action bookkeeping


@dataclass(frozen=True)
class StateInfo:
    kind: str
    copy: int | None = None
    gate: int | None = None
    i: int | None = None


class ConstructionIndex:
    """Bidirectional map between gadget-role names and numeric ids."""

    def __init__(self) -> None:
        self.states: dict[str, int] = {}
        self.actions: dict[str, int] = {}
        self.state_info: dict[int, StateInfo] = {}
        self.action_target: dict[int, int] = {}

    def state(self, name: str) -> int:
        try:
            return self.states[name]
        except KeyError:
            raise MissingDependencyError(f"no state named {name!r}") from None

    def action(self, name: str) -> int:
        try:
            return self.actions[name]
        except KeyError:
            raise MissingDependencyError(f"no action named {name!r}") from None

    def target(self, aid: int) -> int:
        """Semantic target of an action (a detour entry points at its exit's target)."""
        return self.action_target[aid]

    # Naming scheme: clock states are "si", "si'", "0".."n", "1'".."n'",
    # "c0", "c1"; circuit states are "o{j}_{i}" etc.; detour intermediates
    # are "({from},{to})"; the decision gadget adds "b1", "b2".

    def c(self, j: int) -> int:
        return self.state(f"c{j}")

    def si(self) -> int:
        return self.state("si")

    def clock(self, i: int) -> int:
        return self.state(str(i))

    def clock_prime(self, i: int) -> int:
        return self.state(f"{i}'")

    def o(self, j: int, i: int) -> int:
        return self.state(f"o{j}_{i}")

    def l(self, j: int, i: int) -> int:
        return self.state(f"l{j}_{i}")

    def r(self, j: int, i: int) -> int:
        return self.state(f"r{j}_{i}")

    def v(self, j: int, i: int) -> int:
        return self.state(f"v{j}_{i}")

    def x(self, j: int, i: int) -> int:
        return self.state(f"x{j}_{i}")

    def a(self, j: int, i: int) -> int:
        return self.state(f"a{j}_{i}")


class _Builder:
    """Adds named states and actions to an Mdp while recording the index."""

    def __init__(self, mdp: Mdp, index: ConstructionIndex) -> None:
        self.mdp = mdp
        self.index = index

    def state(self, name: str, info: StateInfo) -> int:
        if name in self.index.states:
            raise ConstructionError(f"duplicate state name {name!r}")
        sid = self.mdp.add_state(name)
        self.index.states[name] = sid
        self.index.state_info[sid] = info
        return sid

    def _register_action(self, aid: int, name: str, target: int) -> int:
        if name in self.index.actions:
            raise ConstructionError(f"duplicate action name {name!r}")
        self.index.actions[name] = aid
        self.index.action_target[aid] = target
        return aid

    def det(self, s: int, t: int, reward: Fraction | int) -> int:
        name = f"{self.mdp.state_names[s]}->{self.mdp.state_names[t]}"
        if name in self.index.actions:
            # A dummy Or gate reads the same input twice; keep both actions.
            suffix = 2
            while f"{name}#{suffix}" in self.index.actions:
                suffix += 1
            name = f"{name}#{suffix}"
        aid = self.mdp.add_action(s, {t: ONE}, reward, name)
        return self._register_action(aid, name, t)

    def split(self, s: int, targets: Sequence[int]) -> int:
        """Single zero-reward action branching uniformly over two targets."""
        t0, t1 = targets
        name = f"{self.mdp.state_names[s]}->({self.mdp.state_names[t0]}|{self.mdp.state_names[t1]})"
        aid = self.mdp.add_action(s, {t0: HALF, t1: HALF}, 0, name)
        return self._register_action(aid, name, t0)

    def detour(self, s: int, t: int, r_d: Fraction | int, r_f: Fraction | int, p: Fraction) -> int:
        sname = self.mdp.state_names[s]
        tname = self.mdp.state_names[t]
        mid_name = f"({sname},{tname})"
        entry_name = f"{sname}~>{tname}"
        exit_name = f"{mid_name}->{tname}"
        aid = add_gadget(
            self.mdp,
            s,
            t,
            r_d,
            r_f,
            p,
            intermediate_name=mid_name,
            entry_name=entry_name,
            exit_name=exit_name,
        )
        mid = self.mdp.num_states - 1
        self.index.states[mid_name] = mid
        self.index.state_info[mid] = StateInfo("detour")
        self._register_action(aid, entry_name, t)
        exit_aid = self.mdp.state_actions[mid][0]
        self._register_action(exit_aid, exit_name, t)
        return aid


# ---------------------------------------------------------------------------
# The clock


def build_clock_into(builder: _Builder, params: ConstructionParams) -> None:
    n = params.n
    t = params.t
    si = builder.state("si", StateInfo("sink"))
    builder.det(si, si, 0)
    si_p = builder.state("si'", StateInfo("sink_pre"))
    builder.det(si_p, si, t * 2 ** (n + 1))
    zero = builder.state("0", StateInfo("zero"))
    builder.det(zero, si, 0)
    one_p = builder.state("1'", StateInfo("clock_prime", i=1))
    builder.split(one_p, (si, si_p))
    prev = builder.state("1", StateInfo("clock", i=1))
    builder.detour(prev, zero, 0, 0, params.alpha[0])
    builder.detour(prev, one_p, 0, 0, params.alpha[0])
    for i in range(2, n + 1):
        i_p = builder.state(f"{i}'", StateInfo("clock_prime", i=i))
        builder.split(i_p, (builder.index.clock_prime(i - 1), builder.index.state(str(i - 2))))
        cur = builder.state(str(i), StateInfo("clock", i=i))
        builder.detour(cur, builder.index.state(str(i - 1)), 0, 0, params.alpha[i - 1])
        builder.detour(cur, i_p, 0, 0, params.alpha[i - 1])
    c0 = builder.state("c0", StateInfo("c", i=0))
    builder.det(c0, builder.index.state(str(n)), 0)
    c1 = builder.state("c1", StateInfo("c", i=1))
    builder.split(c1, (builder.index.state(str(n - 1)), builder.index.clock_prime(n)))


def build_clock(n: int, params: ConstructionParams | None = None) -> "Construction":
    """A standalone clock instance (no circuit attached)."""
    if params is None:
        params = make_params(n, 0)
    if params.n != n:
        raise ConstructionError("params built for a different bit count")
    builder = _Builder(Mdp(), ConstructionIndex())
    build_clock_into(builder, params)
    builder.mdp.validate()
    return Construction(builder.mdp, builder.index, params, None)


def clock_initial_policy(construction: "Construction") -> Policy:
    """Every clock state takes its rightward detour."""
    return _policy_from_overrides(
        construction,
        {str(i): f"{i}~>{i - 1}" for i in range(1, construction.params.n + 1)},
    )


# ---------------------------------------------------------------------------
# Circuit gadgets


def build_input_bit(builder: _Builder, params: ConstructionParams, circuit: Circuit, i: int, j: int) -> None:
    """Input-bit gadget: an output/copy two-mode cell for bit i in copy j."""
    index = builder.index
    c_own = index.c(j)
    c_other = index.c(1 - j)
    source = index.o(1 - j, circuit.copy_source(i))
    o = index.o(j, i)
    l = builder.state(f"l{j}_{i}", StateInfo("l", copy=j, gate=i))
    r = builder.state(f"r{j}_{i}", StateInfo("r", copy=j, gate=i))
    builder.detour(l, c_other, 0, -params.t / 2 + params.mid, params.p5)
    builder.detour(l, c_own, 0, params.high[0], params.p4)
    builder.detour(r, c_own, 0, params.low[0], params.p6)
    builder.detour(r, source, 0, -params.t / 2, params.p7)
    builder.det(o, r, 0)
    builder.detour(o, l, 0, 0, params.p3)


def build_or_gate(builder: _Builder, params: ConstructionParams, circuit: Circuit, i: int, j: int) -> None:
    """Or gadget: the output state tracks the larger input or the false shelf."""
    index = builder.index
    gate = circuit.gate(i)
    d = circuit.depth(i)
    in1 = index.o(j, gate.inputs[0])
    in2 = index.o(j, gate.inputs[1])
    o = index.o(j, i)
    x = builder.state(f"x{j}_{i}", StateInfo("x", copy=j, gate=i))
    v = builder.state(f"v{j}_{i}", StateInfo("v", copy=j, gate=i))
    rate = Fraction(9, 10) / params.t
    builder.detour(x, index.c(j), 0, 0, rate)
    builder.detour(x, index.c(1 - j), 0, 0, rate)
    builder.det(v, in1, 0)
    builder.det(v, in2, 0)
    builder.det(o, x, params.low[d])
    builder.det(o, v, params.b[d])


def build_not_gate(builder: _Builder, params: ConstructionParams, circuit: Circuit, i: int, j: int) -> None:
    """Not gadget: an arming state gates when the inverted value may appear."""
    index = builder.index
    gate = circuit.gate(i)
    d = circuit.depth(i)
    source = index.o(j, gate.inputs[0])
    o = index.o(j, i)
    a = builder.state(f"a{j}_{i}", StateInfo("a", copy=j, gate=i))
    builder.detour(a, index.c(j), 0, 0, params.p2(d))
    builder.detour(a, index.c(1 - j), 0, -params.t + params.high[d - 1], params.p1(d))
    builder.det(o, source, 0)
    builder.detour(o, a, 1, 0, ONE / params.b[d])


@dataclass
class Construction:
    mdp: Mdp
    index: ConstructionIndex
    params: ConstructionParams
    circuit: Circuit | None = None
    z: int | None = None
    w: Fraction | None = None

    def budget(self) -> int:
        return default_budget(self.params.n, self.mdp.num_states)

    def input_bits(self) -> range:
        assert self.circuit is not None
        return range(1, self.circuit.n + 1)

    def or_gates(self) -> list[int]:
        assert self.circuit is not None
        return [i for i in range(1, self.circuit.size + 1) if self.circuit.gate(i).kind == KIND_OR]

    def not_gates(self) -> list[int]:
        assert self.circuit is not None
        return [i for i in range(1, self.circuit.size + 1) if self.circuit.gate(i).kind == KIND_NOT]


def build_construction(circuit: Circuit) -> Construction:
    """Build the full machine for a normalized, output-negated circuit."""
    params = derive_params(circuit)
    builder = _Builder(Mdp(), ConstructionIndex())
    build_clock_into(builder, params)
    for j in (0, 1):
        for i in range(1, circuit.size + 1):
            builder.state(f"o{j}_{i}", StateInfo("o", copy=j, gate=i))
    for j in (0, 1):
        for i in range(1, circuit.size + 1):
            kind = circuit.gate(i).kind
            if kind == KIND_INPUT:
                build_input_bit(builder, params, circuit, i, j)
            elif kind == KIND_OR:
                build_or_gate(builder, params, circuit, i, j)
            else:
                build_not_gate(builder, params, circuit, i, j)
    builder.mdp.validate()
    return Construction(builder.mdp, builder.index, params, circuit)


def build_construction_z(circuit: Circuit, z: int, *, w: Fraction) -> Construction:
    """The decision variant: a freeze gadget pins the choice at o0_z at the end.

    ``w`` may be any scale at least the largest state value an optimal
    policy attains on the plain construction, i.e. at least the top state
    value at the end of the plain run (``PIResult.values``).  The CLI uses
    the closed-form ``bound_w``, which needs no plain run.

    The escape from l0_z is a deterministic zero-reward edge, but the escape
    from r0_z is a probability-1/2 zero-reward detour.  The halving makes
    l0_z detach strictly first once the gadget arms; if both escapes were
    deterministic, r0_z would detach first and the switch from o0_z to r0_z
    would tie exactly with l0_z's escape, letting an adversarial tie-break
    overwrite the stored answer bit.  Both escapes still end at value 2w,
    so o0_z finishes exactly indifferent between its two actions.
    """
    if not 1 <= z <= circuit.n:
        raise ConstructionError(f"bit index {z} outside 1..{circuit.n}")
    cons = build_construction(circuit)
    w = rat(w)
    if w <= 0:
        raise ConstructionError("w must be positive")
    builder = _Builder(cons.mdp, cons.index)
    si = cons.index.si()
    b1 = builder.state("b1", StateInfo("b", i=1))
    b2 = builder.state("b2", StateInfo("b", i=2))
    builder.det(b1, si, 2 * w)
    builder.det(b2, si, 0)
    builder.detour(b2, b1, 0, 0, Fraction(1, 5) / (2 * w))
    builder.det(cons.index.state(f"l0_{z}"), b2, 0)
    builder.detour(cons.index.state(f"r0_{z}"), b2, 0, 0, HALF)
    cons.mdp.validate()
    return Construction(cons.mdp, cons.index, cons.params, circuit, z=z, w=w)


# ---------------------------------------------------------------------------
# Initial policies


def _policy_from_overrides(construction: Construction, choices: dict[str, str]) -> Policy:
    mdp = construction.mdp
    index = construction.index
    picks = [mdp.state_actions[s][0] for s in range(mdp.num_states)]
    for state_name, action_name in choices.items():
        sid = index.state(state_name)
        picks[sid] = index.action(action_name)
    return make_policy(mdp, picks)


def initial_policy(construction: Construction, b_init: Sequence[int]) -> Policy:
    """The canonical starting policy: clock rightward, copy 0 holding the bits.

    Copy 0's input bits are in output mode encoding ``b_init`` (bit 1 means
    the o-state points at l); copy 1's are in copy mode.  All x and arming
    states point at c0.  Gate-internal states the scripted behaviour never
    depends on (v, Or and Not outputs) point down their own circuit, which
    keeps the policy graph acyclic apart from detour self-returns.
    """
    circuit = construction.circuit
    if circuit is None:
        raise ConstructionError("this instance has no circuit; use clock_initial_policy")
    if len(b_init) != circuit.n:
        raise ConstructionError(f"expected {circuit.n} bits, got {len(b_init)}")
    choices: dict[str, str] = {
        str(i): f"{i}~>{i - 1}" for i in range(1, construction.params.n + 1)
    }
    for i in construction.input_bits():
        src = circuit.copy_source(i)
        choices[f"l0_{i}"] = f"l0_{i}~>c0"
        choices[f"r0_{i}"] = f"r0_{i}~>c0"
        choices[f"o0_{i}"] = f"o0_{i}~>l0_{i}" if b_init[i - 1] else f"o0_{i}->r0_{i}"
        choices[f"l1_{i}"] = f"l1_{i}~>c0"
        choices[f"r1_{i}"] = f"r1_{i}~>o0_{src}"
        choices[f"o1_{i}"] = f"o1_{i}~>l1_{i}"
    for i in construction.or_gates():
        gate = circuit.gate(i)
        for j in (0, 1):
            choices[f"x{j}_{i}"] = f"x{j}_{i}~>c0"
            choices[f"o{j}_{i}"] = f"o{j}_{i}->x{j}_{i}"
            choices[f"v{j}_{i}"] = f"v{j}_{i}->o{j}_{gate.inputs[0]}"
    for i in construction.not_gates():
        gate = circuit.gate(i)
        for j in (0, 1):
            choices[f"a{j}_{i}"] = f"a{j}_{i}~>c0"
            choices[f"o{j}_{i}"] = f"o{j}_{i}->o{j}_{gate.inputs[0]}"
    if construction.z is not None:
        choices["b2"] = "b2->si"
    return _policy_from_overrides(construction, choices)


# ---------------------------------------------------------------------------
# The freeze-gadget scale constant


def bound_w(params: ConstructionParams) -> Fraction:
    """Closed-form upper bound on any state value: the freeze-gadget scale ``decide`` uses."""
    return params.t * 2 ** (params.n + 2)


# ---------------------------------------------------------------------------
# Manifest


def manifest(construction: Construction) -> dict:
    data = {
        "params": construction.params.as_dict(),
        "mdp": mdp_to_json(construction.mdp),
        "num_states": construction.mdp.num_states,
        "num_actions": construction.mdp.num_actions,
    }
    if construction.z is not None:
        data["z"] = construction.z
        data["w"] = format_rational(construction.w)
    if construction.circuit is not None:
        from .circuit import circuit_to_json

        data["circuit"] = circuit_to_json(construction.circuit)
    return data
