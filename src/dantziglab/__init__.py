"""Exact-arithmetic laboratory for greedy policy iteration and its simplex twin.

The package compiles boolean circuits into a Markov decision process whose
greedy single-switch policy iteration simulates iterated circuit
evaluation, runs that iteration and the matching largest-coefficient
simplex pivots in lockstep, and machine-checks the clock behaviour, the
appeal catalog, the phase transitions, and the LP correspondence on
desk-scale instances.  Everything is computed in exact rational arithmetic.
"""

from .numerics import SingularMatrixError, inverse, rat, solve_linear_system
from .circuit import (
    Circuit,
    decide_bitswitch,
    decide_circuitvalue,
    evaluate,
    iterate,
    negated_form,
    normalize_depths,
    outputs,
    parse_bits,
)
from .mdp import (
    CrosscheckError,
    IterationBudgetExceededError,
    Mdp,
    PIResult,
    Policy,
    TieBreak,
    add_gadget,
    appeals,
    dantzig_step,
    decide_action_switch,
    decide_dantzig_mdp_sol,
    evaluate_gain,
    evaluate_values,
    make_policy,
    run_policy_iteration,
)
from .construction import (
    Construction,
    build_clock,
    build_construction,
    build_construction_z,
    bound_w,
    clock_initial_policy,
    derive_params,
    initial_policy,
    make_params,
)
from .lp import (
    Lockstep,
    basis_from_policy,
    check_pi_simplex_equivalence,
    dual_and_reduced_costs,
    mdp_to_primal,
    simplex_dantzig_step,
)
from .verify import (
    ClockAuditor,
    ClockOracle,
    audit_appeal_catalog,
    check_all_transitions,
    check_b_correct,
    check_clock_trace,
    check_coherent,
    check_final,
    check_phase_transition,
    end_to_end,
    gray_code,
    run_annotated,
)
from .turing import Machine, compile_machine, simulate

__version__ = "0.1.0"
