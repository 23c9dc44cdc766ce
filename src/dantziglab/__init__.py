"""Exact-arithmetic laboratory for greedy policy iteration and its simplex twin.

The package compiles boolean circuits into a Markov decision process whose
greedy single-switch policy iteration simulates iterated circuit
evaluation, runs that iteration and the matching largest-coefficient
simplex pivots in lockstep, and machine-checks the clock behaviour, the
appeal catalog, the phase transitions, and the LP correspondence on
desk-scale instances.  Everything is computed in exact rational arithmetic.

The API is the submodules (``from dantziglab.mdp import run_policy_iteration``).
"""

__version__ = "0.1.0"
