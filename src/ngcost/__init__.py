"""Cost-minimization toolkit for two-party non-local games.

Games assign a cost to every answer pair for every input pair; +inf
marks forbidden answers.  The package computes exact classical costs by
enumeration, quantum cost upper bounds by see-saw iteration, and
non-signalling lower bounds by linear programming, and sweeps the
built-in G(phi, w) family that joins the CHSH and Hardy games.
"""

from .classical import DeterministicStrategy, classical_cost, strategy_cost
from .games import (
    Behavior,
    FamilyParams,
    Game,
    auto_cap,
    cap_infinities,
    expected_cost,
    game_from_dict,
    game_to_dict,
    load_game,
    make_chsh_game,
    make_family_game,
    make_hardy_game,
    save_game,
)
from .linalg import herm_eig
from .nsbound import NonSignallingInfeasibleError, is_nonsignalling, ns_lower_bound
from .quantum import (
    QuantumStrategy,
    behavior_of,
    chsh_optimal_strategy,
    evaluate_quantum_strategy,
    hardy_strategy,
    load_strategy,
    observable_to_povm,
    optimize_hardy_theta,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from .seesaw import (
    SeesawConfig,
    SeesawReport,
    game_operator,
    optimal_state,
    seesaw_upper_bound,
    update_alice,
    update_bob,
)
from .simplex import LinearProgram, LpInfeasibleError, LpUnboundedError, solve

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "DeterministicStrategy",
    "FamilyParams",
    "Game",
    "LinearProgram",
    "LpInfeasibleError",
    "LpUnboundedError",
    "NonSignallingInfeasibleError",
    "QuantumStrategy",
    "SeesawConfig",
    "SeesawReport",
    "auto_cap",
    "behavior_of",
    "cap_infinities",
    "chsh_optimal_strategy",
    "classical_cost",
    "evaluate_quantum_strategy",
    "expected_cost",
    "game_from_dict",
    "game_operator",
    "game_to_dict",
    "hardy_strategy",
    "herm_eig",
    "is_nonsignalling",
    "load_game",
    "load_strategy",
    "make_chsh_game",
    "make_family_game",
    "make_hardy_game",
    "ns_lower_bound",
    "observable_to_povm",
    "optimal_state",
    "optimize_hardy_theta",
    "save_game",
    "save_strategy",
    "seesaw_upper_bound",
    "solve",
    "strategy_cost",
    "strategy_from_dict",
    "strategy_to_dict",
    "update_alice",
    "update_bob",
]
