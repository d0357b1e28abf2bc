"""(t, r) broadcast domination: graph families, closed forms, witnesses,
and an exact oracle.

Towers of strength ``t`` send signal that decays by one per edge; a
tower set dominates when every vertex accumulates at least ``r``.  The
package builds the standard graph families, evaluates every published
closed form and bound it knows with provenance tags, emits the explicit
tower placements behind them, and certifies both against an exact
minimum-cardinality solver at small scale.
"""

__version__ = "0.1.0"

from .graphs import (
    DisconnectedTree,
    DominationError,
    GraphFamily,
    GraphInstance,
    InvalidDimensions,
    UnknownVertex,
    build,
    cycle_graph,
    family_from_json,
    family_to_json,
    grid3d_graph,
    grid_graph,
    king_distance,
    king_graph,
    path_graph,
    slant_graph,
    slant_lattice_distance,
    tree_graph,
)
from .reception import (
    ReceptionMap,
    TowerOutsideGraph,
    TowerSet,
    VerificationReport,
    compute_reception,
    verify,
)
from .formulas import (
    BlockDims,
    GammaResult,
    HypothesisViolated,
    NotAPathDecomposition,
    UnsupportedShapeForR,
    UnsupportedTRPair,
    block3d_dims,
    block3d_family,
    block3d_sum,
    cycle_upper_bound,
    grid3d_2_2_k_gamma,
    grid3d_upper_bound,
    grid_gamma,
    grid_starting_block_dims,
    king_gamma,
    path_gamma,
    slant_gamma_2xn,
    slant_upper_bound,
    tree_decomposition_bound,
)
from .constructions import (
    LatticePattern,
    PlacementPlan,
    UnsupportedR,
    WindowTooSmall,
    block3d_towers,
    cycle_towers,
    grid3d_cover,
    grid_starting_block,
    grid_towers,
    king_lattice_pattern,
    king_towers,
    path_towers,
    slant_tile_cover,
    slant_towers_2xn,
    triangular_lattice_pattern,
    verify_lattice_window,
)
from .solver import (
    Infeasible,
    OracleResult,
    SolverConfig,
    TooLarge,
    naive_enumerate,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
