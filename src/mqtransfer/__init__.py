"""Block-scaled transfer of multiple-quantum coherence matrices through XX chains.

The library computes how the coherence-order blocks of a small sender density
matrix arrive, scaled but unmixed, at the far end of a spin-1/2 chain with a
thermal background, and it measures and optimizes the region of sender states
that make this exact. An oracle independent of the analytic map, which evolves the
receiver's Jordan-Wigner operators under the numerically diagonalized hopping
matrix, certifies every analytic formula at any chain length.
"""

from .chain import (
    AmplitudeSet,
    ChainSpec,
    ModeBasis,
    amplitude_set,
    endpoint_amplitude,
    endpoint_power_max,
    mode_basis,
    transition_amplitude,
)
from .errors import (
    ConfigurationError,
    ResourceError,
    SingularInputError,
    ValidationError,
)
from .one_qubit import (
    Qubit1State,
    lambda0_variant_a,
    lambda0_variant_b,
    lambda1_1q,
    perfect_zero_a1,
    receiver_state_1q,
    state_independent_target,
    state_independent_time,
)
from .optimize import (
    CurvePoint,
    OptProblem,
    OptResult,
    first_window,
    lambda2_landmark,
    optimize,
    summary_table,
    uniform_curve,
)
from .oracle import build_hamiltonian, evolve_and_trace
from .solvers import (
    gauge_fix,
    solve_first_order,
    solve_zero_order,
    zero_order_system,
)
from .states import (
    RegionReport,
    assemble_sender,
    region_metrics,
)
from .two_qubit import (
    AlphaTable,
    alpha_table,
    decompose_blocks,
    random_density,
    receiver_from_sender,
    validate_density,
)

__version__ = "0.1.0"
