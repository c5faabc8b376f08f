"""qcollide: stroboscopic collision models of open quantum systems with
weakly coherent environments, their continuous-time limit, and a full
thermodynamic verification suite."""

__version__ = "0.1.0"

from .collisions import (
    CollisionConfig,
    CollisionLedger,
    TrajectoryRecord,
    build_unitary,
    run_trajectory,
)
from .lindblad import (
    EigenoperatorCoupling,
    JumpRates,
    LindbladGenerator,
    eigenoperator_dissipator,
    eigenoperator_interaction,
    integrate,
    multi_bath_generator,
    steady_state,
)
from .linalg import (
    Spectrum,
    commutator,
    dag,
    double_commutator,
    expm_unitary,
    hermitian_eig,
    hermitian_eigvals,
    kron,
    partial_trace,
)
from .series import (
    PerturbedState,
    ancilla_after_series,
    ancilla_coherence_change_series,
    coherence_series,
    coherent_work_ancilla_side,
    entropy_series,
    predicted_mutual_info,
    predicted_rel_entropy,
    relative_entropy_series,
)
from .states import (
    AncillaSpec,
    DensityMatrix,
    ergotropy_exact,
    free_energy,
    relative_entropy,
    relative_entropy_of_coherence,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
    weakly_coherent_state,
)
