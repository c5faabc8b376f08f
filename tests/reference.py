"""Reference routes and fixtures that only the tests use.

The reference routes are written out the slow, explicit way (full joint
states, nested commutators, partial traces) so that the tests can hold the
package's closed-form paths against them.
"""

import numpy as np

from qcollide.errors import DimensionMismatchError
from qcollide.linalg import double_commutator, kron, partial_trace
from qcollide.presets import _mixed_wishart, random_matrix
from qcollide.rng import SplitMix64
from qcollide.states import DensityMatrix, von_neumann_entropy

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def mutual_information(rho_joint: DensityMatrix, dim_system: int, dim_ancilla: int) -> float:
    """``S(rho_S) + S(rho_A) - S(rho_SA)`` for a bipartite state."""
    if dim_system * dim_ancilla != rho_joint.dim:
        raise DimensionMismatchError(
            f"{dim_system} x {dim_ancilla} does not match joint dimension {rho_joint.dim}"
        )
    reduced_system = DensityMatrix(partial_trace(rho_joint.matrix, dim_system, dim_ancilla, "system"))
    reduced_ancilla = DensityMatrix(partial_trace(rho_joint.matrix, dim_system, dim_ancilla, "ancilla"))
    return (
        von_neumann_entropy(reduced_system)
        + von_neumann_entropy(reduced_ancilla)
        - von_neumann_entropy(rho_joint)
    )


def dissipator_apply(v_interaction, rho_system, rho_thermal, dim_system: int, dim_ancilla: int) -> np.ndarray:
    """Thermal dissipator ``-(1/2) tr_A [V, [V, rho (x) rho_th]]``."""
    joint = kron(rho_system, rho_thermal)
    nested = double_commutator(v_interaction, joint)
    return -0.5 * partial_trace(nested, dim_system, dim_ancilla, "system")


def random_density_matrix(rng: SplitMix64, dim: int, floor: float = 0.08) -> DensityMatrix:
    """Full-rank random state: a Wishart draw mixed with the identity, as the sampler makes ``rho_S``."""
    return DensityMatrix(_mixed_wishart(random_matrix(rng, dim), floor))
