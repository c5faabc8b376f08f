"""Exception hierarchy for the simulator."""


class QCollideError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(QCollideError):
    """Operand is not a square matrix."""


class NonHermitianError(QCollideError):
    """Matrix fails the Hermiticity tolerance gate."""


class DimensionMismatchError(QCollideError):
    """Operands have incompatible dimensions."""


class NotPositiveError(QCollideError):
    """State has an eigenvalue below the positivity tolerance."""


class DiagonalCoherenceError(QCollideError):
    """Coherence perturbation has diagonal elements in the reference basis."""


class SupportViolationError(QCollideError):
    """First state of a relative entropy is not supported inside the second."""


class FirstMomentError(QCollideError):
    """Interaction has a non-vanishing thermal first moment; shift it first."""


class EigenoperatorError(QCollideError):
    """Operator does not satisfy the eigenoperator commutation condition."""


class StepSizeError(QCollideError):
    """Integrator step exceeds the stability bound for this generator."""


class PositivityLostError(QCollideError):
    """Integrated state left the positive cone beyond tolerance."""


class TraceDriftError(QCollideError):
    """Integrated state drifted away from unit trace."""


class DegenerateSteadyStateError(QCollideError):
    """Generator has more than one steady state."""


class RankDeficientError(QCollideError):
    """State is (numerically) rank deficient where a full-rank one is needed."""


class UnitaryDefectError(QCollideError):
    """Collision propagator fails the unitarity or energy-conservation check."""


class EnergyConservationError(QCollideError):
    """Interaction does not commute with the free Hamiltonian."""


class DegenerateSpectrumError(QCollideError):
    """Unperturbed spectrum is too degenerate for the requested series."""
