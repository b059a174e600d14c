"""Domain errors raised by the library.

Every class name doubles as the machine-readable token the command line
front end prints (one line, ``Token: detail``) before exiting with the
domain-error status code.
"""


class FinslerError(Exception):
    """Base class for all domain errors."""

    @property
    def token(self):
        return type(self).__name__


class NotHermitian(FinslerError):
    """A matrix that must be Hermitian violates the conjugate-symmetry tolerance."""


class NotUnimodular(FinslerError):
    """A group element's determinant differs from 1 beyond tolerance."""


class NonRealEntry(FinslerError):
    """A real quantity is not finite: an entry of the group action, or a cubic form."""


class IsotropicVelocity(FinslerError):
    """The cubic form of a velocity vanishes (within the isotropy threshold)."""


class InconsistentMomenta(FinslerError):
    """Momenta violate the determinant constraint that valid momenta must satisfy."""


class SingularMomentumMatrix(FinslerError):
    """The momentum matrix, or a transform of momenta, cannot be inverted."""


class NotUnitSpeed(FinslerError):
    """An initial velocity violates the unit-determinant condition."""


class NonMonotone(FinslerError):
    """A reparametrization's derivative vanishes or changes sign."""


class DegeneratePath(FinslerError):
    """A sampled path has too few samples to differentiate."""


class NonTimelike(FinslerError):
    """The 4-velocity part is not timelike; the correspondence limit is undefined."""


class BlockLeakage(FinslerError):
    """A transformation expected to be block diagonal couples the index blocks."""
