"""Exception types shared across the package, and the memory guard that
raises ``ResourceError``."""

import os


class PflabError(Exception):
    """Base class for all errors raised by pflab."""


class ConfigError(PflabError):
    """Malformed or inconsistent configuration (schema violations, bad field values)."""


class DimensionCapError(PflabError):
    """Requested basis would exceed the hard dimension cap."""


class ResourceError(PflabError):
    """A computation would need more memory than the machine has; refused
    before allocating."""


def require_memory(need: int, what: str, remedy: str) -> None:
    """Refuse ``what``, with ``ResourceError`` and before it allocates, when
    the ``need`` bytes it would allocate exceed the machine's physical
    memory; the message ends with ``remedy``."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ResourceError(f"{what} needs about {need / 2**30:.3g} GiB, more than the "
                            f"{have / 2**30:.3g} GiB of physical memory; {remedy}")


class BasisMismatchError(PflabError):
    """Operators or vectors built on different bases were combined."""


class NonHermitianError(PflabError):
    """An operator expected to be Hermitian is not."""


class NotAxialError(PflabError):
    """Operation requires a mode set whose k-points all lie on one axis."""


class DomainError(PflabError):
    """Evaluation outside the domain of an interpolant or search grid."""


class GapTooSmallError(PflabError):
    """A resolvent-style denominator fell below its configured floor."""


class SolverError(PflabError):
    """Eigensolver failed to converge.

    Carries the best residual norms seen so far in ``residuals``.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class IndeterminateDegeneracy(PflabError):
    """Ground-cluster detection could not certify a separation gap.

    Distinct from any degeneracy count: the clustering was ambiguous at the
    requested tolerances.
    """
