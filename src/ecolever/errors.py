"""Exception types shared across the package."""


class EcoleverError(Exception):
    """Base class for every package-specific error."""


class ValidationError(EcoleverError):
    """Structural invariants are violated.

    Carries the complete list of violations so callers (the scenario loader in
    particular) can report every problem at once rather than the first found.
    """

    def __init__(self, violations):
        self.violations = [str(v) for v in violations]
        super().__init__("; ".join(self.violations))


class InvalidAllocationError(EcoleverError):
    """An allocation references unknown routes, breaks mass balance, or exceeds a capacity."""


class InfeasibleError(EcoleverError):
    """The problem instance admits no feasible solution. The package no
    longer raises it; it stays exported because benchmarks/selfcheck.py
    raises it to inject a failure."""


class ResourceBoundError(EcoleverError):
    """An exhaustive search was asked to enumerate more points than its hard bound."""


class NoThresholdError(EcoleverError):
    """No finite tax rate can induce the requested technology switch."""


class CalibrationError(ValidationError):
    """Calibration anchors are mutually inconsistent; lists the violated relations."""
