"""Exception hierarchy.

Every error carries a stable kebab-case ``code`` so reports and the CLI can
refer to failure categories without depending on Python class names.
"""

from __future__ import annotations


class BelError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InvalidRangeError(BelError):
    """Grid endpoints or node count out of range."""

    code = "invalid-range"


class OutOfGridError(BelError):
    """A radius beyond the sampled grid was requested."""

    code = "out-of-grid"


class SingularRadiusError(BelError):
    """Evaluation exactly at the pole r=0, where psi'/psi is singular."""

    code = "singular-radius"


class InvalidVirtualDimensionError(BelError):
    """Virtual dimension n must satisfy n > d (or be infinity)."""

    code = "invalid-n"


class WarpingNotConcaveError(BelError):
    """psi'' < 0 for r > 0 is required and fails somewhere."""

    code = "warping-not-concave"


class NonpositiveCenterValueError(BelError):
    """Center value ell must be positive for the power nonlinearity."""

    code = "nonpositive-ell"


class BlowupError(BelError):
    """|u| or |u'| exceeded the overflow guard during integration."""

    code = "blowup-detected"


class OutOfRangeError(BelError):
    """Radius outside the range covered by a solution profile."""

    code = "out-of-range"


class MonotonicityError(BelError):
    """The weighted area density e^{-f} psi^{d-1} is not increasing where
    the slope-factor formula requires it."""

    code = "monotonicity-violated"


class CrossCheckError(BelError, ArithmeticError):
    """Two independent evaluations of one quantity disagree beyond their
    stated tolerance (an internal consistency check failed).  Also an
    ``ArithmeticError``, which these checks raised before they had a code."""

    code = "cross-check-mismatch"


class InvalidAlphaError(BelError):
    """alpha must lie strictly between 0 and 1."""

    code = "invalid-alpha"


class InvalidDimensionError(BelError):
    """Integer dimension out of range for the requested object."""

    code = "invalid-dimension"


class NonpositiveSolutionError(BelError):
    """Positive-solution transform applied to data with a zero crossing."""

    code = "nonpositive-u"


class QOutOfRangeError(BelError):
    """Integral-estimate exponent q outside [0, m/2 + 1]."""

    code = "q-out-of-range"


class SuperharmonicityError(BelError):
    """L u <= 0 precondition of the floor estimate fails on the grid."""

    code = "superharmonicity-violated"


class ConfigParseError(BelError):
    """Scenario config file rejected; message includes file/line context."""

    code = "config-parse-error"


class ArtifactIOError(BelError):
    """Failure writing profiles.csv / report.json artifacts."""

    code = "io-error"
