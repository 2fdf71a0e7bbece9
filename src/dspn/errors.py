"""Exception types raised across the package."""


class DspnError(Exception):
    """Base class for all package errors."""


class InvalidGrid(DspnError):
    """Grid is empty, malformed, contains non-finite values, or holds a
    negative depth."""


class InvalidPosition(DspnError):
    """Position is not a pair of finite reals, or a pixel not an integer pair in its grid."""


class ShapeMismatch(DspnError):
    """Operands disagree in width/height/channels/kernel layout, or a map is multi-channel."""


class InvalidAffinity(DspnError):
    """Raw affinity stencil contains non-finite entries or has a bad layout."""


class InvalidMask(DspnError):
    """Validity mask contains values other than 0 and 1."""


class InvalidConfig(DspnError):
    """A configuration value or count is not whole or violates its documented range."""


class InvalidConfidence(DspnError):
    """Confidence values fall outside [0, 1]."""


class EmptyGroundTruth(DspnError):
    """No valid ground-truth pixels to evaluate against."""


class NonFiniteLoss(DspnError):
    """Loss function returned NaN or Inf during a gradient probe."""


class InvalidState(DspnError):
    """Backward pass called without (or with a stale) forward state."""


class Diverged(DspnError):
    """Gradient descent produced a non-finite loss."""


class InvalidSpec(DspnError):
    """Scene or sparsity specification violates its invariants."""


class EmptySparse(DspnError):
    """Sparse input has no valid measurements."""


class CorruptFile(DspnError):
    """File header and payload disagree, or the file is truncated."""


class UnsupportedFormat(DspnError):
    """File is syntactically valid but uses an unsupported variant."""
