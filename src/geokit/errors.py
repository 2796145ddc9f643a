"""Exception hierarchy shared by all geokit modules.

Two broad classes matter to callers (and to the CLI exit codes): input or
contract violations (:class:`ValidationError`) and computations whose
numerical residuals exceed the requested tolerance (:class:`NumericalError`).
"""


class GeokitError(Exception):
    """Base class for all geokit errors."""


class ValidationError(GeokitError):
    """Bad input: shapes, file contents, preconditions, spectra."""


class SystemFormatError(ValidationError):
    """A system file does not follow the JSON system format."""


class SpectrumError(ValidationError):
    """A requested eigenvalue set violates distinctness, conjugacy, or
    proximity constraints."""


class NotInvariantError(ValidationError):
    """A subspace is not output nulling (at p = 0: not controlled
    invariant), so it has no friend."""


class NumericalError(GeokitError):
    """A computation finished but its residual exceeds the tolerance."""


class SynthesisError(NumericalError):
    """Feedback synthesis produced residuals above tolerance or was handed a
    dependent / non-self-conjugate column selection."""


class DecompositionError(NumericalError):
    """A structured decomposition has off-pattern blocks above tolerance."""
