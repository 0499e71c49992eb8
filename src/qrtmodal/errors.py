"""Exception types shared across the package."""


class QrtModalError(Exception):
    """Base class for all qrtmodal errors."""


class ShapeError(QrtModalError):
    """A matrix or operator has the wrong shape."""


class DimensionMismatchError(QrtModalError):
    """Two objects that must share a dimension do not."""


class NumericalError(QrtModalError):
    """A numerical routine failed on finite input, such as a LAPACK
    eigen-solve that did not converge."""


class StructuralError(QrtModalError):
    """An object violates a structural precondition (missing trivial
    system, malformed model, missing unit world, ...)."""


class ResourceLimitError(QrtModalError):
    """A configured search or closure cap was exceeded."""


class GenerationError(QrtModalError):
    """The random generator exhausted its resampling budget."""


class FormulaSyntaxError(QrtModalError):
    """Formula text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(QrtModalError):
    """A formula or query referenced a world or atom not in the model."""
