"""Exception hierarchy shared by the whole library.

The CLI maps these onto exit codes: InputError -> 2, PreconditionError
(including StructuralError) -> 3, and InternalError -> 3 with
"error": "internal".  InternalError is raised only by the exact checks of
an answer before it is returned, so it always means a library bug, never
bad input.
"""


class NillatError(Exception):
    """Base class for all library errors."""


class InputError(NillatError):
    """Malformed input: bad indices, dimension mismatch, unparsable JSON."""


class PreconditionError(NillatError):
    """Input is well-formed but violates an operation's precondition."""


class StructuralError(PreconditionError):
    """Input fails a structural hypothesis (wrong algebra type, rank defect)."""


class InternalError(NillatError):
    """A computed answer failed its exact check: a library bug."""
