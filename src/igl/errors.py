"""Exception hierarchy shared by the whole package, and the one reader
of boolean instance fields.

The CLI maps these onto exit codes: schema problems exit 2, precondition
violations exit 3; any other exception is an internal error and exits 4.
"""


class IglError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(IglError):
    """An instance file or payload does not match its documented schema."""


class PreconditionError(IglError):
    """An operation was invoked outside its stated hypotheses."""


class DiagramError(PreconditionError):
    """A diagram input is ill-posed: a row is not exact, a square does not
    commute, or a claimed internal direct-sum decomposition fails."""


class MalformedTraceError(PreconditionError):
    """A survival trace is inconsistent: non-monotone, failing at stage
    zero, or claiming a first failure at a limit ordinal."""


def read_flag(rec: dict, key: str, default: bool | None, where: str) -> bool | None:
    """A boolean instance field: JSON ``true`` or ``false``.  An absent key
    gives ``default``; so does ``null`` where the default is ``None``
    (undeclared).  Anything else is a schema error: a string such as
    ``"false"`` is not read by its truthiness."""
    value = rec.get(key, default)
    if type(value) is bool or (value is None and default is None):
        return value
    allowed = "true, false or null" if default is None else "true or false"
    raise SchemaError(f"{where}: must be {allowed}")
