"""Exception hierarchy shared by the whole package, and the shape of one
field of the instance schema (``cli.FIELDS``).

The CLI maps these onto exit codes: schema problems exit 2, precondition
violations exit 3; any other exception is an internal error and exits 4.
"""

from collections import namedtuple


class IglError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(IglError):
    """An instance file does not match its schema: the JSON path of the
    value at fault (``branches[2].L.finite.p``) and the problem, or the
    problem alone where a parse does not know the path (``under``)."""

    def __str__(self) -> str:
        return ": ".join(filter(None, self.args))

    def under(self, where: str) -> "SchemaError":
        """This error, of a value that sits at the path ``where``."""
        path, *rest = self.args if len(self.args) > 1 else ("", *self.args)
        return SchemaError(where + path if path[:1] in ("", "[") else f"{where}.{path}", *rest)


def unknown_key(where: str, key: str) -> SchemaError:
    """The error of a key that the record at ``where`` may not hold: under
    its own path when it is a name, else quoted beside the record's path,
    so that the message stays one line."""
    if key.isidentifier():
        return SchemaError(f"{where}.{key}" if where else key, "unknown key")
    return SchemaError(where, f"unknown key {key!r}")


class PreconditionError(IglError):
    """An operation was invoked outside its stated hypotheses."""


class DiagramError(PreconditionError):
    """A diagram input is ill-posed: a row is not exact, a square does not
    commute, or a claimed internal direct-sum decomposition fails."""


class MalformedTraceError(PreconditionError):
    """A survival trace is inconsistent: non-monotone, failing at stage
    zero, or claiming a first failure at a limit ordinal."""


# the types of a schema field, spelt as the README's field table spells them
INT, FLAG, STR, ENUM, VECTORS, SLOTS, STRATA, RECORD, RECORDS, ANY = (
    "integer", "flag", "string", "enum", "integer vectors", "slots", "strata", "record",
    "records", "any")

_MUST = {STR: "a string", VECTORS: "a list of integer vectors",
         STRATA: "an object from strata to slot lists"}


class Field(namedtuple("Field", "type required default bound record",
                       defaults=(False, None, None, None))):
    """A field of a schema record: its type; whether it is required (or
    the field whose value names it, as ``check`` names a diagram's term);
    an absent optional field's default; its bound (an integer's range, its
    top ``None`` for none, an enum's values, a list's least length, the
    field that gives each vector's length, or most digits); its record."""

    __slots__ = ()

    def expected(self) -> str:
        """The problem of a value that this field refuses."""
        kind, bound = self.type, self.bound
        if kind is INT:
            low, top = bound
            return (f"must be {low}" if low == top else f"must be an integer >= {low}"
                    if top is None else f"must be an integer from {low} to {top}")
        if kind is FLAG:
            return ("must be true, false or null" if self.default is None
                    else "must be true or false")
        if kind is ENUM:
            *head, last = map(repr, bound)
            return f"must be {', '.join(head)} or {last}"
        if kind is SLOTS or kind is RECORDS:
            return (f"must be a {'nonempty list' if bound else 'list'} of "
                    f"{'slots' if kind is SLOTS else 'records'}")
        return "must be " + _MUST[kind]
