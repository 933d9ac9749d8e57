"""Exception hierarchy shared by all treecascade modules."""


class TreeCascadeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(TreeCascadeError, ValueError):
    """An argument violates a documented precondition."""


class DegeneracyError(TreeCascadeError, ValueError):
    """A pair of variables is perfectly correlated or otherwise singular."""


class UnsupportedModelError(TreeCascadeError, ValueError):
    """The operation requires a model property the input lacks."""


class DataError(TreeCascadeError, ValueError):
    """A dataset or file content problem; names the offending row/column."""


class SchemaError(TreeCascadeError, ValueError):
    """A serialized document violates the expected schema; names the field."""
