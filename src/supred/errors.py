"""Exception types shared across the package."""


class SupredError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SupredError):
    """Malformed ``.aut`` input.

    ``kind`` distinguishes the failure classes a caller may want to react
    to: "syntax", "duplicate", "nondeterministic", "unknown".
    """

    def __init__(self, message, line=None, column=None, kind="syntax"):
        self.line = line
        self.column = column
        self.kind = kind
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class AlphabetMismatchError(SupredError):
    """Two automata do not share a byte-identical alphabet."""


class InfeasibleSupervisorError(SupredError):
    """A supervisor failed a feasibility gate.

    ``check`` names the failed gate: "feasibility" or "controllability".
    """

    def __init__(self, check, witness=None):
        self.check = check
        self.witness = witness
        detail = f": {witness}" if witness is not None else ""
        super().__init__(f"supervisor fails the {check} check{detail}")


class CoverError(SupredError):
    """A cover is structurally malformed (empty cell, unknown state,
    non-covering union) or was rejected by validation where a valid cover
    is required."""


class PreconditionError(SupredError):
    """A documented operation precondition does not hold.

    ``name`` identifies which precondition failed.
    """

    def __init__(self, name, detail=""):
        self.name = name
        suffix = f": {detail}" if detail else ""
        super().__init__(f"precondition '{name}' violated{suffix}")


class SearchCapError(SupredError):
    """A search refused: the supervisor exceeds the state cap of ``search``."""

    def __init__(self, size, cap, search="exact search"):
        self.size = size
        self.cap = cap
        super().__init__(f"{search} cap exceeded: {size} states > cap {cap}")
