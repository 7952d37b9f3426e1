"""Exception hierarchy for quiver_cones."""


class QuiverConesError(Exception):
    """Base class for every error raised by this package."""


class DuplicateIdError(QuiverConesError):
    pass


class DanglingEndpointError(QuiverConesError):
    pass


class OrientedCycleError(QuiverConesError):
    """Raised when a quiver contains an oriented cycle; carries one witness cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("oriented cycle: " + " -> ".join(self.cycle))


class NotSelfInverseError(QuiverConesError):
    pass


class AxiomViolationError(QuiverConesError):
    """An involution breaks the head/tail exchange axiom; names the offending arrow."""

    def __init__(self, arrow, detail=""):
        self.arrow = arrow
        msg = f"involution axiom fails on arrow {arrow!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotAntiSymmetricError(QuiverConesError):
    pass


class NotSymmetricDimensionError(QuiverConesError):
    pass


class BadParameterError(QuiverConesError):
    pass


class ValueOverflowError(QuiverConesError):
    """Checked 64-bit signed arithmetic exceeded."""


class DimensionTooLargeError(QuiverConesError):
    pass


class LPInvariantError(QuiverConesError):
    """The integer simplex met ragged data, a negative rhs or an unbounded LP."""


class QuiverFileSyntaxError(QuiverConesError):
    """Parse error in the quiver file format; carries the line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
