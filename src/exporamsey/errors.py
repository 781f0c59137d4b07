"""Exception hierarchy shared by all workbench modules."""


def message_int(x: int) -> str:
    """x in decimal for a message, or its bit length past the int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WorkbenchError, ValueError):
    """An input violates a mathematical precondition (wrong domain)."""


class CapacityError(WorkbenchError):
    """A value or search exceeds a configured size/budget cap."""


class OracleRangeError(WorkbenchError):
    """A membership query fell outside a set oracle's decidable window."""

    def __init__(self, value: int):
        self.value = value
        super().__init__(f"membership undecidable for {message_int(value)}")


class RuleSyntaxError(DomainError):
    """Coloring-rule source failed to parse; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"syntax error at position {position}: {message}")


class RuleEvaluationError(WorkbenchError):
    """A coloring rule hit an evaluation error (division by zero, ilog2(0), ...) at n."""

    def __init__(self, message: str, n: int):
        self.n = n
        super().__init__(f"rule evaluation failed at n={message_int(n)}: {message}")
