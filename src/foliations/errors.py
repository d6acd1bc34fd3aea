"""Exception taxonomy shared across the package."""

from __future__ import annotations


class FoliationError(Exception):
    """Base class for all package-specific errors."""


class _Located(FoliationError):
    """An error that carries the raw ``message`` plus optional 1-based
    ``line``/``column`` in its input; ``str()`` renders all three, so a
    caller (the file loader) can set the line later."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        loc = []
        if self.line is not None:
            loc.append(f"line {self.line}")
        if self.column is not None:
            loc.append(f"column {self.column}")
        if loc:
            return f"{self.message} ({', '.join(loc)})"
        return self.message


class ParseError(_Located):
    """Syntax or format error in an expression or foliation file."""


class UnknownVariableError(ParseError):
    """An identifier in an expression is not a declared variable."""

    def __init__(self, name: str, line: int | None = None, column: int | None = None):
        self.name = name
        super().__init__(f"unknown variable '{name}'", line=line, column=column)


class ArityError(FoliationError):
    """Dimension/length mismatch between objects that must agree."""


class BudgetError(_Located):
    """A degree, step or size budget was exceeded; the answer is *not*
    truncated.  A cap met while parsing carries its place, as a ParseError
    does."""


def _charge(count: int, limit: int, message: str, **where) -> int:
    """``count``, the work of one scope so far with the next piece added, if
    it is at most ``limit``; else BudgetError, ``message`` formatted with
    ``count`` and ``limit``, at the place ``where`` (line, column).  Every
    cap charges here before the work it counts, so work past a limit is
    never begun."""
    if count > limit:
        raise BudgetError(message.format(count=count, limit=limit), **where)
    return count


class BlowUpError(FoliationError):
    """A trajectory left the configured domain box.

    ``time`` is the signed elapsed time (from the start of the word) at
    which the escape was detected, and ``segment`` the 1-based step of the
    word (the walk step of a leaf walk) that left, or None.
    """

    def __init__(self, message: str, time: float, segment: int | None = None):
        self.time = time
        self.segment = segment
        where = "" if segment is None else f" in segment {segment}"
        super().__init__(f"{message}{where} (t = {time:.6g})")


class PreconditionError(FoliationError):
    """An operation's stated precondition does not hold for the inputs."""


class NotLinearError(PreconditionError):
    """Operation requires every generator to be a linear vector field."""


class NotFixedPointError(PreconditionError):
    """The given point is not a fixed point of the required fields."""
