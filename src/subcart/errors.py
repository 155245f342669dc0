"""Exception types shared across the package."""


class SubcartError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SubcartError):
    """Polynomial text does not conform to the expression grammar.

    The message quotes at most ``QUOTED`` characters of the text, around
    the position, with '...' where it cuts; ``text`` keeps all of it."""

    QUOTED = 40

    def __init__(self, message: str, text: str, position: int):
        start = max(0, min(position - self.QUOTED // 2, len(text) - self.QUOTED))
        end = start + self.QUOTED
        quote = ("..." if start else "") + repr(text[start:end])
        quote += "..." if end < len(text) else ""
        super().__init__(f"{message} (at position {position} in {quote})")
        self.text = text
        self.position = position


class DimensionMismatchError(SubcartError):
    """Operands disagree on ambient dimension, length, or index range.

    Raised by polynomials, their evaluators and tangent vectors; a space
    presentation refuses its own shape defects by a SpaceFormatError
    naming the field."""


class NonMemberError(SubcartError):
    """A point required to lie on the presented space does not."""


class SpaceFormatError(SubcartError):
    """A space file, or a presentation built directly, is invalid; the
    message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NoSampleSourceError(SubcartError):
    """The presentation has neither samplers nor explicit sample points."""


class FrameEvaluationError(SubcartError):
    """Rank or pivot pattern changed, or no chart covers a pair of points:
    the point is outside the frame's rank-constant neighborhood."""
