"""Exception hierarchy for graph construction, solving, and file parsing."""

from __future__ import annotations


class FloodError(Exception):
    """Base class for every error raised by this package."""


class EmptyGraph(FloodError):
    """A graph needs at least one vertex."""


class InvalidVertex(FloodError):
    """Vertex id outside [0, vertex_count)."""


class SelfLoop(FloodError):
    """Edge endpoints must differ."""


class DuplicateEdge(FloodError):
    """The same undirected edge was given twice."""


class ColorOutOfRange(FloodError):
    """Color id negative or >= color_count."""


class DisconnectedGraph(FloodError):
    """Input graph must be connected."""


class ImproperColoring(FloodError):
    """Adjacent zones of a reduced graph must have different colors."""


class NoOpMove(FloodError):
    """Flooding a zone with its current color is rejected."""


class MalformedMove(FloodError):
    """Move vertex or color outside the instance's range."""


class TooManyColors(FloodError):
    """Solving and contraction handle at most two colors."""


class TooManyEdges(FloodError):
    """More extra edges requested than the complete graph can hold."""


class InstanceTooLarge(FloodError):
    """Instance exceeds the size guard of an exhaustive routine."""


class InvariantViolation(FloodError):
    """An internal consistency check failed: a bug in this package, not in the input."""


class ParseError(FloodError):
    """Malformed input text, with a 1-based line (and column when known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class Empty(ParseError):
    """No content in the input."""


class RaggedRows(ParseError):
    """Grid rows must all have the same width."""


class InvalidCharacter(ParseError):
    """Grid cells must be decimal digits."""


class EdgeCountMismatch(ParseError):
    """Edge lines do not match the header's declared edge count."""
