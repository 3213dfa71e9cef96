"""Exception taxonomy, which the CLI maps to distinct exit codes, and the
input rules every module shares: check_integer, check_order, check_real
and check_probability.

SubsetOutOfRange is a BadParams. The CLI's exit codes are unchanged: it
looks an error's code up along its MRO, which meets SubsetOutOfRange's
own entry (exit 4) before TourneyLabError's (exit 2)."""

from __future__ import annotations

import numbers
import operator


class TourneyLabError(Exception):
    """Base class for all package errors."""


class DiagonalNonzero(TourneyLabError):
    """A self-loop entry adj[i][i] = 1 was found."""

    def __init__(self, i: int):
        self.i = i
        super().__init__(f"diagonal entry adj[{i}][{i}] must be 0")


class PairViolation(TourneyLabError):
    """A vertex pair is not oriented exactly one way."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"pair ({i},{j}) must satisfy adj[i][j] + adj[j][i] = 1")


class TooLarge(TourneyLabError):
    """Input exceeds a size cap: MAX_VERTICES, or an exhaustive operation's."""

    def __init__(self, n: int | str, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(f"n = {n} exceeds the size cap {limit}")


class BadParams(TourneyLabError):
    """Operation parameters violate a precondition."""


class SubsetOutOfRange(BadParams):
    """A vertex subset references labels outside its universe, or a subset
    or partition is over another universe than its tournament's."""


class BadConfig(TourneyLabError):
    """Experiment configuration is malformed."""


class EmptyPart(TourneyLabError):
    """A sampled set misses partition part A or B, so path events are undefined."""


class InvalidCertificate(TourneyLabError):
    """A claimed Hamilton cycle fails the edge check."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(message)


class Trn1ParseError(TourneyLabError):
    """TRN1 text is malformed; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def check_integer(name: str, value, minimum: int | None = None,
                  maximum: int | None = None) -> int:
    """``value`` as a Python int; BadParams unless it is an integer in
    [minimum, maximum].

    Python and numpy integers pass. A bool, a float or a string does not:
    it would reach its use truncated or parsed (seed 1.5 would run as 1).
    Callers compute with the returned int, so a numpy argument cannot
    overflow its dtype (2 * np.uint8(200) wraps)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadParams(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise BadParams(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise BadParams(f"{name} must be <= {maximum}, got {value}")
    return value


def check_order(n: int, limit: int) -> None:
    """Raise TooLarge(n, limit) when the order ``n`` exceeds the size cap
    ``limit``: MAX_VERTICES, or an exhaustive operation's."""
    if n > limit:
        raise TooLarge(n, limit)


def check_real(name: str, value) -> None:
    """Raise BadParams unless ``value`` is a real number and not a bool:
    a string would fail its first comparison with a TypeError, and True
    would run as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParams(f"{name} must be a real number, got {value!r}")


def check_probability(p, name: str = "inclusion probability") -> None:
    """Raise BadParams unless ``p`` is a real number, not a bool, in (0, 1)."""
    check_real(name, p)
    if not 0.0 < p < 1.0:
        raise BadParams(f"{name} must be in (0,1), got {p}")
