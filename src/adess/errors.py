"""Exception types shared across the package, and its number rules."""

from dataclasses import fields
from functools import reduce
from operator import add
from sys import float_info
from typing import Iterable

#: Slack when comparing weighted lengths at the canonical boundary, so exact
#: products like 2*5 hold; `economics.boundary_blocks` takes its K with it.
_BOUNDARY_EPS = 1e-9


class AdessError(Exception):
    """Base class for all errors raised by this package."""


class UnknownBlock(AdessError):
    """A referenced block id is not present in the tree."""


class InvalidDifficulty(AdessError):
    """Block difficulty must be strictly positive."""


class NotPenalized(AdessError):
    """Requested a penalized score for a chain with no active penalty."""


class DomainError(AdessError):
    """A formula was evaluated outside its mathematical domain."""


class SolverFailure(AdessError):
    """An iterative solver did not converge within its iteration cap."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ConfigError(AdessError, ValueError):
    """A configuration failed validation before any event ran."""


def brief(x) -> str:
    """`repr(x)`, bounded: an int past 64 bits is named by its bit length
    (Python will not print one of more than 4,300 digits at all)."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"an int of {x.bit_length()} bits"
    return repr(x)


def left_sum(terms: Iterable[float]) -> float:
    """Add left to right from 0, as float `sum()` did until Python 3.12 made
    it compensated, so outputs keep the same bits on every version."""
    return reduce(add, terms, 0)


def number(what: str, x, integer: bool = False):
    """`x` if an int field got an int, or a float field a float or int in
    the finite float range; never a bool, which Python counts as an int."""
    if isinstance(x, int if integer else (int, float)) and not isinstance(
            x, bool) and (integer or -float_info.max <= x <= float_info.max):
        return x
    kind = "an int" if integer else "a finite number"
    raise ConfigError(f"{what} must be {kind}, got {brief(x)}")


_FIELDS: dict = {}  # dataclass -> (name, integer, optional) per number field


def check_numbers(obj) -> None:
    """`number` on each field of the dataclass `obj` annotated int, float or
    (when set) Optional[float]; the annotations are read once per class."""
    kinds = _FIELDS.get(type(obj)) or _FIELDS.setdefault(type(obj), [
        (f.name, f.type == "int", f.type == "Optional[float]") for f in
        fields(obj) if f.type in ("int", "float", "Optional[float]")])
    for name, integer, optional in kinds:
        x = getattr(obj, name)
        if not (type(x) is int if integer else  # the common cases, inlined
                type(x) is float and -float_info.max <= x <= float_info.max
                or x is None and optional):
            number(f"{type(obj).__name__}.{name}", x, integer)
