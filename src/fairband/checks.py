"""ScenarioError and the value checks that the scenario objects make.

Channel, AccessPoint, Client, ClientRegion, RadioModel and Scenario check
their own fields in __post_init__, so a scenario gets the same checks
whether a built-in, the file reader or Python code builds it. Each error
message starts with the field at fault; the file reader prefixes the path
of the entry. The checks are plain Python, since a scenario builds one
object per client.
"""
from __future__ import annotations

import math

import numpy as np


class ScenarioError(ValueError):
    """A scenario is malformed or cannot support any feasible configuration."""


_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def check_id(name: str, value):
    if not isinstance(value, str):
        raise ScenarioError(f"{name}: expected a string, got {value!r} (a scenario "
                            "file must quote an id that YAML reads as another type)")


def check_number(name: str, value, index: int | None = None, error: type = ScenarioError):
    """A finite number: an int or a float, numpy's included, not a bool.
    With an index, the field is name[index]. Raises error naming the field."""
    if type(value) is float and math.isfinite(value):
        return
    if index is not None:
        name = f"{name}[{index}]"
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise error(f"{name}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise error(f"{name}: must be finite")


def check_positive(name: str, value):
    check_number(name, value)
    if value <= 0:
        raise ScenarioError(f"{name}: must be positive")


def check_numbers(name: str, value, size: int, form: str):
    """A list, tuple or array of size finite numbers, such as [x, y]."""
    if not isinstance(value, (tuple, list, np.ndarray)) or len(value) != size:
        raise ScenarioError(f"{name}: expected {form}, got {value!r}")
    for k, x in enumerate(value):
        check_number(name, x, k)


def check_integer(name: str, value, minimum: int, error: type = ValueError):
    """Raise error naming the field unless value is an integer (numpy's
    included, not a bool) no smaller than minimum."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS) or value < minimum:
        raise error(f"{name}: expected an integer >= {minimum}, got {value!r}")
