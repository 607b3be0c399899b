"""User-defined functions (UDFs) for the expression language.

The paper registers the Roll-Pitch-Yaw operators as user-defined operators
in AnduIN so queries can express rotational movements directly; this module
provides the equivalent registry.  The default registry contains:

``abs``, ``sqrt``, ``min``, ``max``
    numeric helpers used by generated range predicates,
``dist(x1, y1, z1, x2, y2, z2)``
    Euclidean distance — the paper uses it to compute the forearm-length
    scale factor,
``roll / pitch / yaw (x1, y1, z1, x2, y2, z2)``
    RPY angles of the vector between two points (degrees).

Applications can register additional functions on an engine's registry;
they become available in every query deployed afterwards.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExpressionError, UnknownFunctionError

UDF = Callable[..., Any]


class FunctionRegistry:
    """Name → callable registry with arity checking."""

    def __init__(self) -> None:
        self._functions: Dict[str, UDF] = {}
        self._arity: Dict[str, Optional[int]] = {}

    def register(self, name: str, function: UDF, arity: Optional[int] = None) -> None:
        """Register ``function`` under ``name`` (case-insensitive).

        Parameters
        ----------
        name:
            Function name as used in query text.
        function:
            The Python callable.  It must be pure — same arguments, same
            result, no side effects: the matcher evaluates each step's
            predicate at most once per tuple per partition and shares the
            verdict among all runs waiting at that step, so a UDF is not
            called once per run.
        arity:
            Expected number of arguments, or ``None`` for variadic.
        """
        if not name:
            raise ExpressionError("function name must be non-empty")
        self._functions[name.lower()] = function
        self._arity[name.lower()] = arity

    def has(self, name: str) -> bool:
        return name.lower() in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)

    def call(self, name: str, arguments: Sequence[Any]) -> Any:
        """Invoke the function registered under ``name``."""
        key = name.lower()
        if key not in self._functions:
            raise UnknownFunctionError(
                f"unknown function '{name}'; registered: {self.names()}"
            )
        expected = self._arity[key]
        if expected is not None and len(arguments) != expected:
            raise ExpressionError(
                f"function '{name}' expects {expected} arguments, "
                f"got {len(arguments)}"
            )
        return self._functions[key](*arguments)

    def resolve(self, name: str, arity: Optional[int] = None) -> UDF:
        """Return the raw callable for ``name``, validating ``arity`` once.

        Used by expression compilation so the per-call path skips the
        registry lookup and the arity check entirely.
        """
        key = name.lower()
        if key not in self._functions:
            raise UnknownFunctionError(
                f"unknown function '{name}'; registered: {self.names()}"
            )
        expected = self._arity[key]
        if arity is not None and expected is not None and arity != expected:
            raise ExpressionError(
                f"function '{name}' expects {expected} arguments, "
                f"got {arity}"
            )
        return self._functions[key]

    def copy(self) -> "FunctionRegistry":
        clone = FunctionRegistry()
        clone._functions = dict(self._functions)
        clone._arity = dict(self._arity)
        return clone


def _dist(x1: float, y1: float, z1: float, x2: float, y2: float, z2: float) -> float:
    return math.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2 + (z2 - z1) ** 2)


def _rpy(x1: float, y1: float, z1: float, x2: float, y2: float, z2: float):
    from repro.transform.rotation import roll_pitch_yaw

    return roll_pitch_yaw((x1, y1, z1), (x2, y2, z2))


def _roll(*args: float) -> float:
    return _rpy(*args)[0]


def _pitch(*args: float) -> float:
    return _rpy(*args)[1]


def _yaw(*args: float) -> float:
    return _rpy(*args)[2]


def default_functions() -> FunctionRegistry:
    """Return a registry pre-populated with the engine's built-in functions."""
    registry = FunctionRegistry()
    registry.register("abs", abs, arity=1)
    registry.register("sqrt", math.sqrt, arity=1)
    registry.register("min", min, arity=None)
    registry.register("max", max, arity=None)
    registry.register("dist", _dist, arity=6)
    registry.register("roll", _roll, arity=6)
    registry.register("pitch", _pitch, arity=6)
    registry.register("yaw", _yaw, arity=6)
    return registry
