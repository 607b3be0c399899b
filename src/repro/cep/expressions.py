"""Expression AST for event predicates.

Gesture queries are built from predicates over tuple fields, e.g.::

    abs(rhand_x - torso_x - 400) < 50 and abs(rhand_y - torso_y - 150) < 50

Expressions are represented as a small immutable AST that can be

* evaluated against a tuple (a mapping of field name to value),
* rendered back into query text (``to_query()``), which is how the query
  generator produces the textual queries shown in the paper's Fig. 1,
* introspected (``fields()`` returns the referenced fields, used by the
  optimiser to eliminate irrelevant coordinates),
* counted (``predicate_count()``), used by the optimisation benchmarks to
  report detection effort.

Function calls are resolved through a
:class:`~repro.cep.udf.FunctionRegistry`; the default registry provides
``abs``, ``dist`` (Euclidean distance) and the Roll-Pitch-Yaw operators the
paper implements as UDFs in AnduIN.

Besides the interpreted ``evaluate()`` walk, every expression can be
*compiled* (``compile()``) into one generated Python function of the
record: the AST is written out once as a single Python expression, with
operators, field names and UDF callables fixed at compile time instead of
dispatched per tuple, which is what lets the NFA matcher keep up with a
full gesture vocabulary at sensor rate.  A :class:`CompiledPredicateCache`
(owned by the engine) shares generated functions between structurally
identical predicates, keyed by their canonical ``to_query()`` text.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.errors import ExpressionError, UnknownFunctionError

EvaluationContext = Mapping[str, Any]

#: A compiled expression: a generated function of the record only.
CompiledExpression = Callable[[EvaluationContext], Any]


class Expression(ABC):
    """Base class of all expression nodes."""

    @abstractmethod
    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        """Evaluate the expression against ``record``."""

    @abstractmethod
    def to_query(self) -> str:
        """Render the expression as query text."""

    @abstractmethod
    def fields(self) -> FrozenSet[str]:
        """Return the set of field names referenced by the expression."""

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        """Lower the expression to one generated Python function of the record.

        The AST is walked once and written out as a single Python
        expression inside one ``def``, which is ``exec``'d.  The function
        returns exactly what :meth:`evaluate` returns, in the same
        short-circuit order; unknown functions and arity mismatches raise
        here, at compile time, rather than per call.

        Query text is never spliced into the generated source except as a
        field name written with ``repr`` of a ``str``; operators are the
        constructor-validated keys of this module's operator tables.
        Literals, resolved UDF callables and the :meth:`evaluate` of any
        :class:`Expression` subclass this module does not define are bound
        as globals of the function.  A ``KeyError`` inside the call re-runs
        :meth:`evaluate`, which raises what the interpreted walk raises:
        :class:`ExpressionError` naming the first missing field in
        evaluation order, or the ``KeyError`` of a (pure) UDF unchanged.
        The code object's filename carries the ``to_query()`` text, so
        tracebacks and profiler stacks name the predicate.  An expression
        nested too deeply for Python's own compiler is interpreted.
        """
        namespace: Dict[str, Any] = {"_evaluate": self.evaluate, "_functions": functions}

        def bind(value: Any) -> str:
            name = f"_g{len(namespace)}"
            namespace[name] = value
            return name

        def write(node: Expression) -> str:
            if type(node) is Literal:
                return bind(node.value)
            if type(node) is FieldRef:
                return f"_r[{str.__repr__(node.name)}]"
            if type(node) is UnaryMinus:
                return f"(-{write(node.operand)})"
            if type(node) is BinaryOp:
                if node.operator == "/":
                    return f"{bind(_divide)}({write(node.left)}, {write(node.right)})"
                return f"({write(node.left)} {node.operator} {write(node.right)})"
            if type(node) is Comparison:
                comparison = f"{write(node.left)} {node.operator} {write(node.right)}"
                return f"(True if {comparison} else False)"
            if type(node) is BooleanOp:
                operands = f" {node.operator} ".join(write(operand) for operand in node.operands)
                return f"(True if {operands} else False)"
            if type(node) is NotOp:
                return f"(not {write(node.operand)})"
            if type(node) is FunctionCall:
                function = node.resolve(functions)
                arguments = ", ".join(write(argument) for argument in node.arguments)
                return f"{bind(function)}({arguments})"
            return f"{bind(node.evaluate)}(_r, _functions)"

        source = (
            "def predicate(_r):\n"
            "    try:\n"
            f"        return {write(self)}\n"
            "    except KeyError:\n"
            "        pass\n"
            "    return _evaluate(_r, _functions)\n"
        )
        try:
            code = compile(source, f"<predicate {self.to_query()!r}>", "exec")
        except (SyntaxError, RecursionError):
            return lambda record: self.evaluate(record, functions)
        exec(code, namespace)
        return cast(CompiledExpression, namespace["predicate"])

    def predicate_count(self) -> int:
        """Number of atomic comparisons in the expression (detection effort)."""
        return sum(child.predicate_count() for child in self.children())

    def children(self) -> Tuple["Expression", ...]:
        """Immediate sub-expressions (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and every descendant, pre-order.

        The traversal is iterative, so degenerate deeply-nested
        expressions cannot blow the recursion limit.
        """
        stack: List[Expression] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_query()!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.to_query() == other.to_query()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_query()))


class Literal(Expression):
    """A numeric, string or boolean constant."""

    def __init__(self, value: Any) -> None:
        if isinstance(value, float) and not math.isfinite(value):
            # NaN and infinities have no query text, and query text is what
            # shards, the durability log and the predicate cache key on.
            raise ExpressionError(f"literal must be a finite number, got {value!r}")
        self.value = value

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        return self.value

    def to_query(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        if isinstance(self.value, float):
            # Render integral floats without a trailing ".0" for readability,
            # matching the style of the paper's generated queries.
            if self.value == int(self.value) and abs(self.value) < 1e15:
                return str(int(self.value))
            return repr(self.value)
        return str(self.value)

    def fields(self) -> FrozenSet[str]:
        return frozenset()


class FieldRef(Expression):
    """A reference to a tuple field, e.g. ``rhand_x``."""

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ExpressionError("field reference must have a name")
        self.name = name

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        try:
            return record[self.name]
        except KeyError:
            raise ExpressionError(
                f"tuple has no field '{self.name}' "
                f"(available: {sorted(record)[:8]}…)"
            ) from None

    def to_query(self) -> str:
        return self.name

    def fields(self) -> FrozenSet[str]:
        return frozenset({self.name})


class UnaryMinus(Expression):
    """Arithmetic negation."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        return -self.operand.evaluate(record, functions)

    def to_query(self) -> str:
        return f"-{self.operand.to_query()}"

    def fields(self) -> FrozenSet[str]:
        return self.operand.fields()

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)


def _divide(numerator: Any, denominator: Any) -> Any:
    if denominator == 0:
        raise ExpressionError("division by zero while evaluating expression")
    return numerator / denominator


_ARITHMETIC_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _divide,
}


class BinaryOp(Expression):
    """Arithmetic operation: ``+``, ``-``, ``*`` or ``/``."""

    def __init__(self, operator: str, left: Expression, right: Expression) -> None:
        if operator not in _ARITHMETIC_OPS:
            raise ExpressionError(f"unknown arithmetic operator '{operator}'")
        self.operator = operator
        self.left = left
        self.right = right

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        left = self.left.evaluate(record, functions)
        right = self.right.evaluate(record, functions)
        return _ARITHMETIC_OPS[self.operator](left, right)

    def to_query(self) -> str:
        return f"{self._render(self.left)} {self.operator} {self._render(self.right)}"

    def _render(self, child: Expression) -> str:
        # Parenthesise nested additive expressions under * or / for clarity.
        if isinstance(child, (BinaryOp, Comparison, BooleanOp)) and (
            self.operator in ("*", "/") or isinstance(child, (Comparison, BooleanOp))
        ):
            return f"({child.to_query()})"
        return child.to_query()

    def fields(self) -> FrozenSet[str]:
        return self.left.fields() | self.right.fields()

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)


_COMPARISON_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Comparison(Expression):
    """A comparison: the atomic predicate of gesture queries."""

    def __init__(self, operator: str, left: Expression, right: Expression) -> None:
        if operator == "=":
            operator = "=="
        if operator == "<>":
            operator = "!="
        if operator not in _COMPARISON_OPS:
            raise ExpressionError(f"unknown comparison operator '{operator}'")
        self.operator = operator
        self.left = left
        self.right = right

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> bool:
        left = self.left.evaluate(record, functions)
        right = self.right.evaluate(record, functions)
        return bool(_COMPARISON_OPS[self.operator](left, right))

    def to_query(self) -> str:
        return f"{self.left.to_query()} {self.operator} {self.right.to_query()}"

    def fields(self) -> FrozenSet[str]:
        return self.left.fields() | self.right.fields()

    def predicate_count(self) -> int:
        return 1

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)


class BooleanOp(Expression):
    """Conjunction or disjunction of boolean sub-expressions."""

    def __init__(self, operator: str, operands: Sequence[Expression]) -> None:
        if operator not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator '{operator}'")
        if not operands:
            raise ExpressionError(f"'{operator}' needs at least one operand")
        self.operator = operator
        self.operands = tuple(operands)

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> bool:
        if self.operator == "and":
            return all(op.evaluate(record, functions) for op in self.operands)
        return any(op.evaluate(record, functions) for op in self.operands)

    def to_query(self) -> str:
        parts = []
        for operand in self.operands:
            text = operand.to_query()
            if isinstance(operand, BooleanOp) and operand.operator != self.operator:
                text = f"({text})"
            parts.append(text)
        return f" {self.operator} ".join(parts)

    def fields(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.fields()
        return result

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    @staticmethod
    def conjunction(operands: Sequence[Expression]) -> Expression:
        """Build an ``and`` of ``operands``, flattening the trivial cases."""
        operands = [op for op in operands if op is not None]
        if not operands:
            return Literal(True)
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("and", operands)


class NotOp(Expression):
    """Logical negation."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> bool:
        return not self.operand.evaluate(record, functions)

    def to_query(self) -> str:
        return f"not ({self.operand.to_query()})"

    def fields(self) -> FrozenSet[str]:
        return self.operand.fields()

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)


class FunctionCall(Expression):
    """A call to a registered (or built-in) function, e.g. ``abs(...)``."""

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        if not name:
            raise ExpressionError("function call must have a name")
        self.name = name.lower()
        self.arguments = tuple(arguments)

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        values = [arg.evaluate(record, functions) for arg in self.arguments]
        return self.resolve(functions)(*values)

    def resolve(self, functions: Optional["FunctionRegistry"] = None) -> Callable[..., Any]:
        """The callable this call runs, checked against its argument count.

        ``functions`` wins; otherwise the built-in minimum set keeps
        expressions usable without an engine (e.g. in the learning
        pipeline's unit tests).
        """
        registry = functions
        if registry is None or not registry.has(self.name):
            registry = default_functions()
            if not registry.has(self.name):
                raise UnknownFunctionError(f"unknown function '{self.name}'")
        return registry.resolve(self.name, arity=len(self.arguments))

    def to_query(self) -> str:
        args = ", ".join(arg.to_query() for arg in self.arguments)
        return f"{self.name}({args})"

    def fields(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for argument in self.arguments:
            result |= argument.fields()
        return result

    def children(self) -> Tuple[Expression, ...]:
        return self.arguments


class CompiledPredicateCache:
    """Engine-wide cache of generated predicate functions.

    Keyed by ``Expression.to_query()`` — the canonical text rendering — so
    structurally identical predicates (the learner emits the same pose
    window for many queries) are generated once and share one function.
    One cache is owned by each :class:`~repro.cep.engine.CEPEngine` and
    handed to every matcher it deploys; ``hits``/``misses`` feed the
    throughput benchmarks.
    """

    def __init__(self, functions: Optional["FunctionRegistry"] = None) -> None:
        self.functions = functions
        self._compiled: Dict[str, CompiledExpression] = {}
        self.hits = 0
        self.misses = 0

    def compile(self, expression: Expression) -> CompiledExpression:
        """Return the (possibly shared) compiled form of ``expression``."""
        key = expression.to_query()
        cached = self._compiled.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        compiled = expression.compile(self.functions)
        self._compiled[key] = compiled
        return compiled

    def clear(self) -> None:
        """Drop all cached functions (e.g. after a UDF was re-registered)."""
        self._compiled.clear()

    def __len__(self) -> int:
        return len(self._compiled)


def abs_diff_predicate(field: str, center: float, width: float) -> Expression:
    """Build the paper's range predicate ``abs(field - center) < width``.

    This is the predicate template of Sec. 3.3.4: for each joint coordinate
    constrained by a pose window, the generated query checks that the
    coordinate lies within ``width`` of the window ``center``.  Negative
    centres render as ``field + |center|`` exactly like the paper's example
    (``abs(rHand_z - torso_z + 120) < 50``).
    """
    if width <= 0:
        raise ExpressionError("window width must be positive")
    centered: Expression
    if center == 0:
        centered = BinaryOp("-", FieldRef(field), Literal(0))
    elif center > 0:
        centered = BinaryOp("-", FieldRef(field), Literal(float(center)))
    else:
        centered = BinaryOp("+", FieldRef(field), Literal(float(-center)))
    return Comparison("<", FunctionCall("abs", [centered]), Literal(float(width)))


# Imported late to avoid a circular import at module load time.
from repro.cep.udf import (  # noqa: E402  (documented import cycle)
    FunctionRegistry,
    default_functions,
)
