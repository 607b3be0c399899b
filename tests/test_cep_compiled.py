"""Equivalence suite: generated predicate functions vs the interpreted walk.

``Expression.compile`` must return functions that produce exactly the
values (and the errors) of ``Expression.evaluate`` — the NFA matcher's fast
path relies on it, and the batched benchmarks assert it end to end.  A
fixed corpus covers every node type the parser can produce and the
learner's ``abs(field ± c) <op> w`` pose-window template; a hypothesis
suite then compares the two paths on random expressions, records, field
names and function registries.
"""

import math
import re
import sys

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cep.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    CompiledPredicateCache,
    Expression,
    FieldRef,
    FunctionCall,
    Literal,
    NotOp,
    UnaryMinus,
    abs_diff_predicate,
)
from repro.cep.matcher import MatcherConfig, NFAMatcher
from repro.cep.nfa import compile_pattern
from repro.cep.parser import parse_expression, parse_query
from repro.cep.query import EventPattern, sequence
from repro.cep.udf import default_functions
from repro.errors import ExpressionError, UnknownFunctionError

#: The paper's Fig. 1 swipe query (lower-cased fields); its step predicates
#: are the canonical generated-query corpus.
FIG1_QUERY = """
SELECT "swipe_right"
MATCHING (
  kinect(
    abs(rhand_x - torso_x - 0) < 50 and
    abs(rhand_y - torso_y - 150) < 50 and
    abs(rhand_z - torso_z + 120) < 50
  ) ->
  kinect(
    abs(rhand_x - torso_x - 400) < 50 and
    abs(rhand_y - torso_y - 150) < 50 and
    abs(rhand_z - torso_z + 420) < 50
  )
  within 1 seconds select first consume all
) ->
kinect(
  abs(rhand_x - torso_x - 800) < 50 and
  abs(rhand_y - torso_y - 150) < 50 and
  abs(rhand_z - torso_z + 120) < 50
)
within 1 seconds select first consume all;
"""

#: Expression corpus exercising every AST node and operator.
EXPRESSIONS = [
    "1 + 2 * 3",
    "(1 + 2) * 3",
    "10 / 4 - 1",
    "-x + 5",
    "x - y * z",
    "2 + 3 < 10",
    "x < 5",
    "x <= 5",
    "x > 5",
    "x >= 5",
    "x == 5",
    "x != 5",
    "x = 5",
    "x <> 5",
    "x < 5 and y > 2",
    "x < 5 or y > 2",
    "not (x == 3)",
    "x < 5 and y > 2 or not (z == 3)",
    "true",
    "false",
    'name == "swipe"',
    "abs(x - 40) < 50",
    "abs(x + 120) <= 50",
    "abs(x - 0) < 50",
    "abs(x) > 2",
    "sqrt(y) < 3",
    "min(x, y, 3) == 3",
    "max(x, y) > 1",
    "dist(x, y, z, 0, 0, 0) < 100",
    "abs(x - 400) < 50 and abs(y - 150) < 50 and abs(z + 120) < 50",
]

#: Records the corpus is evaluated against.
RECORDS = [
    {"x": 3.0, "y": 4.0, "z": 3.0, "name": "swipe"},
    {"x": -7.5, "y": 9.0, "z": 0.0, "name": "circle"},
    {"x": 420.0, "y": 151.0, "z": -119.0, "name": "swipe"},
    {"x": 5, "y": 2, "z": 12, "name": ""},
]


class TestCompiledEquivalence:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_compiled_matches_interpreted_on_corpus(self, text):
        functions = default_functions()
        expression = parse_expression(text)
        compiled = expression.compile(functions)
        for record in RECORDS:
            assert compiled(record) == expression.evaluate(record, functions), (
                f"{text!r} diverged on {record!r}"
            )

    def test_fig1_step_predicates_are_equivalent(self):
        functions = default_functions()
        pattern = compile_pattern(parse_query(FIG1_QUERY).pattern)
        records = [
            {"rhand_x": rx, "rhand_y": 150.0, "rhand_z": -120.0,
             "torso_x": 0.0, "torso_y": 0.0, "torso_z": 0.0}
            for rx in (0.0, 390.0, 430.0, 800.0, 1200.0)
        ]
        for step in pattern.steps:
            compiled = step.predicate.compile(functions)
            for record in records:
                assert compiled(record) == step.predicate.evaluate(record, functions)

    def test_abs_diff_predicate_template_is_equivalent(self):
        functions = default_functions()
        for center in (-120.0, 0.0, 400.0):
            predicate = abs_diff_predicate("rhand_x", center, 50.0)
            compiled = predicate.compile(functions)
            for value in (center - 60, center - 49, center, center + 49, center + 60):
                record = {"rhand_x": value}
                assert compiled(record) == predicate.evaluate(record, functions)

    def test_division_by_zero_raises_in_both_paths(self):
        expression = parse_expression("x / y")
        record = {"x": 1.0, "y": 0.0}
        with pytest.raises(ExpressionError):
            expression.evaluate(record)
        with pytest.raises(ExpressionError):
            expression.compile()(record)

    def test_missing_field_raises_in_both_paths(self):
        for text in ("x + 1", "x < 5", "abs(x - 40) < 50"):
            expression = parse_expression(text)
            with pytest.raises(ExpressionError):
                expression.evaluate({"other": 1.0})
            with pytest.raises(ExpressionError):
                expression.compile()({"other": 1.0})

    def test_unknown_function_raises_at_compile_time(self):
        expression = parse_expression("mystery(x) < 5")
        with pytest.raises(UnknownFunctionError):
            expression.compile(default_functions())

    def test_arity_mismatch_raises_at_compile_time(self):
        expression = parse_expression("abs(x, y) < 5")
        with pytest.raises(ExpressionError):
            expression.compile(default_functions())

    @pytest.mark.parametrize("text", ["abs(x + 1) < 5", 'abs(x + "s") < 5', "abs(x - 1) < 5"])
    def test_window_template_fails_like_evaluate(self, text):
        expression = parse_expression(text)
        compiled = expression.compile(default_functions())
        with pytest.raises(TypeError) as interpreted:
            expression.evaluate({"x": "a"})
        with pytest.raises(TypeError, match=re.escape(str(interpreted.value))):
            compiled({"x": "a"})

    def test_custom_udf_resolves_through_registry(self):
        functions = default_functions()
        functions.register("double", lambda value: value * 2, arity=1)
        expression = parse_expression("double(x) > 10")
        compiled = expression.compile(functions)
        assert compiled({"x": 6}) is True
        assert compiled({"x": 4}) is False

    def test_abs_override_disables_the_window_specialization(self):
        # A user-registered 'abs' must win over the builtin.
        functions = default_functions()
        functions.register("abs", lambda value: 0.0, arity=1)
        expression = parse_expression("abs(x - 400) < 50")
        compiled = expression.compile(functions)
        for record in ({"x": 0.0}, {"x": 1000.0}):
            assert compiled(record) == expression.evaluate(record, functions)
            assert compiled(record) is True  # overridden abs returns 0 < 50

    def test_base_class_fallback_interprets_custom_nodes(self):
        class Always7(Expression):
            def evaluate(self, record, functions=None):
                return 7

            def to_query(self):
                return "always7"

            def fields(self):
                return frozenset()

        comparison = Comparison("<", Always7(), Literal(10))
        assert comparison.compile()({}) is True


class TestCompiledPredicateCache:
    def test_identical_predicates_share_one_closure(self):
        cache = CompiledPredicateCache(default_functions())
        first = cache.compile(parse_expression("x > 100"))
        second = cache.compile(parse_expression("x > 100"))
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_different_predicates_get_distinct_closures(self):
        cache = CompiledPredicateCache(default_functions())
        first = cache.compile(parse_expression("x > 100"))
        second = cache.compile(parse_expression("x > 200"))
        assert first is not second
        assert len(cache) == 2

    def test_clear_forgets_cached_closures(self):
        cache = CompiledPredicateCache(default_functions())
        closure = cache.compile(parse_expression("x > 100"))
        cache.clear()
        assert len(cache) == 0
        assert cache.compile(parse_expression("x > 100")) is not closure


class TestMatcherPathEquivalence:
    def _matchers(self):
        events = [
            EventPattern(stream="s", predicate=parse_expression(f"abs(x - {i * 100}) < 25"))
            for i in range(3)
        ]
        pattern = compile_pattern(sequence(events, within_seconds=1.0))
        compiled = NFAMatcher(pattern, output="g", config=MatcherConfig())
        interpreted = NFAMatcher(
            pattern, output="g", config=MatcherConfig(compile_predicates=False)
        )
        return compiled, interpreted

    def test_compiled_and_interpreted_matchers_agree(self):
        compiled, interpreted = self._matchers()
        values = [0, 310, 100, 90, 210, 0, 120, 95, 200, 205, 0, 100, 200]
        tuples = [{"x": float(v), "ts": i * 0.1} for i, v in enumerate(values)]
        assert compiled.process_many(tuples, "s") == interpreted.process_many(tuples, "s")
        assert (
            compiled.stats.predicate_evaluations
            == interpreted.stats.predicate_evaluations
        )
        assert compiled.stats.runs_started == interpreted.stats.runs_started
        assert compiled.stats.runs_pruned == interpreted.stats.runs_pruned


class TestGeneratedSource:
    def test_deep_expression_beyond_the_python_parser_still_evaluates(self):
        # 300 left-nested additions exceed the nesting CPython's parser
        # accepts; such an expression is interpreted instead.
        expression = parse_expression(" + ".join(["x"] * 300) + " > 299")
        assert expression.compile()({"x": 1}) is True
        assert expression.compile()({"x": 0.5}) is False

    def test_code_filename_names_the_predicate(self):
        from repro.observability.profiling import _collapse

        frames = []

        def spy(value):
            frames.append(sys._getframe(1))
            return value

        functions = default_functions()
        functions.register("spy", spy, arity=1)
        expression = parse_expression("spy(rhand_x / 2) < 50")
        expression.compile(functions)({"rhand_x": 10.0})
        assert expression.to_query() in frames[0].f_code.co_filename
        assert expression.to_query() in _collapse(frames[0], "main")

    @pytest.mark.parametrize(
        "name",
        ["it's", 'a"b', "back\\slash", "new\nline", "__import__('os').getcwd()", "x'] + _r['y"],
    )
    def test_field_names_are_data_not_code(self, name):
        compiled = Comparison("==", FieldRef(name), Literal(1)).compile()
        assert compiled.__code__.co_filename.startswith("<predicate ")
        assert compiled({name: 1}) is True
        with pytest.raises(ExpressionError, match="tuple has no field"):
            compiled({"x": 1})


# -- differential suite: compiled against evaluate on random expressions -------------


class Foreign(Expression):
    """An ``Expression`` subclass the generator does not know: compiled
    parents must call its ``evaluate``, whose ``KeyError`` passes through."""

    def __init__(self, name):
        self.name = name

    def evaluate(self, record, functions=None):
        return record[self.name]

    def to_query(self):
        return f"foreign({self.name!r})"

    def fields(self):
        return frozenset({self.name})


def _lookup(value):
    return {}[value]  # a UDF that raises KeyError(value)


def _registry(extra):
    functions = default_functions()
    for name, function, arity in extra:
        functions.register(name, function, arity=arity)
    return functions


_DEFAULT_ARITIES = {
    "abs": 1, "sqrt": 1, "min": None, "max": None,
    "dist": 6, "roll": 6, "pitch": 6, "yaw": 6,
}
#: Name -> (registry passed to compile/evaluate, function name -> arity).
REGISTRIES = {
    "none": (None, _DEFAULT_ARITIES),
    "default": (default_functions(), _DEFAULT_ARITIES),
    "custom": (
        _registry([("twice", lambda value: value * 2, 1), ("lookup", _lookup, 1)]),
        {**_DEFAULT_ARITIES, "twice": 1, "lookup": 1},
    ),
    "abs_override": (_registry([("abs", lambda value: -value, 1)]), _DEFAULT_ARITIES),
}

FIELD_NAMES = st.one_of(
    st.sampled_from(
        ["x", "y", "it's", 'a"b', "back\\slash", "new\nline", "__import__('os')", "x'] + _r['y"]
    ),
    st.text(min_size=1, max_size=6),
)
FINITE = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from(["", "a"]),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
VALUES = st.one_of(
    FINITE,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    # numpy scalars compare to numpy.bool_, so they check the bool results.
    st.floats().map(numpy.float64),
)


def expressions(arities):
    leaves = st.one_of(FINITE.map(Literal), FIELD_NAMES.map(FieldRef), FIELD_NAMES.map(Foreign))

    def call(children):
        def with_arguments(name):
            arity = arities[name]
            count = st.integers(1, 3) if arity is None else st.just(arity)
            return count.flatmap(
                lambda n: st.lists(children, min_size=n, max_size=n)
            ).map(lambda arguments: FunctionCall(name, arguments))

        return st.sampled_from(sorted(arities)).flatmap(with_arguments)

    def extend(children):
        # Boolean and comparison nodes are listed twice so that unary chains
        # do not crowd out short-circuit cases.
        comparison = st.builds(
            Comparison, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), children, children
        )
        boolean = st.builds(
            BooleanOp,
            st.sampled_from(["and", "or"]),
            st.lists(st.one_of(comparison, children), min_size=1, max_size=3),
        )
        return st.one_of(
            boolean,
            comparison,
            st.builds(BinaryOp, st.sampled_from("+-*/"), children, children),
            call(children),
            boolean,
            comparison,
            st.one_of(children.map(UnaryMinus), children.map(NotOp)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


#: Built once: hypothesis validates a recursive strategy on first use.
EXPRESSIONS = {kind: expressions(arities) for kind, (_, arities) in REGISTRIES.items()}


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(REGISTRIES)))
    expression = draw(EXPRESSIONS[kind])
    # A record holds every referenced field or any subset of them.
    names = sorted(expression.fields())
    full = st.fixed_dictionaries({name: VALUES for name in names})
    partial = st.dictionaries(st.sampled_from(names or ["x"]), VALUES)
    records = draw(st.lists(st.one_of(full, partial), min_size=1, max_size=4))
    return REGISTRIES[kind][0], expression, records


def _outcome(run):
    try:
        value = run()
    except Exception as error:  # the error itself is compared
        return ("error", type(error), str(error))
    if isinstance(value, float):
        return ("value", type(value), repr(value))  # NaN-aware, keeps the sign of zero
    return ("value", type(value), value)


def _case(text, *records):
    return None, parse_expression(text), list(records)


@settings(max_examples=400, deadline=None)
@given(cases())
# Cases random trees reach rarely: a deciding operand comes first and a later
# one would raise or read a missing field; a numpy comparison at the top.
@example(_case("x < 5 or -y > 1", {"x": 1, "y": "a"}))
@example(_case("x > 5 and y / 0 > 1", {"x": 1, "y": 2}))
@example(_case("not (x or sqrt(y) > 1)", {"x": True, "y": -1.0}))
@example(_case("x > 5 and missing > 1", {"x": 1}))
@example(_case("x < 1", {"x": numpy.float64(0.5)}))
def test_compiled_matches_evaluate_on_random_expressions(case):
    functions, expression, records = case
    compiled = expression.compile(functions)
    with numpy.errstate(all="ignore"):  # overflow in random numpy arithmetic
        for record in records:
            assert _outcome(lambda: compiled(record)) == _outcome(
                lambda: expression.evaluate(record, functions)
            ), f"{expression.to_query()!r} on {record!r}"
