"""Unit tests for repro.cep.expressions and repro.cep.udf."""


import pytest

from repro.cep.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    FieldRef,
    FunctionCall,
    Literal,
    NotOp,
    UnaryMinus,
    abs_diff_predicate,
)
from repro.cep.udf import FunctionRegistry, default_functions
from repro.errors import ExpressionError, UnknownFunctionError


class TestLeaves:
    def test_literal_evaluates_to_itself(self):
        assert Literal(5).evaluate({}) == 5
        assert Literal("hi").evaluate({}) == "hi"
        assert Literal(True).evaluate({}) is True

    def test_literal_rendering(self):
        assert Literal(5).to_query() == "5"
        assert Literal(5.0).to_query() == "5"
        assert Literal(2.5).to_query() == "2.5"
        assert Literal("swipe").to_query() == '"swipe"'
        assert Literal(True).to_query() == "true"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_literal_rejects_values_without_query_text(self, value):
        with pytest.raises(ExpressionError, match="finite"):
            Literal(value)

    def test_field_ref_reads_record(self):
        assert FieldRef("rhand_x").evaluate({"rhand_x": 7.5}) == 7.5

    def test_field_ref_missing_field_raises(self):
        with pytest.raises(ExpressionError, match="rhand_x"):
            FieldRef("rhand_x").evaluate({"other": 1})

    def test_field_ref_requires_name(self):
        with pytest.raises(ExpressionError):
            FieldRef("")
        with pytest.raises(ExpressionError):
            FieldRef(5)

    def test_fields_of_leaves(self):
        assert Literal(1).fields() == frozenset()
        assert FieldRef("a").fields() == frozenset({"a"})


class TestArithmetic:
    def test_basic_operations(self):
        record = {"a": 10.0, "b": 4.0}
        assert BinaryOp("+", FieldRef("a"), FieldRef("b")).evaluate(record) == 14.0
        assert BinaryOp("-", FieldRef("a"), FieldRef("b")).evaluate(record) == 6.0
        assert BinaryOp("*", FieldRef("a"), FieldRef("b")).evaluate(record) == 40.0
        assert BinaryOp("/", FieldRef("a"), FieldRef("b")).evaluate(record) == 2.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            BinaryOp("/", Literal(1), Literal(0)).evaluate({})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            BinaryOp("%", Literal(1), Literal(2))

    def test_unary_minus(self):
        assert UnaryMinus(FieldRef("a")).evaluate({"a": 3.0}) == -3.0
        assert UnaryMinus(Literal(2)).to_query() == "-2"

    def test_rendering_of_nested_arithmetic(self):
        expr = BinaryOp("*", BinaryOp("+", FieldRef("a"), Literal(1)), Literal(2))
        assert expr.to_query() == "(a + 1) * 2"

    def test_fields_are_unioned(self):
        expr = BinaryOp("+", FieldRef("a"), BinaryOp("-", FieldRef("b"), FieldRef("c")))
        assert expr.fields() == frozenset({"a", "b", "c"})


class TestComparisonsAndBoolean:
    def test_all_comparison_operators(self):
        record = {"x": 5.0}
        assert Comparison("<", FieldRef("x"), Literal(10)).evaluate(record)
        assert Comparison("<=", FieldRef("x"), Literal(5)).evaluate(record)
        assert Comparison(">", FieldRef("x"), Literal(1)).evaluate(record)
        assert Comparison(">=", FieldRef("x"), Literal(5)).evaluate(record)
        assert Comparison("==", FieldRef("x"), Literal(5)).evaluate(record)
        assert Comparison("!=", FieldRef("x"), Literal(4)).evaluate(record)

    def test_sql_style_aliases(self):
        assert Comparison("=", Literal(1), Literal(1)).operator == "=="
        assert Comparison("<>", Literal(1), Literal(2)).operator == "!="

    def test_predicate_count_counts_comparisons(self):
        single = Comparison("<", FieldRef("x"), Literal(1))
        conj = BooleanOp("and", [single, single, single])
        assert single.predicate_count() == 1
        assert conj.predicate_count() == 3

    def test_and_or_not(self):
        record = {"x": 5.0}
        true_cmp = Comparison("<", FieldRef("x"), Literal(10))
        false_cmp = Comparison(">", FieldRef("x"), Literal(10))
        assert BooleanOp("and", [true_cmp, true_cmp]).evaluate(record)
        assert not BooleanOp("and", [true_cmp, false_cmp]).evaluate(record)
        assert BooleanOp("or", [false_cmp, true_cmp]).evaluate(record)
        assert NotOp(false_cmp).evaluate(record)

    def test_boolean_requires_operands(self):
        with pytest.raises(ExpressionError):
            BooleanOp("and", [])

    def test_conjunction_helper_flattens(self):
        assert BooleanOp.conjunction([]).evaluate({}) is True
        single = Comparison("<", Literal(1), Literal(2))
        assert BooleanOp.conjunction([single]) is single
        assert isinstance(BooleanOp.conjunction([single, single]), BooleanOp)

    def test_mixed_boolean_rendering_parenthesises(self):
        a = Comparison("<", FieldRef("a"), Literal(1))
        b = Comparison("<", FieldRef("b"), Literal(1))
        expr = BooleanOp("and", [a, BooleanOp("or", [a, b])])
        assert "(" in expr.to_query()

    def test_equality_and_hash_by_rendering(self):
        first = Comparison("<", FieldRef("a"), Literal(1))
        second = Comparison("<", FieldRef("a"), Literal(1))
        assert first == second
        assert hash(first) == hash(second)


class TestFunctions:
    def test_abs_builtin(self):
        expr = FunctionCall("abs", [BinaryOp("-", FieldRef("x"), Literal(10))])
        assert expr.evaluate({"x": 3.0}) == 7.0

    def test_dist_builtin(self):
        expr = FunctionCall(
            "dist", [Literal(0), Literal(0), Literal(0), Literal(3), Literal(4), Literal(0)]
        )
        assert expr.evaluate({}) == pytest.approx(5.0)

    def test_unknown_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            FunctionCall("frobnicate", []).evaluate({})

    def test_custom_registry_takes_precedence(self):
        registry = default_functions()
        registry.register("double", lambda value: value * 2, arity=1)
        expr = FunctionCall("double", [Literal(21)])
        assert expr.evaluate({}, registry) == 42

    def test_arity_checking(self):
        registry = FunctionRegistry()
        registry.register("f", lambda a, b: a + b, arity=2)
        with pytest.raises(ExpressionError):
            registry.call("f", [1])

    def test_registry_copy_is_independent(self):
        registry = default_functions()
        clone = registry.copy()
        clone.register("extra", lambda: 1, arity=0)
        assert clone.has("extra")
        assert not registry.has("extra")

    def test_rpy_functions_registered(self):
        registry = default_functions()
        assert registry.call("pitch", [0, 0, 0, 0, 1, 0]) == pytest.approx(90.0)
        assert registry.call("yaw", [0, 0, 0, 0, 0, -1]) == pytest.approx(90.0)
        assert registry.call("roll", [0, 0, 0, 1, 0, 0]) == 0.0

    def test_function_rendering(self):
        expr = FunctionCall("abs", [FieldRef("x")])
        assert expr.to_query() == "abs(x)"


class TestAbsDiffPredicate:
    def test_matches_paper_rendering_for_positive_center(self):
        expr = abs_diff_predicate("rhand_x", 400.0, 50.0)
        assert expr.to_query() == "abs(rhand_x - 400) < 50"

    def test_matches_paper_rendering_for_negative_center(self):
        expr = abs_diff_predicate("rhand_z", -120.0, 50.0)
        assert expr.to_query() == "abs(rhand_z + 120) < 50"

    def test_zero_center_renders_minus_zero(self):
        assert abs_diff_predicate("rhand_x", 0.0, 50.0).to_query() == "abs(rhand_x - 0) < 50"

    def test_evaluation_semantics(self):
        expr = abs_diff_predicate("rhand_x", 400.0, 50.0)
        assert expr.evaluate({"rhand_x": 430.0})
        assert not expr.evaluate({"rhand_x": 460.0})

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ExpressionError):
            abs_diff_predicate("x", 0.0, 0.0)
