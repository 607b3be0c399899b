"""Unit tests for the query-language lexer and parser."""

import pytest
from hypothesis import given, strategies as st

from repro.cep.expressions import Comparison, FieldRef, Literal
from repro.cep.parser import parse_expression, parse_query, tokenize
from repro.cep.query import ConsumePolicy, EventPattern, SelectPolicy, SequencePattern
from repro.errors import QuerySyntaxError

#: The full example query from the paper's Fig. 1 (field names lower-cased to
#: match this library's stream schema).
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


class TestTokenizer:
    def test_tokenizes_identifiers_keywords_and_numbers(self):
        tokens = tokenize("SELECT x within 1.5 seconds")
        kinds = [token.kind for token in tokens]
        assert kinds == ["keyword", "ident", "keyword", "number", "ident", "eof"]

    def test_tracks_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_strings_with_both_quote_styles(self):
        assert tokenize('"hello"')[0].value == "hello"
        assert tokenize("'hello'")[0].value == "hello"

    def test_unterminated_string_raises(self):
        with pytest.raises(QuerySyntaxError):
            tokenize('"unterminated')

    def test_comments_are_skipped(self):
        tokens = tokenize("a # comment here\nb -- another\nc")
        values = [token.value for token in tokens if token.kind == "ident"]
        assert values == ["a", "b", "c"]

    def test_numbers_with_exponents(self):
        values = [t.value for t in tokenize("1e-05 2.5E+16 3e7 4e x5") if t.kind == "number"]
        assert values == ["1e-05", "2.5E+16", "3e7", "4"]

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
    def test_non_ascii_digits_are_syntax_errors(self, digit):
        with pytest.raises(QuerySyntaxError):
            tokenize(f"x < {digit}")

    def test_multi_character_operators(self):
        values = [t.value for t in tokenize("-> <= >= == != <>") if t.kind == "op"]
        assert values == ["->", "<=", ">=", "==", "!=", "<>"]

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(QuerySyntaxError) as excinfo:
            tokenize("a @ b")
        assert excinfo.value.column == 3


class TestExpressionParsing:
    def test_operator_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.evaluate({}) == 7

    def test_parentheses_override_precedence(self):
        assert parse_expression("(1 + 2) * 3").evaluate({}) == 9

    def test_comparison_binds_looser_than_arithmetic(self):
        assert parse_expression("2 + 3 < 10").evaluate({}) is True

    def test_and_or_not(self):
        expr = parse_expression("not (a > 5) and (b < 2 or b > 8)")
        assert expr.evaluate({"a": 3, "b": 9}) is True
        assert expr.evaluate({"a": 7, "b": 9}) is False

    def test_unary_minus_and_plus(self):
        assert parse_expression("-5 + +3").evaluate({}) == -2

    def test_function_call_with_arguments(self):
        expr = parse_expression("dist(0, 0, 0, x, y, 0) < 10")
        assert expr.evaluate({"x": 3.0, "y": 4.0}) is True

    def test_trailing_garbage_raises(self):
        with pytest.raises(QuerySyntaxError):
            parse_expression("a < 1 garbage garbage")

    def test_round_trip_through_to_query(self):
        text = "abs(rhand_x - 400) < 50 and abs(rhand_y - 150) < 50"
        expr = parse_expression(text)
        assert parse_expression(expr.to_query()) == expr

    def test_long_integers_parse_exactly(self):
        assert parse_expression("12345678901234567891").evaluate({}) == 12345678901234567891

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_float_literal_round_trips(self, value):
        for expr in (Literal(value), Comparison("<", FieldRef("rhand_y"), Literal(value))):
            assert parse_expression(expr.to_query()) == expr


class TestQueryParsing:
    def test_parses_the_paper_fig1_query(self):
        query = parse_query(FIG1_QUERY)
        assert query.output == "swipe_right"
        assert query.event_count() == 3
        assert query.predicate_count() == 9
        assert query.streams() == {"kinect"}

    def test_fig1_nested_structure_and_policies(self):
        query = parse_query(FIG1_QUERY)
        outer = query.pattern
        assert isinstance(outer, SequencePattern)
        assert outer.within_seconds == pytest.approx(1.0)
        assert outer.select is SelectPolicy.FIRST
        assert outer.consume is ConsumePolicy.ALL
        inner = outer.elements[0]
        assert isinstance(inner, SequencePattern)
        assert inner.within_seconds == pytest.approx(1.0)
        assert isinstance(outer.elements[1], EventPattern)

    def test_single_event_query(self):
        query = parse_query('SELECT "x" MATCHING kinect_t(rhand_y > 400);')
        assert query.event_count() == 1
        assert isinstance(query.pattern, SequencePattern)

    def test_time_units(self):
        assert parse_query(
            'SELECT "x" MATCHING kinect(a > 1) -> kinect(a > 2) within 500 ms'
        ).pattern.within_seconds == pytest.approx(0.5)
        assert parse_query(
            'SELECT "x" MATCHING kinect(a > 1) -> kinect(a > 2) within 2 minutes'
        ).pattern.within_seconds == pytest.approx(120.0)

    def test_missing_select_raises(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('MATCHING kinect(a > 1);')

    def test_missing_matching_raises(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT "x" kinect(a > 1);')

    def test_unknown_select_policy_raises(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT "x" MATCHING kinect(a>1) -> kinect(a>2) select sometimes')

    def test_unknown_consume_policy_raises(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT "x" MATCHING kinect(a>1) -> kinect(a>2) consume some')

    def test_trailing_tokens_raise(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT "x" MATCHING kinect(a > 1); SELECT')

    def test_generated_text_round_trips(self):
        query = parse_query(FIG1_QUERY)
        reparsed = parse_query(query.to_query())
        assert reparsed.output == query.output
        assert reparsed.event_count() == query.event_count()
        assert reparsed.predicate_count() == query.predicate_count()

    def test_case_insensitive_keywords(self):
        query = parse_query('select "x" matching kinect(a > 1) WITHIN 1 SECONDS;')
        assert query.pattern.within_seconds == pytest.approx(1.0)
