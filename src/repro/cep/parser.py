"""Parser for the gesture query dialect.

The dialect is the one the paper's query generator produces (Fig. 1)::

    SELECT "swipe_right"
    MATCHING (
      kinect_t(
        abs(rhand_x - 0) < 50 and abs(rhand_y - 150) < 50
      ) ->
      kinect_t(
        abs(rhand_x - 400) < 50
      )
      within 1 seconds select first consume all
    ) ->
    kinect_t(
      abs(rhand_x - 800) < 50
    )
    within 1 seconds select first consume all;

Grammar (informally)::

    query       := SELECT STRING MATCHING pattern [";"]
    pattern     := term ("->" term)* [constraints]
    term        := IDENT "(" expression ")"          -- an event pattern
                 | "(" pattern ")"                   -- a nested sequence
    constraints := ["within" NUMBER unit] ["select" IDENT] ["consume" IDENT]
    expression  := the usual boolean/arithmetic expression grammar

Keywords are case-insensitive.  Time units: ``seconds``, ``second``, ``s``,
``ms``, ``milliseconds``, ``minutes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cep.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    Expression,
    FieldRef,
    FunctionCall,
    Literal,
    NotOp,
    UnaryMinus,
)
from repro.cep.query import (
    ConsumePolicy,
    EventPattern,
    PatternNode,
    Query,
    SelectPolicy,
    SequencePattern,
)
from repro.errors import QuerySyntaxError

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "select",
    "matching",
    "within",
    "consume",
    "and",
    "or",
    "not",
    "true",
    "false",
}

_MULTI_CHAR_OPERATORS = ("->", "<=", ">=", "==", "!=", "<>")
_SINGLE_CHAR_OPERATORS = "()<>=+-*/,;"
#: ASCII only: str.isdigit() also accepts characters like "²" that
#: int() and float() reject.
_DIGITS = frozenset("0123456789")

_TIME_UNITS = {
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "ms": 0.001,
    "millisecond": 0.001,
    "milliseconds": 0.001,
    "minute": 60.0,
    "minutes": 60.0,
    "min": 60.0,
}


@dataclass(frozen=True)
class Token:
    """A lexical token with its position for error reporting."""

    kind: str  # "ident", "keyword", "number", "string", "op", "eof"
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text: str) -> List[Token]:
    """Split query text into tokens.

    Raises
    ------
    QuerySyntaxError
        On unexpected characters or unterminated strings.
    """
    tokens: List[Token] = []
    line, column = 1, 1
    index = 0
    length = len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if char == "#" or text.startswith("--", index):
            # Comment until end of line.
            while index < length and text[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        matched_multi = False
        for operator in _MULTI_CHAR_OPERATORS:
            if text.startswith(operator, index):
                tokens.append(Token("op", operator, start_line, start_column))
                advance(len(operator))
                matched_multi = True
                break
        if matched_multi:
            continue
        if char in _SINGLE_CHAR_OPERATORS:
            tokens.append(Token("op", char, start_line, start_column))
            advance(1)
            continue
        if char in "\"'":
            quote = char
            end = index + 1
            while end < length and text[end] != quote:
                end += 1
            if end >= length:
                raise QuerySyntaxError("unterminated string literal", start_line, start_column)
            value = text[index + 1:end]
            tokens.append(Token("string", value, start_line, start_column))
            advance(end - index + 1)
            continue
        if char in _DIGITS or (char == "." and text[index + 1:index + 2] in _DIGITS):
            end = index
            seen_dot = False
            while end < length and (text[end] in _DIGITS or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            # An optional exponent: Literal.to_query writes floats like 1e-05.
            if end < length and text[end] in "eE":
                digits = end + 2 if text[end + 1:end + 2] in ("+", "-") else end + 1
                if text[digits:digits + 1] in _DIGITS:
                    end = digits
                    while end < length and text[end] in _DIGITS:
                        end += 1
            tokens.append(Token("number", text[index:end], start_line, start_column))
            advance(end - index)
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            kind = "keyword" if word.lower() in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_line, start_column))
            advance(end - index)
            continue
        raise QuerySyntaxError(f"unexpected character {char!r}", start_line, start_column)

    tokens.append(Token("eof", "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token helpers -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        position = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[position]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self._position += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> QuerySyntaxError:
        token = token or self._peek()
        return QuerySyntaxError(message, token.line, token.column)

    def _expect_op(self, operator: str) -> Token:
        token = self._peek()
        if token.kind != "op" or token.value != operator:
            raise self._error(f"expected '{operator}' but found {token.value!r}")
        return self._next()

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._peek()
        if token.kind != "keyword" or token.value.lower() != keyword:
            raise self._error(f"expected keyword '{keyword}' but found {token.value!r}")
        return self._next()

    def _match_op(self, operator: str) -> bool:
        token = self._peek()
        if token.kind == "op" and token.value == operator:
            self._next()
            return True
        return False

    def _match_keyword(self, keyword: str) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.value.lower() == keyword:
            self._next()
            return True
        return False

    # -- query level -----------------------------------------------------------------

    def parse_query(self) -> Query:
        self._expect_keyword("select")
        output_token = self._next()
        if output_token.kind not in ("string", "ident"):
            raise self._error("expected the output value after SELECT", output_token)
        output = output_token.value
        self._expect_keyword("matching")
        pattern = self.parse_pattern()
        self._match_op(";")
        if self._peek().kind != "eof":
            raise self._error("unexpected trailing input after query")
        if isinstance(pattern, EventPattern):
            pattern = SequencePattern(elements=(pattern,))
        return Query(output=output, pattern=pattern)

    # -- pattern level ------------------------------------------------------------------

    def parse_pattern(self) -> PatternNode:
        elements: List[PatternNode] = [self._parse_term()]
        while self._match_op("->"):
            elements.append(self._parse_term())
        within, select, consume = self._parse_constraints()
        if len(elements) == 1 and within is None and select is None and consume is None:
            return elements[0]
        return SequencePattern(
            elements=tuple(elements),
            within_seconds=within,
            select=select or SelectPolicy.FIRST,
            consume=consume or ConsumePolicy.ALL,
        )

    def _parse_term(self) -> PatternNode:
        token = self._peek()
        if token.kind == "op" and token.value == "(":
            self._next()
            inner = self.parse_pattern()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            # Either an event pattern "stream(expr)" — streams are idents
            # followed by '(' — or a syntax error.
            next_token = self._peek(1)
            if next_token.kind == "op" and next_token.value == "(":
                stream = self._next().value
                self._expect_op("(")
                predicate = self.parse_expression()
                self._expect_op(")")
                return EventPattern(stream=stream, predicate=predicate)
        raise self._error(
            "expected an event pattern 'stream(<predicate>)' or a "
            "parenthesised sequence"
        )

    def _parse_constraints(
        self,
    ) -> Tuple[Optional[float], Optional[SelectPolicy], Optional[ConsumePolicy]]:
        within: Optional[float] = None
        select: Optional[SelectPolicy] = None
        consume: Optional[ConsumePolicy] = None
        while True:
            if self._match_keyword("within"):
                number_token = self._next()
                if number_token.kind != "number":
                    raise self._error("expected a number after 'within'", number_token)
                value = float(number_token.value)
                unit_token = self._peek()
                factor = 1.0
                if unit_token.kind in ("ident", "keyword"):
                    unit = unit_token.value.lower()
                    if unit in _TIME_UNITS:
                        factor = _TIME_UNITS[unit]
                        self._next()
                within = value * factor
                continue
            if self._match_keyword("select"):
                policy_token = self._next()
                try:
                    select = SelectPolicy(policy_token.value.lower())
                except ValueError:
                    raise self._error(
                        f"unknown select policy '{policy_token.value}'", policy_token
                    ) from None
                continue
            if self._match_keyword("consume"):
                policy_token = self._next()
                try:
                    consume = ConsumePolicy(policy_token.value.lower())
                except ValueError:
                    raise self._error(
                        f"unknown consume policy '{policy_token.value}'", policy_token
                    ) from None
                continue
            break
        return within, select, consume

    # -- expression level -------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._match_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("or", operands)

    def _parse_and(self) -> Expression:
        operands = [self._parse_not()]
        while self._match_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("and", operands)

    def _parse_not(self) -> Expression:
        if self._match_keyword("not"):
            return NotOp(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.value in ("<", "<=", ">", ">=", "==", "=", "!=", "<>"):
            operator = self._next().value
            right = self._parse_additive()
            return Comparison(operator, left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                operator = self._next().value
                right = self._parse_multiplicative()
                left = BinaryOp(operator, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/"):
                operator = self._next().value
                right = self._parse_unary()
                left = BinaryOp(operator, left, right)
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self._match_op("-"):
            return UnaryMinus(self._parse_unary())
        if self._match_op("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind == "number":
            self._next()
            if token.value.isdigit():
                return Literal(int(token.value))
            return Literal(float(token.value))
        if token.kind == "string":
            self._next()
            return Literal(token.value)
        if token.kind == "keyword" and token.value.lower() in ("true", "false"):
            self._next()
            return Literal(token.value.lower() == "true")
        if token.kind == "op" and token.value == "(":
            self._next()
            inner = self.parse_expression()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            name = self._next().value
            if self._match_op("("):
                arguments: List[Expression] = []
                if not (self._peek().kind == "op" and self._peek().value == ")"):
                    arguments.append(self.parse_expression())
                    while self._match_op(","):
                        arguments.append(self.parse_expression())
                self._expect_op(")")
                return FunctionCall(name, arguments)
            return FieldRef(name)
        raise self._error(f"unexpected token {token.value!r} in expression")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_query(text: str) -> Query:
    """Parse a full gesture query.

    Examples
    --------
    >>> query = parse_query(
    ...     'SELECT "demo" MATCHING kinect_t(rhand_x > 100) -> '
    ...     'kinect_t(rhand_x > 500) within 2 seconds select first consume all;'
    ... )
    >>> query.output
    'demo'
    >>> query.event_count()
    2
    """
    parser = _Parser(tokenize(text))
    return parser.parse_query()


def parse_expression(text: str) -> Expression:
    """Parse a standalone predicate expression (useful for manual tuning)."""
    parser = _Parser(tokenize(text))
    expression = parser.parse_expression()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise QuerySyntaxError(
            f"unexpected trailing input {trailing.value!r}",
            trailing.line,
            trailing.column,
        )
    return expression
