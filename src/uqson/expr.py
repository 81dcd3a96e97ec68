"""Expression surface syntax for algebra elements, evaluated as it is parsed.

Grammar (precedence low to high: +/- then * then unary minus):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* ('(' expr ')' | generator | scalar)
    generator := ('I' | 'Ip' | 'Im') (d d | '[' INT ',' INT ']')   (row, col)
    scalar  := INT ('/' INT)? | 'q' ('^' qexp)?
    qexp    := INT | '(' '-'? INT ('/' '2')? ')'

Ip/Im force the plus/minus variant of a composite generator; plain I names a
neighbor generator or the ambient-variant composite. I[k,l] spells any
generator and is the only spelling once k has two digits.

There is no syntax tree: sums and products are folded into values as their
operands are read, so only parentheses recurse. A sum with an element among
its parts is added into one term map, so a sum of N terms takes linear, not
quadratic, time. Checks run in this order:
the rank, the characters, mixed Ip/Im markers, then the grammar and the
generator indices from left to right. Nesting deeper than the interpreter's
recursion limit allows is an ExpressionSyntaxError.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .coeffring import LaurentPoly
from .errors import ExpressionSyntaxError, IndexOutOfRange, VariantMismatch
from .pbw import MINUS, PLUS, check_rank
from .pbw.algebra import AlgebraElement, add_into

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<gen>I[pm]?(?:\d{2}|\[\d+,\d+\]))|(?P<num>\d+)|(?P<q>q)"
    r"|(?P<op>[-+*/^()]))"
)


Token = namedtuple("Token", "kind text column")


def tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            col = len(src) - len(src[pos:].lstrip()) + 1
            raise ExpressionSyntaxError(
                f"unexpected character {rest[0]!r}", column=col
            )
        kind = m.lastgroup  # the one named group that matched
        tokens.append(Token(kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


def infer_variant(tokens, default=PLUS):
    """Variant from explicit Ip/Im markers; mixing both is an error."""
    found = {t.text[1] for t in tokens if t.kind == "gen" and t.text[1] in "pm"}
    if found == {"p", "m"}:
        raise VariantMismatch("expression mixes plus- and minus-variant generators")
    if "p" in found:
        return PLUS
    if "m" in found:
        return MINUS
    return default


class _Evaluator:
    """Recursive descent over the tokens; each rule returns its value, a
    LaurentPoly for scalar subexpressions and an AlgebraElement otherwise."""

    def __init__(self, tokens, n, variant):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.variant = variant

    def _fail(self, message, column=None):
        if column is None:
            column = self.tokens[-1].column
        raise ExpressionSyntaxError(message, column=column)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of input")
        self.i += 1
        return tok

    def expect_op(self, text, context_col=None):
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of input", column=context_col)
        if tok.kind != "op" or tok.text != text:
            self._fail(f"expected {text!r}, found {tok.text!r}", column=tok.column)
        self.i += 1
        return tok

    def _integer(self, message, only=None):
        """The INT token taken next, whose text must be `only` if given; any
        other token fails with message at its column."""
        tok = self.take()
        if tok.kind != "num" or only not in (None, tok.text):
            self._fail(message, column=tok.column)
        return tok

    def at_op(self, *texts):
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text in texts

    # grammar rules

    def evaluate(self):
        try:
            value = self.expr()
        except RecursionError:
            tok = self.peek()
            self._fail("parentheses nest too deeply",
                       column=tok.column if tok is not None else None)
        tok = self.peek()
        if tok is not None:
            self._fail(f"unexpected {tok.text!r}", column=tok.column)
        if isinstance(value, LaurentPoly):
            return AlgebraElement.scalar(self.n, value, self.variant)
        return value

    def expr(self):
        value = self.term()
        terms = None  # the sum's own term map, once an element is among its parts
        while self.at_op("+", "-"):
            negate = self.take().text == "-"
            part = self.term()
            if terms is None and isinstance(value, LaurentPoly) and isinstance(part, LaurentPoly):
                value = value - part if negate else value + part
                continue
            if terms is None:
                terms = add_into({}, value)
            add_into(terms, part, negate)
        return value if terms is None else AlgebraElement(self.n, self.variant, _terms=terms)

    def term(self):
        value = self.factor()
        while self.at_op("*"):
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        negate = False
        while self.at_op("-"):
            self.take()
            negate = not negate
        tok = self.take()
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            if self.peek() is None:
                self._fail("unclosed parenthesis", column=tok.column)
            self.expect_op(")")
        else:
            value = self._primary(tok)
        return -value if negate else value

    def _primary(self, tok):
        """Value of a generator or scalar starting at the taken token."""
        if tok.kind == "gen":
            return self._generator(tok)
        if tok.kind == "num":
            value = Fraction(int(tok.text))
            if self.at_op("/"):
                self.take()
                den = self._integer("expected an integer denominator")
                if int(den.text) == 0:
                    self._fail("zero denominator", column=den.column)
                value /= int(den.text)
            return LaurentPoly.const(value)
        if tok.kind == "q":
            if not self.at_op("^"):
                return LaurentPoly.q(1)
            self.take()
            return LaurentPoly.from_exp2({self._q_exponent2(): 1})
        self._fail(f"unexpected {tok.text!r}", column=tok.column)

    def _generator(self, tok):
        text = tok.text
        indices = text[2:] if text[1] in "pm" else text[1:]
        if indices[0] == "[":
            row, col = map(int, indices[1:-1].split(","))
        else:
            row, col = int(indices[0]), int(indices[1])
        if row <= col or col < 1:
            self._fail(f"generator {text!r} needs row > col >= 1", column=tok.column)
        if row > self.n:
            raise IndexOutOfRange(f"generator {text!r} exceeds rank {self.n}")
        return AlgebraElement.generator(self.n, row, col, self.variant)

    def _q_exponent2(self):
        """Doubled exponent after 'q^': INT or (-INT), (INT/2), (-INT/2)."""
        tok = self.take()
        if tok.kind == "num":
            return 2 * int(tok.text)
        if tok.kind != "op" or tok.text != "(":
            self._fail(f"expected an exponent, found {tok.text!r}", column=tok.column)
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        e2 = 2 * int(self._integer("expected an integer exponent").text)
        if self.at_op("/"):
            self.take()
            self._integer("only half-integer exponents are supported", only="2")
            e2 //= 2
        self.expect_op(")", context_col=tok.column)
        return sign * e2


def evaluate_expression(src, n, variant=PLUS):
    """Normal-form AlgebraElement of the expression text at rank n."""
    check_rank(n)
    tokens = tokenize(src)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", column=1)
    use = infer_variant(tokens, default=variant)
    return _Evaluator(tokens, n, use).evaluate()
