"""The workbench expression language: lexer, AST, parser, printer.

Statement-oriented scripts with mandatory semicolons.  Element and
operator literals mirror the library constructors; all mathematical
symbols have ASCII spellings, with Unicode equivalents accepted on
input and ASCII emitted on output.

``tokenize`` scans with one compiled pattern and keeps the token stream
as columns, a ``Tokens``: kinds, texts and character offsets in three
flat lists, and the offsets at which lines start.  A line and column
are worked out from an offset only where one is needed: for a node's
span, a diagnostic, or a ``Token`` row built by indexing the stream.
The character-by-character scanner ``tokenize_by_scan`` is kept as its
reference.  The parser reads the columns by token index, every comma
list with one reader, ``listed``, and binary operators by precedence
climbing over ``_PREC``, the table the printer parenthesises by.  Every
form opened by a keyword, from ``coord[...]`` to ``kernel{...}`` and
``meyer(...)``, parses to one node, a ``Literal`` whose ``kind`` is the
keyword and whose ``parts`` are what the keyword's branch of
``_Parser.literal_parts`` reads.  The printer prints a node by the row
of its class in ``_PRINTERS`` and a literal by the kind's row of
``_PRINT_LITERAL``, as the evaluator does by ``evaluator._LEAVES``,
``_STATEMENTS`` and ``_LITERALS``.  Forms that look like calls or names,
such as ``latmeet(a, b)`` and ``series``, parse as calls and names,
which the evaluator knows.  The printer walks a left-leaning chain of
one precedence, or of postfix operators, in a loop.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: error: {self.message}"


class DslSyntaxError(Exception):
    def __init__(self, message, line, col):
        super().__init__(message)
        self.diagnostic = Diagnostic(line, col, message)


class DslTypeError(Exception):
    """A value of the wrong type for its expression: ``message`` says
    what, ``span`` (line, column) where; (0, 0) when unknown."""

    def __init__(self, message, span=(0, 0)):
        super().__init__(f"{span[0]}:{span[1]}: {message}")
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str          # ASCII spelling for a Unicode alias
    line: int
    col: int           # pos - start of its line + 1
    pos: int


_TWO_CHAR = {
    "->": "ARROW", "\\/": "JOIN", "/\\": "MEET", "^+": "POSPART",
    "^-": "NEGPART", "<<=": "LLEQ", "<=": "LEQ", "==": "EQEQ", "_|_": "PERP",
}
_ONE_CHAR = {
    ";": "SEMI", ",": "COMMA", ":": "COLON", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE", "|": "BAR",
    "@": "AT", "=": "EQUALS", "*": "STAR", "+": "PLUS", "-": "MINUS",
    "/": "SLASH", "^": "CARET", ".": "DOT",
}
_UNICODE = {
    "⊑": ("LLEQ", "<<="),    # lateral order
    "⊥": ("PERP", "_|_"),    # disjointness
    "∨": ("JOIN", "\\/"),
    "∧": ("MEET", "/\\"),
    "⊔": ("IDENT", "lsup"),
    "⊓": ("IDENT", "linf"),
}

# every literal spelling -> (kind, token text)
_LITERALS = {**{s: (k, s) for s, k in {**_TWO_CHAR, **_ONE_CHAR}.items()},
             **_UNICODE}

# One alternative per token class, tried in order; longer literals come
# first, so "<<=" wins over "<=" and "_|_" over an identifier.  INT is a
# run of decimal digits, what int() reads.  An identifier starts with a
# letter or "_" and goes on with letters, digits or "_"; the IDENT
# class below also starts on a numeric non-digit such as "²" or "½",
# which tokenize rejects.  ERR takes any other single character, so the
# matches tile the text.
_TOKEN_RE = re.compile("|".join((
    r"(?P<SPACE>[ \t\r]+|#[^\n]*)",
    r"(?P<NEWLINE>\n)",
    "(?P<LIT>%s)" % "|".join(map(re.escape, sorted(_LITERALS, key=len,
                                                    reverse=True))),
    r"(?P<INT>\d+)",
    r"(?P<IDENT>[^\W\d]\w*)",
    r"(?P<ERR>.)",
)), re.DOTALL)


class Tokens(Sequence):
    """The token stream as columns: token k has kind ``kinds[k]``, text
    ``texts[k]`` and character offset ``starts[k]``; ``line_starts``
    holds the offset of each line's first character, and ``source``
    the text lexed.  Line and column are worked out from an offset only
    where they are needed, by ``where``.  Indexing and iteration build
    the ``Token`` rows."""

    __slots__ = ("kinds", "texts", "starts", "line_starts", "source")

    def __init__(self, kinds, texts, starts, line_starts, source):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.line_starts = line_starts
        self.source = source

    def where(self, pos):
        """(line, column) of the character offset pos."""
        line = bisect_right(self.line_starts, pos)
        return line, pos - self.line_starts[line - 1] + 1

    def end(self, k):
        """The offset just past token k in the source.  A Unicode alias
        is one character there, though its text is the ASCII spelling,
        so the token is matched again rather than measured by its
        text."""
        return _TOKEN_RE.match(self.source, self.starts[k]).end()

    def __len__(self):
        return len(self.kinds)

    def __getitem__(self, k):
        pos = self.starts[k]
        return Token(self.kinds[k], self.texts[k], *self.where(pos), pos)

    def __eq__(self, other):
        if not isinstance(other, (list, Tokens)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self):
        return f"Tokens({list(self)!r})"


def tokenize(text: str) -> Tokens:
    """Lex the script; raises DslSyntaxError on an unexpected character."""
    tokens = Tokens([], [], [], [0], text)
    add_kind, add_text = tokens.kinds.append, tokens.texts.append
    add_start, add_line = tokens.starts.append, tokens.line_starts.append
    literals = _LITERALS
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind == "NEWLINE":
            add_line(m.end())
            continue
        tok = m[0]
        if kind == "LIT":
            kind, tok = literals[tok]
        elif kind == "ERR" or (kind == "IDENT" and not tok[0].isalpha()
                               and tok[0] != "_"):
            raise DslSyntaxError(f"unexpected character {tok[0]!r}",
                                 *tokens.where(m.start()))
        add_kind(kind)
        add_text(tok)
        add_start(m.start())
    add_kind("EOF")
    add_text("")
    add_start(len(text))
    return tokens


def tokenize_by_scan(text: str):
    """Reference lexer for tokenize: a character-by-character scan, kept
    as its oracle in the tests."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _UNICODE:
            kind, ascii_text = _UNICODE[ch]
            tokens.append(Token(kind, ascii_text, line, col, i))
            i += 1
            col += 1
            continue
        matched = False
        for lit in ("<<=", "_|_", "->", "\\/", "/\\", "^+", "^-", "<=", "=="):
            if text.startswith(lit, i):
                tokens.append(Token(_TWO_CHAR[lit], lit, line, col, i))
                i += len(lit)
                col += len(lit)
                matched = True
                break
        if matched:
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(_ONE_CHAR[ch], ch, line, col, i))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col, i))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Name(Node):
    id: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ScalarLit(Node):
    value: Fraction
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Literal(Node):
    """A form opened by a keyword: ``kind`` is the keyword, and
    ``parts`` the layout its parse branch reads, which the kind's rows
    in ``_PRINT_LITERAL`` and ``evaluator._LITERALS`` unpack:

    - coord, simplespace: the scalars; simple: (points, values);
      ec: (prefix, tail); fin, pl: the (index or point, value) pairs;
    - kernel: the rows (atom, target, ((coef, power), ...));
    - linec: (((index, coef), ...), unit, target);
    - table: the (key, value) pairs;
    - meyer: (operator, x, y, e), e None when left out;
    - pliev: (left splitting, right splitting).

    Scalars are Fractions, indices, atoms and powers ints, and every
    other part an expression node.
    """

    kind: str
    parts: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Unary(Node):
    op: str
    operand: Node
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Binary(Node):
    op: str            # * + - linf lsup /\ \/
    left: Node
    right: Node
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Postfix(Node):
    op: str            # ^+ ^-
    operand: Node
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Abs(Node):
    operand: Node
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Apply(Node):
    fn: Node
    args: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Rel(Node):
    op: str            # <= <<= _|_ ==
    left: Node
    right: Node
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class LetStmt(Node):
    name: str
    expr: Node
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EvalStmt(Node):
    expr: Node
    level: int | None = None
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CheckStmt(Node):
    check_id: str
    config: tuple = ()   # ((key, raw value string), ...)
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SuiteStmt(Node):
    profile: str
    ids: tuple = ()
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SearchStmt(Node):
    config: tuple = ()
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Script(Node):
    statements: tuple = ()


@dataclass
class ParseResult:
    script: Script | None
    diagnostics: list

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_MAX_DEPTH = 120

# binary operator -> binding strength; the parser and the printer both
# read this one table
_PREC = {"\\/": 1, "/\\": 2, "lsup": 3, "linf": 4, "+": 5, "-": 5, "*": 6}

# an opening bracket's token kind -> its closer's, and each one's quoted
# spelling in diagnostics
_CLOSER = {"LBRACK": "RBRACK", "LBRACE": "RBRACE"}
_SPELLING = {kind: f"'{text}'" for text, kind in _ONE_CHAR.items()}


class _Parser:
    """Recursive descent over the columns of a ``Tokens`` stream; the
    cursor ``i`` is a token index."""

    def __init__(self, tokens):
        # a second EOF, so that a look one past the first stays in range
        self.kinds = tokens.kinds + ["EOF"]
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.where = tokens.where
        self.end = tokens.end
        self.i = 0
        self.depth = 0

    def _where(self, i):
        """(line, column) of token i: the span of the node it opens."""
        return self.where(self.starts[i])

    def next(self) -> str:
        """Step past the current token, never past EOF; its text."""
        i = self.i
        if self.kinds[i] != "EOF":
            self.i = i + 1
        return self.texts[i]

    def at(self, kind) -> bool:
        return self.kinds[self.i] == kind

    def expect(self, kind, what=None) -> str:
        """Step past a token of this kind; its text."""
        i = self.i
        if self.kinds[i] != kind:
            text = self.texts[i]
            if self.kinds[i] == "EOF" and i > 0:
                # just after the previous token, on its line
                line, col = self.where(self.end(i - 1))
            else:
                line, col = self._where(i)
            raise DslSyntaxError(
                f"expected {what or kind}, found {text!r}" if text
                else f"expected {what or kind}, found end of input",
                line, col)
        self.i = i + 1
        return self.texts[i]

    def expect_word(self, word, message):
        """Step past the identifier ``word``; anything else is an error."""
        if self.expect("IDENT", f"'{word}'") != word:
            raise DslSyntaxError(message, *self._where(self.i - 1))

    def error(self, message):
        raise DslSyntaxError(message, *self._where(self.i))

    # -- statements ---------------------------------------------------------

    def script(self) -> tuple:
        stmts = []
        diags = []
        while not self.at("EOF"):
            try:
                stmts.append(self.statement())
            except DslSyntaxError as exc:
                diags.append(exc.diagnostic)
                while not (self.at("SEMI") or self.at("EOF")):
                    self.next()
                if self.at("SEMI"):
                    self.next()
        return Script(tuple(stmts)), diags

    def statement(self) -> Node:
        span = self._where(self.i)
        word = self.texts[self.i] if self.at("IDENT") else None
        if word == "let":
            self.next()
            name = self.expect("IDENT", "a binding name")
            self.expect("EQUALS", "'='")
            expr = self.expression()
            self.expect("SEMI", "';'")
            return LetStmt(name, expr, span)
        if word == "eval":
            self.next()
            expr = self.expression()
            level = None
            if self.at("AT"):
                self.next()
                self.expect_word("level", "expected 'level' after '@'")
                level = int(self.expect("INT", "a level"))
            self.expect("SEMI", "';'")
            return EvalStmt(expr, level, span)
        if word == "check":
            self.next()
            check_id = self.glued_id()
            config = self.config_pairs()
            self.expect("SEMI", "';'")
            return CheckStmt(check_id, config, span)

        if word == "suite":
            self.next()
            profile = self.expect("IDENT", "'quick' or 'full'")
            if profile not in ("quick", "full"):
                raise DslSyntaxError("profile must be quick or full",
                                     *self._where(self.i - 1))
            ids = []
            while self.at("IDENT") and not self._config_ahead():
                ids.append(self.glued_id())
            self.expect("SEMI", "';'")
            return SuiteStmt(profile, tuple(ids), span)
        if word == "search":
            self.next()
            config = self.config_pairs()
            self.expect("SEMI", "';'")
            return SearchStmt(config, span)
        self.error("expected let, eval, check, suite or search")

    def _config_ahead(self) -> bool:
        return self.at("IDENT") and self.kinds[self.i + 1] == "EQUALS"

    def glued_id(self) -> str:
        """Identifiers like thm-1.1-e: adjacent ident/int/minus/dot runs."""
        first = self.i
        self.expect("IDENT", "an identifier")
        kinds, starts = self.kinds, self.starts
        end = starts[first] + len(self.texts[first])
        i = self.i
        while (kinds[i] in ("IDENT", "INT", "MINUS", "DOT")
               and starts[i] == end):
            end += len(self.texts[i])
            i += 1
        self.i = i
        return "".join(self.texts[first:i])

    def config_pairs(self) -> tuple:
        pairs = []
        while self._config_ahead():
            key = self.next()
            self.expect("EQUALS", "'='")
            kind = self.kinds[self.i]
            if kind == "MINUS" or kind == "INT":
                value = str(self.scalar())
            elif kind == "IDENT":
                value = self.next()
            else:
                self.error("expected a config value")
            pairs.append((key, value))
        return tuple(pairs)

    # -- expressions --------------------------------------------------------

    def expression(self) -> Node:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error("expression too deeply nested")
        try:
            left = self.binary()
            i = self.i
            if self.kinds[i] in ("LEQ", "LLEQ", "PERP", "EQEQ"):
                self.i = i + 1
                right = self.binary()
                return Rel(self.texts[i], left, right, self._where(i))
            return left
        finally:
            self.depth -= 1

    def binary(self, min_prec=1):
        """Precedence climbing over the binary operators in _PREC, which
        the printer reads too.  An operator token's text is its ASCII
        spelling, so the table is keyed on text; the only IDENT texts in
        it are the words lsup and linf."""
        left = self.unary()
        texts = self.texts
        while True:
            i = self.i
            op = texts[i]
            prec = _PREC.get(op)
            if prec is None or prec < min_prec:
                return left
            self.i = i + 1
            left = Binary(op, left, self.binary(prec + 1), self._where(i))

    def unary(self):
        i = self.i
        if self.kinds[i] != "MINUS":
            return self.postfix()
        if self.kinds[i + 1] == "INT":
            # negative numerals are scalar literals, not negations
            return ScalarLit(self.scalar(), self._where(i))
        # a negation nests like a parenthesis
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                self.error("expression too deeply nested")
            self.i = i + 1
            return Unary("-", self.unary(), self._where(i))
        finally:
            self.depth -= 1

    def postfix(self):
        node = self.primary()
        kinds = self.kinds
        while True:
            i = self.i
            kind = kinds[i]
            if kind == "LPAREN":
                self.i = i + 1
                args = self.listed(self.expression, "RPAREN")
                self.expect("RPAREN", "')'")
                node = Apply(node, args, self._where(i))
            elif kind == "POSPART" or kind == "NEGPART":
                self.i = i + 1
                node = Postfix(self.texts[i], node, self._where(i))
            else:
                return node

    def scalar(self) -> Fraction:
        neg = self.kinds[self.i] == "MINUS"
        if neg:
            self.i += 1
        num = int(self.expect("INT", "a number"))
        if self.kinds[self.i] != "SLASH":
            return Fraction(-num if neg else num)
        self.i += 1
        den = int(self.expect("INT", "a denominator"))
        if den == 0:
            raise DslSyntaxError("zero denominator", *self._where(self.i - 1))
        return Fraction(-num if neg else num, den)

    def listed(self, item, closer) -> tuple:
        """The items that item() reads, separated by commas, up to the
        token kind closer, which is left for the caller; a comma may end
        the list, and the list may be empty."""
        out = []
        kinds = self.kinds
        while kinds[self.i] != closer:
            out.append(item())
            if kinds[self.i] != "COMMA":
                break
            self.i += 1
        return tuple(out)

    def fin_pair(self) -> tuple:
        """(n, a) in fin{...}: an index and its value."""
        self.expect("LPAREN", "'('")
        n = int(self.expect("INT", "an index"))
        self.expect("COMMA", "','")
        a = self.scalar()
        self.expect("RPAREN", "')'")
        return n, a

    def pl_pair(self) -> tuple:
        """(t, a) in pl{...}: a breakpoint and its value."""
        self.expect("LPAREN", "'('")
        t = self.scalar()
        self.expect("COMMA", "','")
        a = self.scalar()
        self.expect("RPAREN", "')'")
        return t, a

    def primary(self) -> Node:
        i = self.i
        kind = self.kinds[i]
        span = self._where(i)
        if kind == "INT" or kind == "MINUS":
            return ScalarLit(self.scalar(), span)
        if kind == "LPAREN":
            self.next()
            inner = self.expression()
            self.expect("RPAREN", "')'")
            return inner
        if kind == "BAR":
            self.next()
            inner = self.expression()
            self.expect("BAR", "a closing '|'")
            return Abs(inner, span)
        name = self.texts[i]
        if kind != "IDENT":
            self.error(f"unexpected {name!r} in an expression"
                       if name else "unexpected end of input")
        self.next()
        parts = self.literal_parts(name)
        if parts is None:
            return Name(name, span)
        return Literal(name, parts, span)

    def literal_parts(self, word):
        """The parts of the literal that the keyword word, just read,
        opens; None when word opens no literal."""
        if word == "coord":
            return self.enclosed("LBRACK", self.scalar)
        if word == "simple":
            return (self.enclosed("LBRACE", self.scalar),
                    self.enclosed("LBRACK", self.scalar))
        if word == "ec":
            self.expect("LBRACK", "'['")
            prefix = self.listed(self.scalar, "BAR")
            self.expect("BAR", "'|'")
            parts = prefix, self.scalar()
            self.expect("RBRACK", "']'")
            return parts
        if word == "fin":
            return self.enclosed("LBRACE", self.fin_pair)
        if word == "pl":
            return self.enclosed("LBRACE", self.pl_pair)
        if word == "simplespace":
            return self.enclosed("LBRACE", self.scalar)
        if word == "kernel":
            return self.enclosed("LBRACE", self.kernel_row)
        if word == "linec":
            self.expect("LBRACE", "'{'")
            coeffs = self.listed(self.linec_coeff, "SEMI")
            self.expect("SEMI", "';' before the unit clause")
            self.expect_word("unit", "expected 'unit'")
            self.expect("ARROW", "'->'")
            unit = self.expression()
            self.expect("SEMI", "';' before the target clause")
            self.expect_word("target", "expected 'target'")
            parts = coeffs, unit, self.expression()
            self.expect("RBRACE", "'}'")
            return parts
        if word == "table":
            return self.enclosed("LBRACE", self.table_entry)
        if word == "meyer":
            self.expect("LPAREN", "'('")
            op = self.expression()
            self.expect("SEMI", "';' between the operator and its arguments")
            x = self.expression()
            self.expect("COMMA", "','")
            y = self.expression()
            e = None
            if self.at("SEMI"):
                self.next()
                e = self.expression()
            self.expect("RPAREN", "')'")
            return op, x, y, e
        if word == "pliev":
            self.expect("LPAREN", "'('")
            us = self.listed(self.expression, "SEMI")
            self.expect("SEMI", "';' between the two splittings")
            vs = self.listed(self.expression, "RPAREN")
            self.expect("RPAREN", "')'")
            return us, vs
        return None

    def enclosed(self, opener, item) -> tuple:
        """The comma list of item() between the bracket opener and its
        closer."""
        closer = _CLOSER[opener]
        self.expect(opener, _SPELLING[opener])
        items = self.listed(item, closer)
        self.expect(closer, _SPELLING[closer])
        return items

    def table_entry(self) -> tuple:
        """key -> value in table{...}."""
        key = self.expression()
        self.expect("ARROW", "'->'")
        return key, self.expression()

    def kernel_row(self) -> tuple:
        """i[->j]: t -> poly in kernel{...}; j is i when left out."""
        atom = int(self.expect("INT", "an atom index"))
        target = atom
        if self.at("ARROW"):
            self.next()
            target = int(self.expect("INT", "a target atom"))
        self.expect("COLON", "':'")
        self.expect_word("t", "kernel functions are written 't -> ...'")
        self.expect("ARROW", "'->'")
        return atom, target, self.poly_terms()

    def poly_terms(self) -> tuple:
        terms = [self.poly_term(Fraction(1))]
        while self.at("PLUS") or self.at("MINUS"):
            sign = Fraction(1) if self.next() == "+" else Fraction(-1)
            terms.append(self.poly_term(sign))
        return tuple(terms)

    def poly_term(self, sign: Fraction):
        coef = Fraction(1)
        if self.at("MINUS") and self.kinds[self.i + 1] == "IDENT":
            self.next()
            sign = -sign
        if self.at("MINUS") or self.at("INT"):
            coef = self.scalar()
            if self.at("STAR"):
                self.next()
            else:
                return (sign * coef, 0)
        self.expect_word("t", "polynomials use the variable 't'")
        power = 1
        if self.at("CARET"):
            self.next()
            power = int(self.expect("INT", "an exponent"))
        return (sign * coef, power)

    def linec_coeff(self) -> tuple:
        """n:a in linec{...}: an index and its coefficient."""
        n = int(self.expect("INT", "an index"))
        self.expect("COLON", "':'")
        return n, self.scalar()


def parse(text: str) -> ParseResult:
    """Parse a script; never raises, returns diagnostics instead."""
    # a numeral converts exactly, past the interpreter's digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        tokens = tokenize(text)
        parser = _Parser(tokens)
        script, diags = parser.script()
    except DslSyntaxError as exc:
        return ParseResult(None, [exc.diagnostic])
    except RecursionError:
        return ParseResult(None, [Diagnostic(1, 1, "input too deeply nested")])
    except Exception as exc:  # the no-crash contract beats precise spans
        return ParseResult(None, [Diagnostic(1, 1, f"unparseable input: {exc}")])
    finally:
        sys.set_int_max_str_digits(limit)
    if diags:
        return ParseResult(None, diags)
    return ParseResult(script, [])


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def print_script(script: Script) -> str:
    return "".join(print_expr(s) + "\n" for s in script.statements)


def print_expr(e: Node, parent_prec: int = 0) -> str:
    printer = _PRINTERS.get(type(e))
    if printer is None:
        raise DslTypeError(f"cannot print {e!r}")
    return printer(e, parent_prec)


def _wrap(text: str, parenthesise: bool) -> str:
    return f"({text})" if parenthesise else text


def _print_unary(e: Unary, parent_prec) -> str:
    inner = print_expr(e.operand, 7)
    # a digit-leading operand would be absorbed into one numeral
    return _wrap(f"-({inner})" if inner[:1].isdigit() else f"-{inner}",
                 parent_prec > 7)


def _print_binary(e: Binary, parent_prec) -> str:
    # a left operand of the same precedence needs no parentheses, so a
    # left-leaning run of it is printed in a loop: a long chain such as
    # a + b - ... + z does not recurse once per operand
    prec = _PREC[e.op]
    tail = []
    while type(e) is Binary and _PREC[e.op] == prec:
        tail.append(f" {e.op} {print_expr(e.right, prec + 1)}")
        e = e.left
    return _wrap(print_expr(e, prec) + "".join(reversed(tail)),
                 prec < parent_prec)


def _print_postfix(e: Postfix, parent_prec) -> str:
    ops = []
    while type(e) is Postfix:
        ops.append(e.op)
        e = e.operand
    return print_expr(e, 8) + "".join(reversed(ops))


# node class -> printer(node, precedence of its context)
_PRINTERS = {
    Name: lambda e, prec: e.id,
    ScalarLit: lambda e, prec: _wrap(str(e.value), e.value < 0 and prec >= 7),
    Literal: lambda e, prec: _PRINT_LITERAL[e.kind](e.parts),
    Unary: _print_unary,
    Binary: _print_binary,
    Postfix: _print_postfix,
    Abs: lambda e, prec: f"|{print_expr(e.operand)}|",
    Apply: lambda e, prec: f"{print_expr(e.fn, 8)}({_exprs(e.args)})",
    Rel: lambda e, prec: _wrap(
        f"{print_expr(e.left, 1)} {e.op} {print_expr(e.right, 1)}", prec > 0),
    LetStmt: lambda s, prec: f"let {s.name} = {print_expr(s.expr)};",
    EvalStmt: lambda s, prec: "eval %s%s;" % (
        print_expr(s.expr), "" if s.level is None else f" @level {s.level}"),
    CheckStmt: lambda s, prec: "check %s%s;" % (
        s.check_id, "".join(f" {k}={v}" for k, v in s.config)),
    SuiteStmt: lambda s, prec: "suite %s%s;" % (
        s.profile, "".join(f" {i}" for i in s.ids)),
    SearchStmt: lambda s, prec: "search%s;" % "".join(
        f" {k}={v}" for k, v in s.config),
}


def _scalars(values) -> str:
    return ",".join(str(v) for v in values)


def _pairs(pairs) -> str:
    return ",".join(f"({a},{b})" for a, b in pairs)


def _exprs(nodes) -> str:
    return ", ".join(print_expr(n) for n in nodes)


def _print_kernel(entries) -> str:
    rows = []
    for atom, target, terms in entries:
        head = f"{atom}" if atom == target else f"{atom}->{target}"
        rows.append(f"{head}: t -> {_print_poly(terms)}")
    return "kernel{%s}" % ", ".join(rows)


def _print_linec(parts) -> str:
    coeffs, unit, target = parts
    cs = ", ".join(f"{n}:{a}" for n, a in coeffs)
    return ("linec{%s; unit -> %s; target %s}"
            % (cs, print_expr(unit), print_expr(target)))


def _print_meyer(parts) -> str:
    operator, x, y, e = parts
    tail = f"; {print_expr(e)}" if e is not None else ""
    return f"meyer({print_expr(operator)}; {_exprs((x, y))}{tail})"


# literal kind -> its text, given the parts its parse branch reads
_PRINT_LITERAL = {
    "coord": lambda values: "coord[%s]" % _scalars(values),
    "simple": lambda parts: "simple{%s}[%s]" % tuple(map(_scalars, parts)),
    "ec": lambda parts: "ec[%s|%s]" % (_scalars(parts[0]), parts[1]),
    "fin": lambda pairs: "fin{%s}" % _pairs(pairs),
    "pl": lambda pairs: "pl{%s}" % _pairs(pairs),
    "simplespace": lambda points: "simplespace{%s}" % _scalars(points),
    "kernel": _print_kernel,
    "linec": _print_linec,
    "table": lambda entries: "table{%s}" % ", ".join(
        f"{print_expr(k)} -> {print_expr(v)}" for k, v in entries),
    "meyer": _print_meyer,
    "pliev": lambda parts: "pliev(%s; %s)" % tuple(map(_exprs, parts)),
}


def _print_poly(terms) -> str:
    out = []
    for k, (coef, power) in enumerate(terms):
        mag = abs(coef)
        if power == 0:
            body = str(mag)
        else:
            tpow = "t" if power == 1 else f"t^{power}"
            body = tpow if mag == 1 else f"{mag}*{tpow}"
        if k == 0:
            out.append(body if coef >= 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coef >= 0 else f"- {body}")
    return " ".join(out) if out else "0"
