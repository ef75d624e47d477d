"""Expression language: lexer, parser, printer round-trips, evaluation."""

import dataclasses
import io
import pathlib
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab import cli, dsl, evaluator, spaces
from rieszlab.dsl import (
    Binary, CheckStmt, DslSyntaxError, DslTypeError, LetStmt, Rel, SuiteStmt,
    parse, print_script, tokenize, tokenize_by_scan,
)
from rieszlab.evaluator import evaluate
from rieszlab.mutations import tampered
from rieszlab.operators import LateralMeet, apply
from rieszlab.spaces import coord

from conftest import make_rng

DEMO = (pathlib.Path(__file__).resolve().parent.parent / "demos"
        / "01_coordinates.rl")


def _script(src):
    result = parse(src)
    assert result.ok, result.diagnostics
    return result.script


def _eval_lines(src, seed=0):
    lines, env = evaluate(_script(src), seed=seed)
    return lines


# ---------------------------------------------------------------------------
# lexer / parser
# ---------------------------------------------------------------------------

def test_tokenize_basics():
    kinds = [t.kind for t in tokenize("let x = coord[1,-2]; # comment")]
    assert kinds == ["IDENT", "IDENT", "EQUALS", "IDENT", "LBRACK", "INT",
                     "COMMA", "MINUS", "INT", "RBRACK", "SEMI", "EOF"]


def test_unicode_aliases():
    a = _script("eval coord[1,0] ⊑ coord[1,2];")
    b = _script("eval coord[1,0] <<= coord[1,2];")
    assert a == b
    c = _script("eval coord[1,0] ⊥ coord[0,1];")
    d = _script("eval coord[1,0] _|_ coord[0,1];")
    assert c == d
    e = _script("eval coord[1,0] ⊔ coord[0,1];")
    f = _script("eval coord[1,0] lsup coord[0,1];")
    assert e == f


def test_parse_let_and_literals():
    script = _script("let e = coord[1,-2];")
    stmt = script.statements[0]
    assert isinstance(stmt, LetStmt) and stmt.name == "e"


def test_parse_errors_have_positions():
    result = parse("let x = coord[1,\n")
    assert not result.ok
    d = result.diagnostics[0]
    assert d.line == 1 and d.col >= 16


def test_parse_recovers_at_semicolons():
    result = parse("let x = ;\nlet y = coord[1];\nlet z = (;\n")
    assert len(result.diagnostics) == 2


def test_checkid_reassembly():
    script = _script("check thm-1.1-e samples=3;")
    stmt = script.statements[0]
    assert isinstance(stmt, CheckStmt)
    assert stmt.check_id == "thm-1.1-e"
    assert stmt.config == (("samples", "3"),)


def test_suite_statement_with_ids():
    script = _script("suite quick frag-boolean lem-3.1;")
    stmt = script.statements[0]
    assert isinstance(stmt, SuiteStmt)
    assert stmt.profile == "quick" and stmt.ids == ("frag-boolean", "lem-3.1")


def test_precedence():
    script = _script("eval coord[1,0] lsup coord[0,1] \\/ coord[0,0];")
    expr = script.statements[0].expr
    # \/ binds loosest: (a lsup b) \/ c
    assert isinstance(expr, Binary) and expr.op == "\\/"
    assert isinstance(expr.left, Binary) and expr.left.op == "lsup"
    script2 = _script("eval 2 * coord[1,0] + coord[0,1];")
    expr2 = script2.statements[0].expr
    assert expr2.op == "+" and expr2.left.op == "*"


def test_relation_is_loosest():
    script = _script("eval coord[1,0] \\/ coord[0,1] <= coord[2,2];")
    expr = script.statements[0].expr
    assert isinstance(expr, Rel) and expr.op == "<="


def _lexed(lexer, text):
    """The token list, or the diagnostic the lexer raised."""
    try:
        return lexer(text)
    except DslSyntaxError as exc:
        return str(exc.diagnostic)


# pieces of scripts: every literal spelling and Unicode alias, words,
# numbers (with digits int() reads and numeric characters it does not),
# blanks, newlines and comments
LEX_PIECES = st.sampled_from(
    sorted(dsl._LITERALS)
    + ["let", "eval", "coord", "lsup", "linf", "PLUS", "x", "_", "t", "x²",
       "0", "12", "٣", "²", "½", " ", "  ", "\t", "\r", "\n", "#",
       "# note\n"])
LEX_LINE = st.lists(st.one_of(LEX_PIECES, st.characters()),
                    max_size=10).map("".join)
LEX_TEXT = st.lists(LEX_LINE, max_size=4).map("\n".join)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(LEX_TEXT)
def test_tokenize_matches_the_scan_reference(text):
    assert _lexed(tokenize, text) == _lexed(tokenize_by_scan, text)


@pytest.mark.parametrize("lexer", [tokenize, tokenize_by_scan])
def test_int_is_a_run_of_decimal_digits(lexer):
    tok = lexer("12٣4")[0]
    assert tok.kind == "INT" and int(tok.text) == 1234
    for ch in "²½":
        with pytest.raises(DslSyntaxError) as info:
            lexer(f"eval coord[{ch}];")
        assert str(info.value.diagnostic) == \
            f"1:12: error: unexpected character {ch!r}"
    # a numeric character still continues an identifier
    assert [t.text for t in lexer("x² y")][:2] == ["x²", "y"]


@pytest.mark.parametrize("lexer", [tokenize, tokenize_by_scan])
def test_eof_column_after_a_trailing_comment(lexer):
    eof = lexer("eval # nothing")[-1]
    assert (eof.kind, eof.line, eof.col, eof.pos) == ("EOF", 1, 15, 14)


@pytest.mark.parametrize("src, diagnostic", [
    ("eval coord[²];", "1:12: error: unexpected character '²'"),
    ("eval # nothing", "1:15: error: unexpected end of input"),
])
def test_lexer_positions_reach_parse_diagnostics(src, diagnostic):
    assert [str(d) for d in parse(src).diagnostics] == [diagnostic]


@pytest.mark.parametrize("src, diagnostic", [
    # an EOF after a comment on a later line: the position just after
    # the last token, on that token's line
    ("let x = coord[1];\neval x # done",
     "2:7: error: expected ';', found end of input"),
    ("let x = coord[1];\n\n  eval x\n# done\n",
     "3:9: error: expected ';', found end of input"),
    # the column follows the token's source, not its ASCII spelling
    ("suite quick \u2294 # lsup\n",
     "1:14: error: expected ';', found end of input"),
])
def test_an_eof_diagnostic_follows_the_last_token(src, diagnostic):
    assert [str(d) for d in parse(src).diagnostics] == [diagnostic]


# ---------------------------------------------------------------------------
# node spans
# ---------------------------------------------------------------------------

# the token that opens each statement and each prefix node; a literal
# opens with its kind, its keyword
_OPENING_WORD = {
    dsl.LetStmt: "let", dsl.EvalStmt: "eval", dsl.CheckStmt: "check",
    dsl.SuiteStmt: "suite", dsl.SearchStmt: "search",
    dsl.Unary: "-", dsl.Abs: "|", dsl.Apply: "(",
}
_NUMERAL = re.compile(r"(-?)\s*(\d+)(?:\s*/\s*(\d+))?")


def _spellings(text):
    """A token text and the Unicode aliases that lex to it."""
    return (text,) + tuple(u for u, (_, ascii_text) in dsl._UNICODE.items()
                           if ascii_text == text)


def _nodes(node):
    """Every node under node that carries a span, in field order."""
    if isinstance(node, tuple):
        for item in node:
            yield from _nodes(item)
    elif isinstance(node, dsl.Node):
        if not isinstance(node, dsl.Script):
            yield node
        for f in dataclasses.fields(node):
            if f.name != "span":
                yield from _nodes(getattr(node, f.name))


def _span_problem(node, text, offsets):
    """Why the source at node's span does not open node, or None."""
    line, col = node.span
    if not 1 <= line <= len(offsets):
        return f"line {line} is out of range"
    at = text[offsets[line - 1] + col - 1:]
    if isinstance(node, dsl.ScalarLit):
        m = _NUMERAL.match(at)
        value = m and Fraction(int(m[2]), int(m[3] or 1)) * (-1) ** len(m[1])
        return None if value == node.value else f"numeral {at[:12]!r}"
    if isinstance(node, (Binary, Rel, dsl.Postfix)):
        words = _spellings(node.op)
    elif isinstance(node, dsl.Name):
        words = _spellings(node.id)
    elif isinstance(node, dsl.Literal):
        words = (node.kind,)
    else:
        words = (_OPENING_WORD[type(node)],)
    return None if at.startswith(words) else f"{at[:12]!r} is not {words}"


def _generated_style_script(rng, lets=40, evals=120):
    """A long script with every element model, Unicode aliases,
    indentation, comments and expressions broken over lines."""
    def num():
        n, d = rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])
        return f"{n}" if d == 1 else f"{n}/{d}"

    makers = [
        lambda: "coord[%s]" % ",".join(num() for _ in range(4)),
        lambda: "simple{0,1/3,2/3,1}[%s]" % ",".join(num() for _ in range(3)),
        lambda: "fin{%s}" % ",".join(f"({i},{num()})" for i in range(1, 4)),
        lambda: "ec[%s|%s]" % (",".join(num() for _ in range(3)), num()),
        lambda: "pl{(0,%s),(1/2,%s),(1,%s)}" % (num(), num(), num()),
    ]
    lines, names = [], []
    for k in range(lets):
        kind = k % len(makers)
        names.append((kind, f"v{k}"))
        lines.append(f"let v{k} = {makers[kind]()};")
    lines.append("let K = kernel{1: t -> 2*t^2 - t, 2->1: t -> -t + 3, "
                 "3: t -> -1/2*t};")
    lines.append("let L = linec{1:1, 2:-1/2; unit -> coord[1,0,0,0]; "
                 "target coord[0,1,0,0]};")
    binary = ["\\/", "/\\", "+", "-", "lsup", "linf", "∨", "∧", "⊔", "⊓"]
    rels = ["<=", "<<=", "_|_", "==", "⊑", "⊥"]
    for k in range(evals):
        kind = rng.randrange(len(makers))
        a, b = rng.sample([n for m, n in names if m == kind], 2)
        form = rng.randrange(6)
        if form == 0:
            expr = f"{a} {rng.choice(binary)}\n\t{num()} * {b}^+"
        elif form == 1:
            expr = f"|{a} {rng.choice(binary)} {b}|^- {rng.choice(rels)} {b}"
        elif form == 2:
            expr = f"-({a} - {b}) {rng.choice(binary)} {a}  # note\n  "
        elif form == 3:
            expr = f"K(coord[{num()},{num()},{num()},0]) ⊔ coord[1,2,3,4]"
        elif form == 4:
            expr = (f"meyer(L; ec[|{num()}], ec[{num()}|0];\n"
                    f"      ec[1|{num()}]) + pos(L)(ec[|1])")
        else:
            expr = f"fragments({a})" if kind else f"pliev({a}; {a})"
        lines.append(f"{'  ' * (k % 3)}eval {expr};")
    lines += ["check thm-1.1-e samples=3;", "suite quick frag-boolean;",
              "search max_level=8;", "let T = table{coord[1] -> coord[2]};",
              "let M = latmeet(one(plspace), 2 * one(plspace));",
              "eval series @level 2;", "let sp = coordspace(2);"]
    return "\n".join(lines) + "\n"


SPAN_SCRIPTS = ([p.read_text(encoding="utf-8")
                 for p in sorted(DEMO.parent.glob("*.rl"))]
                + [_generated_style_script(make_rng(f"spans-{k}"))
                   for k in range(3)])


def _span_problems(text):
    offsets = [0] + [m.end() for m in re.finditer("\n", text)]
    problems, kinds = [], set()
    for node in _nodes(_script(text)):
        kinds.add(node.kind if isinstance(node, dsl.Literal) else type(node))
        why = _span_problem(node, text, offsets)
        if why is not None:
            problems.append((type(node).__name__, node.span, why))
    return problems, kinds


def test_every_node_span_opens_its_node():
    assert len(SPAN_SCRIPTS) == 19
    seen = set()
    for text in SPAN_SCRIPTS:
        problems, kinds = _span_problems(text)
        assert problems == []
        seen |= kinds
    spanned = {c for c in vars(dsl).values() if isinstance(c, type)
               and issubclass(c, dsl.Node)
               and "span" in {f.name for f in dataclasses.fields(c)}}
    # every literal kind, and every other node class with a span
    assert seen == spanned - {dsl.Literal} | set(dsl._PRINT_LITERAL)


def test_mutation_lex_col_after_newline_off_by_one_is_caught():
    with tampered("lex-col-after-newline-off-by-one"):
        with pytest.raises(AssertionError):
            test_tokenize_matches_the_scan_reference()
        problems = [_span_problems(text)[0] for text in SPAN_SCRIPTS[:16]]
    assert all(problems)


@pytest.mark.parametrize("word", ["PLUS", "MINUS", "STAR", "JOIN", "MEET"])
def test_token_kind_names_are_not_operators(word, tmp_path, capsys):
    src = f"eval coord[1] {word} coord[2];"
    assert [str(d) for d in parse(src).diagnostics] == [
        f"1:15: error: expected ';', found {word!r}"]
    script = tmp_path / "op.rl"
    script.write_text(src, encoding="utf-8")
    assert cli.main(["run", str(script)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        f"{script}:1:15: error: expected ';', found {word!r}\n")


def _nested(levels):
    return "eval " + "(" * levels + "coord[1]" + ")" * levels + ";"


def test_nesting_limit_is_reached_before_the_recursion_limit():
    script = _script(_nested(dsl._MAX_DEPTH - 1))
    assert evaluate(script, seed=0)[0] == ["coord[1]"]
    assert print_script(script) == "eval coord[1];\n"
    # the 121st parenthesis opens the 121st nested expression
    assert [str(d) for d in parse(_nested(dsl._MAX_DEPTH + 1)).diagnostics] \
        == ["1:126: error: expression too deeply nested"]


def test_negations_count_toward_the_nesting_limit():
    script = _script("eval " + "-" * (dsl._MAX_DEPTH - 1) + "coord[1];")
    assert evaluate(script, seed=0)[0] == ["coord[-1]"]
    # the 120th minus opens the 121st nested expression
    deep = "eval " + "-" * dsl._MAX_DEPTH + "coord[1];"
    assert [str(d) for d in parse(deep).diagnostics] \
        == ["1:125: error: expression too deeply nested"]


def test_mutation_lex_comment_swallows_newline_is_caught():
    golden = DEMO.with_suffix(".out").read_text(encoding="utf-8")
    with tampered("lex-comment-swallows-newline"):
        with pytest.raises(AssertionError):
            test_tokenize_matches_the_scan_reference()
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["run", str(DEMO), "--seed", "0"])
    assert buf.getvalue() != golden


# ---------------------------------------------------------------------------
# printer round-trips
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "let e = coord[1,-2,3];",
    "let s = simple{0,1/2,1}[2,0];",
    "let x = ec[1,5|5];",
    "let f = fin{(1,2),(4,-1)};",
    "let p = pl{(0,0),(1/2,1),(1,0)};",
    "let sp = coordspace(3);",
    "let sp2 = simplespace{0,1/3,1};",
    "let K = kernel{1: t -> t^2, 2->1: t -> -t};",
    "let L = linec{1:1, 2:2; unit -> zero(ecspace); target coord[1]};",
    "let T = table{one(plspace) -> one(plspace)};",
    "let M = latmeet(one(plspace), 2 * one(plspace));",
    "let A = series;",
    "eval (coord[1,0] lsup coord[0,1]) linf coord[1,1];",
    "eval x^+ - x^- == x;",
    "eval |coord[1,-2]| <= coord[2,2];",
    "eval mod(K)(coord[1,2]) @level 4;",
    "eval meyer(T; one(plspace), 2 * one(plspace));",
    "eval meyer(T; one(plspace), 2 * one(plspace); one(plspace));",
    "eval pliev(coord[1,0], coord[0,2]; coord[1,2]);",
    "eval coord[1,0] _|_ coord[0,1];",
    "eval fragments(coord[1,-2]);",
    "eval decomps(coord[1,-2]);",
    "check ex-2.2 level=10;",
    "suite quick frag-boolean;",
    "search max_level=8 instances=2;",
    "eval -3/4 * coord[2,0];",
    "eval (K \\/ K)(coord[1,1]);",
    "eval (K /\\ K)(coord[1,1]);",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(src):
    script = _script(src)
    printed = print_script(script)
    reparsed = parse(printed)
    assert reparsed.ok, (printed, reparsed.diagnostics)
    assert reparsed.script == script
    # printing is idempotent
    assert print_script(reparsed.script) == printed


def _chain(expr):
    """A left-leaning chain as its bottom operand and the (operator,
    right operand) steps above it, bottom first; read in a loop, since
    comparing two long chains node by node would recurse."""
    steps = []
    while isinstance(expr, (Binary, dsl.Postfix)):
        if isinstance(expr, Binary):
            steps.append((expr.op, expr.right))
            expr = expr.left
        else:
            steps.append((expr.op, None))
            expr = expr.operand
    return expr, steps[::-1]


_OPERANDS = ["x", "coord[1,-2]", "2 * y"] * 1000


@pytest.mark.parametrize("src, steps", [
    ("eval x" + "".join(f" {op} {operand}" for op, operand in zip(
        ["-", "+", "+"] * 1000, _OPERANDS[1:])) + ";", 2999),
    ("eval x" + "^+^-" * 1500 + ";", 3000),
], ids=["3000-operand-sum", "3000-step-postfix"])
def test_print_script_survives_long_chains(src, steps):
    script = _script(src)
    printed = print_script(script)
    assert printed == src + "\n"
    chain = _chain(_script(printed).statements[0].expr)
    assert len(chain[1]) == steps
    assert chain == _chain(script.statements[0].expr)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_matches_direct_library_calls():
    lines = _eval_lines("""
        let x = coord[1,-2,0];
        let y = coord[0,3,0];
        eval x \\/ y;
        eval x /\\ y;
        eval x lsup y;
        eval |x|;
        eval x <= y;
    """)
    x, y = coord(1, -2, 0), coord(0, 3, 0)
    from rieszlab.lateral import lateral_sup
    assert lines == [
        spaces.format_element(spaces.sup(x, y)),
        spaces.format_element(spaces.inf(x, y)),
        spaces.format_element(lateral_sup(x, y)),
        spaces.format_element(spaces.absolute(x)),
        "false",
    ]


def test_eval_operator_application_matches_library():
    lines = _eval_lines("""
        let K = kernel{1: t -> t^2, 2: t -> -t};
        eval K(coord[2,3]);
        eval mod(K)(coord[1,2]);
        eval (K \\/ K)(coord[1,1]);
    """)
    from rieszlab.operators import diagonal_kernel, poly
    from rieszlab.oplattice import modulus_at
    K = diagonal_kernel(spaces.Coordinate(2), [poly(0, 0, 1), poly(0, -1)])
    assert lines[0] == spaces.format_element(apply(K, coord(2, 3)))
    assert lines[1].startswith(
        spaces.format_element(modulus_at(K, coord(1, 2)).value))
    assert lines[2].startswith(
        spaces.format_element(apply(K, coord(1, 1))))


def test_eval_truncated_level_table():
    lines = _eval_lines("""
        let L = linec{1:1, 2:2; unit -> coord[0]; target coord[1]};
        eval pos(L)(ec[|1]) @level 3;
    """)
    # coefficients live at indices 1 and 2, so level 3 adds nothing
    assert lines == ["level 0: coord[0]", "level 1: coord[1]",
                     "level 2: coord[3]", "level 3: coord[3]"]


def test_eval_meyer_unsafe_marker():
    lines = _eval_lines("""
        let P = plspace;
        let T = table{one(P) -> one(P), 2*one(P) -> -1*one(P)};
        eval meyer(T; one(P), 2*one(P));
    """)
    assert lines == ["pl{(0,1),(1,1)} (unsafe: lateral bound not checked)"]


def test_eval_check_statement_counts_failures():
    script = _script("check ex-2.2 level=8;")
    with tampered("level-suffix-drops-tail"):
        lines, env = evaluate(script, seed=0)
    assert env.failures == 1
    assert lines[0].startswith("ex-2.2 fails")
    # an inconclusive check is no failure
    lines, env = evaluate(script, seed=0)
    assert env.failures == 0
    assert lines[0].startswith("ex-2.2 inconclusive")


def test_type_errors_carry_spans():
    with pytest.raises(DslTypeError):
        _eval_lines("eval coord[1] + 2;")
    with pytest.raises(DslTypeError):
        _eval_lines("eval nope(coord[1]);")
    with pytest.raises(DslTypeError):
        _eval_lines("eval coord[1](coord[1]);")


def test_env_seed_controls_search():
    a = _eval_lines("search instances=2 max_level=8;", seed=1)
    b = _eval_lines("search instances=2 max_level=8;", seed=1)
    c = _eval_lines("search instances=2 max_level=8;", seed=2)
    assert a == b
    assert a != c


def test_fragments_builtin_with_level():
    lines = _eval_lines("eval fragments(ec[|1]) @level 1;")
    assert lines == ["fragments count=4: [ec[|0], ec[1|0], ec[|1], ec[0|1]]"]


def test_pliev_builtin_matches_library():
    lines = _eval_lines(
        "eval pliev(coord[1,0,3], coord[0,2,0]; coord[1,2,0], coord[0,0,3]);")
    assert lines == [
        "grid[[coord[1,0,0],coord[0,0,3]],[coord[0,2,0],coord[0,0,0]]]"]
    from rieszlab.errors import PreconditionError
    with pytest.raises(PreconditionError):
        _eval_lines("eval pliev(coord[1,0]; coord[0,1]);")  # different sums


# ---------------------------------------------------------------------------
# comma lists, builtins and predefined names
# ---------------------------------------------------------------------------

# each comma list of the grammar with a trailing comma, and as printed
_TRAILING_COMMAS = {
    "coord": ("coord[1,2,]", "coord[1,2]"),
    "simple": ("simple{0,1/2,1,}[2,0,]", "simple{0,1/2,1}[2,0]"),
    "simplespace": ("simplespace{0,1/2,1,}", "simplespace{0,1/2,1}"),
    "ec": ("ec[1,5,|5]", "ec[1,5|5]"),
    "fin": ("fin{(1,2),(4,-1),}", "fin{(1,2),(4,-1)}"),
    "pl": ("pl{(0,0),(1,1),}", "pl{(0,0),(1,1)}"),
    "call": ("latsup(x, y,)", "latsup(x, y)"),
    "table": ("table{x -> y, y -> x,}", "table{x -> y, y -> x}"),
    "kernel": ("kernel{1: t -> t, 2: t -> 1,}",
               "kernel{1: t -> t, 2: t -> 1}"),
    "linec": ("linec{1:1, 2:2,; unit -> x; target y}",
              "linec{1:1, 2:2; unit -> x; target y}"),
    "pliev": ("pliev(x, y,; x,)", "pliev(x, y; x)"),
}


@pytest.mark.parametrize("with_comma, printed", _TRAILING_COMMAS.values(),
                         ids=_TRAILING_COMMAS)
def test_every_comma_list_takes_a_trailing_comma(with_comma, printed):
    script = _script(f"eval {with_comma};")
    assert script == _script(f"eval {printed};")
    assert print_script(script) == f"eval {printed};\n"
    # one comma ends a list; two are an error
    doubled = with_comma.replace(",", ",,", 1)
    assert not parse(f"eval {doubled};").ok


@pytest.mark.parametrize("src", ["latmeet(x, y)", "coordspace(2)"])
def test_call_shaped_literals_parse_as_calls(src):
    expr = _script(f"eval {src};").statements[0].expr
    assert type(expr) is dsl.Apply
    assert expr.fn == dsl.Name(src[:src.index("(")])
    assert print_script(_script(f"eval {src};")) == f"eval {src};\n"


@pytest.mark.parametrize("name", sorted(evaluator._PREDEFINED))
def test_a_let_shadows_a_predefined_name(name):
    assert _script(f"eval {name};").statements[0].expr == dsl.Name(name)
    assert _eval_lines(f"let {name} = coord[1]; eval {name};") == ["coord[1]"]


def test_predefined_names_and_new_builtins_evaluate():
    assert _eval_lines("""
        eval series;
        eval one(plspace);
        eval zero(finspace);
        eval one(ecspace);
        eval one(coordspace(3));
        eval latmeet(coord[1,2], coord[3,-4])(coord[2,-1]);
    """) == ["<operator AlternatingSeries>", "pl{(0,1),(1,1)}", "fin{}",
             "ec[|1]", "coord[1,1,1]", spaces.format_element(apply(
                 LateralMeet(spaces.Coordinate(2), coord(1, 2), coord(3, -4)),
                 coord(2, -1)))]
    # coordspace reads its dimension as a canonical scalar
    lines, env = evaluate(_script("let S = coordspace(3);"))
    assert env.bindings["S"] == spaces.Coordinate(3)
    assert type(env.bindings["S"].n) is int


def _random_scalar(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _random_scalars(rng):
    return tuple(_random_scalar(rng) for _ in range(rng.randint(0, 3)))


def _random_poly(rng):
    """Kernel row terms: coefficients of either sign, powers 0 to 3."""
    return tuple((Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                  rng.randrange(4)) for _ in range(rng.randint(1, 3)))


def _random_leaf_literal(rng):
    """A literal of every kind whose parts hold no expression."""
    kind = rng.choice(["coord", "simple", "ec", "fin", "pl", "simplespace",
                       "kernel"])
    if kind == "simple":
        parts = (_random_scalars(rng), _random_scalars(rng))
    elif kind == "ec":
        parts = (_random_scalars(rng), _random_scalar(rng))
    elif kind in ("fin", "pl"):
        firsts = (tuple(range(rng.randint(0, 3))) if kind == "fin"
                  else _random_scalars(rng))
        parts = tuple((a, Fraction(rng.randint(-4, 4))) for a in firsts)
    elif kind == "kernel":
        parts = tuple((atom, rng.choice([atom, rng.randint(1, 4)]),
                       _random_poly(rng))
                      for atom in range(1, rng.randint(1, 4)))
    else:
        parts = _random_scalars(rng)
    return dsl.Literal(kind, parts)


def _random_literal(rng, depth):
    """A literal of every kind whose parts hold expressions."""

    def sub():
        return _random_expr(rng, depth - 1)

    def subs():
        return tuple(sub() for _ in range(rng.randint(0, 2)))

    kind = rng.choice(["linec", "table", "meyer", "pliev"])
    if kind == "linec":
        coeffs = tuple((n, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                       for n in range(1, rng.randint(1, 4)))
        parts = (coeffs, sub(), sub())
    elif kind == "table":
        parts = tuple((sub(), sub()) for _ in range(rng.randint(0, 2)))
    elif kind == "meyer":
        parts = (sub(), sub(), sub(), rng.choice([None, sub()]))
    else:
        parts = (subs(), subs())
    return dsl.Literal(kind, parts)


def _random_expr(rng, depth):
    from fractions import Fraction
    from rieszlab import dsl as d
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return d.ScalarLit(Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 9)))
        if kind == 1:
            return d.Name(rng.choice("abcxyz"))
        if kind == 2:
            return _random_leaf_literal(rng)
        return d.Apply(d.Name("coordspace"),
                       (d.ScalarLit(Fraction(rng.randint(1, 4))),))
    kind = rng.randrange(7)
    if kind == 0:
        op = rng.choice(["*", "+", "-", "lsup", "linf", "/\\", "\\/"])
        return d.Binary(op, _random_expr(rng, depth - 1),
                        _random_expr(rng, depth - 1))
    if kind == 1:
        return d.Unary("-", _random_expr(rng, depth - 1))
    if kind == 2:
        return d.Postfix(rng.choice(["^+", "^-"]),
                         _random_expr(rng, depth - 1))
    if kind == 3:
        return d.Abs(_random_expr(rng, depth - 1))
    if kind == 4:
        return d.Apply(d.Name(rng.choice("fg")),
                       tuple(_random_expr(rng, depth - 1)
                             for _ in range(rng.randint(1, 2))))
    if kind == 5:
        return _random_literal(rng, depth)
    return d.Rel(rng.choice(["<=", "<<=", "_|_", "=="]),
                 _random_expr(rng, 0), _random_expr(rng, 0))


def test_printer_round_trip_generated_asts():
    from rieszlab import dsl as d
    rng = make_rng("ast-fuzz")
    drawn = set()
    for _ in range(800):
        script = d.Script((d.EvalStmt(_random_expr(rng, 3)),))
        printed = print_script(script)
        reparsed = parse(printed)
        assert reparsed.ok, (printed, reparsed.diagnostics)
        assert reparsed.script == script, printed
        for node in _nodes(script):
            if isinstance(node, d.Literal):
                drawn.add(node.kind)
                if node.kind == "meyer":
                    drawn.add(("meyer", node.parts[3] is None))
                if node.kind == "kernel":
                    drawn |= {("kernel", atom == target, power)
                              for atom, target, terms in node.parts
                              for _, power in terms}
    assert set(d._PRINT_LITERAL) <= drawn
    # meyer with and without e; kernel rows i and i->j, terms of each power
    assert {("meyer", False), ("meyer", True)} <= drawn
    assert {("kernel", same, power) for same in (False, True)
            for power in range(4)} <= drawn


def test_parser_fuzz_smoke():
    rng = make_rng("fuzz-smoke")
    corpus = "let eval check suite coord simple ec fin pl [ ] { } ( ) ; , | " \
             "-> \\/ /\\ ^+ ^- <= <<= == _|_ * + - / 1 2 t kernel table"
    atoms = corpus.split(" ")
    for _ in range(2000):
        n = rng.randint(0, 12)
        text = " ".join(rng.choice(atoms) for _ in range(n))
        parse(text)  # must not raise
    for _ in range(2000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 30)))
        parse(raw.decode("utf-8", errors="replace"))


# ---------------------------------------------------------------------------
# no script ends in a traceback
# ---------------------------------------------------------------------------

# one operand of each value kind: elements, scalars, an operator, a
# space and a bool, and the empty literals; K acts on the two-atom
# coordinate space
_KIND_OPERANDS = ["coord[1,-2]", "coord[0,3]", "ec[1|2]", "2", "-1/2", "K",
                  "coordspace(2)", "(coord[1,0] <= coord[1,1])",
                  "kernel{}", "table{}", "coord[]", "fin{}", "pl{}",
                  "simplespace{}"]
_PRELUDE = "let K = kernel{1: t -> t, 2: t -> 2*t};\n"


@st.composite
def _long_chains(draw):
    """A left-leaning chain of one binary operator over cycled operands,
    or a run of ^+^- after one operand, up to 3 000 long."""
    n = draw(st.one_of(st.just(3000), st.integers(1, 3000)))
    operands = draw(st.lists(st.sampled_from(_KIND_OPERANDS), min_size=1,
                             max_size=3))
    op = draw(st.sampled_from(sorted(dsl._PREC) + ["^+^-"]))
    if op == "^+^-":
        return operands[0] + "^+^-" * (n // 2)
    return f" {op} ".join(operands[k % len(operands)] for k in range(n))


# prefix and suffix of one nesting level
_WRAPPERS = [("(", ")"), ("|", "|"), ("-", ""), ("K(", ")"),
             ("fragments(", ")"), ("one(", ")"), ("(coord[1,1] + ", ")"),
             ("(2 * ", ")^+"), ("latsup(coord[1,0], coord[0,1], ", ")")]


@st.composite
def _deep_nesting(draw):
    """An operand inside up to two levels more than the parser takes,
    of one kind or mixed."""
    depth = st.integers(0, dsl._MAX_DEPTH + 2)
    levels = draw(st.one_of(
        st.builds(lambda w, n: [w] * n, st.sampled_from(_WRAPPERS), depth),
        st.lists(st.sampled_from(_WRAPPERS), max_size=dsl._MAX_DEPTH + 2)))
    core = draw(st.sampled_from(_KIND_OPERANDS))
    return ("".join(p for p, _ in levels) + core
            + "".join(s for _, s in reversed(levels)))


_SCRIPTS = st.one_of(
    st.one_of(_long_chains(), _deep_nesting()).map(
        lambda expr: f"{_PRELUDE}eval {expr};\n"),
    LEX_TEXT)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_SCRIPTS)
def test_no_script_ends_in_a_traceback(tmp_path_factory, text):
    # every script exits with a code the CLI documents: an error the
    # evaluator or the library does not expect would propagate here
    script = tmp_path_factory.getbasetemp() / "fuzz.rl"
    script.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["run", str(script)])
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_TYPE,
                    cli.EXIT_PRECONDITION)
