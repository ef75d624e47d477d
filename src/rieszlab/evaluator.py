"""Script evaluation: binds names, evaluates expressions, runs commands.

Every output a script produces goes through ``render`` below, which
prints a value by its ``kind_of``, so the shipped example corpus is
byte-reproducible given a seed.  An operation is one row of ``_OPS``,
keyed by its name and the kind of each operand, and a call of a name in
``_BUILTINS`` goes to its rows; a name the script has not bound falls
back to ``_PREDEFINED``.  ``_LEAVES`` and ``_STATEMENTS`` map node
classes to handlers, and ``_LITERALS`` maps the kind of a
``dsl.Literal``, its keyword, to the handler that builds its value.
``eval_expr`` walks the left spine of a chain in a loop, so a chain of
any length evaluates; the parser bounds the rest of the nesting.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import checks, lateral, spaces
from .dsl import (
    Abs, Apply, Binary, CheckStmt, DslTypeError, EvalStmt, LetStmt, Literal,
    Name, Postfix, Rel, ScalarLit, Script, SearchStmt, SuiteStmt, Unary,
)
from .errors import MalformedElement
from .operators import (
    AlternatingSeries, Kernel, LateralMeet, LinearEC, Operator, OpScaled,
    OpSum, PiecewisePoly, match_table,
)
from .oplattice import LatticePoint, OpLattice, meyer_pair
from .spaces import (
    Coordinate, Element, EventuallyConstant, FinSupport, PiecewiseLinear,
    SimpleFunction, format_element,
)


class Environment:
    def __init__(self, seed=0):
        self.bindings = {}
        self.seed = seed
        self.level = None          # @level context of the current eval
        self.failures = 0          # check statements that failed
        # a statement is unsafe when it evaluates meyer(T; x, y), with no
        # e, or a name a let bound to a value built by such a statement
        self.unsafe = False
        self.unsafe_names = set()

    def lookup(self, name, span):
        if name in self.bindings:
            self.unsafe |= name in self.unsafe_names
            return self.bindings[name]
        if name in _PREDEFINED:
            return _PREDEFINED[name]()
        raise DslTypeError(f"unbound name {name!r}", span)


SCALAR, BOOL, ELEMENT, OPERATOR, SPACE, OTHER = (
    "scalar", "bool", "element", "operator", "space", "other")
FRAGMENTS, SPLITTINGS, POINT, GRID = (
    "fragments", "splittings", "lattice point", "grid")

# base class -> kind, bool before int: a bool, the value of a relation,
# is not a scalar; a canonical scalar is an int or a Fraction.  The
# kinds after SPACE are only printed: no row of _OPS takes them.  The
# one tuple a script makes is the splittings that decomps lists.
_KIND_BASES = ((bool, BOOL), (int, SCALAR), (Fraction, SCALAR),
               (Element, ELEMENT), (Operator, OPERATOR),
               (spaces.Space, SPACE), (lateral.FragmentEnumeration, FRAGMENTS),
               (tuple, SPLITTINGS), (LatticePoint, POINT),
               (lateral.PlievGrid, GRID))
_KINDS = {}                        # type(value) -> kind, filled on demand


def kind_of(value) -> str:
    """The kind of a value, which the operation table is keyed on."""
    cls = type(value)
    kind = _KINDS.get(cls)
    if kind is None:
        kind = _KINDS[cls] = next(
            (k for base, k in _KIND_BASES if issubclass(cls, base)), OTHER)
    return kind


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_lattice_point(p: LatticePoint) -> str:
    if p.mode == "exact":
        text = format_element(p.value)
        if p.attained:
            pairs = "; ".join(f"({format_element(d.left)} | "
                              f"{format_element(d.right)})"
                              for d in p.attained)
            text += f" attained=[{pairs}]"
        return text
    lines = [f"level {l}: {format_element(v)}" for l, v in p.levels]
    return "\n".join(lines)


# kind -> the text of a value of that kind; any other value prints as str
_RENDER_KIND = {
    BOOL: lambda v: "true" if v else "false",
    ELEMENT: lambda v: format_element(v),
    SCALAR: str,
    OPERATOR: lambda v: f"<operator {type(v).__name__}>",
    SPACE: lambda v: spaces.space_name(v),
    FRAGMENTS: lambda v: "fragments count=%d: [%s]" % (
        v.count, ", ".join(format_element(z) for z in v)),
    SPLITTINGS: lambda v: "decomps count=%d: [%s]" % (len(v), ", ".join(
        f"({format_element(d.left)} | {format_element(d.right)})"
        for d in v)),
    POINT: _render_lattice_point,
    GRID: lambda v: "grid[%s]" % ",".join(
        "[%s]" % ",".join(format_element(w) for w in row) for row in v.grid),
}


def render(value) -> str:
    return _RENDER_KIND.get(kind_of(value), str)(value)


# ---------------------------------------------------------------------------
# the operation table
# ---------------------------------------------------------------------------

# (name, kind of each operand) -> the function of the operands; library
# functions are looked up when called, through their modules
_OPS = {
    ("*", SCALAR, SCALAR): lambda a, b: a * b,
    ("*", SCALAR, ELEMENT): lambda a, x: spaces.scale(a, x),
    ("*", SCALAR, OPERATOR): OpScaled,
    ("+", SCALAR, SCALAR): lambda a, b: a + b,
    ("+", ELEMENT, ELEMENT): lambda x, y: spaces.add(x, y),
    ("+", OPERATOR, OPERATOR): lambda S, T: OpSum((S, T)),
    ("-", SCALAR, SCALAR): lambda a, b: a - b,
    ("-", ELEMENT, ELEMENT): lambda x, y: spaces.sub(x, y),
    ("-", OPERATOR, OPERATOR):
        lambda S, T: OpSum((S, OpScaled(Fraction(-1), T))),
    ("\\/", ELEMENT, ELEMENT): lambda x, y: spaces.sup(x, y),
    ("\\/", OPERATOR, OPERATOR): lambda S, T: OpLattice("join", (S, T)),
    ("/\\", ELEMENT, ELEMENT): lambda x, y: spaces.inf(x, y),
    ("/\\", OPERATOR, OPERATOR): lambda S, T: OpLattice("meet", (S, T)),
    ("lsup", ELEMENT, ELEMENT): lambda x, y: lateral.lateral_sup(x, y),
    ("linf", ELEMENT, ELEMENT): lambda x, y: lateral.lateral_inf(x, y),
    ("<=", ELEMENT, ELEMENT): lambda x, y: spaces.leq(x, y),
    ("<<=", ELEMENT, ELEMENT): lambda x, y: lateral.is_fragment(x, y),
    ("_|_", ELEMENT, ELEMENT): lambda x, y: spaces.is_disjoint(x, y),
    ("negate", SCALAR): lambda a: -a,
    ("negate", ELEMENT): lambda x: spaces.scale(-1, x),
    ("negate", OPERATOR): lambda T: OpScaled(Fraction(-1), T),
    ("^+", ELEMENT): lambda x: spaces.pos_part(x),
    ("^+", OPERATOR): lambda T: OpLattice("pos", (T,)),
    ("^-", ELEMENT): lambda x: spaces.neg_part(x),
    ("^-", OPERATOR): lambda T: OpLattice("neg", (T,)),
    ("|...|", SCALAR): abs,
    ("|...|", ELEMENT): lambda x: spaces.absolute(x),
    ("|...|", OPERATOR): lambda T: OpLattice("mod", (T,)),
    ("apply", OPERATOR, ELEMENT): lambda T, x, level: T.at(x, level),
    ("fragments", ELEMENT):
        lambda e, level: lateral.enumerate_fragments(e, level),
    ("decomps", ELEMENT):
        lambda x, level: lateral.enumerate_decompositions(x, level=level),
    ("latsup", ELEMENT, ELEMENT): lambda x, y: lateral.lateral_sup(x, y),
    ("latsup", ELEMENT, ELEMENT, ELEMENT):
        lambda x, y, e: lateral.lateral_sup(x, y, base=e),
    ("latinf", ELEMENT, ELEMENT): lambda x, y: lateral.lateral_inf(x, y),
    ("one", ELEMENT): lambda x: spaces.one(x.space),
    ("one", SPACE): lambda s: spaces.one(s),
    ("zero", ELEMENT): lambda x: spaces.zero(x.space),
    ("zero", SPACE): lambda s: spaces.zero(s),
    ("pos", OPERATOR): lambda T: OpLattice("pos", (T,)),
    ("neg", OPERATOR): lambda T: OpLattice("neg", (T,)),
    ("mod", OPERATOR): lambda T: OpLattice("mod", (T,)),
    ("latmeet", ELEMENT, ELEMENT): lambda a, b: LateralMeet(a.space, a, b),
    ("coordspace", SCALAR): lambda n: Coordinate(spaces.q(n)),
}

# rows whose function takes the eval statement's @level after the operands
_AT_LEVEL = frozenset({"apply", "fragments", "decomps"})

# name -> the type error when no row matches its operands
_MESSAGES = {
    "*": "'*' scales an element or operator by a rational",
    **{op: f"'{op}' needs two elements, scalars or operators" for op in "+-"},
    **{op: f"'{op}' needs two elements or two operators"
       for op in ("\\/", "/\\")},
    **{op: f"{op} needs two elements" for op in ("lsup", "linf")},
    **{op: f"'{op}' needs two elements" for op in ("<=", "<<=", "_|_")},
    "negate": "cannot negate this value",
    **{op: f"{op} applies to elements or operators" for op in ("^+", "^-")},
    "|...|": "|...| applies to elements, scalars or operators",
    "apply": "an operator applies to one element",
    **{name: f"{name} takes one element" for name in ("fragments", "decomps")},
    "latsup": "latsup takes two elements and an optional base element",
    "latinf": "latinf needs two elements",
    **{name: f"{name} takes an element or a space" for name in ("one", "zero")},
    **{name: f"{name} wraps an operator" for name in ("pos", "neg", "mod")},
    "latmeet": "latmeet needs two elements",
    "coordspace": "coordspace takes one dimension, a positive integer",
}

# names a call reaches as builtins unless the script binds them
_BUILTINS = frozenset({"fragments", "decomps", "latsup", "latinf", "one",
                       "zero", "pos", "neg", "mod", "latmeet", "coordspace"})

# name -> the factory of its value, for a name the script has not bound
_PREDEFINED = {"series": AlternatingSeries, "finspace": FinSupport,
               "ecspace": EventuallyConstant, "plspace": PiecewiseLinear}


def _op(name, args, span, level=None):
    """The row of name and the kinds of args, applied to args.  An
    operand that the row refuses as malformed, such as the dimension of
    ``coordspace(1/2)``, is a type error at the call."""
    row = _OPS.get((name, *map(kind_of, args)))
    if row is None:
        raise DslTypeError(_MESSAGES[name], span)
    try:
        return row(*args, level) if name in _AT_LEVEL else row(*args)
    except MalformedElement as exc:
        raise DslTypeError(str(exc), span) from exc


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

# the chains eval_expr walks down their left operands
_CHAINS = frozenset({Binary, Rel, Postfix})


def eval_expr(node, env: Environment):
    # the left spine, outermost first: (operator, right operand or None
    # for a postfix, span)
    spine = []
    while type(node) in _CHAINS:
        right = getattr(node, "right", None)
        spine.append((node.op, right, node.span))
        node = node.operand if right is None else node.left
    leaf = _LEAVES.get(type(node))
    if leaf is None:
        raise DslTypeError(f"cannot evaluate {type(node).__name__}",
                           getattr(node, "span", (0, 0)))
    value = leaf(node, env)
    for op, right, span in reversed(spine):
        if right is None:
            value = _op(op, (value,), span)
        elif op == "==":
            value = value == eval_expr(right, env)
        else:
            value = _op(op, (value, eval_expr(right, env)), span)
    return value


def _element(expr, env, span, what) -> Element:
    """The value of expr, which must be an element."""
    v = eval_expr(expr, env)
    if kind_of(v) != ELEMENT:
        raise DslTypeError(f"{what} must be an element, got {type(v).__name__}",
                           span)
    return v


def _kernel(node: Literal, env) -> Kernel:
    entries = node.parts
    if not entries:
        raise MalformedElement("a kernel needs at least one row")
    n_dom = max(atom for atom, _, _ in entries)
    n_cod = max(target for _, target, _ in entries)
    rows = []
    for atom, target, terms in entries:
        coeffs = [Fraction(0)] * (max((p for _, p in terms), default=0) + 1)
        for coef, power in terms:
            coeffs[power] += coef
        rows.append((atom, target, PiecewisePoly((), (tuple(coeffs),))))
    return Kernel(Coordinate(n_dom), Coordinate(n_cod), tuple(rows))


def _linec(node: Literal, env) -> LinearEC:
    coeffs, unit, target = node.parts
    unit = _element(unit, env, node.span, "unit image")
    target = _element(target, env, node.span, "target")
    return LinearEC(target.space, coeffs, unit, target)


def _table(node: Literal, env):
    return match_table([(_element(k, env, node.span, "table key"),
                         _element(v, env, node.span, "table value"))
                        for k, v in node.parts])


def _apply(node: Apply, env):
    fn = node.fn
    if type(fn) is Name and fn.id in _BUILTINS and fn.id not in env.bindings:
        args = [eval_expr(a, env) for a in node.args]
        return _op(fn.id, args, node.span, env.level)
    T = eval_expr(fn, env)
    # before the arguments, so a call of a non-operator fails as itself
    if kind_of(T) != OPERATOR:
        raise DslTypeError("only operators can be applied", node.span)
    args = [eval_expr(a, env) for a in node.args]
    return _op("apply", (T, *args), node.span, env.level)


def _meyer(node: Literal, env):
    operator, x, y, e = node.parts
    T = eval_expr(operator, env)
    if kind_of(T) != OPERATOR:
        raise DslTypeError("meyer needs an operator first", node.span)
    x = _element(x, env, node.span, "x")
    y = _element(y, env, node.span, "y")
    if e is None:
        env.unsafe = True
        return meyer_pair(T, x, y, unsafe=True)
    return meyer_pair(T, x, y, _element(e, env, node.span, "e"))


def _pliev(node: Literal, env):
    us, vs = node.parts
    us = [_element(u, env, node.span, "left splitting") for u in us]
    vs = [_element(v, env, node.span, "right splitting") for v in vs]
    return lateral.pliev_grid(us, vs)


def _constructor(make):
    """The handler of a literal whose parts are the arguments of make."""
    return lambda node, env: make(*node.parts)


# literal kind -> handler(node, env), which unpacks the node's parts
_LITERALS = {
    "coord": _constructor(spaces.coord),
    "simple": _constructor(spaces.simple),
    "ec": _constructor(spaces.ec),
    "fin": _constructor(spaces.fin),
    "pl": _constructor(spaces.pl),
    "simplespace": lambda node, env: SimpleFunction(node.parts),
    "kernel": _kernel,
    "linec": _linec,
    "table": _table,
    "meyer": _meyer,
    "pliev": _pliev,
}

# node class -> handler(node, env), for every expression node but the
# chains eval_expr walks
_LEAVES = {
    ScalarLit: lambda node, env: node.value,
    Name: lambda node, env: env.lookup(node.id, node.span),
    Literal: lambda node, env: _LITERALS[node.kind](node, env),
    Unary: lambda node, env: _op("negate", (eval_expr(node.operand, env),),
                                 node.span),
    Abs: lambda node, env: _op("|...|", (eval_expr(node.operand, env),),
                               node.span),
    Apply: _apply,
}


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

def evaluate(script: Script, seed=0, env: Environment | None = None):
    """Run a parsed script; returns (output lines, environment)."""
    env = env or Environment(seed=seed)
    out = []
    for stmt in script.statements:
        handler = _STATEMENTS.get(type(stmt))
        if handler is None:
            raise DslTypeError(f"cannot execute {type(stmt).__name__}",
                               getattr(stmt, "span", (0, 0)))
        out.extend(handler(stmt, env))
    return out, env


def _let(stmt: LetStmt, env):
    env.level, env.unsafe = None, False
    env.bindings[stmt.name] = eval_expr(stmt.expr, env)
    if env.unsafe:
        env.unsafe_names.add(stmt.name)
    else:
        env.unsafe_names.discard(stmt.name)
    return []


def _eval(stmt: EvalStmt, env):
    env.level, env.unsafe = stmt.level, False
    value = eval_expr(stmt.expr, env)
    # an exact value prints in full, past the interpreter's digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = render(value)
    finally:
        sys.set_int_max_str_digits(limit)
    if env.unsafe:
        text += " (unsafe: lateral bound not checked)"
    env.level = None
    return text.split("\n")


def _check(stmt: CheckStmt, env):
    cfg = checks.parse_config(stmt.config)
    check = checks.run_check(stmt.check_id, cfg or None, seed=env.seed)
    if not check.result.ok:
        env.failures += 1
    return [check.summary_line(), *(f"  {a}" for a in check.artifacts)]


def _suite(stmt: SuiteStmt, env):
    results, summary = checks.run_all(stmt.profile,
                                      ids=stmt.ids or None, seed=env.seed)
    env.failures += summary["fails"]
    return [*(r.summary_line() for r in results),
            checks.summary_text(summary)]


def _search(stmt: SearchStmt, env):
    cfg = checks.parse_config(stmt.config)
    cfg.setdefault("seed", env.seed)
    return checks.search_truncated_joins(cfg).lines()


# statement class -> handler(statement, env), returning its output lines
_STATEMENTS = {LetStmt: _let, EvalStmt: _eval, CheckStmt: _check,
               SuiteStmt: _suite, SearchStmt: _search}
