"""Script evaluation: binds names, evaluates expressions, runs commands.

Every output a script produces goes through ``render`` below, so the
shipped example corpus is byte-reproducible given a seed.
"""

from __future__ import annotations

from fractions import Fraction

from . import checks, lateral, operators, spaces
from .dsl import (
    Abs, Apply, Binary, CheckStmt, DslTypeError, ElementLit, EvalStmt,
    KernelLit, LatmeetLit, LetStmt, LinecLit, Meyer, Name, Pliev, Postfix,
    Rel, ScalarLit, Script, SearchStmt, SeriesLit, SpaceLit, SuiteStmt,
    TableLit, Unary,
)
from .lateral import FragmentEnumeration, enumerate_decompositions, \
    enumerate_fragments, fragment_iter
from .operators import (
    AlternatingSeries, Kernel, LateralMeet, LinearEC, Operator, OpScaled,
    OpSum, PiecewisePoly, match_table,
)
from .oplattice import LatticePoint, OpLattice, meyer_pair
from .spaces import (
    Coordinate, Element, EventuallyConstant, FinSupport, PiecewiseLinear,
    SimpleFunction, format_element, one, zero,
)


def _is_operator(v) -> bool:
    return isinstance(v, Operator)


def _is_scalar(v) -> bool:
    """An exact rational: a canonical scalar is an int or a Fraction;
    a bool, the value of a relation, is not one."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


_BUILTINS = ("fragments", "decomps", "latsup", "latinf", "one", "zero",
             "pos", "neg", "mod")


class Environment:
    def __init__(self, seed=0):
        self.bindings = {}
        self.seed = seed
        self.level = None          # @level context of the current eval
        self.failures = 0          # check statements that failed

    def lookup(self, name, span):
        if name in self.bindings:
            return self.bindings[name]
        raise DslTypeError(f"unbound name {name!r}", span)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Element):
        return format_element(value)
    if _is_scalar(value):
        return str(value)
    if isinstance(value, FragmentEnumeration):
        items = ", ".join(format_element(z) for z in value)
        return f"fragments count={value.count}: [{items}]"
    if isinstance(value, tuple) and value and hasattr(value[0], "base"):
        items = ", ".join(f"({format_element(d.left)} | "
                          f"{format_element(d.right)})" for d in value)
        return f"decomps count={len(value)}: [{items}]"
    if isinstance(value, LatticePoint):
        return _render_lattice_point(value)
    if isinstance(value, lateral.PlievGrid):
        rows = ",".join(
            "[%s]" % ",".join(format_element(w) for w in row)
            for row in value.grid)
        return f"grid[{rows}]"
    if _is_operator(value):
        return f"<operator {type(value).__name__}>"
    if isinstance(value, spaces.Space):
        return spaces.space_name(value)
    return str(value)


def _render_lattice_point(p: LatticePoint) -> str:
    if p.mode == "exact":
        text = operators.format_value(p.value)
        if p.attained:
            pairs = "; ".join(f"({format_element(d.left)} | "
                              f"{format_element(d.right)})"
                              for d in p.attained)
            text += f" attained=[{pairs}]"
        if not p.decided:
            text += f" (inconclusive: {p.notes})"
        return text
    lines = [f"level {l}: {operators.format_value(v)}" for l, v in p.levels]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

def eval_expr(node, env: Environment):
    if isinstance(node, ScalarLit):
        return node.value
    if isinstance(node, Name):
        return env.lookup(node.id, node.span)
    if isinstance(node, ElementLit):
        return _element_from_lit(node)
    if isinstance(node, SpaceLit):
        return _space_from_lit(node)
    if isinstance(node, KernelLit):
        return _kernel_from_lit(node)
    if isinstance(node, LinecLit):
        unit = _expect_element(eval_expr(node.unit, env), node.span, "unit image")
        target = _expect_element(eval_expr(node.target, env), node.span,
                                 "target")
        return LinearEC(target.space, node.coeffs, unit, target)
    if isinstance(node, TableLit):
        entries = []
        for k, v in node.entries:
            key = _expect_element(eval_expr(k, env), node.span, "table key")
            val = _expect_element(eval_expr(v, env), node.span, "table value")
            entries.append((key, val))
        return match_table(entries)
    if isinstance(node, LatmeetLit):
        a = _expect_element(eval_expr(node.a, env), node.span, "left bound")
        b = _expect_element(eval_expr(node.b, env), node.span, "right bound")
        return LateralMeet(a.space, a, b)
    if isinstance(node, SeriesLit):
        return AlternatingSeries()
    if isinstance(node, Unary):
        v = eval_expr(node.operand, env)
        if _is_scalar(v):
            return -v
        if isinstance(v, Element):
            return spaces.scale(-1, v)
        if _is_operator(v):
            return OpScaled(Fraction(-1), v)
        raise DslTypeError("cannot negate this value", node.span)
    if isinstance(node, Binary):
        return _eval_binary(node, env)
    if isinstance(node, Postfix):
        v = eval_expr(node.operand, env)
        if isinstance(v, Element):
            return (spaces.pos_part(v) if node.op == "^+"
                    else spaces.neg_part(v))
        if _is_operator(v):
            return OpLattice("pos" if node.op == "^+" else "neg", (v,))
        raise DslTypeError(f"{node.op} applies to elements or operators",
                           node.span)
    if isinstance(node, Abs):
        v = eval_expr(node.operand, env)
        if isinstance(v, Element):
            return spaces.absolute(v)
        if _is_scalar(v):
            return abs(v)
        if _is_operator(v):
            return OpLattice("mod", (v,))
        raise DslTypeError("|...| applies to elements, scalars or operators",
                           node.span)
    if isinstance(node, Apply):
        return _eval_apply(node, env)
    if isinstance(node, Meyer):
        return _eval_meyer(node, env)
    if isinstance(node, Pliev):
        us = [_expect_element(eval_expr(u, env), node.span, "left splitting")
              for u in node.us]
        vs = [_expect_element(eval_expr(v, env), node.span, "right splitting")
              for v in node.vs]
        return lateral.pliev_grid(us, vs)
    if isinstance(node, Rel):
        return _eval_rel(node, env)
    raise DslTypeError(f"cannot evaluate {type(node).__name__}",
                       getattr(node, "span", (0, 0)))


# element literal kind -> the constructor its parts are the arguments of
_ELEMENT_LITERALS = {"coord": spaces.coord, "simple": spaces.simple,
                     "ec": spaces.ec, "fin": spaces.fin, "pl": spaces.pl}


def _element_from_lit(node: ElementLit) -> Element:
    return _ELEMENT_LITERALS[node.kind](*node.parts)


def _space_from_lit(node: SpaceLit):
    if node.kind == "coordspace":
        return Coordinate(node.parts[0])
    if node.kind == "simplespace":
        return SimpleFunction(node.parts)
    if node.kind == "finspace":
        return FinSupport()
    if node.kind == "ecspace":
        return EventuallyConstant()
    return PiecewiseLinear()


def _kernel_from_lit(node: KernelLit) -> Kernel:
    n_dom = max(atom for atom, _, _ in node.entries)
    n_cod = max(target for _, target, _ in node.entries)
    rows = []
    for atom, target, terms in node.entries:
        degree = max((p for _, p in terms), default=0)
        coeffs = [Fraction(0)] * (degree + 1)
        for coef, power in terms:
            coeffs[power] += coef
        rows.append((atom, target, PiecewisePoly((), (tuple(coeffs),))))
    return Kernel(Coordinate(n_dom), Coordinate(n_cod), tuple(rows))


def _expect_element(v, span, what) -> Element:
    if not isinstance(v, Element):
        raise DslTypeError(f"{what} must be an element, got {type(v).__name__}",
                           span)
    return v


def _eval_binary(node: Binary, env: Environment):
    a = eval_expr(node.left, env)
    b = eval_expr(node.right, env)
    op = node.op
    if op == "*":
        if _is_scalar(a) and _is_scalar(b):
            return a * b
        if _is_scalar(a) and isinstance(b, Element):
            return spaces.scale(a, b)
        if _is_scalar(a) and _is_operator(b):
            return OpScaled(a, b)
        raise DslTypeError("'*' scales an element or operator by a rational",
                           node.span)
    if op in ("+", "-"):
        if _is_scalar(a) and _is_scalar(b):
            return a + b if op == "+" else a - b
        if isinstance(a, Element) and isinstance(b, Element):
            return spaces.add(a, b) if op == "+" else spaces.sub(a, b)
        if _is_operator(a) and _is_operator(b):
            if op == "-":
                b = OpScaled(Fraction(-1), b)
            return OpSum((a, b))
        raise DslTypeError(f"'{op}' needs two elements, scalars or operators",
                           node.span)
    if op == "\\/":
        if isinstance(a, Element) and isinstance(b, Element):
            return spaces.sup(a, b)
        if _is_operator(a) and _is_operator(b):
            return OpLattice("join", (a, b))
        raise DslTypeError("'\\/' needs two elements or two operators",
                           node.span)
    if op == "/\\":
        if isinstance(a, Element) and isinstance(b, Element):
            return spaces.inf(a, b)
        if _is_operator(a) and _is_operator(b):
            return OpLattice("meet", (a, b))
        raise DslTypeError("'/\\' needs two elements or two operators",
                           node.span)
    if op == "lsup":
        _two_elements(a, b, node.span, "lsup")
        return lateral.lateral_sup(a, b)
    if op == "linf":
        _two_elements(a, b, node.span, "linf")
        return lateral.lateral_inf(a, b)
    raise DslTypeError(f"unknown operator {op!r}", node.span)


def _two_elements(a, b, span, what):
    if not (isinstance(a, Element) and isinstance(b, Element)):
        raise DslTypeError(f"{what} needs two elements", span)


def _eval_rel(node: Rel, env: Environment):
    a = eval_expr(node.left, env)
    b = eval_expr(node.right, env)
    if node.op == "==":
        return a == b
    _two_elements(a, b, node.span, f"'{node.op}'")
    if node.op == "<=":
        return spaces.leq(a, b)
    if node.op == "<<=":
        return lateral.is_fragment(a, b)
    return spaces.is_disjoint(a, b)


def _eval_apply(node: Apply, env: Environment):
    if isinstance(node.fn, Name) and node.fn.id in _BUILTINS \
            and node.fn.id not in env.bindings:
        return _eval_builtin(node, env)
    fn = eval_expr(node.fn, env)
    if not _is_operator(fn):
        raise DslTypeError("only operators can be applied", node.span)
    if len(node.args) != 1:
        raise DslTypeError("operator application takes one argument",
                           node.span)
    x = _expect_element(eval_expr(node.args[0], env), node.span,
                        "the operator argument")
    return fn.at(x, env.level)


def _eval_builtin(node: Apply, env: Environment):
    name = node.fn.id
    args = [eval_expr(a, env) for a in node.args]

    def need(n):
        if len(args) != n:
            raise DslTypeError(f"{name} takes {n} argument(s)", node.span)

    if name == "fragments":
        need(1)
        e = _expect_element(args[0], node.span, "fragments argument")
        if env.level is not None and spaces.has_infinite_fragments(e):
            return fragment_iter(e, env.level)
        return enumerate_fragments(e)
    if name == "decomps":
        need(1)
        x = _expect_element(args[0], node.span, "decomps argument")
        return enumerate_decompositions(x, level=env.level)
    if name == "latsup":
        if len(args) == 3:
            _two_elements(args[0], args[1], node.span, "latsup")
            return lateral.lateral_sup(args[0], args[1], base=args[2])
        need(2)
        _two_elements(args[0], args[1], node.span, "latsup")
        return lateral.lateral_sup(args[0], args[1])
    if name == "latinf":
        need(2)
        _two_elements(args[0], args[1], node.span, "latinf")
        return lateral.lateral_inf(args[0], args[1])
    if name in ("one", "zero"):
        need(1)
        space = args[0]
        if isinstance(space, Element):
            space = space.space
        return one(space) if name == "one" else zero(space)
    if name in ("pos", "neg", "mod"):
        need(1)
        if not _is_operator(args[0]):
            raise DslTypeError(f"{name} wraps an operator", node.span)
        return OpLattice(name, (args[0],))
    raise DslTypeError(f"unknown builtin {name}", node.span)


def _eval_meyer(node: Meyer, env: Environment):
    T = eval_expr(node.operator, env)
    if not _is_operator(T):
        raise DslTypeError("meyer needs an operator first", node.span)
    x = _expect_element(eval_expr(node.x, env), node.span, "x")
    y = _expect_element(eval_expr(node.y, env), node.span, "y")
    if node.e is None:
        return meyer_pair(T, x, y, unsafe=True)
    e = _expect_element(eval_expr(node.e, env), node.span, "e")
    return meyer_pair(T, x, y, e)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

def evaluate(script: Script, seed=0, env: Environment | None = None):
    """Run a parsed script; returns (output lines, environment)."""
    env = env or Environment(seed=seed)
    out = []
    for stmt in script.statements:
        out.extend(_exec_stmt(stmt, env))
    return out, env


def _exec_stmt(stmt, env: Environment):
    if isinstance(stmt, LetStmt):
        env.level = None
        env.bindings[stmt.name] = eval_expr(stmt.expr, env)
        return []
    if isinstance(stmt, EvalStmt):
        env.level = stmt.level
        value = eval_expr(stmt.expr, env)
        text = render(value)
        if isinstance(stmt.expr, Meyer) and stmt.expr.e is None:
            text += " (unsafe: lateral bound not checked)"
        env.level = None
        return text.split("\n")
    if isinstance(stmt, CheckStmt):
        cfg = checks.parse_config(stmt.config)
        check = checks.run_check(stmt.check_id, cfg or None, seed=env.seed)
        if check.result.verdict == "fails":
            env.failures += 1
        lines = [check.summary_line()]
        lines.extend(f"  {a}" for a in check.artifacts)
        return lines
    if isinstance(stmt, SuiteStmt):
        results, summary = checks.run_all(stmt.profile,
                                          ids=stmt.ids or None, seed=env.seed)
        env.failures += summary["fails"]
        lines = [r.summary_line() for r in results]
        lines.append(checks.summary_text(summary))
        return lines
    if isinstance(stmt, SearchStmt):
        cfg = checks.parse_config(stmt.config)
        cfg.setdefault("seed", env.seed)
        report = checks.search_truncated_joins(cfg)
        return report.lines()
    raise DslTypeError(f"cannot execute {type(stmt).__name__}",
                       getattr(stmt, "span", (0, 0)))
