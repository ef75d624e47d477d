"""Layering: each model and each operator body holds its own rules.

The per-model calculus lives in spaces.py alone: every other module
reaches the element models, ``LogTwo``, the range of the series
functional, among them, through the functions of ``spaces`` (which
dispatch on ``x.space``), never by testing an element's model class.  Likewise the per-body rules live in the operator body classes
of operators.py and oplattice.py: no function outside their own
methods tests which body an operator is.  ``Operator``, the base of
the bodies, is exempt.  Nor does any module outside spaces.py build an
``Element`` from a payload, except the references of ``oracles`` and
the mutants of ``mutations``.

Scalars of the atomic models are ints where integral, and ``int / int``
is a float; so no true division sits outside the piecewise-linear
model's own code (whose payloads are all Fractions), the
piecewise-linear references of ``oracles``, ``spaces.div`` and the
sites listed in ``DIVISION_ALLOWED``, none today.

The slow references live in ``oracles``, which only ``checks`` imports,
and which shares none of the code the references check.  A reference
elsewhere, named ``*_by_*``, is listed in ``REFERENCES_ALLOWED`` with
the reason it stays.

The script front end dispatches by tables: every node class has an
evaluator handler, and every literal kind, the keyword that opens it, a
row in the printer's table and in the evaluator's.

Each named check is a draw and a claim that one driver of ``checks``
counts, except the six checks whose runners keep their own bodies.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from rieszlab import checks, dsl, evaluator, spaces

from test_checks import OWN_BODIES

SRC = Path(__file__).resolve().parents[1] / "src" / "rieszlab"

MODEL_NAMES = {"Coordinate", "SimpleFunction", "FinSupport",
               "EventuallyConstant", "PiecewiseLinear", "LogTwo",
               "ATOMIC_SPACES"}


def _operator_subclasses(path):
    """Names of the classes in path that derive from Operator."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "Operator"
                    for b in node.bases)}


BODY_MODULES = ("operators", "oplattice")
BODY_NAMES = set().union(*(_operator_subclasses(SRC / f"{module}.py")
                           for module in BODY_MODULES))

def _names(node, wanted, aliases):
    """The wanted class names an isinstance class argument refers to,
    through tuples, tuple concatenation and module-level tuple names."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt, wanted, aliases)}
    if isinstance(node, ast.BinOp):
        return (_names(node.left, wanted, aliases)
                | _names(node.right, wanted, aliases))
    if isinstance(node, ast.Name):
        if node.id in aliases:
            return _names(aliases[node.id], wanted, {})
        return {node.id} & wanted
    if isinstance(node, ast.Attribute):
        return {node.attr} & wanted
    return set()


def _scoped_nodes(tree):
    """(class, function, node) for every node of tree; class and
    function are the innermost ones enclosing it."""
    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            yield cls, function, child
            inner_cls, inner = cls, function
            if isinstance(child, ast.ClassDef):
                inner_cls = child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield from visit(child, inner_cls, inner)

    return visit(tree, None, None)


def _isinstance_sites(path, wanted):
    """(class, function, line, names) for each isinstance against a
    wanted name; class and function are the innermost enclosing ones."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {t.id: node.value for node in tree.body
               if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)}
    sites = []
    for cls, function, node in _scoped_nodes(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2):
            names = _names(node.args[1], wanted, aliases)
            if names:
                sites.append((cls, function, node.lineno, sorted(names)))
    return sites


def _offending(wanted, exempt):
    """Sites against wanted names, outside the exempt (module, class)
    scopes."""
    offending = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for cls, function, line, names in _isinstance_sites(path, wanted):
            if exempt(module, cls):
                continue
            offending.append(f"{path.name}:{line} in {function}: "
                             f"isinstance against {', '.join(names)}")
    return offending


def test_no_model_isinstance_outside_spaces():
    offending = _offending(MODEL_NAMES, lambda module, _: module == "spaces")
    assert not offending, "\n".join(offending)


def test_spaces_dispatches_without_model_isinstance():
    sites = _isinstance_sites(SRC / "spaces.py", MODEL_NAMES)
    assert not sites, sites


def test_bodies_are_operator_subclasses():
    assert BODY_NAMES >= {"Kernel", "LinearEC", "MatchTable", "LateralMeet",
                          "AlternatingSeries", "OpSum", "OpScaled", "ZeroOp",
                          "OpLattice"}


def test_no_body_isinstance_outside_the_bodies():
    offending = _offending(
        BODY_NAMES,
        lambda module, cls: module in BODY_MODULES and cls in BODY_NAMES)
    assert not offending, "\n".join(offending)


def test_detector_sees_direct_and_qualified_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "KINDS = (Kernel, MatchTable)\n"
        "def f(x):\n"
        "    return isinstance(x.space, (spaces.Coordinate, LogTwo))\n"
        "def g(s):\n"
        "    return isinstance(s, ATOMIC_SPACES) or isinstance(s, Reals)\n"
        "def h(T):\n"
        "    return isinstance(T, (operators.OpSum, Operator))\n"
        "def k(T):\n"
        "    return isinstance(T, KINDS + (OpLattice, Unknown))\n"
        "class OpScaled(Operator):\n"
        "    def m(self):\n"
        "        return isinstance(self.inner, OpScaled)\n"
        "def n(v):\n"
        "    return isinstance(v, (spaces.LogTwo, Element))\n")
    wanted = MODEL_NAMES | BODY_NAMES
    assert _isinstance_sites(probe, wanted) == [
        (None, "f", 3, ["Coordinate", "LogTwo"]),
        (None, "g", 5, ["ATOMIC_SPACES"]),
        (None, "h", 7, ["OpSum"]),
        (None, "k", 9, ["Kernel", "MatchTable", "OpLattice"]),
        ("OpScaled", "m", 12, ["OpScaled"]), (None, "n", 14, ["LogTwo"])]
    assert _operator_subclasses(probe) == {"OpScaled"}


# --- element construction ---------------------------------------------------

# modules that may build an Element from a payload besides spaces.py: the
# references, which share no code with the models, and the mutants
ELEMENT_BUILDERS = {"spaces", "oracles", "mutations"}


def _element_calls(path):
    """(function, line) for each call of ``Element`` or ``x.Element``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(function, node.lineno)
            for _, function, node in _scoped_nodes(tree)
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == "Element"]


def test_no_element_built_outside_the_models():
    offending = [f"{path.name}:{line} in {function}"
                 for path in sorted(SRC.glob("*.py"))
                 if path.stem not in ELEMENT_BUILDERS
                 for function, line in _element_calls(path)]
    assert not offending, "\n".join(offending)


def test_element_detector_sees_direct_and_qualified_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(space, tail):\n"
        "    yield Element(space, ((), tail))\n"
        "    yield spaces.Element(space, ((0,), tail))\n"
        "def g(x):\n"
        "    return isinstance(x, Element), MalformedElement(x), x.Element\n")
    assert _element_calls(probe) == [("f", 2), ("f", 3)]


# --- true division ----------------------------------------------------------

# (module, class or function, expression) of each division outside the
# exempt scopes, allowed where the dividend is a Fraction built on the
# spot, so the quotient is a Fraction whatever the divisor
DIVISION_ALLOWED = set()


def _division_sites(path):
    """(class, function, line, expression) for each true division."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(cls, function, node.lineno, ast.unparse(node))
            for cls, function, node in _scoped_nodes(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def _division_exempt(module, cls, function):
    """The piecewise-linear model's own code, its references, and the
    exact quotient."""
    if module == "oracles":
        return (function or "").startswith(("pl_", "_pl_"))
    return module == "spaces" and (
        cls == "PiecewiseLinear" or function == "div"
        or (function or "").startswith("_pl_"))


def test_no_true_division_outside_pl_and_div():
    offending = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for cls, function, line, expr in _division_sites(path):
            if not (_division_exempt(module, cls, function)
                    or (module, cls or function, expr) in DIVISION_ALLOWED):
                offending.append(f"{path.name}:{line} in {function}: {expr}")
    assert not offending, "\n".join(offending)


def test_division_allowlist_has_no_stale_entries():
    used = {(path.stem, cls or function, expr)
            for path in sorted(SRC.glob("*.py"))
            for cls, function, _, expr in _division_sites(path)}
    assert DIVISION_ALLOWED <= used, sorted(DIVISION_ALLOWED - used)


def test_division_detector_sees_every_scope(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "HALF = 1 / 2\n"
        "def f(a, b):\n"
        "    return a // b + a / b\n"
        "class PiecewiseLinear:\n"
        "    def m(self, t):\n"
        "        t /= 2\n"
        "        return [x / t for x in self.xs]\n")
    assert _division_sites(probe) == [
        (None, None, 1, "1 / 2"), (None, "f", 3, "a / b"),
        ("PiecewiseLinear", "m", 6, "t /= 2"),
        ("PiecewiseLinear", "m", 7, "x / t")]
    assert _division_exempt("spaces", "PiecewiseLinear", "m")
    assert _division_exempt("spaces", None, "_pl_merge_ints")
    assert _division_exempt("spaces", None, "div")
    assert _division_exempt("oracles", None, "pl_pointwise")
    assert _division_exempt("oracles", None, "_pl_at")
    assert not _division_exempt("oracles", None, "images_by_apply")
    assert not _division_exempt("operators", "PiecewiseLinear", "m")
    assert not _division_exempt("spaces", "Cells", "add")


# --- the oracle module ------------------------------------------------------

# what the references may not use: the entry point and the evaluation of
# the models, the canonical scalar and quotient, the piecewise-linear
# kernels, the kernel polynomials and the per-atom fold of the lattice
ORACLE_FORBIDDEN = ({"normalize", "eval_at", "q", "div", "PiecewisePoly",
                     "_fold_atoms"}
                    | {name for name in vars(spaces) if name.startswith("_pl_")})

# (module, function or Class.method) -> why a reference stays there
REFERENCES_ALLOWED = {
    ("oplattice", "extrema_by_enumeration"):
        "production code: _extrema calls it for the pairs and codomains "
        "the per-atom closed form does not serve",
    ("oplattice", "levels_by_full_walk"):
        "production code with the window cut switched off",
    ("dsl", "tokenize_by_scan"):
        "moving it would make import rieszlab load dsl",
    ("spaces", "leq_by_difference"): "the default of Space.leq",
    ("spaces", "disjoint_by_modulus"): "the default of Space.disjoint",
    ("spaces", "Space.neg"): "a Space default",
    ("spaces", "Space.sub"): "a Space default",
    ("spaces", "Space.pos_part"): "a Space default",
    ("spaces", "Space.neg_part"): "a Space default",
    ("spaces", "Space.absolute"): "a Space default",
    ("operators", "PiecewisePoly.eval_by_fractions"):
        "a method that shares nothing with PiecewisePoly.__call__",
}


def _defs(path):
    """The functions of path, and the methods as Class.method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
    return names


def _used_names(path):
    """Every name path imports, reads or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported_modules(path):
    """The library modules path imports, by their short names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (None, "rieszlab"):
                modules |= {alias.name for alias in node.names}
            else:
                modules.add(node.module.removeprefix("rieszlab."))
        elif isinstance(node, ast.Import):
            modules |= {alias.name.removeprefix("rieszlab.")
                        for alias in node.names}
    return modules


def test_the_oracles_share_no_code_with_what_they_check():
    used = _used_names(SRC / "oracles.py")
    assert not used & ORACLE_FORBIDDEN, sorted(used & ORACLE_FORBIDDEN)


def test_only_the_checks_import_the_oracles():
    importers = {path.stem for path in SRC.glob("*.py")
                 if "oracles" in _imported_modules(path)}
    assert importers == {"checks"}


def test_importing_the_library_loads_no_front_end():
    code = ("import sys, rieszlab; print(' '.join(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'rieszlab')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = {name.removeprefix("rieszlab.") for name in proc.stdout.split()}
    assert loaded == {"rieszlab", "checks", "errors", "generators", "lateral",
                      "operators", "oplattice", "oracles", "reports",
                      "spaces"}


def test_references_outside_the_oracles_are_allowed():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             if path.stem != "oracles"
             for name in _defs(path) if "_by_" in name}
    assert not found - set(REFERENCES_ALLOWED), sorted(
        found - set(REFERENCES_ALLOWED))
    stale = {(module, name) for module, name in REFERENCES_ALLOWED
             if name not in _defs(SRC / f"{module}.py")}
    assert not stale, sorted(stale)


def test_oracle_detectors_see_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .spaces import Element, normalize\n"
        "from . import lateral\n"
        "import rieszlab.oracles\n"
        "def f(x):\n"
        "    return spaces._pl_rows(x.payload), q\n"
        "class C:\n"
        "    def g_by_h(self):\n"
        "        return 0\n")
    assert {"normalize", "_pl_rows", "q", "Element"} <= _used_names(probe)
    assert _defs(probe) == {"f", "C.g_by_h"}
    assert _imported_modules(probe) == {"spaces", "lateral", "oracles"}


# the lateral functions the oracles read as the definitions of the
# fragments; a definition built on the level walk would check the walk
# that ``operators.lateral_bound_scan`` folds against itself
DEFINITIONS = ("fragment_iter", "enumerate_fragments")
WALK = {"level_walk", "extend_levels"}


def _reached_names(path, roots):
    """The names the functions ``roots`` of path use, with those of
    every function or class of path that they reach by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        for node in ast.walk(defs[name]):
            ref = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else None)
            if ref in defs and ref not in used:
                todo.append(ref)
            used.add(ref)
    return used


def test_the_definitions_the_oracles_read_take_no_walk():
    used = _reached_names(SRC / "lateral.py", DEFINITIONS)
    assert not used & WALK, sorted(used & WALK)


def test_reach_detector_follows_the_module_definitions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(e):\n"
        "    return g(e)\n"
        "def g(e):\n"
        "    return [w for _, _, w in lateral.level_walk(e, 3)]\n"
        "def h(e):\n"
        "    return extend_levels(f(e), 4)\n")
    assert {"g", "level_walk"} <= _reached_names(probe, ["f"])
    assert "extend_levels" not in _reached_names(probe, ["f"])
    assert {"extend_levels", "level_walk"} <= _reached_names(probe, ["h"])


# --- the evaluator's tables -------------------------------------------------

def _dsl_node_classes():
    return {cls for cls in vars(dsl).values()
            if isinstance(cls, type) and issubclass(cls, dsl.Node)
            and cls is not dsl.Node}


def test_every_node_class_has_an_evaluator_handler():
    # a node class the parser gains fails here, not in a script
    classes = _dsl_node_classes() - {dsl.Script}
    statements = {cls for cls in classes if cls.__name__.endswith("Stmt")}
    assert set(evaluator._STATEMENTS) == statements
    assert evaluator._CHAINS | set(evaluator._LEAVES) == classes - statements
    assert not evaluator._CHAINS & set(evaluator._LEAVES)


def test_every_node_class_has_a_printer_row():
    # the printer dispatches by node class as the evaluator does
    assert set(dsl._PRINTERS) == _dsl_node_classes() - {dsl.Script}


# one script with every keyword form, each literal nested in an
# expression of another
EVERY_LITERAL = """
let u = coord[1,0] + simple{0,1/2,1}[2,0] + ec[1,5|5] + fin{(1,2)};
let p = pl{(0,0),(1/2,1),(1,0)};
let s = one(simplespace{0,1/2,1});
let K = kernel{1: t -> t^2, 2->1: t -> -t};
let L = linec{1:1, 2:2; unit -> ec[1|0]; target ec[0,1|0]};
let M = table{coord[1,0] -> coord[0,1]};
eval meyer(K; coord[1,0], coord[0,1]; coord[1,1]) + meyer(K; u, u);
eval pliev(coord[1,0], coord[0,1]; coord[1,1]);
"""


def _literal_kinds(node):
    """The kinds of the literals in node and under it."""
    if isinstance(node, tuple):
        return set().union(*map(_literal_kinds, node))
    if not isinstance(node, dsl.Node):
        return set()
    kinds = {node.kind} if isinstance(node, dsl.Literal) else set()
    return kinds.union(*(_literal_kinds(getattr(node, f.name))
                         for f in dataclasses.fields(node)))


def test_every_literal_kind_has_a_printer_row_and_an_evaluator_row():
    # a keyword the parser gains, or a row either table loses, fails here
    parsed = dsl.parse(EVERY_LITERAL)
    assert parsed.ok, parsed.diagnostics
    kinds = _literal_kinds(parsed.script)
    assert kinds == set(dsl._PRINT_LITERAL)
    assert kinds == set(evaluator._LITERALS)


def test_every_operator_and_relation_has_a_row():
    relations = {text for text, kind in dsl._TWO_CHAR.items()
                 if kind in ("LEQ", "LLEQ", "PERP")}
    names = {name for name, *_ in evaluator._OPS}
    assert set(dsl._PREC) | relations | evaluator._BUILTINS <= names
    # each name has its one type error, and each error a name
    assert names == set(evaluator._MESSAGES)


def test_evaluator_tests_no_node_class_with_isinstance():
    names = {cls.__name__ for cls in _dsl_node_classes()}
    assert not _isinstance_sites(SRC / "evaluator.py", names)


def test_every_other_check_is_a_draw_and_a_claim():
    # a runner with its own loop counts its own samples, so a new one
    # is listed in OWN_BODIES with the reason it cannot be a claim
    own = {cid for cid, d in checks.REGISTRY.items()
           if not isinstance(d.runner, checks._Sampled)}
    assert own == set(OWN_BODIES)
