"""Layering: each model and each operator body holds its own rules.

The per-model calculus lives in spaces.py alone: every other module
reaches the five element models through the functions of ``spaces``
(which dispatch on ``x.space``), never by testing an element's model
class.  Likewise the per-body rules live in the operator body classes
of operators.py: no function outside their own methods tests which
body an operator is.  The only exceptions are the functions listed in
``ALLOWED``, which exist solely for eventually constant elements.
``Reals`` is exempt: it is the interval codomain, not a model with
elements.  ``Operator``, the base of the bodies, is exempt too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rieszlab"

MODEL_NAMES = {"Coordinate", "SimpleFunction", "FinSupport",
               "EventuallyConstant", "PiecewiseLinear", "ATOMIC_SPACES"}


def _operator_subclasses(path):
    """Names of the classes in path that derive from Operator."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "Operator"
                    for b in node.bases)}


BODY_NAMES = _operator_subclasses(SRC / "operators.py")

# (module, function) pairs that may test for a model or body class
ALLOWED = {
    ("lateral", "fragment_iter"),
    ("generators", "random_fragment"),
}


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


def _isinstance_sites(path, wanted):
    """(class, function, line, names) for each isinstance against a
    wanted name; class and function are the innermost enclosing ones."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {t.id: node.value for node in tree.body
               if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)}
    sites = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            inner_cls, inner = cls, function
            if isinstance(child, ast.ClassDef):
                inner_cls = child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and len(child.args) == 2):
                names = _names(child.args[1], wanted, aliases)
                if names:
                    sites.append((cls, function, child.lineno, sorted(names)))
            visit(child, inner_cls, inner)

    visit(tree, None, None)
    return sites


def _offending(wanted, exempt):
    """Sites against wanted names, outside ALLOWED and the exempt
    (module, class) scopes."""
    offending = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for cls, function, line, names in _isinstance_sites(path, wanted):
            if (module, function) in ALLOWED or exempt(module, cls):
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
                          "AlternatingSeries", "OpSum", "OpScaled", "ZeroOp"}


def test_no_body_isinstance_outside_the_bodies():
    offending = _offending(
        BODY_NAMES,
        lambda module, cls: module == "operators" and cls in BODY_NAMES)
    assert not offending, "\n".join(offending)


def test_allowlist_has_no_stale_entries():
    used = set()
    for module, _ in ALLOWED:
        path = SRC / f"{module}.py"
        for _, function, _, _ in _isinstance_sites(
                path, MODEL_NAMES | BODY_NAMES):
            used.add((module, function))
    assert ALLOWED <= used, sorted(ALLOWED - used)


def test_detector_sees_direct_and_qualified_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "KINDS = (Kernel, MatchTable)\n"
        "def f(x):\n"
        "    return isinstance(x.space, (spaces.Coordinate, Reals))\n"
        "def g(s):\n"
        "    return isinstance(s, ATOMIC_SPACES) or isinstance(s, Reals)\n"
        "def h(T):\n"
        "    return isinstance(T, (operators.OpSum, Operator))\n"
        "def k(T):\n"
        "    return isinstance(T, KINDS + (JoinOfOps,))\n"
        "class OpScaled(Operator):\n"
        "    def m(self):\n"
        "        return isinstance(self.inner, OpScaled)\n")
    wanted = MODEL_NAMES | BODY_NAMES
    assert _isinstance_sites(probe, wanted) == [
        (None, "f", 3, ["Coordinate"]), (None, "g", 5, ["ATOMIC_SPACES"]),
        (None, "h", 7, ["OpSum"]), (None, "k", 9, ["Kernel", "MatchTable"]),
        ("OpScaled", "m", 12, ["OpScaled"])]
    assert _operator_subclasses(probe) == {"OpScaled"}
