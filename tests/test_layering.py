"""Layering: the per-model calculus lives in spaces.py alone.

Every other module reaches the five element models through the
functions of ``spaces`` (which dispatch on ``x.space``), never by
testing an element's model class.  The only exceptions are the
functions that exist solely for eventually constant elements, listed
below.  ``Reals`` is exempt: it is the interval codomain, not a model
with elements.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rieszlab"

MODEL_NAMES = {"Coordinate", "SimpleFunction", "FinSupport",
               "EventuallyConstant", "PiecewiseLinear", "ATOMIC_SPACES"}

# (module, function) pairs that may test for a model class
ALLOWED = {
    ("lateral", "fragment_iter"),
    ("generators", "random_fragment"),
}


def _names(node):
    """The model names an isinstance class argument refers to."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id} & MODEL_NAMES
    if isinstance(node, ast.Attribute):
        return {node.attr} & MODEL_NAMES
    return set()


def _model_isinstance_sites(path):
    """(function, line, names) for each isinstance against a model."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and len(child.args) == 2):
                names = _names(child.args[1])
                if names:
                    sites.append((function, child.lineno, sorted(names)))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_no_model_isinstance_outside_spaces():
    offending = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "spaces":
            continue
        for function, line, names in _model_isinstance_sites(path):
            if (module, function) not in ALLOWED:
                offending.append(f"{path.name}:{line} in {function}: "
                                 f"isinstance against {', '.join(names)}")
    assert not offending, "\n".join(offending)


def test_spaces_dispatches_without_model_isinstance():
    sites = _model_isinstance_sites(SRC / "spaces.py")
    assert not sites, sites


def test_allowlist_has_no_stale_entries():
    used = set()
    for module, _ in ALLOWED:
        for function, _, _ in _model_isinstance_sites(SRC / f"{module}.py"):
            used.add((module, function))
    assert ALLOWED <= used, sorted(ALLOWED - used)


def test_detector_sees_direct_and_qualified_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(x):\n"
        "    return isinstance(x.space, (spaces.Coordinate, Reals))\n"
        "def g(s):\n"
        "    return isinstance(s, ATOMIC_SPACES) or isinstance(s, Reals)\n")
    assert _model_isinstance_sites(probe) == [
        ("f", 2, ["Coordinate"]), ("g", 4, ["ATOMIC_SPACES"])]
