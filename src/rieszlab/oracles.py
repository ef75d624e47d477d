"""The slow references that the fast paths are checked against.

Each function computes from the definition what a routine of
``spaces``, ``lateral`` or ``operators`` computes by a shortcut; only
the checks and the tests import this module.  The piecewise-linear
references share no code with the model: they evaluate in ``Fraction``
arithmetic by their own interpolation, at the breakpoints of the
operands and at the exact crossings of a difference, and strip
collinear points by their own code.  They are exact, since two
piecewise-linear functions that agree at every breakpoint of both are
equal.  The rest are routines as they were before their fast paths.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .lateral import Decomposition, enumerate_fragments, fragment_iter, min_level
from .operators import apply
from .spaces import (
    ZERO, Element, EventuallyConstant, PiecewiseLinear, add, from_atoms,
    get_atom, inf, sub, sup, support_atoms,
)


# --- piecewise-linear functions, pointwise ----------------------------------

def _pl_at(pts, t):
    """The value at t in [0,1] of the payload ``pts``."""
    for (a, ya), (b, yb) in zip(pts, pts[1:]):
        if a <= t <= b:
            return ya + (yb - ya) * (t - a) / (b - a)


def _pl_grid(*xs):
    """The breakpoints of the elements ``xs``, sorted."""
    return sorted({t for x in xs for t, _ in x.payload})


def _pl_element(space, points):
    """The element through ``points``, sorted by t from 0 to 1 and
    linear between them: every interior point where the slope does not
    change is dropped."""
    kept = [points[0]]
    for (a, ya), (t, v), (b, yb) in zip(points, points[1:], points[2:]):
        if (v - ya) * (b - t) != (yb - v) * (t - a):
            kept.append((t, v))
    return Element(space, tuple(kept + [points[-1]]))


def pl_pointwise(f, *xs) -> Element:
    """t -> f(x1(t), ..., xn(t)) for f a sum, a multiple, max or min.

    Between two consecutive breakpoints of the operands each one is
    linear, and so is each pairwise difference, which vanishes at most
    once strictly between them unless it vanishes throughout.  With
    those crossings added, f of the operands is linear between
    consecutive points, so its values there determine it."""
    grid = _pl_grid(*xs)
    ts = set(grid)
    for x, y in itertools.combinations(xs, 2):
        d = [_pl_at(x.payload, t) - _pl_at(y.payload, t) for t in grid]
        for a, b, da, db in zip(grid, grid[1:], d, d[1:]):
            if da * db < 0:
                ts.add(a + (b - a) * da / (da - db))
    return _pl_element(xs[0].space, [
        (t, f(*(_pl_at(x.payload, t) for x in xs))) for t in sorted(ts)])


def pl_leq(x: Element, y: Element) -> bool:
    """x <= y at every breakpoint of either, hence everywhere."""
    return all(_pl_at(x.payload, t) <= _pl_at(y.payload, t)
               for t in _pl_grid(x, y))


def pl_disjoint(x: Element, y: Element) -> bool:
    """On each segment between breakpoints of either, x or y vanishes
    at both ends, hence on all of it; otherwise both are nonzero on a
    subinterval."""
    zeros = [(_pl_at(x.payload, t) == 0, _pl_at(y.payload, t) == 0)
             for t in _pl_grid(x, y)]
    return all((a[0] and b[0]) or (a[1] and b[1])
               for a, b in zip(zeros, zeros[1:]))


def pl_restrict(x: Element, parts) -> Element:
    """x on the union of the closed intervals ``parts`` inside [0,1],
    zero at 0 and 1 outside it and linear across each gap: x at the
    ends of the intervals and at its breakpoints inside them."""
    spans = [(Fraction(a), Fraction(b)) for a, b in parts]

    def inside(t):
        return any(a <= t <= b for a, b in spans)

    ts = ({Fraction(0), Fraction(1)} | {t for span in spans for t in span}
          | {t for t, _ in x.payload if inside(t)})
    return _pl_element(x.space, [
        (t, _pl_at(x.payload, t) if inside(t) else Fraction(0))
        for t in sorted(ts)])


def pl_components_by_crossing(x: Element):
    """The support components of x, as (start, end) pairs: the runs of
    segments on which x is not identically zero, split at its zeros,
    with a zero inserted where a segment changes sign."""
    pts = [x.payload[0]]
    for (a, ya), (b, yb) in zip(x.payload, x.payload[1:]):
        if ya * yb < 0:
            pts.append((a + (b - a) * ya / (ya - yb), Fraction(0)))
        pts.append((b, yb))
    comps = []
    for (a, ya), (b, yb) in zip(pts, pts[1:]):
        if ya != 0 and comps and comps[-1][1] == a:
            comps[-1] = (comps[-1][0], b)
        elif ya != 0 or yb != 0:
            comps.append((a, b))
    return comps


def pl_common_fragment_by_restriction(x: Element, y: Element) -> Element:
    """Restrict x and y to each of their own support components, keep
    the components where both restrictions agree."""
    mine = {c: pl_restrict(x, [c]) for c in pl_components_by_crossing(x)}
    theirs = {c: pl_restrict(y, [c]) for c in pl_components_by_crossing(y)}
    return pl_restrict(x, [c for c, r in mine.items() if theirs.get(c) == r])


def common_fragment_by_agreement(x: Element, y: Element) -> Element:
    """The greatest common fragment of x and y from its definition: on
    the atomic models the values where x and y agree, the tail of an
    eventually constant pair included, read atom by atom; on
    piecewise-linear functions the restriction reference."""
    space = x.space
    if space == PiecewiseLinear():
        return pl_common_fragment_by_restriction(x, y)
    if space == EventuallyConstant():
        (px, tx), (py, ty) = x.payload, y.payload
        atoms = range(1, max(len(px), len(py)) + 1)
        tail = tx if tx == ty else ZERO
    else:
        atoms = sorted(set(support_atoms(x)) | set(support_atoms(y)))
        tail = ZERO
    values = {}
    for i in atoms:
        xi = get_atom(x, i)
        values[i] = xi if xi == get_atom(y, i) else ZERO
    return from_atoms(space, values, tail)


# --- splittings, fragment images and level scans ----------------------------

def decompositions_by_difference(x: Element, level: int | None = None):
    """The splittings as ``lateral.enumerate_decompositions`` built them
    before restriction: every fragment u, with v = x - u."""
    return tuple(Decomposition(x, u, sub(x, u))
                 for u in enumerate_fragments(x, level))


def images_by_apply(T, frags) -> list:
    """T applied to each fragment of ``frags``, one application per
    mask; the reference for ``oplattice.fragment_images``."""
    return [apply(T, u) for u in frags]


def levels_by_enumeration(S, T, x: Element, kind: str, level: int) -> list:
    """(l, fold) at each level from min_level(x) through ``level``: the
    sup or inf (``kind``) of S(u) + T(v) over the truncated splittings
    of x at l, each level enumerated on its own; the reference for the
    enumerated level tables of ``oplattice``."""
    pick = {"sup": sup, "inf": inf}[kind]
    return [(l, functools.reduce(pick, (
        add(apply(S, d.left), apply(T, d.right))
        for d in decompositions_by_difference(x, level=l))))
        for l in range(min_level(x), level + 1)]


def scan_levels_by_enumeration(T, e: Element, level: int) -> list:
    """(l, min, max) of T over the truncated fragments of e at each
    level from min_level(e) through ``level``, each level enumerated on
    its own; the reference for ``operators.lateral_bound_scan``."""
    table = []
    for l in range(min_level(e), level + 1):
        images = [apply(T, z) for z in fragment_iter(e, l)]
        table.append((l, functools.reduce(inf, images),
                      functools.reduce(sup, images)))
    return table
