"""Fragments, the lateral order, disjoint decompositions and refinement grids.

A fragment of e is an x with x disjoint from e - x; fragments of a
fixed e form a Boolean algebra under the lateral supremum and infimum.
A finite algebra (all spaces except eventually constant sequences with
a nonzero tail) is built once, by ``Restrictions``, and enumerated
exactly.  An infinite one is truncated at a level (``Space.min_level``),
where it is a finite algebra too: ``Restrictions(e, level)`` has e's
nonzero atoms through the level and the rest of e beyond them as its
pieces, and the algebras grow monotonely with the level."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import EnumerationCapExceeded, PreconditionError
from . import spaces
from .spaces import (
    Element, add, canonical_key, format_element, has_infinite_fragments, inf,
    is_disjoint, neg_part, pos_part, sub, sup, zero,
)

# enumerating more fragments than this is refused outright
ENUM_CAP = 1 << 18


def is_fragment(x: Element, e: Element) -> bool:
    """x is a fragment of e (lateral order x below e)."""
    return is_disjoint(x, sub(e, x))


# ---------------------------------------------------------------------------
# lateral supremum / infimum
# ---------------------------------------------------------------------------

def join_formula(x: Element, y: Element) -> Element:
    """(x+ v y+) - (x- v y-); the lateral supremum on common fragments."""
    return sub(sup(pos_part(x), pos_part(y)), sup(neg_part(x), neg_part(y)))


def meet_formula(x: Element, y: Element) -> Element:
    """(x+ ^ y+) - (x- ^ y-); valid only for fragments of a common base."""
    return sub(inf(pos_part(x), pos_part(y)), inf(neg_part(x), neg_part(y)))


def _greatest_common_fragment(x: Element, y: Element) -> Element:
    """The largest z in the lateral order with z below both x and y.

    On atomic spaces this keeps exactly the coordinates where x and y
    agree; on piecewise-linear functions it keeps the support
    components shared, as intervals and values, by both.
    """
    spaces._same_space(x, y)
    return x.space.common_fragment(x, y)


def lateral_sup(x: Element, y: Element, base: Element | None = None) -> Element:
    """Lateral supremum of two fragments of a common element.

    The caller asserts lateral boundedness; when ``base`` is supplied
    it is checked.
    """
    if base is not None:
        for name, el in (("left", x), ("right", y)):
            if not is_fragment(el, base):
                raise PreconditionError(
                    f"{name} operand {format_element(el)} is not a fragment "
                    f"of {format_element(base)}")
    return join_formula(x, y)


def lateral_inf(x: Element, y: Element) -> Element:
    """Greatest common fragment; always exists in the five models."""
    return _greatest_common_fragment(x, y)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """A disjoint splitting base = left + right with left _|_ right."""

    base: Element
    left: Element
    right: Element


class FragmentEnumeration(tuple):
    """The fragments an enumeration lists, in order, and their count."""

    count = property(len)


class Restrictions:
    """The fragment algebra of e, indexed by mask: entry m is e on the
    pieces ``parts[k]`` whose bit k is set in m, so entry ``full ^ m``
    is the rest of e, and entry ``full`` is e itself.  Where e has
    infinitely many fragments it is cut at a ``level``: the pieces are
    e's nonzero atoms through it and the rest of e (``spaces.TAIL``).
    The one builder of a fragment algebra, from the model's
    ``piece_builder``: the enumerations and the folds of the operator
    lattice read it.  An entry is built on first use and kept."""

    def __init__(self, e: Element, level: int | None = None):
        if not has_infinite_fragments(e):
            level = None
        elif level is None:
            raise PreconditionError(
                "fragment algebra of a nonzero-tail element is infinite; "
                "supply a truncation level")
        else:
            require_level(e, level)
        self.base, self.level = e, level
        self.parts, self._build = e.space.piece_builder(e, level)
        self.full = (1 << len(self.parts)) - 1
        self._built = {self.full: e}

    def check_cap(self):
        """Refuse to visit every mask beyond the cap; entries stay readable."""
        if len(self) > ENUM_CAP:
            what = ("fragment algebra" if self.level is None
                    else "truncated fragment set")
            raise EnumerationCapExceeded(
                f"{what} has {len(self)} members, beyond the enumeration "
                f"cap {ENUM_CAP}")

    def __len__(self):
        return self.full + 1

    def __getitem__(self, mask: int) -> Element:
        if mask not in self._built:
            self._built[mask] = self._build(
                [k for k in range(len(self.parts)) if mask >> k & 1])
        return self._built[mask]

    def __iter__(self):
        self.check_cap()
        return (self[mask] for mask in range(self.full + 1))


def enumerate_fragments(e: Element, level: int | None = None):
    """The entries of ``Restrictions(e, level)``, sorted; exact and
    exhaustive.  An element with infinitely many fragments needs a
    ``level``, and elsewhere it changes nothing."""
    return FragmentEnumeration(sorted(Restrictions(e, level),
                                      key=canonical_key))


def fragment_iter(e: Element, level: int) -> FragmentEnumeration:
    """Level-truncated fragments of an eventually constant element; the
    set at level L is contained in the one at level L+1.  An element of
    another model has no levels, and is refused (``Space.min_level``).
    """
    require_level(e, level)
    return enumerate_fragments(e, level)


def min_level(z: Element) -> int:
    """Smallest truncation level whose fragment set contains z."""
    return z.space.min_level(z)


def require_level(e: Element, level: int):
    """Refuse a truncation level below the prefix of e: no truncated
    fragment set at that level contains e, so it has no level table."""
    if level < min_level(e):
        raise PreconditionError(
            f"level {level} is below the prefix length {min_level(e)}")


def extend_levels(table: list, level: int) -> list:
    """A level table cut at the operators' window, continued through
    ``level`` with copies of its last row."""
    last, *row = table[-1]
    return table + [(l, *row) for l in range(last + 1, level + 1)]


def enumerate_decompositions(x: Element, level: int | None = None):
    """All disjoint splittings x = u + v, in the order of u: the
    entries of ``Restrictions(x, level)`` paired with their complements.
    """
    frags = Restrictions(x, level)
    decs = [Decomposition(x, u, frags[frags.full ^ mask])
            for mask, u in enumerate(frags)]
    decs.sort(key=lambda d: canonical_key(d.left))
    return tuple(decs)


# ---------------------------------------------------------------------------
# refinement grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlievGrid:
    """Common disjoint refinement of two disjoint splittings of one element.

    Entry (i,k) is the lateral infimum of rows[i] and cols[k]; row sums
    reproduce the rows and column sums the columns.
    """

    rows: tuple
    cols: tuple
    grid: tuple  # tuple of row tuples

    def row_sum(self, i: int) -> Element:
        return functools.reduce(add, self.grid[i], zero(self.rows[0].space))

    def col_sum(self, k: int) -> Element:
        return functools.reduce(add, (row[k] for row in self.grid),
                                zero(self.cols[0].space))


def pliev_grid(us, vs) -> PlievGrid:
    us, vs = tuple(us), tuple(vs)
    if not us or not vs:
        raise PreconditionError("both splittings must be nonempty")
    for name, parts in (("us", us), ("vs", vs)):
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if not is_disjoint(parts[i], parts[j]):
                    raise PreconditionError(
                        f"{name}[{i}] and {name}[{j}] are not disjoint: "
                        f"{format_element(parts[i])}, {format_element(parts[j])}")
    total_u = functools.reduce(add, us)
    total_v = functools.reduce(add, vs)
    if total_u != total_v:
        raise PreconditionError(
            f"splittings sum to different elements: "
            f"{format_element(total_u)} vs {format_element(total_v)}")
    grid = tuple(tuple(lateral_inf(u, v) for v in vs) for u in us)
    return PlievGrid(us, vs, grid)

