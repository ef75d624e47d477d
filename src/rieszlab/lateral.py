"""Fragments, the lateral order, disjoint decompositions and refinement grids.

A fragment of e is an x with x disjoint from e - x; fragments of a
fixed e form a Boolean algebra under the lateral supremum and infimum.
A finite algebra (all spaces except eventually constant sequences with
a nonzero tail) is built once, by ``Restrictions``, and enumerated
exactly; an infinite one is truncated at a level, where
``fragment_iter`` sums the subsets of e's pieces, with guaranteed
monotone inclusion between levels; the levels are the model's
(``Space.min_level``)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import EnumerationCapExceeded, PreconditionError
from . import spaces
from .spaces import (
    Element, add, canonical_key, format_element, get_atom,
    has_infinite_fragments, inf, is_disjoint, neg_part, pos_part, sub, sup,
    unit_atom, zero,
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


def _check_cap(count, what):
    if count > ENUM_CAP:
        raise EnumerationCapExceeded(
            f"{what} has {count} members, beyond the enumeration cap {ENUM_CAP}")


class Restrictions:
    """The fragment algebra of e, when finite, indexed by mask: entry m
    is e on the support pieces ``parts[k]`` whose bit k is set in m, so
    entry ``full ^ m`` is the rest of e, and entry ``full`` is e itself.
    The one builder of a finite fragment algebra: the enumerations of
    fragments and splittings and the folds of the operator lattice read
    it.  The pieces and each entry come from the model's
    ``piece_builder``; an entry is built on first use and kept, so the
    folds that share one table build every restriction at most once."""

    def __init__(self, e: Element):
        if has_infinite_fragments(e):
            raise PreconditionError(
                "fragment algebra of a nonzero-tail element is infinite; "
                "use fragment_iter with a level")
        self.base = e
        self.parts, self._build = e.space.piece_builder(e)
        self.full = (1 << len(self.parts)) - 1
        self._built = {self.full: e}

    def check_cap(self):
        """Refuse to visit every mask beyond the cap; entries stay readable."""
        _check_cap(len(self), "fragment algebra")

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


def enumerate_fragments(e: Element) -> FragmentEnumeration:
    """The full fragment algebra of e; exact and exhaustive.

    Refused for eventually constant elements with a nonzero tail
    (infinite algebra; use fragment_iter).
    """
    items = sorted(Restrictions(e), key=canonical_key)
    return FragmentEnumeration(items)


def fragment_iter(e: Element, level: int) -> FragmentEnumeration:
    """Level-truncated fragments of an eventually constant element.

    Every subset of positions 1..level combined with a tail choice in
    {0, tail of e}: the subset sums of the pieces of e at ``level``,
    its nonzero atoms through ``level`` and, for a nonzero tail, the
    rest of e beyond them.  Distinct subsets of disjoint nonzero
    pieces have distinct sums, each a fragment of e; the produced set
    at level L is contained in the one at level L+1.  An element of
    another model has no levels, and is refused (``Space.min_level``).
    """
    require_level(e, level)
    _check_cap((1 << level) * 2, "truncated fragment set")
    space = e.space
    parts = [unit_atom(space, i, v) for i in range(1, level + 1)
             if (v := get_atom(e, i)) != 0]
    if has_infinite_fragments(e):
        parts.append(sub(e, functools.reduce(add, parts, zero(space))))
    items = sorted(space.subset_table(parts), key=canonical_key)
    return FragmentEnumeration(items)


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
    """A level table from a walk cut at the operators' window
    (``EventuallyConstant.level_walk``), continued through ``level``
    with copies of its last row."""
    last, *row = table[-1]
    return table + [(l, *row) for l in range(last + 1, level + 1)]


def enumerate_decompositions(x: Element, level: int | None = None):
    """All disjoint splittings x = u + v, one per fragment u of x, in
    the order of u.

    On a finite fragment algebra u and v are the restrictions of x to
    complementary sets of its support pieces, each restriction built
    once and paired with its complement; the level-truncated
    splittings of an eventually constant x subtract, v = x - u.
    """
    if level is not None and has_infinite_fragments(x):
        return tuple(Decomposition(x, u, sub(x, u))
                     for u in fragment_iter(x, level))
    frags = Restrictions(x)
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

