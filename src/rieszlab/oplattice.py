"""Pointwise lattice operations on operators.

The join of two operators at x is the supremum of S(u) + T(v) over the
disjoint splittings x = u + v; meets, positive/negative parts and the
modulus are the matching infima/suprema.  No order completeness is
assumed anywhere.  When both operators are additive on disjoint sums,
the fold over splittings distributes into one fold per piece of x (its
support atoms, or its support components on piecewise-linear functions):
exactly for finite fragment algebras, level by level for infinite ones,
on every codomain.  Other pairs enumerate the splittings as masks over
fragment tables (``extrema_by_enumeration``).  A table is the
codomain's: on cell spaces one integer column per cell, so a splitting
costs integer additions and no element, elsewhere a list of values.
Both folds read an additive body's images of x's pieces, and nothing
else of it beyond ``apply`` (``Operator.piece_images``).

``OpLattice`` makes each of these operations an operator body, so
lattice expressions nest: (S v T)^+ is the positive part of a join.
It answers the per-piece hook itself: a piece p splits only as p + 0 or
0 + p, so its image is the sup or inf of its two operands' images of p,
and a fold over a nested expression reads piece images at every depth
without evaluating an inner body at a point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedElement, PreconditionError, SpaceMismatch
from .lateral import (
    Decomposition, Restrictions, enumerate_decompositions, extend_levels,
    is_fragment, min_level, require_level,
)
from .operators import Operator, ZeroOp, apply, joint_window, negate
from .spaces import (
    Element, absolute, add, canonical_key,
    format_element, has_infinite_fragments, inf, neg_part, pos_part,
    scale, sup, support_size, zero,
)


@dataclass
class LatticePoint:
    """Value of a pointwise operator-lattice expression.

    Exact mode carries the folded value and every optimal splitting
    (ties filtered to minimal left-support, canonically ordered);
    truncated mode carries the monotone level table instead.
    """

    mode: str
    value: object = None
    levels: tuple = ()
    attained: tuple = ()
    notes: str = ""


_PICK = {"sup": sup, "inf": inf}
_ORDER = {"sup": max, "inf": min}  # the same folds, on scalars


def _pair_check(S, T, x: Element):
    if S.domain != T.domain or S.codomain != T.codomain:
        raise SpaceMismatch("operator pair must share domain and codomain")
    if x.space != S.domain:
        raise SpaceMismatch("argument outside the operators' domain")


def _minimal_left(hits):
    """The splittings in ``hits`` of least left support, canonically."""
    best = min((support_size(d.left) for d in hits), default=0)
    return tuple(sorted((d for d in hits if support_size(d.left) == best),
                        key=lambda d: canonical_key(d.left)))


def _extrema(S, T, x: Element, kind: str, level: int | None) -> LatticePoint:
    _pair_check(S, T, x)
    additive = S.atom_additive and T.atom_additive
    if not has_infinite_fragments(x):
        if additive:
            return _extrema_closed(S, T, x, kind)
        return extrema_by_enumeration(S, T, x, kind)
    if level is None:
        raise PreconditionError(
            "infinite splitting family: supply a truncation level")
    require_level(x, level)
    if additive:
        levels = _levels_closed(S, T, x, kind, level, joint_window((S, T)))
    else:
        levels = _levels_enumerated(S, T, x, kind, level)
    return LatticePoint("truncated", levels=tuple(levels),
                        notes="per-level extrema over truncated splittings")


def fragment_images(T, frags):
    """T's image of every fragment in ``frags`` (a ``Restrictions``), by
    mask, in the codomain's table: the subset sums of an additive body's
    k piece images, one application per fragment for any other body."""
    frags.check_cap()
    if T.atom_additive:
        return T.codomain.subset_table(T.piece_images(frags))
    return T.codomain.image_table([apply(T, u) for u in frags])


def extrema_by_enumeration(S, T, x: Element, kind: str) -> LatticePoint:
    """Reference fold of S(u) + T(v) over every splitting x = u + v.

    ``kind`` is "sup" or "inf"; the fragment algebra of x must be
    finite.  Mask m of the pieces of x splits it into u on the pieces in
    m and v on the rest, so S(u) + T(v) is entry m of the left
    operator's fragment table plus the right one's complement
    (``fragment_images``).  The tables are the codomain's: integer
    columns on cell spaces, lists of values elsewhere
    (``spaces.ImageTable``); their fold gives the extremum and its
    masks, and ``Decomposition`` objects are built only for those.  The
    checks and tests compare the per-piece closed form with this, and
    ``_extrema`` calls it where the closed form does not serve.
    """
    _pair_check(S, T, x)
    frags = Restrictions(x)
    values = fragment_images(S, frags) + fragment_images(T, frags).complement()
    fold, masks = values.extremum(_ORDER[kind])
    hits = [Decomposition(x, frags[m], frags[frags.full ^ m]) for m in masks]
    return LatticePoint("exact", value=fold, attained=_minimal_left(hits))


def _side(s, t, best):
    """Side of the splitting a piece joins when its images are s under S
    and t under T: "right" whenever T attains the per-piece extremum
    (ties go right, which keeps the left support minimal), "left" when
    only S does, None when neither does (incomparable images)."""
    if t == best:
        return "right"
    if s == best:
        return "left"
    return None


def _fold_pieces(acc, s_images, t_images, pick):
    """Add pick(s, t) to acc for the images s under S and t under T of
    every piece, listed in ``s_images`` and ``t_images``.

    Each splitting assigns every piece to one side, and additivity on
    disjoint sums makes S(u) + T(v) a sum of independent per-piece
    choices, so the fold over splittings distributes into per-piece
    folds.  A splitting attains the total exactly when every piece's
    choice attains its own extremum.  Returns the total and the mask of
    the pieces that go left in the attaining splitting with minimal left
    support, or None in place of the mask when no splitting attains.
    """
    mask = 0
    attains = True
    for k, (s, t) in enumerate(zip(s_images, t_images)):
        best = pick(s, t)
        acc = add(acc, best)
        side = _side(s, t, best)
        if side == "left":
            mask |= 1 << k
        attains = attains and side is not None
    return acc, (mask if attains else None)


def _extrema_closed(S, T, x, kind):
    frags = Restrictions(x)
    value, m = _fold_pieces(zero(S.codomain), S.piece_images(frags),
                            T.piece_images(frags), _PICK[kind])
    attained = (() if m is None else
                (Decomposition(x, frags[m], frags[frags.full ^ m]),))
    return LatticePoint("exact", value=value, attained=attained)


def _levels_closed(S, T, x, kind, level, window=None):
    """Per-level fold without enumeration.

    Each splitting of x at level l assigns every atom n <= l and the
    pure-tail part to one side, so the level value is the per-atom fold
    over atoms 1..l plus the better image of the remaining tail.  Past
    the operators' ``window`` that value is constant, and the walk stops
    there (see ``EventuallyConstant.level_walk``).
    """
    pick = _PICK[kind]
    acc = zero(S.codomain)
    out = []
    for l, atoms, w in x.space.level_walk(x, level, window):
        acc, _ = _fold_pieces(acc, [apply(S, a) for a in atoms],
                              [apply(T, a) for a in atoms], pick)
        out.append((l, add(acc, pick(apply(S, w), apply(T, w)))))
    return extend_levels(out, level)


def levels_by_full_walk(S, T, x, kind: str, level: int) -> list:
    """The per-level fold at every level through ``level``, the walk
    never cut at a window; the reference for the cut."""
    return _levels_closed(S, T, x, kind, level)


def _levels_enumerated(S, T, x, kind, level):
    """Per-level fold over the splittings of the top level, each
    enumerated and applied once.

    The truncated fragment sets grow with the level, and a fragment u
    first joins them at max(min_level(x), min_level(u)): past the prefix
    of x, u is a sum of atoms through l plus, or not, the tail of x
    beyond l exactly when its own prefix ends by l.  So each splitting
    is folded into its first level, and each level's value is the
    running fold through it.  ``oracles.levels_by_enumeration``
    enumerates every level on its own and is the reference.
    """
    pick, first = _PICK[kind], min_level(x)
    by_level = {}
    for d in enumerate_decompositions(x, level=level):
        l = max(first, min_level(d.left))
        value = add(apply(S, d.left), apply(T, d.right))
        by_level[l] = pick(by_level[l], value) if l in by_level else value
    acc, out = by_level.pop(first), []  # u = 0 is in every level
    for l in range(first, level + 1):
        if l in by_level:
            acc = pick(acc, by_level[l])
        out.append((l, acc))
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def join_at(S, T, x: Element, level: int | None = None) -> LatticePoint:
    """sup of S(u) + T(v) over the splittings x = u + v."""
    return _extrema(S, T, x, "sup", level)


def meet_at(S, T, x: Element, level: int | None = None) -> LatticePoint:
    """inf of S(u) + T(v) over the splittings x = u + v; equals the
    negated join of the negated operators."""
    return _extrema(S, T, x, "inf", level)


def pos_part_at(T, x: Element, level: int | None = None) -> LatticePoint:
    """sup of T(u) over the fragments u of x."""
    return _extrema(T, ZeroOp(T.domain, T.codomain), x, "sup", level)


def neg_part_at(T, x: Element, level: int | None = None) -> LatticePoint:
    """-inf of T(u) over the fragments u of x."""
    point = _extrema(T, ZeroOp(T.domain, T.codomain), x, "inf", level)
    if point.mode == "exact":
        point.value = scale(-1, point.value)
    else:
        point.levels = tuple((l, scale(-1, v)) for l, v in point.levels)
    return point


def modulus_at(T, x: Element, level: int | None = None) -> LatticePoint:
    """sup of T(u) - T(v) over the splittings x = u + v."""
    return _extrema(T, negate(T), x, "sup", level)


# kind -> (name of its pointwise function, number of operands, its
# fold); the function is looked up by name when applied, so a wrapper
# installed on the module attribute (a tracer) sees the call
_KINDS = {"join": ("join_at", 2, "sup"), "meet": ("meet_at", 2, "inf"),
          "pos": ("pos_part_at", 1, "sup"), "neg": ("neg_part_at", 1, "inf"),
          "mod": ("modulus_at", 1, "sup")}


@dataclass(frozen=True)
class OpLattice(Operator):
    """A derived operator: the join or meet of two operators, or the
    positive part, negative part or modulus of one, evaluated by the
    matching ``*_at`` function above.

    It is additive on disjoint sums when its parts are (Theorem 3.2),
    so a lattice expression over additive bodies folds piece by piece at
    every depth.  Applied inside another operator it gets no truncation
    level, so at a point with infinitely many fragments it raises the
    level precondition.
    """

    kind: str
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if self.kind not in _KINDS or len(parts) != _KINDS[self.kind][1]:
            raise MalformedElement(
                f"no derived operator {self.kind!r} of {len(parts)} operand(s)")

    domain = property(lambda self: self.parts[0].domain)
    codomain = property(lambda self: self.parts[0].codomain)
    atom_additive = property(lambda self: all(p.atom_additive for p in self.parts))

    def at(self, x: Element, level: int | None = None) -> LatticePoint:
        return globals()[_KINDS[self.kind][0]](*self.parts, x, level)

    def _apply(self, x):
        return self.at(x).value

    def piece_images(self, frags):
        # a piece p splits only as p + 0 or 0 + p, and additive operands
        # vanish at 0, so the image of p is the pick of its two operands'
        # images: the second part's, the zero operator's for the parts,
        # negate(T)'s for the modulus; the negative part is negated
        if not self.atom_additive:
            return super().piece_images(frags)
        T, kind = self.parts[0], self.kind
        left = T.piece_images(frags)
        if kind == "mod":
            right = [scale(-1, v) for v in left]
        elif kind in ("pos", "neg"):
            right = ZeroOp(T.domain, T.codomain).piece_images(frags)
        else:
            right = self.parts[1].piece_images(frags)
        images = list(map(_PICK[_KINDS[kind][2]], left, right))
        return [scale(-1, v) for v in images] if kind == "neg" else images


_DP_KINDS = {"modulus", "pos", "neg"}


def dp_fast(kind: str, T, x: Element):
    """Single-application fast path for disjointness-preserving operators.

    For such operators the modulus at x is |T(x)| and the parts are
    (T(x))^+ and (T(x))^-.  The body must preserve disjointness by
    construction: without a ``T.dp_reason()`` it raises.
    """
    if kind not in _DP_KINDS:
        raise PreconditionError(f"kind must be one of {sorted(_DP_KINDS)}")
    _require_dp_reason(T)
    y = apply(T, x)
    if kind == "modulus":
        return absolute(y)
    if kind == "pos":
        return pos_part(y)
    return neg_part(y)


def meyer_pair(T, x: Element, y: Element, e: Element | None = None,
               *, unsafe: bool = False):
    """(T(x))^+ wedge (T(y))^-; zero when x and y are fragments of e and
    T preserves disjointness by construction (``T.dp_reason()``).

    ``unsafe`` skips the hypothesis checks to reproduce the documented
    counterexamples; such values are not covered by the statement.
    """
    if not unsafe:
        if e is None:
            raise PreconditionError("a common lateral bound e is required")
        for name, el in (("x", x), ("y", y)):
            if not is_fragment(el, e):
                raise PreconditionError(
                    f"{name}={format_element(el)} is not a fragment of "
                    f"e={format_element(e)}; the vanishing statement does not "
                    "apply (this is exactly where the counterexamples live)")
        _require_dp_reason(T)
    return inf(pos_part(apply(T, x)), neg_part(apply(T, y)))


def _require_dp_reason(T):
    """A sampled verdict is no proof, so only the body's own reason
    licenses the statements that assume disjointness preservation."""
    if T.dp_reason() is None:
        raise PreconditionError(
            "the operator does not preserve disjointness by construction "
            "(it has no dp_reason)")
