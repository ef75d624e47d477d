"""Pointwise lattice operations on operators.

The join of two operators at x is the supremum of S(u) + T(v) over the
disjoint splittings x = u + v; meets, positive/negative parts and the
modulus are the matching infima/suprema.  No order completeness is
assumed anywhere.  When both operators are additive on disjoint sums,
the fold over splittings distributes into one fold per piece of x (its
support atoms, or its support components on piecewise-linear functions):
exactly for finite fragment algebras, level by level from the pieces of
one level for infinite ones, on every codomain.  Other pairs enumerate
the splittings as masks over fragment tables (``extrema_by_enumeration``),
at each truncation level on its own for infinite ones.
A table is the codomain's: on cell spaces one integer column per cell,
so a splitting costs integer additions and no element, elsewhere a list
of values.
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

import itertools
from dataclasses import dataclass

from .errors import MalformedElement, PreconditionError, SpaceMismatch
from .lateral import (
    Decomposition, Restrictions, extend_levels, is_fragment, min_level,
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
    if additive:
        levels = _levels_closed(S, T, x, kind, level, joint_window((S, T)))
    else:
        # refuse a level below x's prefix or past the cap before any work
        Restrictions(x, level).check_cap()
        levels = [(l, extrema_by_enumeration(S, T, x, kind, l).value)
                  for l in range(min_level(x), level + 1)]
    return LatticePoint("truncated", levels=tuple(levels))


def fragment_images(T, frags):
    """T's image of every fragment in ``frags`` (a ``Restrictions``), by
    mask, in the codomain's table: the subset sums of an additive body's
    k piece images, one application per fragment for any other body."""
    frags.check_cap()
    if T.atom_additive:
        return T.codomain.subset_table(T.piece_images(frags))
    return T.codomain.image_table([apply(T, u) for u in frags])


def extrema_by_enumeration(S, T, x: Element, kind: str,
                           level: int | None = None) -> LatticePoint:
    """Reference fold of S(u) + T(v) over every splitting x = u + v.

    ``kind`` is "sup" or "inf"; the splittings are those of
    ``Restrictions(x, level)``, so a point with infinitely many
    fragments needs a truncation ``level``.  Mask m of the pieces of x
    splits it into u on the pieces in m and v on the rest, so S(u) + T(v)
    is entry m of the left operator's fragment table plus the right
    one's complement (``fragment_images``).  The tables are the
    codomain's: integer columns on cell spaces, lists of values
    elsewhere (``spaces.ImageTable``); their fold gives the extremum and
    its masks, and ``Decomposition`` objects are built only for those.
    The checks and tests compare the per-piece closed form with this,
    and ``_extrema`` calls it where the closed form does not serve, one
    level at a time at a point with infinitely many fragments.
    """
    _pair_check(S, T, x)
    frags = Restrictions(x, level)
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


def _rest_images(images, count):
    """From one operator's piece images at level L, w_L's last, its
    images of w_l = w_L + the atoms l < n <= L for the ``count`` + 1
    levels l through L, in order."""
    return list(itertools.accumulate(reversed(images[-1 - count:]),
                                     lambda rest, atom: add(atom, rest)))[::-1]


def _levels_closed(S, T, x, kind, level, window=None):
    """Per-level fold without enumeration, from the piece images of
    ``Restrictions(x, L)``, x's nonzero atoms n <= L and w_L, the rest of
    x.  L is ``level`` or, with the operators' ``window``, the cut
    max(window, min_level(x)) if that comes first.  The value at l <= L
    is the fold of the per-atom picks through l plus the pick of the
    images of w_l (``_rest_images``); past the window it is constant,
    and ``extend_levels`` continues the table.
    """
    pick, start = _PICK[kind], min_level(x)
    cut = level if window is None else min(level, max(window, start))
    frags = Restrictions(x, cut)
    s, t = S.piece_images(frags), T.piece_images(frags)
    first = len(frags.parts) - 1 - (cut - start)   # the pieces n <= start
    acc, out = _fold_pieces(zero(S.codomain), s[:first], t[:first], pick)[0], []
    for k, rest_s, rest_t in zip(range(first, len(frags.parts)),
                                 _rest_images(s, cut - start),
                                 _rest_images(t, cut - start)):
        out.append((start + k - first, add(acc, pick(rest_s, rest_t))))
        acc, _ = _fold_pieces(acc, s[k:k + 1], t[k:k + 1], pick)
    return extend_levels(out, level)


def levels_by_full_walk(S, T, x, kind: str, level: int) -> list:
    """The per-level fold through ``level``, with no window and no suffix
    sums: at the level of the first k pieces, their picks plus the pick
    of S and T applied to the rest of x; the reference for the cut."""
    pick, start, frags = _PICK[kind], min_level(x), Restrictions(x, level)
    s, t = S.piece_images(frags), T.piece_images(frags)
    first = len(frags.parts) - 1 - (level - start)   # the pieces n <= start
    acc, out = _fold_pieces(zero(S.codomain), s[:first], t[:first], pick)[0], []
    for l, k in enumerate(range(first, len(frags.parts)), start):
        rest = frags[frags.full >> k << k]
        out.append((l, add(acc, pick(apply(S, rest), apply(T, rest)))))
        acc, _ = _fold_pieces(acc, s[k:k + 1], t[k:k + 1], pick)
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
        # negate(T)'s for the modulus; the negative part is negated.  At
        # a level the default applies the body to the rest of x, and raises
        if not self.atom_additive or frags.level is not None:
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
