"""Orthogonally additive operators: representations, application, verifiers.

Operator bodies cover the shapes the workbench needs: per-atom kernel
tables, linear maps on eventually constant sequences split along the
basis {unit atoms} + {constant one}, finite match tables, differences
of lateral meets, the alternating harmonic series functional, and
sums/scalings of these.  Application is exact; the series functional
takes its values in ``spaces.LogTwo``, the numbers a + b ln 2.  The
operator lattice also reads a body's images of a point's support pieces
(``Operator.piece_images``).  A piece has one part, an atom or a
support component, so its only fragments are 0 and itself: a kernel
reads its image off the one row that reads its atom; a lateral meet
maps it to itself when its part lies in the support of the point's
meet with a alone, to its negative when in the meet with b alone, and
to 0 otherwise; the zero operator returns zeros; sums and multiples add
and scale their parts' images.
The other bodies keep the default, one application per piece, which is
the reference for every override.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedElement, PreconditionError, SpaceMismatch, Unsupported
from . import lateral, reports, spaces
from .lateral import enumerate_decompositions, min_level
from .reports import Budget, CheckReport
from .spaces import (
    Coordinate, Element, EventuallyConstant, LogTwo, PiecewiseLinear,
    SimpleFunction, ZERO, absolute, add, atom_count, format_element,
    from_atoms, get_atom, has_infinite_fragments, is_disjoint, is_zero,
    leq, normalize, one, scale, space_name, sub, support_atoms,
    support_size, unit_atom, zero,
)


# ---------------------------------------------------------------------------
# piecewise polynomials over the rationals
# ---------------------------------------------------------------------------

def _integer_piece(piece) -> tuple:
    """(D, n_d, (n_{d-1}, ..., n_0)): the coefficients a_k of one piece
    as integer numerators n_k = a_k * D over their least common
    denominator D, from the top degree down."""
    den = math.lcm(*(c.denominator for c in piece))
    nums = [c.numerator * (den // c.denominator) for c in reversed(piece)]
    return den, (nums or [0])[0], tuple(nums[1:])


@dataclass(frozen=True)
class PiecewisePoly:
    """A piecewise polynomial on Q: breaks split the line, one
    ascending-coefficient tuple per piece (len(breaks)+1 pieces).

    Evaluation runs on integers: each piece keeps its coefficients as
    numerators over one common denominator D, and at t = p/r Horner's
    rule runs homogenised, acc = acc*p + n_k*r^(d-k), over D*r^d.  The
    Fraction Horner it replaced is ``eval_by_fractions``."""

    breaks: tuple = ()
    coeffs: tuple = ((ZERO,),)

    def __post_init__(self):
        breaks = tuple(spaces.q(b) for b in self.breaks)
        coeffs = tuple(tuple(spaces.q(c) for c in piece)
                       for piece in self.coeffs)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "coeffs", coeffs)
        if any(a >= b for a, b in zip(breaks, breaks[1:])):
            raise MalformedElement("breakpoints must strictly increase")
        if len(coeffs) != len(breaks) + 1:
            raise MalformedElement("need one coefficient tuple per piece")
        object.__setattr__(self, "_pieces",
                           tuple(_integer_piece(piece) for piece in coeffs))

    def __call__(self, t):
        """The value at t, canonical: an int when it is integral."""
        if type(t) is not int:
            t = spaces.q(t)
        if type(t) is int:
            p, r = t, 1
        else:
            p, r = t.numerator, t.denominator
        if self.breaks:
            den, acc, rest = self._pieces[bisect.bisect_right(self.breaks, t)]
        else:
            den, acc, rest = self._pieces[0]
        power = 1
        for n in rest:
            power *= r
            acc = acc * p + n * power
        den *= power
        if den == 1:
            return acc
        value = Fraction(acc, den)
        return value.numerator if value.denominator == 1 else value

    @property
    def vanishes(self) -> bool:
        """Whether the function is identically zero: every coefficient
        of every piece is."""
        return not any(c for piece in self.coeffs for c in piece)

    def eval_by_fractions(self, t) -> Fraction:
        """The value at t by Horner's rule on the Fraction coefficients;
        the reference for ``__call__``."""
        t = spaces.q(t)
        if self.breaks:
            piece = self.coeffs[bisect.bisect_right(self.breaks, t)]
        else:
            piece = self.coeffs[0]
        if len(piece) == 2 and piece[0] == 0:
            return piece[1] * t
        acc = ZERO
        for c in reversed(piece):
            acc = acc * t + c
        return acc


def poly(*coeffs) -> PiecewisePoly:
    """Single polynomial c0 + c1 t + c2 t^2 + ..."""
    return PiecewisePoly((), (tuple(coeffs) or (ZERO,),))


ABS_FN = PiecewisePoly((0,), ((0, -1), (0, 1)))


# ---------------------------------------------------------------------------
# operator bodies
# ---------------------------------------------------------------------------

class Operator:
    """Base of the operator bodies: each body is a frozen dataclass that
    subclasses this and holds its own rules.  The defaults promise
    nothing: not additive, not linear, no probes and no reasons."""

    # additive on disjoint sums by construction, so pointwise closed
    # forms over decomposition sets are sound
    atom_additive = False
    linear = False

    def _apply(self, x: Element):
        """The image of x, past the domain check of ``apply``."""
        raise Unsupported(f"unknown operator {self!r}")

    def at(self, x: Element, level: int | None = None):
        """The value at x: the image T(x).  The derived operators of
        ``oplattice`` return their pointwise lattice value instead,
        cut at ``level`` where x has infinitely many fragments."""
        return apply(self, x)

    def linear_probes(self) -> list:
        """Inputs that expose the body if it is a nonzero linear map."""
        return []

    def dp_reason(self) -> str | None:
        """Why the body preserves disjointness by construction, if so."""
        return None

    def oao_reason(self) -> str | None:
        """Why the body is orthogonally additive by construction, if so."""
        return "additive by construction" if self.atom_additive else None

    def oao_probes(self) -> list:
        """Disjoint pairs that ``verify_oao`` tries before any other."""
        return []

    def window(self) -> int | None:
        """A level L on eventually constant sequences past which every
        unit atom maps to zero and every pure-tail remainder
        ((0,)*l, c), l >= L, to one fixed image; None when the body
        promises no such level."""
        return None

    def piece_images(self, frags) -> list:
        """The image of each support piece of the point of ``frags`` (its
        ``lateral.Restrictions``), in order: the body applied to each.
        The operator lattice reads it for an additive body, in its closed
        fold and its tables; an override only gives the same images faster,
        and this default is the reference for each."""
        return [apply(self, frags[1 << k]) for k in range(len(frags.parts))]


def joint_window(ops) -> int | None:
    """The largest window of ``ops``, or None if one of them has none."""
    windows = [op.window() for op in ops]
    return None if None in windows else max(windows)


@dataclass(frozen=True)
class Kernel(Operator):
    """Per-atom functions routed to codomain atoms:
    (T x)[j] = sum of fn(x[i]) over table rows (i, j, fn)."""

    domain: object
    codomain: object
    table: tuple  # rows (atom, target, PiecewisePoly)

    atom_additive = True

    def __post_init__(self):
        for role in ("domain", "codomain"):
            space = getattr(self, role)
            if not getattr(space, "atomic", False):
                raise Unsupported(f"{role} of a kernel operator must be atomic, "
                                  f"got {space_name(space)}")
        rows = tuple(sorted((int(i), int(j), fn) for i, j, fn in self.table))
        object.__setattr__(self, "table", rows)
        seen = set()
        for i, j, fn in rows:
            if i in seen:
                raise MalformedElement(f"duplicate kernel row for atom {i}")
            seen.add(i)
            for n, bound in ((i, atom_count(self.domain)),
                             (j, atom_count(self.codomain))):
                if n < 1 or (bound is not None and n > bound):
                    raise MalformedElement(f"atom {n} out of range")
            if fn(0) != 0:
                raise MalformedElement(f"kernel function at atom {i} has f(0) != 0")

    @property
    def linear(self) -> bool:
        return all(len(fn.breaks) == 0 and all(c == 0 for c in fn.coeffs[0][2:])
                   and fn.coeffs[0][0] == 0 for _, _, fn in self.table)

    def _apply(self, x):
        get = x.space.get_atom
        acc = {}
        for i, j, fn in self.table:
            xi = get(x, i)
            if xi == 0:
                continue  # kernel functions vanish at 0 by construction
            value = fn(xi)
            acc[j] = acc[j] + value if j in acc else value
        return from_atoms(self.codomain, acc)

    def piece_images(self, frags):
        # a piece is one atom of the point, so its image comes from the
        # one row that reads that atom, or is zero if no row does
        x, images = frags.base, dict.fromkeys(frags.parts, zero(self.codomain))
        for i, j, fn in self.table:
            if i in images:
                images[i] = from_atoms(self.codomain,
                                       {j: fn(x.space.get_atom(x, i))})
        return list(images.values())

    def linear_probes(self):
        return [unit_atom(self.domain, i) for i, _, _ in self.table]

    def window(self):
        # rows are sorted by atom; past the last one nothing is read
        return self.table[-1][0] if self.table else 0

    def dp_reason(self):
        # a row whose function vanishes adds nothing to its target, so
        # the atom map is that of the other rows
        targets = [j for _, j, fn in self.table if not fn.vanishes]
        if len(set(targets)) == len(targets):
            return "injective atom map: disjoint supports stay disjoint"
        return None


def diagonal_kernel(space, fns) -> Kernel:
    """Kernel with identity atom map; fns is a list (atom 1..n) or dict."""
    if isinstance(fns, dict):
        rows = [(i, i, fn) for i, fn in fns.items()]
    else:
        rows = [(i + 1, i + 1, fn) for i, fn in enumerate(fns)]
    return Kernel(space, space, tuple(rows))


@dataclass(frozen=True)
class LinearEC(Operator):
    """Linear map on eventually constant sequences.

    With c the tail of x:  T x = (sum of a_n (x_n - c)) * target + c * unit_image.
    Equivalently T is linear with T(unit atom n) = a_n * target and
    T(constant one) = unit_image.
    """

    codomain: object
    coeffs: tuple  # ((n, a_n), ...)
    unit_image: Element
    target: Element

    atom_additive = linear = True
    domain = EventuallyConstant()

    def __post_init__(self):
        rows = tuple(sorted((int(n), spaces.q(a)) for n, a in self.coeffs))
        object.__setattr__(self, "coeffs", rows)
        if any(n < 1 for n, _ in rows):
            raise MalformedElement("coefficient indices start at 1")
        if len({n for n, _ in rows}) != len(rows):
            raise MalformedElement("duplicate coefficient index")
        if self.unit_image.space != self.codomain or self.target.space != self.codomain:
            raise SpaceMismatch("unit image and target must live in the codomain")

    def _apply(self, x):
        c = x.payload[1]
        mult = sum((a * (get_atom(x, n) - c) for n, a in self.coeffs), ZERO)
        return add(scale(mult, self.target), scale(c, self.unit_image))

    def linear_probes(self):
        return [unit_atom(self.domain, n) for n, _ in self.coeffs] + [
            one(self.domain)]

    def window(self):
        # coefficients are sorted by index; past the last one an atom
        # maps to zero, and every pure tail c to one image
        return self.coeffs[-1][0] if self.coeffs else 0


@dataclass(frozen=True)
class MatchTable(Operator):
    """x maps to the tabled value when x equals a key, else to zero."""

    domain: object
    codomain: object
    entries: tuple  # ((key, value), ...)

    def _apply(self, x):
        for key, value in self.entries:
            if x == key:
                return value
        return zero(self.codomain)

    def _isolated(self) -> bool:
        """Every key is a single piece with finitely many fragments (so
        its only fragments are 0 and itself) and has no nonzero disjoint
        partner."""
        return all(not has_infinite_fragments(k) and support_size(k) == 1
                   and k.space.full_support(k) for k, _ in self.entries)

    def dp_reason(self):
        return ("keys have no nonzero disjoint partner"
                if self._isolated() else None)

    def oao_reason(self):
        return ("keys indecomposable with no nonzero disjoint partner"
                if self._isolated() else None)

    def oao_probes(self):
        """The classic match-table failure: a key plus a unit atom
        outside its support."""
        if not self.domain.atomic:
            return []
        n = atom_count(self.domain)
        probes = []
        for key, _ in self.entries:
            outside = [a for a in range(1, (n or 8) + 1)
                       if a not in set(support_atoms(key))][:4]
            for a in outside:
                probe = unit_atom(self.domain, a)
                if is_disjoint(key, probe):
                    probes.append((key, probe))
        return probes


# the level of the vetting splittings of a key with infinitely many
# fragments, raised to the key's prefix length where that is longer
_MATCH_VETTING_LEVEL = 8


def match_table(entries) -> MatchTable:
    """Build a match table, vetting additivity on key decompositions.

    Every splitting of a key into two nonzero disjoint parts must map
    consistently (parts' values summing to the key's value); keys whose
    splittings violate this cannot belong to an orthogonally additive
    map and are rejected.  For keys with infinitely many fragments the
    vetting is cut at ``_MATCH_VETTING_LEVEL``.
    """
    entries = tuple(entries)
    if not entries:
        raise MalformedElement("a match table needs at least one entry")
    domain = entries[0][0].space
    codomain = entries[0][1].space
    lookup = {}
    for key, value in entries:
        if key.space != domain or value.space != codomain:
            raise SpaceMismatch("all keys/values must share one domain/codomain")
        if is_zero(key):
            raise MalformedElement("zero cannot be a match key")
        if key in lookup:
            raise MalformedElement(f"duplicate key {format_element(key)}")
        lookup[key] = value

    def image(el):
        return lookup.get(el, zero(codomain))

    for key, value in entries:
        level = (max(_MATCH_VETTING_LEVEL, min_level(key))
                 if has_infinite_fragments(key) else None)
        for d in enumerate_decompositions(key, level=level):
            if is_zero(d.left) or is_zero(d.right):
                continue
            if add(image(d.left), image(d.right)) != value:
                raise PreconditionError(
                    f"key {format_element(key)} splits as "
                    f"{format_element(d.left)} + {format_element(d.right)} "
                    "but the parts do not map consistently")
    return MatchTable(domain, codomain, entries)


@dataclass(frozen=True)
class LateralMeet(Operator):
    """T x = (x meet a) - (x meet b), meets in the lateral order."""

    space: object
    a: Element
    b: Element

    atom_additive = True

    def __post_init__(self):
        if self.a.space != self.space or self.b.space != self.space:
            raise SpaceMismatch("parameters must live in the operator space")

    domain = codomain = property(lambda self: self.space)

    def _apply(self, x):
        return sub(lateral.lateral_inf(x, self.a), lateral.lateral_inf(x, self.b))

    def piece_images(self, frags):
        # a piece p of x has one part, so p meet a is p or 0, and it is p
        # exactly when p's part is one of x meet a: the fragments of p
        # are 0 and p, and x meet a is the sum of x's pieces below a
        x = frags.base
        support = x.space.support
        below_a = set(support(lateral.lateral_inf(x, self.a)))
        below_b = set(support(lateral.lateral_inf(x, self.b)))
        images = []
        for k, part in enumerate(frags.parts):
            sign = (part in below_a) - (part in below_b)
            piece = frags[1 << k] if sign else zero(self.space)
            images.append(scale(-1, piece) if sign < 0 else piece)
        return images

    def dp_reason(self):
        return "|T x| <= |x| pointwise, so disjoint supports stay disjoint"


@dataclass(frozen=True)
class AlternatingSeries(Operator):
    """T x = sum over n of (-1)^n |x_n| / n, exactly.

    With h the sum over the prefix of x, c its tail and k the prefix
    length, T x = h + |c| (-ln 2 - s_k), where s_k is the k-th partial
    sum of sum (-1)^n / n, whose whole sum is -ln 2: a value of
    ``LogTwo``."""

    atom_additive = True
    domain = EventuallyConstant()
    codomain = LogTwo()

    def _apply(self, x):
        prefix, tail = x.payload
        # unit atoms and tail remainders carry long runs of zeros
        head = sum((spaces.div((-1) ** n * abs(v), n)
                    for n, v in enumerate(prefix, start=1) if v), ZERO)
        c = abs(tail)
        return normalize(self.codomain,
                         (head - c * _alternating_partial(len(prefix)), -c))


@functools.lru_cache(maxsize=256)
def _alternating_partial(k: int) -> Fraction:
    """s_k, the sum over n <= k of (-1)^n / n."""
    return sum((Fraction((-1) ** n, n) for n in range(1, k + 1)), ZERO)


# The combinators apply their parts through the module-level ``apply``,
# so each part's application is checked and traced like any other, and
# add or scale their parts' piece images one piece at a time.

@dataclass(frozen=True)
class OpSum(Operator):
    parts: tuple

    def __post_init__(self):
        given = tuple(self.parts)
        if not given:
            raise MalformedElement("empty operator sum")
        d, c = given[0].domain, given[0].codomain
        if any(p.domain != d or p.codomain != c for p in given):
            raise SpaceMismatch("summands must share domain and codomain")
        # a sum among the parts is spliced in, so no sum nests another
        # and a long chain S + T + ... applies without recursing
        parts = []
        for p in given:
            parts.extend(p.parts if isinstance(p, OpSum) else (p,))
        object.__setattr__(self, "parts", tuple(parts))

    domain = property(lambda self: self.parts[0].domain)
    codomain = property(lambda self: self.parts[0].codomain)
    atom_additive = property(lambda self: all(p.atom_additive for p in self.parts))
    linear = property(lambda self: all(p.linear for p in self.parts))

    def _apply(self, x):
        acc = apply(self.parts[0], x)
        for p in self.parts[1:]:
            acc = add(acc, apply(p, x))
        return acc

    def piece_images(self, frags):
        images = self.parts[0].piece_images(frags)
        for p in self.parts[1:]:
            images = list(map(add, images, p.piece_images(frags)))
        return images

    def linear_probes(self):
        return [x for p in self.parts for x in p.linear_probes()]

    def dp_reason(self):
        # a sum of kernels on one domain and codomain (the constructor
        # sees to that) is the kernel of all their rows, and every row
        # vanishes at 0: a target atom fed from one atom only is zero
        # wherever that atom is.  A row whose function vanishes feeds
        # nothing
        source = {}
        for p in self.parts:
            if not isinstance(p, Kernel):
                return None
            for i, j, fn in p.table:
                if not fn.vanishes and source.setdefault(j, i) != i:
                    return None
        return ("sum of kernels feeding each target atom from one atom: "
                "disjoint supports stay disjoint")

    def window(self):
        return joint_window(self.parts)


@dataclass(frozen=True)
class OpScaled(Operator):
    factor: Fraction
    inner: object

    def __post_init__(self):
        object.__setattr__(self, "factor", spaces.q(self.factor))

    domain = property(lambda self: self.inner.domain)
    codomain = property(lambda self: self.inner.codomain)
    atom_additive = property(lambda self: self.inner.atom_additive)
    linear = property(lambda self: self.inner.linear)

    def _apply(self, x):
        return scale(self.factor, apply(self.inner, x))

    def piece_images(self, frags):
        return [scale(self.factor, v) for v in self.inner.piece_images(frags)]

    def linear_probes(self):
        return self.inner.linear_probes()

    def dp_reason(self):
        inner = self.inner.dp_reason()
        return None if inner is None else f"scaling preserves disjointness; {inner}"

    def oao_reason(self):
        # c T is orthogonally additive whenever T is
        return self.inner.oao_reason()

    def oao_probes(self):
        return self.inner.oao_probes()

    def window(self):
        return self.inner.window()


@dataclass(frozen=True)
class ZeroOp(Operator):
    domain: object
    codomain: object

    atom_additive = linear = True

    def _apply(self, x):
        return zero(self.codomain)

    def piece_images(self, frags):
        return [zero(self.codomain)] * len(frags.parts)

    def dp_reason(self):
        return "zero operator"

    def window(self):
        return 0


def negate(T):
    return OpScaled(Fraction(-1), T)


# ---------------------------------------------------------------------------
# values, through the ``spaces`` functions
# ---------------------------------------------------------------------------

# the names the operator-lattice workload of ``bench/workloads.py`` reads
vadd, vabs = add, absolute


def vneg(a):
    return scale(-1, a)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply(T, x: Element):
    """Exact operator application."""
    if x.space != T.domain:
        raise _outside_domain(T, x)
    return T._apply(x)


def _outside_domain(T, x: Element) -> SpaceMismatch:
    return SpaceMismatch(f"operator domain {space_name(T.domain)}, "
                         f"argument in {space_name(x.space)}")


# ---------------------------------------------------------------------------
# disjoint-pair generation for exhaustive verification
# ---------------------------------------------------------------------------

def exhaustive_disjoint_pairs(space, grid):
    """All (u, v) with u _|_ v whose atoms take values from grid.

    Only for finitely many atoms; per atom either side takes a grid
    value while the other is zero.
    """
    n = atom_count(space)
    if n is None:
        raise Unsupported("exhaustive pairs need finitely many atoms")
    grid = [spaces.q(g) for g in grid]
    per_atom = [(g, ZERO) for g in grid if g != 0]
    per_atom += [(ZERO, g) for g in grid]
    for combo in itertools.product(per_atom, repeat=n):
        u = normalize(space, [a for a, _ in combo])
        v = normalize(space, [b for _, b in combo])
        yield u, v


def _can_exhaust(space) -> bool:
    n = atom_count(space) if space.atomic else None
    return n is not None and n <= 4


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_oao(T, budget: Budget | None = None) -> CheckReport:
    """Check T(u+v) = T(u) + T(v) on disjoint pairs, by ``_verify``'s
    rule; a body with an ``oao_reason`` holds with it as the notes."""
    budget = budget or Budget()
    reason = T.oao_reason()
    if reason:
        return reports.holds(seed=budget.seed_tag("oao"), notes=reason)
    return _verify(T, budget, "oao", functools.partial(_additivity_gap, T),
                   T.oao_probes(), *_pair_inputs(T))


def verify_positive(T, budget: Budget | None = None) -> CheckReport:
    """Check T(x) >= 0, by ``_verify``'s rule; a linear body is refuted
    from its linear probes, or holds as the zero operator."""
    budget = budget or Budget()
    if T.linear:
        # a nonzero linear map cannot be positive: T(-x) = -T(x)
        seed = budget.seed_tag("positive")
        probes = T.linear_probes()
        for x in probes:
            y = apply(T, x)
            if not is_zero(y):
                witness = x if _positivity_gap(y) else scale(-1, x)
                return reports.fails(
                    f"x={format_element(witness)} (pair x, -x)",
                    len(probes), seed, witness_data=(witness,),
                    notes="nonzero linear operator; one of x, -x maps below 0")
        return reports.holds(seed=seed, notes="zero operator")
    from . import generators
    return _verify(
        T, budget, "positive", lambda x: _positivity_gap(apply(T, x)), (),
        lambda grid: ((normalize(T.domain, values),) for values in
                      itertools.product([spaces.q(g) for g in grid],
                                        repeat=atom_count(T.domain))),
        lambda rng: (generators.random_element(rng, T.domain),), ("x",))


def verify_disjointness_preserving(T, budget: Budget | None = None) -> CheckReport:
    """Check that disjoint inputs map to disjoint images, by
    ``_verify``'s rule; a body with a ``dp_reason`` holds with it as
    the notes."""
    budget = budget or Budget()
    reason = T.dp_reason()
    if reason:
        return reports.holds(seed=budget.seed_tag("dp"), notes=reason)
    return _verify(T, budget, "dp", functools.partial(_disjointness_gap, T),
                   _dp_probes(T), *_pair_inputs(T))


def _verify(T, budget, tag, gap, probes, grid_inputs, sample_input, names):
    """The one decision rule of the verifiers.

    ``gap(*inputs)`` is True where the law fails at the inputs.  It
    runs on ``probes`` first, then on every ``grid_inputs(budget.grid)``
    when a grid is set and ``_can_exhaust`` the domain, and otherwise on
    ``budget.samples`` draws of ``sample_input`` from
    ``budget.rng(tag)``.  The first gap fails, with the inputs, named by
    ``names``, as its witness.  A clean grid holds; a clean sample is
    inconclusive: it never says ``holds``.
    """
    seed = budget.seed_tag(tag)
    exhaustive = budget.grid is not None and _can_exhaust(T.domain)
    if exhaustive:
        rest = grid_inputs(budget.grid)
    else:
        rng = budget.rng(tag)
        rest = (sample_input(rng) for _ in range(budget.samples))
    count = 0
    for inputs in itertools.chain(probes, rest):
        count += 1
        if gap(*inputs):
            return reports.fails(
                " ".join(f"{name}={format_element(v)}"
                         for name, v in zip(names, inputs)),
                count, seed, witness_data=tuple(inputs))
    if not exhaustive:
        return reports.inconclusive(count, seed, notes="sampled, no failure")
    return reports.holds(count, seed, notes="exhaustive over grid")


def _pair_inputs(T):
    """The grid, the sampler and the witness names of the verifiers
    that test disjoint pairs."""
    from . import generators
    return (functools.partial(exhaustive_disjoint_pairs, T.domain),
            lambda rng: generators.random_disjoint_pair(rng, T.domain),
            ("u", "v"))


def _additivity_gap(T, u, v) -> bool:
    # values are canonical, so equality is syntactic
    return apply(T, add(u, v)) != add(apply(T, u), apply(T, v))


def _positivity_gap(value) -> bool:
    """True when the value is not >= 0."""
    return not leq(zero(value.space), value)


def _disjointness_gap(T, u, v) -> bool:
    return not is_disjoint(apply(T, u), apply(T, v))


def _dp_probes(T):
    """Deterministic unit-atom pairs; they expose atom-map collisions."""
    if not T.domain.atomic:
        return []
    n = atom_count(T.domain)
    atoms = list(range(1, (n or 6) + 1))[:6]
    return [(unit_atom(T.domain, a), unit_atom(T.domain, b))
            for a, b in itertools.combinations(atoms, 2)]


# ---------------------------------------------------------------------------
# boundedness scans
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    """Extremes of an operator over a fragment algebra.

    ``exact`` mode carries the attained bounds; ``truncated`` mode a
    monotone per-level table plus a growth flag relative to the caller
    bound (growth refutes lateral-to-order boundedness at the base).
    """

    mode: str
    report: CheckReport
    lo: object = None
    hi: object = None
    table: tuple = ()
    growth: bool | None = None


def lateral_bound_scan(T, e: Element, level: int | None = None,
                       bound=None) -> ScanResult:
    """Extremes of T over the fragments of e.

    Each fragment u of e splits e as u + (e - u), so the least and the
    greatest image of a fragment are the meet and the join of T with
    the zero operator at e, (T ^ 0)(e) and (T v 0)(e), folded by
    ``oplattice``.  Finite algebras give exact bounds.  For eventually
    constant bases with nonzero tail, pass a level: the table holds the
    extremes level by level, folded atom by atom for structurally
    additive bodies and over bounded enumeration otherwise.  A level
    whose maximum is not at most ``bound``, a value of the codomain,
    fails the scan.
    ``oracles.scan_levels_by_enumeration`` is the reference.
    """
    from .oplattice import join_at, meet_at
    seed = "scan"
    if e.space != T.domain:
        raise _outside_domain(T, e)
    zero_op = ZeroOp(T.domain, T.codomain)
    if not has_infinite_fragments(e):
        count = 1 << support_size(e)
        rep = reports.holds(count, seed,
                            notes=f"exact bounds over {count} fragments")
        return ScanResult("exact", rep, lo=meet_at(T, zero_op, e).value,
                          hi=join_at(T, zero_op, e).value)
    if level is None:
        raise PreconditionError(
            "infinite fragment algebra: supply a truncation level")
    table = [(l, lo, hi) for (l, lo), (_, hi) in zip(
        meet_at(T, zero_op, e, level).levels,
        join_at(T, zero_op, e, level).levels)]
    lvl = next((l for l, _, hi in table
                if bound is not None and not leq(hi, bound)), None)
    grew = lvl is not None
    if grew:
        rep = reports.fails(f"level {lvl} maximum exceeds the bound",
                            len(table), seed,
                            notes="lateral image escapes the caller bound")
    else:
        rep = reports.inconclusive(len(table), seed,
                                   notes="monotone level table computed")
    return ScanResult("truncated", rep, table=tuple(table), growth=grew)


# ---------------------------------------------------------------------------
# the catalogued example operators
# ---------------------------------------------------------------------------

def example_operator(name: str, target: Element | None = None,
                     horizon: int = 64):
    """Named operators used throughout the check suite.

    * ``ramped_basis`` -- linear, sending the n-th unit atom to
      n * target (n up to ``horizon``) and the constant one to zero;
      its fragment image grows like n(n+1)/2.
    * ``unit_match`` -- the match table sending the constant one to
      itself and twice the constant one to its negative, on continuous
      piecewise-linear functions.
    * ``unit_lateral_meet`` -- x maps to (x meet 1) - (x meet 2), on
      step functions.
    """
    if name == "ramped_basis":
        if target is None:
            target = one(Coordinate(1))
        cod = target.space
        coeffs = tuple((n, Fraction(n)) for n in range(1, horizon + 1))
        return LinearEC(cod, coeffs, zero(cod), target)
    if name == "unit_match":
        u = one(PiecewiseLinear())
        return match_table([(u, u), (scale(2, u), scale(-1, u))])
    if name == "unit_lateral_meet":
        s = SimpleFunction((Fraction(0), Fraction(1, 2), Fraction(1)))
        u = one(s)
        return LateralMeet(s, u, scale(2, u))
    raise Unsupported(f"unknown example operator {name!r}")
