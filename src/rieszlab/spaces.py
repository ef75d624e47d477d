"""Concrete vector-lattice models over exact rational scalars.

Each space model is one class, and the class holds the whole calculus
of its elements: canonical form, zero and one, addition, scaling, the
lattice operations, order and disjointness, atoms or support pieces,
sampling, formatting and the sort key.  The models are

* ``Coordinate``         -- R^n with the coordinatewise order;
* ``SimpleFunction``     -- step functions on a fixed partition of [0,1];
  these two share ``Cells``, the calculus of finitely many cells;
* ``FinSupport``         -- finitely supported sequences;
* ``EventuallyConstant`` -- sequences constant from some index on;
* ``PiecewiseLinear``    -- continuous piecewise-linear functions on [0,1];
* ``LogTwo``             -- the numbers a + b ln 2 with rational a and b,
  the range of the alternating series functional.

``LogTwo`` is no space of functions: it has the vector and lattice
calculus and no atoms, pieces or samplers, which the defaults of
``Space`` refuse.  Its order is total and decided exactly, by the sign
of a + b ln 2 (``_ln2_sign``), so it needs no ``leq`` or ``disjoint``
of its own.  The functions at module level are the interface of the
other layers; each dispatches on ``x.space`` (or on the space it is
given).  Scalars are exact rationals, so every order comparison,
supremum and infimum is exact, and every order or disjointness
question gets a ``bool``.  Elements are immutable and kept in a
canonical form that makes equality syntactic.

A scalar of an atomic model is canonical: an ``int`` when it is
integral, a ``fractions.Fraction`` otherwise (see ``q``).  The two
compare and hash alike, so canonical form only saves Fraction
arithmetic where values are integral.  Piecewise-linear payloads stay
all-``Fraction``, so that a bare ``/`` on their abscissae and values is
exact; every other quotient goes through ``div``.  Their calculus
nonetheless runs on integers: ``add``, ``sup``, ``inf``, ``leq`` and
``is_disjoint`` read each payload's numerators and denominators once
and build a ``Fraction`` only for a new value a result keeps, and
``scale`` skips the collinear strip, which a nonzero factor leaves
nothing to do for.  Their references, in ``oracles``, compute the same
functions point by point and share no code with these kernels.

The atomic models decide order in integers too: their suprema,
infima and ``leq`` compare scalars by cross-products of numerators and
denominators (``_qmax``, ``_qmin``, ``_qless``), so no ``Fraction``
comparison runs.

Negation, subtraction, parts and moduli are each function model's own
too (see ``Space``): negation is unary minus, which takes no gcd, and
every such model reads a value's sign off its numerator; the
piecewise-linear parts and modulus add a zero at each sign change
inside a segment, in one walk.  Every model builds the results of its
operations canonical as it goes; ``normalize``, which validates its
input and makes it canonical, is the entry point for input from
outside the program.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    MalformedElement, PreconditionError, SpaceMismatch, Unsupported,
)


def q(value):
    """``value`` as a canonical exact rational: an ``int`` when
    it is integral, a ``Fraction`` otherwise.  Floats are rejected."""
    if type(value) is int:
        return value
    if type(value) is Fraction or isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (int, str)):   # bools and rational literals
        return q(Fraction(value))
    raise MalformedElement(f"not an exact rational: {value!r}")


def div(a, b):
    """The exact quotient a / b, canonical; ``int / int`` never yields
    a float here."""
    return q(Fraction(q(a)) / q(b))


def _canonical(values) -> tuple:
    """``values`` as a tuple of canonical scalars: sums and products of
    Fractions may be integral."""
    return tuple([v if type(v) is int or v.denominator != 1 else v.numerator
                  for v in values])


ZERO = 0
ONE = 1


def _agreement(a, b):
    """Pointwise greatest common fragment: keep a value where both agree."""
    return a if a == b else ZERO


# The parts and modulus of one canonical scalar, read off the sign of
# its numerator: a canonical scalar is an int or a Fraction with a
# positive denominator, so no Fraction comparison is needed.

def _pos(v):
    return v if v.numerator > 0 else ZERO


def _neg(v):
    return -v if v.numerator < 0 else ZERO


def _abs(v):
    return -v if v.numerator < 0 else v


# Order between canonical scalars in integers: int against int directly,
# and where a Fraction takes part by the cross-product of numerators and
# denominators (an int's denominator is 1), so no Fraction comparison
# runs.  The atomic models pick and compare with these.

def _qless(a, b):
    """a < b for canonical scalars a and b."""
    if type(a) is int and type(b) is int:
        return a < b
    return a.numerator * b.denominator < b.numerator * a.denominator


def _qmax(a, b):
    """max(a, b) for canonical scalars; a tie keeps a, as ``max`` does."""
    return b if _qless(a, b) else a


def _qmin(a, b):
    """min(a, b) for canonical scalars; a tie keeps a, as ``min`` does."""
    return b if _qless(b, a) else a


def _scalar_pick(pick):
    """The pick an atomic ``lattice`` applies for ``pick``: the integer
    one for ``max`` or ``min``, any other as it is."""
    return _qmax if pick is max else _qmin if pick is min else pick


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Element:
    """A canonical value of one of the space models; the layout of its
    payload is documented on the class of its space."""

    space: object
    payload: tuple

    # vector-space sugar; the free functions below do the real work
    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return sub(self, other)

    def __neg__(self):
        return scale(-1, self)

    def __rmul__(self, c):
        return scale(c, self)

    def __abs__(self):
        return absolute(self)

    def __le__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return leq(self, other)

    def __ge__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return leq(other, self)

    def __repr__(self):
        return f"Element({format_element(self)})"


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

class Space:
    """A space descriptor together with the calculus of its elements.

    A model has a ``name`` and its own ``normalize``, ``zero``,
    ``one``, ``add``, ``scale``, ``lattice``, ``nonneg``, ``format`` and
    ``key``, and overrides the methods below that its elements support;
    the defaults raise, as they do for ``LogTwo`` on everything past its
    vector, lattice and order calculus.  Methods taking two elements may
    assume both lie in this space.  ``lattice`` applies ``pick`` (max or
    min) pointwise, ``nonneg`` tests x >= 0, ``full_support`` tells
    whether no nonzero element is disjoint from x, and the samplers call
    ``draw()`` for each random scalar they need.

    The rest of the element calculus has defaults built from ``add``,
    ``scale`` and ``lattice``, which stay here as the references a
    model's override is tested against:

    * ``neg``, -x, is ``scale(-1, x)``;
    * ``sub``, x - y, is x + (-y);
    * ``pos_part``, ``neg_part`` and ``absolute`` are the lattice
      formulas sup(x, 0), sup(-x, 0) and sup(x, -x);
    * ``leq`` and ``disjoint`` are ``leq_by_difference`` and
      ``disjoint_by_modulus``.

    The atomic models override all of them and work on their payloads
    directly: a part or modulus reads each value's sign off its
    numerator, and ``lattice`` and ``leq`` compare values by integer
    cross-products (``_qmax``, ``_qmin`` and ``_qless``; ``lattice``
    applies any other pick as it is).  ``PiecewiseLinear`` overrides
    all but ``sub``: its parts and modulus walk the payload once,
    reading signs off numerators and inserting a zero where a segment
    changes sign.  ``LogTwo`` overrides none of them: its ``lattice``
    and ``nonneg`` decide the order, and the defaults do the rest.
    ``subset_table`` and ``image_table`` build the fragment tables that
    the splitting enumeration folds, a list of values by default
    (``ImageTable``).  ``piece_builder`` gives x's support pieces and a
    builder of x on any subset of them.  It is the one way to build an
    element on part of its support, and every finite fragment algebra
    reads it.  By default it reads x's atoms into ``from_atoms``;
    ``PiecewiseLinear`` slices its payload instead.

    Only ``EventuallyConstant`` has truncation levels (``min_level``,
    ``level_walk``), so ``min_level`` refuses by default.  The samplers
    ``random_fragment`` and ``random_split`` draw x's pieces by default.
    """

    atomic = False      # elements are values on atoms 1, 2, 3, ...

    def neg(self, x):
        return self.scale(-1, x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def pos_part(self, x):
        return self.lattice(x, self.zero(), max)

    def neg_part(self, x):
        return self.lattice(self.neg(x), self.zero(), max)

    def absolute(self, x):
        return self.lattice(x, self.neg(x), max)

    def leq(self, x, y) -> bool:
        return leq_by_difference(x, y)

    def disjoint(self, x, y) -> bool:
        return disjoint_by_modulus(x, y)

    def eval_at(self, x, t) -> Fraction:
        raise Unsupported(
            f"cannot evaluate an element of {self.name} at a point")

    def _not_atomic(self, *args):
        raise Unsupported(f"{self.name} is not atomic")

    atom_count = get_atom = from_atoms = support_atoms = _not_atomic

    def support(self, x):
        """The parts the support of x falls into: its nonzero atoms (a
        nonzero tail aside), or its support components."""
        return self.support_atoms(x)

    def piece_builder(self, x):
        """The support pieces of x (``support``) and a builder of x on
        any subset of them: ``build(keep)`` is x on the pieces whose
        indices, increasing, ``keep`` lists, zero elsewhere.  It is the
        one way to build x on part of its support.  This default reads
        x's atoms into ``from_atoms``; ``PiecewiseLinear`` slices its
        payload instead."""
        parts = self.support(x)
        return parts, lambda keep: self.from_atoms(
            {parts[k]: self.get_atom(x, parts[k]) for k in keep}, ZERO)

    def infinite_fragments(self, x) -> bool:
        return False

    def common_fragment(self, x, y) -> Element:
        """On atomic models: the values where x and y agree."""
        return self.lattice(x, y, _agreement)

    def full_support(self, x) -> bool:
        return False

    def random(self, rng, *draws) -> Element:
        raise Unsupported(f"cannot sample from {self!r}")

    random_disjoint_pair = random

    def random_fragment(self, rng, e) -> Element:
        """A fragment of e: each of its pieces kept with probability 1/2."""
        return sum((p for p in pieces(e) if rng.random() < 0.5), self.zero())

    def random_split(self, rng, e, parts) -> list:
        """e as ``parts`` disjoint summands: each piece joins a random one."""
        out = [self.zero()] * parts
        for p in pieces(e):
            k = rng.randrange(parts)
            out[k] = add(out[k], p)
        return out

    def min_level(self, x) -> int:
        """The least truncation level whose fragment set contains x."""
        raise PreconditionError(
            "truncation levels are for eventually constant elements")

    def subset_table(self, pieces) -> "ImageTable":
        """The fragment table of a point whose support pieces have the
        images ``pieces``: entry m is the sum of the pieces whose bit is
        set in m.  A zero piece adds nothing, so its half of the table
        repeats the other half."""
        zero = self.zero()
        table = [zero]
        for piece in pieces:
            table = table + (table if piece == zero
                             else [add(image, piece) for image in table])
        return ImageTable(table)

    def image_table(self, rows) -> "ImageTable":
        """The fragment table whose entries are ``rows``, in mask order."""
        return ImageTable(rows)


class Cells(Space):
    """Finitely many cells with one rational each; the payload is the
    tuple of those values, and the cells are the atoms."""

    atomic = True

    def normalize(self, raw):
        vals = tuple(q(v) for v in raw)
        n = self.atom_count()
        if len(vals) != n:
            raise MalformedElement(f"expected {n} {self.values_are}, got {len(vals)}")
        return Element(self, vals)

    def zero(self):
        return Element(self, (ZERO,) * self.atom_count())

    def one(self):
        return Element(self, (ONE,) * self.atom_count())

    def add(self, x, y):
        # a zero summand is skipped, as 0 + Fraction costs a Fraction
        # sum; on a splitting one side of every cell is zero
        out = []
        for a, b in zip(x.payload, y.payload):
            if not b:
                out.append(a)
            elif not a:
                out.append(b)
            else:
                s = a + b
                out.append(s if type(s) is int or s.denominator != 1
                           else s.numerator)
        return Element(self, tuple(out))

    def sub(self, x, y):
        out = []
        for a, b in zip(x.payload, y.payload):
            if not b:
                out.append(a)
            elif not a:
                out.append(-b)
            else:
                s = a - b
                out.append(s if type(s) is int or s.denominator != 1
                           else s.numerator)
        return Element(self, tuple(out))

    def scale(self, c, x):
        return Element(self, _canonical(c * v for v in x.payload))

    def neg(self, x):
        return Element(self, tuple([-v for v in x.payload]))

    def lattice(self, x, y, pick):
        return Element(self, tuple(map(_scalar_pick(pick), x.payload,
                                       y.payload)))

    def pos_part(self, x):
        return Element(self, tuple(map(_pos, x.payload)))

    def neg_part(self, x):
        return Element(self, tuple(map(_neg, x.payload)))

    def absolute(self, x):
        return Element(self, tuple(map(_abs, x.payload)))

    def nonneg(self, x):
        return all(v.numerator >= 0 for v in x.payload)

    def leq(self, x, y):
        return not any(map(_qless, y.payload, x.payload))

    def disjoint(self, x, y):
        return all(a == 0 or b == 0 for a, b in zip(x.payload, y.payload))

    def get_atom(self, x, i):
        n = self.atom_count()
        if not 1 <= i <= n:
            raise MalformedElement(f"atom {i} outside 1..{n}")
        return x.payload[i - 1]

    def from_atoms(self, values, tail):
        n = self.atom_count()
        vals = [ZERO] * n
        for i, v in values.items():
            if not 1 <= i <= n:
                raise MalformedElement(f"atom {i} outside 1..{n}")
            vals[i - 1] = q(v)
        return Element(self, tuple(vals))

    def support_atoms(self, x):
        return [i + 1 for i, v in enumerate(x.payload) if v != 0]

    def full_support(self, x):
        return all(v != 0 for v in x.payload)

    def random(self, rng, draw):
        return normalize(self, [draw() for _ in range(self.atom_count())])

    def random_disjoint_pair(self, rng, draw, draw_nonzero):
        n = self.atom_count()
        u, v = [ZERO] * n, [ZERO] * n
        for i in range(n):
            side = rng.choice("uvn")
            if side == "u":
                u[i] = draw()
            elif side == "v":
                v[i] = draw()
        return normalize(self, u), normalize(self, v)

    def key(self, x):
        return x.payload

    # fragment tables as integer columns; see ``CellColumns``
    def _cells_of(self, elements):
        """The values of ``elements`` cell by cell."""
        if not elements:
            return [()] * self.atom_count()
        return zip(*[x.payload for x in elements])

    def subset_table(self, pieces):
        dens, cols = [], []
        for values in self._cells_of(pieces):
            den, nums = _over_common_denominator(values)
            col = [ZERO]
            for a in nums:
                col = col + (col if not a else [v + a for v in col])
            dens.append(den)
            cols.append(col)
        return CellColumns(self, tuple(dens), cols)

    def image_table(self, rows):
        dens, cols = zip(*map(_over_common_denominator,
                              self._cells_of(list(rows))))
        return CellColumns(self, dens, list(cols))


@dataclass(frozen=True)
class Coordinate(Cells):
    """R^n with the coordinatewise order."""

    n: int
    values_are = "coordinates"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise MalformedElement("coordinate space needs an integer n >= 1")

    @property
    def name(self):
        return f"coord({self.n})"

    def atom_count(self):
        return self.n

    def format(self, x):
        return "coord[%s]" % ",".join(str(v) for v in x.payload)


@dataclass(frozen=True)
class SimpleFunction(Cells):
    """Step functions on [0,1] over a fixed partition 0 = t0 < ... < tm = 1."""

    partition: tuple
    values_are = "cell values"

    def __post_init__(self):
        pts = tuple(q(t) for t in self.partition)
        object.__setattr__(self, "partition", pts)
        if len(pts) < 2 or pts[0] != 0 or pts[-1] != 1:
            raise MalformedElement("partition must run from 0 to 1")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise MalformedElement("partition endpoints must strictly increase")

    @property
    def cells(self) -> int:
        return len(self.partition) - 1

    @property
    def name(self):
        return "simple{%s}" % ",".join(str(t) for t in self.partition)

    def atom_count(self):
        return self.cells

    def eval_at(self, x, t):
        if not 0 <= t <= 1:
            raise MalformedElement(f"abscissa {t} outside [0,1]")
        for k in range(self.cells):
            if t < self.partition[k + 1] or k == self.cells - 1:
                return x.payload[k]

    def format(self, x):
        return "%s[%s]" % (self.name, ",".join(str(v) for v in x.payload))


@dataclass(frozen=True)
class FinSupport(Space):
    """Finitely supported sequences indexed by 1, 2, 3, ...; the payload
    is the sorted tuple of (index, nonzero rational) pairs."""

    name = "fin"
    atomic = True

    def normalize(self, raw):
        pairs = []
        seen = set()
        for item in raw:
            i, v = item
            if not isinstance(i, int) or i < 1:
                raise MalformedElement(f"index must be a positive int: {i!r}")
            if i in seen:
                raise MalformedElement(f"duplicate index {i}")
            seen.add(i)
            v = q(v)
            if v != 0:
                pairs.append((i, v))
        pairs.sort()
        return Element(self, tuple(pairs))

    def zero(self):
        return Element(self, ())

    def one(self):
        raise Unsupported("finitely supported sequences have no order unit")

    # Results are built canonical: sorted by index, zeros dropped, every
    # new sum or product made canonical; ``normalize`` is for input
    # from outside the program.

    def add(self, x, y):
        return self._accumulate(x, y, False)

    def sub(self, x, y):
        return self._accumulate(x, y, True)

    def _accumulate(self, x, y, minus):
        """x + y, or x - y when ``minus``."""
        acc = dict(x.payload)
        for i, v in y.payload:
            if minus:
                v = -v
            if i in acc:
                s = acc[i] + v
                if s:
                    acc[i] = (s if type(s) is int or s.denominator != 1
                              else s.numerator)
                else:
                    del acc[i]
            else:
                acc[i] = v
        return Element(self, tuple(sorted(acc.items())))

    def scale(self, c, x):
        if not c:
            return Element(self, ())
        out = []
        for i, v in x.payload:
            p = c * v
            out.append((i, p if type(p) is int or p.denominator != 1
                        else p.numerator))
        return Element(self, tuple(out))

    def neg(self, x):
        return Element(self, tuple([(i, -v) for i, v in x.payload]))

    def lattice(self, x, y, pick):
        pick = _scalar_pick(pick)
        xs, ys = dict(x.payload), dict(y.payload)
        out = []
        for i in sorted(xs.keys() | ys.keys()):
            v = pick(xs.get(i, ZERO), ys.get(i, ZERO))
            if v:
                out.append((i, v))
        return Element(self, tuple(out))

    def pos_part(self, x):
        return Element(self, tuple([(i, v) for i, v in x.payload
                                    if v.numerator > 0]))

    def neg_part(self, x):
        return Element(self, tuple([(i, -v) for i, v in x.payload
                                    if v.numerator < 0]))

    def absolute(self, x):
        return Element(self, tuple([(i, _abs(v)) for i, v in x.payload]))

    def nonneg(self, x):
        return all(v.numerator >= 0 for _, v in x.payload)

    def leq(self, x, y):
        xs, ys = dict(x.payload), dict(y.payload)
        return not any(_qless(ys.get(i, ZERO), xs.get(i, ZERO))
                       for i in xs.keys() | ys.keys())

    def disjoint(self, x, y):
        # payloads hold nonzero values only
        return dict(x.payload).keys().isdisjoint(i for i, _ in y.payload)

    def atom_count(self):
        return None

    def get_atom(self, x, i):
        return dict(x.payload).get(i, ZERO)

    def from_atoms(self, values, tail):
        return normalize(self, values.items())

    def support_atoms(self, x):
        return [i for i, _ in x.payload]

    def random(self, rng, draw):
        idx = rng.sample(range(1, 13), rng.randint(0, 4))
        return normalize(self, [(i, draw()) for i in idx])

    def random_disjoint_pair(self, rng, draw, draw_nonzero):
        idx = rng.sample(range(1, 13), rng.randint(0, 6))
        u, v = {}, {}
        for i in idx:
            (u if rng.random() < 0.5 else v)[i] = draw()
        return normalize(self, u.items()), normalize(self, v.items())

    def format(self, x):
        return "fin{%s}" % ",".join(f"({i},{v})" for i, v in x.payload)

    def key(self, x):
        return x.payload


@dataclass(frozen=True)
class EventuallyConstant(Space):
    """Sequences that are constant from some index on; the payload is
    (prefix tuple, tail rational) with the shortest prefix."""

    name = "ec"
    atomic = True

    def normalize(self, raw):
        prefix, tail = raw
        tail = q(tail)
        vals = [q(v) for v in prefix]
        vals.append(tail)
        return self._element(vals)

    def _element(self, vals):
        """The element whose values are the canonical scalars ``vals``,
        the last of them its tail: the prefix is cut after its last
        value that differs from the tail.  ``normalize`` and every
        operation that can leave such a value build their results
        here."""
        tail = vals[-1]
        n = len(vals) - 1
        while n and vals[n - 1] == tail:
            n -= 1
        return Element(self, (tuple(vals[:n]), tail))

    def zero(self):
        return Element(self, ((), ZERO))

    def one(self):
        return Element(self, ((), ONE))

    def _columns(self, x, y):
        """The values of x and y up to the longer prefix, each followed
        by its tail."""
        (px, tx), (py, ty) = x.payload, y.payload
        n = len(px) - len(py)
        if n > 0:
            py += (ty,) * n
        elif n < 0:
            px += (tx,) * -n
        return px + (tx,), py + (ty,)

    def add(self, x, y):
        return self._element(_canonical(map(operator.add,
                                            *self._columns(x, y))))

    def sub(self, x, y):
        return self._element(_canonical(map(operator.sub,
                                            *self._columns(x, y))))

    def scale(self, c, x):
        if not c:
            return self.zero()
        # a nonzero factor is one to one, so the prefix stays the shortest
        vals = _canonical([c * v for v in x.payload[0] + (x.payload[1],)])
        return Element(self, (vals[:-1], vals[-1]))

    def neg(self, x):
        # negation is one to one, so the prefix stays the shortest
        prefix, tail = x.payload
        return Element(self, (tuple([-v for v in prefix]), -tail))

    def lattice(self, x, y, pick):
        return self._element(tuple(map(_scalar_pick(pick),
                                       *self._columns(x, y))))

    def _parts(self, x, part):
        """x with ``part`` (``_pos``, ``_neg`` or ``_abs``) applied to
        each value, its tail included."""
        prefix, tail = x.payload
        return self._element([part(v) for v in prefix] + [part(tail)])

    def pos_part(self, x):
        return self._parts(x, _pos)

    def neg_part(self, x):
        return self._parts(x, _neg)

    def absolute(self, x):
        return self._parts(x, _abs)

    def nonneg(self, x):
        prefix, tail = x.payload
        return tail.numerator >= 0 and all(v.numerator >= 0 for v in prefix)

    def leq(self, x, y):
        xs, ys = self._columns(x, y)
        return not any(map(_qless, ys, xs))

    def disjoint(self, x, y):
        return all(a == 0 or b == 0 for a, b in zip(*self._columns(x, y)))

    def atom_count(self):
        return None

    def get_atom(self, x, i):
        prefix, tail = x.payload
        return prefix[i - 1] if i <= len(prefix) else tail

    def from_atoms(self, values, tail):
        m = max(values) if values else 0
        return normalize(
            self, ([q(values.get(i, tail)) for i in range(1, m + 1)], tail))

    def support_atoms(self, x):
        prefix, _ = x.payload
        return [i + 1 for i, v in enumerate(prefix) if v != 0]

    def infinite_fragments(self, x):
        return x.payload[1] != 0

    def min_level(self, x):
        return len(x.payload[0])

    def level_walk(self, e, level, window=None):
        """(l, atoms, w) for each level l from min_level(e) on, for e
        with a nonzero tail: the atoms of e that join the truncated
        fragments at l, and w, the tail of e beyond l.  Each fragment
        at level l is a sum of atoms yielded so far plus 0 or w, so
        folds over the fragments can go atom by atom.  The atoms after
        the first level and every w are built as canonical payloads:
        the unit atom at l carries the tail of e, and w is l zeros and
        the tail.

        Without a ``window`` the walk runs through ``level``.  With the
        window of the operators folded (``Operator.window``) it stops
        at the cut max(window, min_level(e)), if that comes first: past
        it every new atom maps to 0 and every w to one fixed image, so
        the fold stays constant, and ``lateral.extend_levels`` copies
        its last row."""
        _, tail = e.payload
        start = self.min_level(e)
        stop = level if window is None else min(level, max(window, start))
        yield start, pieces(e), Element(self, ((ZERO,) * start, tail))
        zeros = (ZERO,) * start
        for l in range(start + 1, stop + 1):
            atom = Element(self, (zeros + (tail,), ZERO))
            zeros += (ZERO,)
            yield l, [atom], Element(self, (zeros, tail))

    def full_support(self, x):
        prefix, tail = x.payload
        return tail != 0 and all(v != 0 for v in prefix)

    def random(self, rng, draw):
        prefix = [draw() for _ in range(rng.randint(0, 4))]
        return normalize(self, (prefix, draw()))

    def random_disjoint_pair(self, rng, draw, draw_nonzero):
        # at most one side may carry a nonzero tail
        tail_side = rng.choice("uvn")
        tu = draw_nonzero() if tail_side == "u" else ZERO
        tv = draw_nonzero() if tail_side == "v" else ZERO
        u_vals, v_vals = [], []
        for _ in range(6):
            side = rng.choice("uvn")
            u_vals.append(draw() if side == "u" else ZERO)
            v_vals.append(draw() if side == "v" else ZERO)
        return normalize(self, (u_vals, tu)), normalize(self, (v_vals, tv))

    def random_fragment(self, rng, e):
        prefix, tail = e.payload
        span = len(prefix) + rng.randint(0, 2)
        t = tail if (tail != 0 and rng.random() < 0.5) else ZERO
        vals = [get_atom(e, i) if rng.random() < 0.5 else ZERO
                for i in range(1, span + 1)]
        return normalize(self, (vals, t))

    def random_split(self, rng, e, parts):
        if not self.infinite_fragments(e):
            return super().random_split(rng, e, parts)
        prefix, tail = e.payload
        owner = rng.randrange(parts)  # who inherits the tail
        assign = [rng.randrange(parts) for _ in prefix]
        out = []
        for k in range(parts):
            vals = [v if a == k else ZERO for v, a in zip(prefix, assign)]
            out.append(normalize(self, (vals, tail if k == owner else ZERO)))
        return out

    def format(self, x):
        prefix, tail = x.payload
        return "ec[%s|%s]" % (",".join(str(v) for v in prefix), tail)

    def key(self, x):
        prefix, tail = x.payload
        return (tail,) + prefix


# --- piecewise-linear kernels ----------------------------------------------

# Piecewise-linear payloads hold Fractions only, never ints: their
# abscissae and values are divided with a bare ``/`` here and by callers.
_PL_ZERO = Fraction(0)
_PL_ONE = Fraction(1)


def _pl_q(value) -> Fraction:
    """``value`` as an exact ``Fraction``; floats are rejected."""
    if type(value) is Fraction:
        return value
    return Fraction(value if type(value) is int else q(value))


# The integer kernel works on rows (t, tn, td, vn, vd, v): a point
# (t, vn/vd) with t = tn/td, both denominators > 0 and vn/vd not
# necessarily reduced, and v the value's Fraction when one exists, else
# None.  Only the points a result keeps get a Fraction, built once.

def _pl_rows(pts):
    """The rows of the Fraction points ``pts``."""
    rows = []
    for t, v in pts:
        tn, td = t.as_integer_ratio()
        vn, vd = v.as_integer_ratio()
        rows.append((t, tn, td, vn, vd, v))
    return rows


def _pl_strip_collinear(rows):
    """The payload of ``rows`` without the interior points that lie on
    a straight line.

    The rows have strictly increasing t from 0 to 1.  The PL results of
    ``add``, ``lattice`` and the parts and modulus (``_parts``) hold
    this by construction, so they are made canonical here alone and skip
    ``normalize``, which stays the entry point for input from outside
    the program.  A fragment sliced by ``piece_builder`` keeps x's own
    slopes and needs no strip.

    A point is kept while the slope into it differs from the slope out
    of it.  Slopes are integer pairs: from (b, yb) to (t, v), with
    every coordinate written n/d (d > 0), the slope is
    (v - yb)/(t - b) = ((vn*ybd - ybn*vd)*td*bd) / ((tn*bd - bn*td)*vd*ybd).
    Dropping b leaves the slope from the point before it unchanged, and
    that slope differs from the one before, so one comparison per point
    suffices.
    """
    out = [rows[0]]
    _, bn, bd, ybn, ybd, _ = rows[0]
    sn, sd = 1, 0                   # no segment yet: compares unequal
    for k in range(1, len(rows)):
        row = rows[k]
        _, tn, td, vn, vd, _ = row
        rn = (vn * ybd - ybn * vd) * td * bd
        rd = (tn * bd - bn * td) * vd * ybd
        if rn * sd == sn * rd:
            out[-1] = row
        else:
            out.append(row)
            sn, sd = rn, rd
        bn, bd, ybn, ybd = tn, td, vn, vd
    return tuple([(t, Fraction(vn, vd) if v is None else v)
                  for t, _, _, vn, vd, v in out])


def _pl_merge_ints(x: Element, y: Element):
    """Both operands on the union of their breakpoints, in integers.

    Returns one row (t, tn, td, xn, xd, fx, yn, yd, fy) per merged
    abscissa t = tn/td: x is xn/xd there (xd > 0, not reduced) and fx
    is x's own value Fraction when t is a breakpoint of x, else None;
    likewise for y.  The other operand is interpolated on its segment
    (a, b) around t as (ya*(b-t) + yb*(t-a)) / (b-a), in integer
    products and without a gcd.  Both payloads run from t=0 to t=1, so
    the walk ends on both at once.
    """
    rx, ry = _pl_rows(x.payload), _pl_rows(y.payload)
    out = []
    i = j = 0
    n = len(rx)
    while i < n:
        tx, txn, txd, xn, xd, fx = rx[i]
        ty, tyn, tyd, yn, yd, fy = ry[j]
        c = tyn * txd - txn * tyd       # (ty - tx) * txd * tyd
        if c == 0:                      # Fractions are reduced
            out.append((tx, txn, txd, xn, xd, fx, yn, yd, fy))
            i += 1
            j += 1
        elif c > 0:
            _, an, ad, yan, yad, _ = ry[j - 1]
            P = c * ad                          # (ty - tx) * tyd * txd * ad
            S = (txn * ad - an * txd) * tyd     # (tx - a) * txd * ad * tyd
            out.append((tx, txn, txd, xn, xd, fx,
                        yan * yd * P + yn * yad * S, yad * yd * (P + S), None))
            i += 1
        else:
            _, an, ad, xan, xad, _ = rx[i - 1]
            P = -c * ad
            S = (tyn * ad - an * tyd) * txd
            out.append((ty, tyn, tyd, xan * xd * P + xn * xad * S,
                        xad * xd * (P + S), None, yn, yd, fy))
            j += 1
    return out


def _pl_crossing(a, b, da, db):
    """The row where x - y vanishes between the merged rows a and b.

    x - y is da / (xd * yd) at row a and db / (xd * yd) at row b, each
    over that row's denominators; da and db have strictly opposite
    signs, and x - y is linear between.  It vanishes a fraction
    r = p / (p + s) of the way from a to b, and t and x there are the
    weighted means (a * s + b * p) / (p + s).  Only t gets a Fraction.
    """
    _, tan, tad, xan, xad, _, _, yad, _ = a
    _, tbn, tbd, xbn, xbd, _, _, ybd, _ = b
    p, s = da * xbd * ybd, -db * xad * yad
    if p < 0:
        p, s = -p, -s
    w = p + s
    t = Fraction(tan * tbd * s + tbn * tad * p, tad * tbd * w)
    return (t, t.numerator, t.denominator,
            xan * xbd * s + xbn * xad * p, xad * xbd * w, None)


def _pl_zero_between(a, ya, b, yb):
    """The abscissa where the segment from (a, ya) to (b, yb), whose end
    values have strictly opposite signs, crosses zero.  With each
    coordinate n/d it is
    a + (b - a) * ya / (ya - yb)
      = (bn*ad*yan*ybd - an*bd*ybn*yad) / (ad*bd*(yan*ybd - ybn*yad)),
    the one ``Fraction`` built."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    yan, yad = ya.numerator, ya.denominator
    ybn, ybd = yb.numerator, yb.denominator
    return Fraction(bn * ad * yan * ybd - an * bd * ybn * yad,
                    ad * bd * (yan * ybd - ybn * yad))


def _pl_component_walk(pts):
    """The support components of the payload ``pts``, in one walk on
    the signs of its value numerators: (start, end, i, j) for each, with
    pts[i:j] its breakpoints strictly inside (start, end).

    A component ends at a zero of x, or at t=1; it starts at t=0 or at
    the end of a run where x vanishes.  Only a sign change strictly
    inside a segment, which ends one component and starts the next,
    builds a ``Fraction``: its abscissa, ``_pl_zero_between``.  The
    reference is ``oracles.pl_components_by_crossing``.
    """
    comps = []
    last = len(pts) - 1
    start = None
    a, ya = pts[0]
    sa = ya.numerator
    for k in range(1, last + 1):
        b, yb = pts[k]
        sb = yb.numerator
        if not sa and not sb:
            if start is not None:
                comps.append((start, a, first, k - 1))
                start = None
        else:
            if start is None:
                start, first = a, k
            if (sa < 0 < sb) or (sb < 0 < sa):
                cross = _pl_zero_between(a, ya, b, yb)
                comps.append((start, cross, first, k))
                start, first = cross, k
            elif not sb and k != last:
                comps.append((start, b, first, k))
                start = None
        a, ya, sa = b, yb, sb
    if start is not None:
        comps.append((start, a, first, last))
    return comps


def _pl_slice(pts, comps, keep):
    """The payload of x on its support components comps[k], k in
    ``keep`` (increasing), zero elsewhere; ``comps`` is the walk of x's
    payload ``pts`` (``_pl_component_walk``).

    Each kept component is the slice pts[i:j] between its two ends, an
    end taking x's own point at t=0 or t=1 and a zero elsewhere; a gap
    before, between or after them is zero.  Two kept components that
    follow each other in the walk may share an end: a zero breakpoint of
    x (j + 1 == i of the next), kept, or a crossing inside a segment of
    x (j == i of the next), dropped, since the points around it lie on
    that one segment.  Every other point keeps its neighbours' slopes
    from x, so the payload is canonical with no strip, and the only
    tests on abscissae are integer ones: t=0 has a zero numerator, and
    in (0, 1] only t=1 has denominator 1.
    """
    out = []
    before = None                   # the walk index of the last kept one
    for k in keep:
        s, e, i, j = comps[k]
        if before == k - 1 and comps[before][3] + 1 >= i:
            if comps[before][3] == i:   # a crossing: drop the zero
                out.pop()
        elif not s.numerator:
            out.append(pts[0])
        else:
            if not out:
                out.append((_PL_ZERO, _PL_ZERO))
            out.append((s, _PL_ZERO))
        out.extend(pts[i:j])
        out.append(pts[-1] if e.denominator == 1 else (e, _PL_ZERO))
        before = k
    if not out:
        return ((_PL_ZERO, _PL_ZERO), (_PL_ONE, _PL_ZERO))
    if out[-1][0].denominator != 1:
        out.append((_PL_ONE, _PL_ZERO))
    return tuple(out)


@dataclass(frozen=True)
class PiecewiseLinear(Space):
    """Continuous piecewise-linear functions on [0,1] with rational
    breakpoints; the payload is the sorted ((t, value), ...) including
    t=0 and t=1, with no collinear interior breakpoints, every entry a
    ``Fraction``.

    ``add``, ``lattice``, ``leq`` and ``disjoint`` run on
    ``_pl_merge_ints``: both operands on the union of their breakpoints,
    as integer numerators and denominators.  Signs, picks and zero
    tests are integer cross-products, interpolation takes no gcd, and a
    result builds a ``Fraction`` only for a value it keeps that is not
    already an input's (a sum, an interpolated pick or a crossing).
    The payload stays all-``Fraction`` so that callers may divide it
    with a bare ``/``.  The support pieces are the components of
    ``_pl_component_walk``, and x on some of them is a slice of its
    payload (``piece_builder``).  The references of the model's
    operations evaluate the operands point by point (``oracles.pl_*``);
    the slicer's is ``oracles.pl_restrict``, which restricts x to any
    closed intervals."""

    name = "pl"
    # interior abscissae the samplers draw breakpoints from
    sample_points = tuple(Fraction(k, 8) for k in range(1, 8))

    def normalize(self, raw):
        pts = sorted((_pl_q(t), _pl_q(v)) for t, v in raw)
        if not pts or pts[0][0] != 0 or pts[-1][0] != 1:
            raise MalformedElement("breakpoints must include t=0 and t=1")
        dedup = [pts[0]]
        for t, v in pts[1:]:
            if t == dedup[-1][0]:
                if v != dedup[-1][1]:
                    raise MalformedElement(f"two values at t={t}")
                continue
            dedup.append((t, v))
        return Element(self, _pl_strip_collinear(_pl_rows(dedup)))

    def zero(self):
        return Element(self, ((_PL_ZERO, _PL_ZERO), (_PL_ONE, _PL_ZERO)))

    def one(self):
        return Element(self, ((_PL_ZERO, _PL_ONE), (_PL_ONE, _PL_ONE)))

    def add(self, x, y):
        rows = []
        for t, tn, td, xn, xd, fx, yn, yd, fy in _pl_merge_ints(x, y):
            if not yn and fx is not None:       # x + 0 is x's own value
                rows.append((t, tn, td, xn, xd, fx))
            elif not xn and fy is not None:
                rows.append((t, tn, td, yn, yd, fy))
            else:
                rows.append((t, tn, td, xn * yd + yn * xd, xd * yd, None))
        return Element(self, _pl_strip_collinear(rows))

    def scale(self, c, x):
        # c != 0 keeps collinear points collinear and the rest not, so
        # the payload stays canonical without a strip
        if not c:
            return self.zero()
        return Element(self, tuple([(t, v * c) for t, v in x.payload]))

    def neg(self, x):
        return Element(self, tuple([(t, -v) for t, v in x.payload]))

    def lattice(self, x, y, pick):
        """``pick`` is max or min.  The sign of x - y at each merged
        abscissa is an integer cross-product.  A crossing abscissa is
        inserted exactly where it changes sign strictly inside a merged
        segment; touching at a segment endpoint contributes nothing
        new.  At a tie the side that has a value Fraction is kept."""
        hi = pick is max
        rows = []
        prev, da = None, 0
        for row in _pl_merge_ints(x, y):
            t, tn, td, xn, xd, fx, yn, yd, fy = row
            db = xn * yd - yn * xd          # (x - y) * xd * yd
            if da * db < 0:
                rows.append(_pl_crossing(prev, row, da, db))
            take_x = fy is None if db == 0 else (db > 0) == hi
            rows.append((t, tn, td, xn, xd, fx) if take_x
                        else (t, tn, td, yn, yd, fy))
            prev, da = row, db
        return Element(self, _pl_strip_collinear(rows))

    def _parts(self, x, part):
        """x with ``part`` (``_pos``, ``_neg`` or ``_abs``) applied to
        each breakpoint value, and a zero inserted at the crossing of
        each segment whose end values have strictly opposite signs: the
        part is linear between these points, so they determine it.  One
        walk, with signs read off the numerators."""
        rows = []
        a, ya = x.payload[0]
        sa = 0
        for t, v in x.payload:
            s = v.numerator
            if (sa < 0 < s) or (s < 0 < sa):
                c = _pl_zero_between(a, ya, t, v)
                rows.append((c, c.numerator, c.denominator, 0, 1, _PL_ZERO))
            w = part(v) or _PL_ZERO         # payloads hold no int zero
            rows.append((t, t.numerator, t.denominator,
                         w.numerator, w.denominator, w))
            a, ya, sa = t, v, s
        return Element(self, _pl_strip_collinear(rows))

    def pos_part(self, x):
        return self._parts(x, _pos)

    def neg_part(self, x):
        return self._parts(x, _neg)

    def absolute(self, x):
        return self._parts(x, _abs)

    def nonneg(self, x):
        # x is linear between its breakpoints, so checking the
        # breakpoint values suffices
        return all(v.numerator >= 0 for _, v in x.payload)

    # On each segment between merged breakpoints both operands are
    # linear, so order and disjointness are decided at its ends.

    def leq(self, x, y):
        return all(xn * yd <= yn * xd
                   for _, _, _, xn, xd, _, yn, yd, _ in _pl_merge_ints(x, y))

    def disjoint(self, x, y):
        """Where neither operand vanishes on a whole segment, both are
        nonzero on a subinterval of it."""
        rows = _pl_merge_ints(x, y)
        return all((not a[3] and not b[3]) or (not a[6] and not b[6])
                   for a, b in zip(rows, rows[1:]))

    def eval_at(self, x, t):
        pts = x.payload
        if not 0 <= t <= 1:
            raise MalformedElement(f"abscissa {t} outside [0,1]")
        for (a, ya), (b, yb) in zip(pts, pts[1:]):
            if a <= t <= b:
                if t == a:
                    return ya
                return ya + (yb - ya) * (t - a) / (b - a)

    def support(self, x):
        """The support components of x, as (start, end) pairs.  Their
        ends are zeros of x except at the domain endpoints 0 and 1,
        where x itself may be nonzero."""
        return [(a, b) for a, b, _, _ in _pl_component_walk(x.payload)]

    def piece_builder(self, x):
        """The support components of x, and a builder that slices x's
        payload at them (``_pl_slice``): one component walk, and no
        interpolation or strip.  ``oracles.pl_restrict`` on the kept
        components is the reference."""
        pts = x.payload
        comps = _pl_component_walk(pts)
        return ([(a, b) for a, b, _, _ in comps],
                lambda keep: Element(self, _pl_slice(pts, comps, keep)))

    def common_fragment(self, x, y):
        """The support components shared, as intervals and values.

        x and y agree on a component of both when they have the same
        breakpoints strictly inside it (canonical payloads have no
        collinear ones) and the same values at its ends.  An end inside
        (0, 1) is a zero of both, so only an end at 0 or 1 compares
        values.  Components are matched on the integer numerators and
        denominators of their ends.  x itself is the result when every
        component of x is kept, and otherwise the slices of x at the
        kept ones (``_pl_slice``);
        ``oracles.pl_common_fragment_by_restriction`` restricts both
        operands to every component instead and is the reference."""
        px, py = x.payload, y.payload
        theirs = {(a.numerator, a.denominator, b.numerator, b.denominator):
                  py[i:j] for a, b, i, j in _pl_component_walk(py)}
        comps = _pl_component_walk(px)
        keep = [k for k, (a, b, i, j) in enumerate(comps)
                if theirs.get((a.numerator, a.denominator,
                               b.numerator, b.denominator)) == px[i:j]
                and (a.numerator or px[0][1] == py[0][1])
                and (b.denominator != 1 or px[-1][1] == py[-1][1])]
        if len(keep) == len(comps):
            return x
        return Element(self, _pl_slice(px, comps, keep))

    def full_support(self, x):
        # a nonzero disjoint partner needs an interval of zeros
        return all(not (ya == 0 and yb == 0)
                   for (_, ya), (_, yb) in zip(x.payload, x.payload[1:]))

    def random(self, rng, draw):
        ts = sorted(rng.sample(self.sample_points, rng.randint(0, 4)))
        pts = [(ZERO, draw())] + [(t, draw()) for t in ts] + [(ONE, draw())]
        return normalize(self, pts)

    def random_disjoint_pair(self, rng, draw, draw_nonzero):
        # tents on (0, a) and (b, 1) with a < b
        a, b = sorted(rng.sample(self.sample_points, 2))
        u = [(ZERO, ZERO), (a / 2, draw()), (a, ZERO), (ONE, ZERO)]
        v = [(ZERO, ZERO), (b, ZERO), ((b + 1) / 2, draw()), (ONE, ZERO)]
        return normalize(self, u), normalize(self, v)

    def format(self, x):
        return "pl{%s}" % ",".join(f"({t},{v})" for t, v in x.payload)

    def key(self, x):
        return tuple(pair for pt in x.payload for pair in pt)


# --- the range of the series functional -------------------------------------

def ln2_enclosure(eps) -> tuple:
    """Rational bounds (lo, hi) with lo < ln 2 < hi and hi - lo <= eps,
    from ln 2 = sum of 1/(n 2^n): the remainder after n terms is below
    1/((n+1) 2^n)."""
    eps = q(eps)
    if eps <= 0:
        raise PreconditionError("enclosure width must be positive")
    n = 1
    while (n + 1) * 2 ** n * eps.numerator < eps.denominator:
        n += 1
    return _ln2_bounds(n)


@functools.lru_cache(maxsize=64)
def _ln2_bounds(n: int) -> tuple:
    """The partial sum of the first n terms of ln 2 = sum of 1/(k 2^k),
    and that sum plus the bound on the remainder."""
    partial = sum(Fraction(1, k * 2 ** k) for k in range(1, n + 1))
    return partial, partial + Fraction(1, (n + 1) * 2 ** n)


_LN2_FIRST_BITS = 16               # the width 2^-16 of the first enclosure


def _ln2_sign(a, b) -> int:
    """The sign, -1, 0 or 1, of a + b ln 2 for canonical scalars a, b.

    For b = 0 it is the sign of a.  Otherwise a + b ln 2 is not 0, since
    ln 2 is irrational, and it lies strictly between its values at the
    ends of an enclosure of ln 2; the enclosure is narrowed, its bits
    doubled each round, until those two values share a sign.  Signs are
    read off integer cross-products."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    if not bn:
        return (an > 0) - (an < 0)
    bits = _LN2_FIRST_BITS
    while True:
        lo, hi = ln2_enclosure(Fraction(1, 1 << bits))
        at_lo = an * bd * lo.denominator + bn * ad * lo.numerator
        at_hi = an * bd * hi.denominator + bn * ad * hi.numerator
        if at_lo >= 0 and at_hi >= 0:
            return 1
        if at_lo <= 0 and at_hi <= 0:
            return -1
        bits *= 2


@dataclass(frozen=True)
class LogTwo(Space):
    """The numbers a + b ln 2 with rational a and b, the range of the
    alternating series functional; the payload is the pair (a, b) of
    canonical scalars.

    As a subset of the reals it is totally ordered, so it is a Riesz
    space over the rationals; it is Archimedean but not Dedekind
    complete.  A value is exact: order is decided by the sign of a
    difference, ``_ln2_sign``, which ``lattice`` and ``nonneg`` read.
    Negation, subtraction, the parts and the modulus, ``leq`` and
    ``disjoint`` are the ``Space`` defaults."""

    name = "ln2"

    def normalize(self, raw):
        a, b = raw
        return Element(self, (q(a), q(b)))

    def zero(self):
        return Element(self, (ZERO, ZERO))

    def one(self):
        return Element(self, (ONE, ZERO))

    def add(self, x, y):
        return Element(self, _canonical(map(operator.add, x.payload,
                                            y.payload)))

    def scale(self, c, x):
        return Element(self, _canonical([c * v for v in x.payload]))

    def lattice(self, x, y, pick):
        # one operand is the result, as the order is total; a tie keeps
        # x, as ``max`` and ``min`` do
        (a, b), (c, d) = x.payload, y.payload
        s = _ln2_sign(a - c, b - d)
        return x if pick(s, 0) == s else y

    def nonneg(self, x):
        return _ln2_sign(*x.payload) >= 0

    def format(self, x):
        a, b = x.payload
        if not b:
            return str(a)
        term = "ln2" if abs(b) == 1 else f"{abs(b)}*ln2"
        if not a:
            return term if b > 0 else f"-{term}"
        return f"{a} {'+' if b > 0 else '-'} {term}"

    def key(self, x):
        return x.payload


# ---------------------------------------------------------------------------
# fragment tables: one value per mask of a point's support pieces
# ---------------------------------------------------------------------------

class ImageTable:
    """A fragment table: the values of a space indexed by the masks of
    the support pieces of a point, as the splitting enumeration of the
    operator lattice folds them.  This general form keeps a list of the
    values; a ``Cells`` space keeps integer columns (``CellColumns``)
    with the same interface:

    * ``t + u`` adds two tables of one space entrywise;
    * ``t.complement()`` is the table at the complementary masks, entry
      m being ``t[full ^ m]``, which is ``t`` in reverse;
    * ``t.extremum(pick)``, with pick ``max`` or ``min``, folds the
      entries to their supremum or infimum and returns it together with
      the masks, in order, of the entries equal to it;
    * ``len(t)``, ``t[m]`` and iteration give the entries.
    """

    def __init__(self, rows):
        self.rows = list(rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, mask):
        return self.rows[mask]

    def __iter__(self):
        return iter(self.rows)

    def __add__(self, other):
        return ImageTable(map(add, self.rows, other.rows))

    def complement(self):
        return ImageTable(self.rows[::-1])

    def extremum(self, pick):
        fold = functools.reduce(lambda a, b: a.space.lattice(a, b, pick),
                                self.rows)
        return fold, [m for m, v in enumerate(self.rows) if v == fold]


def _over_common_denominator(values):
    """A common denominator of the rationals ``values`` and their
    numerators over it."""
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return 1, list(values)
    return den, [v.numerator * (den // v.denominator) for v in values]


def _ratio(num: int, den: int):
    """The canonical scalar num / den."""
    return num if den == 1 else q(Fraction(num, den))


class CellColumns:
    """A fragment table of a ``Cells`` space as one integer column per
    cell: cell c of entry m is ``cols[c][m] / dens[c]``.  Sums and the
    fold run on the numerators, and an element is built only for an
    entry that is asked for and for the fold; see ``ImageTable`` for the
    interface."""

    __slots__ = ("space", "dens", "cols")

    def __init__(self, space, dens, cols):
        self.space, self.dens, self.cols = space, dens, cols

    def __len__(self):
        return len(self.cols[0])

    def __getitem__(self, mask):
        return Element(self.space, tuple(
            _ratio(col[mask], den) for col, den in zip(self.cols, self.dens)))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __add__(self, other):
        _same_space(self, other)
        dens, cols = [], []
        for d, a, e, b in zip(self.dens, self.cols, other.dens, other.cols):
            if d == e:
                cols.append(list(map(operator.add, a, b)))
            else:
                # bring both columns over the least common denominator
                den = math.lcm(d, e)
                f, g = den // d, den // e
                cols.append([s * f + t * g for s, t in zip(a, b)])
                d = den
            dens.append(d)
        return CellColumns(self.space, tuple(dens), cols)

    def complement(self):
        return CellColumns(self.space, self.dens,
                           [col[::-1] for col in self.cols])

    def extremum(self, pick):
        # the fold is the extremum cell by cell; an entry attains it
        # where it attains every cell's
        best, masks = [], range(len(self))
        for col in self.cols:
            b = pick(col)
            best.append(b)
            masks = [m for m in masks if col[m] == b]
        return Element(self.space, tuple(map(_ratio, best, self.dens))), masks


# ---------------------------------------------------------------------------
# the interface: each function dispatches on the space
# ---------------------------------------------------------------------------

def _model(space) -> Space:
    if isinstance(space, Space):
        return space
    raise MalformedElement(f"unknown space {space!r}")


def space_name(space) -> str:
    return _model(space).name


def _same_space(x: Element, y: Element):
    if x.space is y.space:
        return
    if x.space != y.space:
        raise SpaceMismatch(
            f"{space_name(x.space)} vs {space_name(y.space)}")


def normalize(space, raw) -> Element:
    """Build the canonical element of ``space`` from a raw payload.

    Idempotent: feeding an element's payload back in reproduces it.
    """
    if isinstance(space, Space):
        return space.normalize(raw)
    raise MalformedElement(f"space {space!r} carries no elements")


# --- convenience constructors (mirroring the literal syntax) ---------------

def coord(*values) -> Element:
    return normalize(Coordinate(len(values)), values)


def simple(partition, values) -> Element:
    return normalize(SimpleFunction(tuple(partition)), values)


def fin(*pairs) -> Element:
    return normalize(FinSupport(), pairs)


def ec(prefix, tail) -> Element:
    return normalize(EventuallyConstant(), (prefix, tail))


def pl(*points) -> Element:
    return normalize(PiecewiseLinear(), points)


def zero(space) -> Element:
    return _model(space).zero()


def one(space) -> Element:
    return _model(space).one()


def is_zero(x: Element) -> bool:
    return x == zero(x.space)


# --- vector and lattice operations -----------------------------------------

def add(x: Element, y: Element) -> Element:
    _same_space(x, y)
    return x.space.add(x, y)


def sub(x: Element, y: Element) -> Element:
    _same_space(x, y)
    return x.space.sub(x, y)


def scale(c, x: Element) -> Element:
    c = q(c)
    if type(c) is int and c == -1:
        return x.space.neg(x)
    return x.space.scale(c, x)


def sup(x: Element, y: Element) -> Element:
    _same_space(x, y)
    return x.space.lattice(x, y, max)


def inf(x: Element, y: Element) -> Element:
    _same_space(x, y)
    return x.space.lattice(x, y, min)


def pos_part(x: Element) -> Element:
    return x.space.pos_part(x)


def neg_part(x: Element) -> Element:
    return x.space.neg_part(x)


def absolute(x: Element) -> Element:
    return x.space.absolute(x)


def leq(x: Element, y: Element) -> bool:
    """Pointwise partial order: true iff y - x is everywhere >= 0."""
    _same_space(y, x)
    return x.space.leq(x, y)


def is_disjoint(x: Element, y: Element) -> bool:
    """Whether |x| ^ |y| = 0."""
    _same_space(x, y)
    return x.space.disjoint(x, y)


# The formulas ``leq`` and ``is_disjoint`` used before the models
# decided them on their payloads; kept as the defaults and as oracles.

def leq_by_difference(x: Element, y: Element) -> bool:
    """x <= y as: y - x is everywhere >= 0."""
    d = sub(y, x)
    return d.space.nonneg(d)


def disjoint_by_modulus(x: Element, y: Element) -> bool:
    """x and y disjoint as: |x| ^ |y| = 0."""
    return is_zero(inf(absolute(x), absolute(y)))


# --- evaluation, atoms, supports -------------------------------------------

def eval_at(x: Element, t) -> Fraction:
    """Value of a function-like element at abscissa t in [0,1]."""
    return x.space.eval_at(x, q(t))


def atom_count(space):
    """Number of atoms of an atomic space, or None when infinite."""
    return _model(space).atom_count()


def get_atom(x: Element, i: int) -> Fraction:
    """Coordinate i (1-based) of an element of an atomic space."""
    return x.space.get_atom(x, i)


def from_atoms(space, values: dict, tail=0) -> Element:
    """Element of an atomic space from a sparse {atom: value} map."""
    return _model(space).from_atoms(values, tail)


def unit_atom(space, i: int, value=1) -> Element:
    return from_atoms(space, {i: value})


def support_atoms(x: Element):
    """1-based indices of the nonzero atoms (atomic spaces only).

    For eventually constant elements this lists the prefix positions
    whose value differs from zero; the tail is reported separately by
    the caller when it matters.
    """
    return x.space.support_atoms(x)


def pieces(x: Element):
    """The disjoint pieces that sum to x, in a fixed order.

    These are its nonzero atoms, each with its value, or on
    piecewise-linear functions its support components.  Every fragment
    of x is the sum of some of them, except where x has an infinite
    fragment algebra (``has_infinite_fragments``): there the nonzero
    tail of x is left out.  Each is built by the model's
    ``piece_builder``.
    """
    parts, build = x.space.piece_builder(x)
    return [build((k,)) for k in range(len(parts))]


def has_infinite_fragments(x: Element) -> bool:
    """Whether the fragment algebra of x is infinite: x is eventually
    constant with a nonzero tail."""
    return x.space.infinite_fragments(x)


def support_size(x: Element) -> int:
    """Count of nonzero atoms/components, and a nonzero tail; a proxy for
    decomposition ties."""
    return len(x.space.support(x)) + has_infinite_fragments(x)


# --- formatting and ordering keys ------------------------------------------

def format_element(x: Element) -> str:
    """Literal syntax, ASCII, canonical."""
    return x.space.format(x)


def canonical_key(x: Element):
    """A total sort key on elements of one space, for stable output."""
    return x.space.key(x)
