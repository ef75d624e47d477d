"""Differential tests of the element calculus against its references.

Each model decides ``leq`` and ``is_disjoint`` on its payloads, the
piecewise-linear model restricts in one walk, and
``enumerate_decompositions`` builds both sides of a splitting by
restriction.  Every one of these is checked here against the formula it
replaced, on elements that Hypothesis builds from rationals through
``normalize`` and shrinks on failure: ``leq_by_difference`` and
``disjoint_by_modulus``, the ``Space`` defaults, and the references of
``rieszlab.oracles``.  The atomic models kept their restriction and
common fragment; those are checked against their definition.

The atomic models store an integral scalar as an ``int``; the same
elements rebuilt on all-``Fraction`` payloads are the oracle for that.
They pick and compare scalars by integer cross-products
(``spaces._qmax``, ``_qmin`` and ``_qless``), checked against the
builtin ``max``, ``min`` and ``<``, ties included.
The piecewise-linear model adds, takes suprema and infima, and decides
order and disjointness on integer numerators and denominators, scales
without the collinear strip, and takes parts and moduli in one walk
that inserts the zero crossings.  Its references evaluate the
operands point by point in ``Fraction`` arithmetic and strip collinear
points by their own code (``oracles.pl_pointwise``, ``pl_leq``,
``pl_disjoint`` and ``pl_restrict``), so a fault of the model's strip
shows here too.  Kernel polynomials evaluate by an integer Horner,
checked against the Fraction Horner ``eval_by_fractions``.  The
piecewise-linear support components come from one walk on the signs of
the value numerators, and the greatest common fragment compares
components without restricting to each; ``pl_components_by_crossing``
and ``pl_common_fragment_by_restriction`` are their oracles.

Each model negates, subtracts and takes parts and moduli on its own
payload, and the finitely supported and eventually constant models
build their sums, differences, suprema, infima and multiples canonical
without ``normalize``.  The ``Space`` defaults (-x as ``scale(-1, x)``,
x - y as x + (-y), the parts and modulus as lattice formulas) and
``normalize`` of the raw payload are the oracles for those.

The range of the series functional, ``LogTwo``, decides the sign of
a + b ln 2 by narrowing enclosures of ln 2 until the sign shows
(``spaces._ln2_sign``).  One fixed enclosure of width 2^-400 is its
oracle, on random pairs and next to the convergents of ln 2, and so
for the suprema, infima, moduli and order built on it.  Every model,
that one too, answers each order and disjointness question with a
``bool``.
"""

import operator
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import generators
from rieszlab.errors import MalformedElement
from rieszlab.lateral import enumerate_decompositions, lateral_inf
from rieszlab.mutations import tampered
from rieszlab.operators import PiecewisePoly, apply
from rieszlab.oracles import (
    decompositions_by_difference, pl_common_fragment_by_restriction,
    pl_components_by_crossing, pl_disjoint, pl_leq, pl_pointwise, pl_restrict,
)
from rieszlab.spaces import (
    Coordinate, Element, EventuallyConstant, FinSupport, LogTwo,
    PiecewiseLinear, SimpleFunction, Space, _ln2_sign, _qless, _qmax, _qmin,
    absolute, add, canonical_key, disjoint_by_modulus, from_atoms, get_atom,
    has_infinite_fragments, inf, is_disjoint, leq, leq_by_difference,
    ln2_enclosure, neg_part, normalize, pl, pos_part, q, scale, sub, sup,
)

from conftest import ABSCISSAE, SCALARS, is_canonical, pl_elements

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None,
                    database=None)

COORD = Coordinate(3)
SIMPLE = SimpleFunction((Q(0), Q(1, 3), Q(1, 2), Q(1)))
FIN = FinSupport()
EC = EventuallyConstant()
PL = PiecewiseLinear()


def _cells(space):
    return st.lists(SCALARS, min_size=space.atom_count(),
                    max_size=space.atom_count()).map(
                        lambda vals: normalize(space, vals))


def _fin():
    return st.dictionaries(st.integers(1, 8), SCALARS, max_size=5).map(
        lambda d: normalize(FIN, d.items()))


def _ec():
    return st.tuples(st.lists(SCALARS, max_size=5), SCALARS).map(
        lambda raw: normalize(EC, raw))


ELEMENTS = {"coord": _cells(COORD), "simple": _cells(SIMPLE), "fin": _fin(),
            "ec": _ec(), "pl": pl_elements()}
MODELS = sorted(ELEMENTS)

# the range of the series functional: the pairs (a, b) of a + b ln 2,
# random ones and ones next to 0, r (ln 2 - p/q) + d for a convergent
# p/q of ln 2 and d nothing or a small fraction of its distance to ln 2
LN2 = LogTwo()
LN2_LO, LN2_HI = ln2_enclosure(Q(1, 2 ** 400))


def _convergents(lo, hi):
    """The convergents p/q, q below 2^150, of the continued fraction
    terms that lo and hi share, but the last: those of every real
    between them."""
    terms = []
    x, y = lo, hi
    while x.denominator > 1 and y.denominator > 1 and \
            x.numerator // x.denominator == y.numerator // y.denominator:
        a = x.numerator // x.denominator
        terms.append(a)
        x, y = 1 / (x - a), 1 / (y - a)
    out, (p, p0, r, r0) = [], (1, 0, 0, 1)
    for a in terms[:-1]:
        p, p0, r, r0 = a * p + p0, p, a * r + r0, r
        if r < 2 ** 150:
            out.append(Q(p, r))
    return out


CONVERGENTS = _convergents(LN2_LO, LN2_HI)
NONZERO_SCALARS = SCALARS.filter(lambda v: v != 0)
LN2_PAIRS = st.one_of(
    st.tuples(st.fractions(-10, 10, max_denominator=10 ** 7),
              st.fractions(-10, 10, max_denominator=10 ** 4)),
    st.tuples(SCALARS, SCALARS),
    st.tuples(st.sampled_from(CONVERGENTS), NONZERO_SCALARS,
              st.sampled_from((0, Q(1, 3), Q(-1, 3)))).map(
        lambda t: (-t[1] * t[0] + t[2] * abs(LN2_LO - t[0]) * t[1], t[1])))
LN2_ELEMENTS = LN2_PAIRS.map(lambda ab: normalize(LN2, ab))


def _pairs(elements):
    """Independent pairs, disjoint pairs (the two parts of one element)
    and ordered pairs (y = x + z+)."""
    return st.one_of(
        st.tuples(elements, elements),
        elements.map(lambda z: (pos_part(z), neg_part(z))),
        st.tuples(elements, elements).map(
            lambda p: (p[0], add(p[0], pos_part(p[1])))))


def _common_fragment_reference(x, y):
    if x.space == PL:
        return pl_common_fragment_by_restriction(x, y)
    return Space.common_fragment(x.space, x, y)


@pytest.mark.parametrize("model", MODELS)
def test_order_disjointness_and_common_fragment_match_the_formulas(model):
    @SETTINGS
    @given(_pairs(ELEMENTS[model]))
    def check(pair):
        x, y = pair
        assert leq(x, y) == leq_by_difference(x, y)
        assert leq(y, x) == leq_by_difference(y, x)
        assert is_disjoint(x, y) == disjoint_by_modulus(x, y)
        assert lateral_inf(x, y) == _common_fragment_reference(x, y)

    check()


def _parts(x):
    """Sets of support pieces of x, and on PL arbitrary intervals too:
    reversed, degenerate, overlapping or reaching outside [0,1]."""
    pieces = x.space.support(x)
    support = (st.lists(st.sampled_from(pieces), unique=True) if pieces
               else st.just([]))
    if x.space == PL:
        ends = st.fractions(min_value=Q(-1, 4), max_value=Q(5, 4),
                            max_denominator=8)
        return st.one_of(support, st.lists(st.tuples(ABSCISSAE, ABSCISSAE),
                                           max_size=3),
                         st.lists(st.tuples(ends, ends), max_size=3))
    return st.one_of(support, st.lists(
        st.integers(1, x.space.atom_count() or 8), max_size=4))


@pytest.mark.parametrize("model", MODELS)
def test_restrict_matches_its_reference_or_definition(model):
    @SETTINGS
    @given(st.data())
    def check(data):
        x = data.draw(ELEMENTS[model])
        parts = data.draw(_parts(x))
        if x.space == PL:
            if all(0 <= a <= b <= 1 for a, b in parts):
                assert x.space.restrict(x, parts) == pl_restrict(x, parts)
            else:
                with pytest.raises(MalformedElement):
                    x.space.restrict(x, parts)
            return
        # atomic models restrict as before; check the definition instead
        got = x.space.restrict(x, parts)
        top = x.space.atom_count() or max([*parts, *x.space.support(x), 0]) + 1
        for i in range(1, top + 1):
            assert get_atom(got, i) == (get_atom(x, i) if i in parts else 0)

    check()


@pytest.mark.parametrize("model", MODELS)
def test_splittings_by_restriction_match_the_differences(model):
    @SETTINGS
    @given(ELEMENTS[model])
    def check(x):
        level = len(x.payload[0]) + 1 if has_infinite_fragments(x) else None
        decs = enumerate_decompositions(x, level)
        assert decs == decompositions_by_difference(x, level)
        for d in decs:
            assert d.base == x and add(d.left, d.right) == x
            assert is_disjoint(d.left, d.right)
        keys = [canonical_key(d.left) for d in decs]
        assert keys == sorted(keys)

    check()


# --- canonical int scalars against all-Fraction payloads --------------------

ATOMIC = [m for m in MODELS if m != "pl"]


def _forced(x):
    """x rebuilt past ``normalize`` with every scalar a Fraction."""
    if x.space == FIN:
        return Element(FIN, tuple((i, Q(v)) for i, v in x.payload))
    if x.space == EC:
        prefix, tail = x.payload
        return Element(EC, (tuple(Q(v) for v in prefix), Q(tail)))
    return Element(x.space, tuple(Q(v) for v in x.payload))


def _kernel_by_fractions(T, x):
    """T(x) folded row by row in Fraction arithmetic: every polynomial
    coefficient a Fraction, evaluated by ``eval_by_fractions``."""
    acc = {}
    for i, j, fn in T.table:
        forced = PiecewisePoly(fn.breaks, fn.coeffs)
        object.__setattr__(forced, "coeffs", tuple(
            tuple(Q(c) for c in piece) for piece in fn.coeffs))
        acc[j] = acc.get(j, Q(0)) + forced.eval_by_fractions(get_atom(x, i))
    return from_atoms(T.codomain, acc)


@pytest.mark.parametrize("model", ATOMIC)
def test_canonical_scalars_match_fraction_payloads(model):
    @SETTINGS
    @given(_pairs(ELEMENTS[model]), SCALARS, st.integers(0, 2 ** 16))
    def check(pair, c, seed):
        x, y = pair
        fx, fy = _forced(x), _forced(y)
        assert fx == x and fy == y
        T = generators.random_kernel(random.Random(seed), x.space)
        results = {
            "add": (add(x, y), add(fx, fy)),
            "scale": (scale(c, x), scale(Q(c), fx)),
            "sup": (sup(x, y), sup(fx, fy)),
            "inf": (inf(x, y), inf(fx, fy)),
            "kernel": (apply(T, x), _kernel_by_fractions(T, fx)),
        }
        for name, (got, want) in results.items():
            assert got == want, name
            assert is_canonical(got), (name, got.payload)
        assert leq(x, y) == leq(fx, fy) and leq(y, x) == leq(fy, fx)
        assert is_disjoint(x, y) == is_disjoint(fx, fy)

    check()


# --- the integer picks of canonical scalars against max and min ------------

CANONICAL = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12)).map(q)


def _equal_copy(v):
    """v again, as a distinct object when it is a Fraction."""
    return Q(v.numerator, v.denominator) if type(v) is Q else v


@SETTINGS
@given(st.one_of(st.tuples(CANONICAL, CANONICAL),
                 CANONICAL.map(lambda v: (v, _equal_copy(v)))))
def test_integer_picks_match_max_and_min(pair):
    # identity, not equality: a tie keeps the first operand
    for a, b in (pair, pair[::-1]):
        assert _qless(a, b) == (a < b)
        assert _qmax(a, b) is max(a, b)
        assert _qmin(a, b) is min(a, b)


# --- the integer piecewise-linear kernel against the pointwise reference ----

def _crossing_pairs(elements):
    """(x, x + w) with w a line from below zero at t=0 to above it at
    t=1, so that x - y changes sign strictly inside (0, 1)."""
    magnitudes = SCALARS.filter(lambda v: v != 0).map(abs)
    return st.tuples(elements, magnitudes, magnitudes).map(
        lambda p: (p[0], add(p[0], normalize(PL, [(0, -p[1]), (1, p[2])]))))


def _assert_pl_kernels_match(pair, c):
    zero = PL.zero()
    for x, y in (pair, pair[::-1]):
        # pl_pointwise inserts crossings between operands only, so the
        # parts take the zero, or -x, as a second operand
        minus_x = pl_pointwise(operator.neg, x)
        results = {
            "add": (add(x, y), pl_pointwise(operator.add, x, y)),
            "sup": (sup(x, y), pl_pointwise(max, x, y)),
            "inf": (inf(x, y), pl_pointwise(min, x, y)),
            "scale": (scale(c, x), pl_pointwise(lambda v: c * v, x)),
            "pos": (pos_part(x), pl_pointwise(max, x, zero)),
            "neg part": (neg_part(x), pl_pointwise(max, minus_x, zero)),
            "abs": (absolute(x), pl_pointwise(max, x, minus_x)),
        }
        for name, (got, want) in results.items():
            pts = got.payload
            assert pts == want.payload, name
            assert all(type(v) is Q for pt in pts for v in pt), name
            assert all((v1 - v0) / (t1 - t0) != (v2 - v1) / (t2 - t1)
                       for (t0, v0), (t1, v1), (t2, v2)
                       in zip(pts, pts[1:], pts[2:])), name
        assert leq(x, y) == pl_leq(x, y)
        assert is_disjoint(x, y) == pl_disjoint(x, y)


@SETTINGS
@given(st.one_of(_pairs(ELEMENTS["pl"]), _crossing_pairs(ELEMENTS["pl"])),
       SCALARS)
def test_pl_integer_kernel_matches_the_pointwise_reference(pair, c):
    _assert_pl_kernels_match(pair, c)


def test_pl_strip_mutant_is_caught_by_the_pointwise_reference():
    def pair():
        return pl((0, 0), (Q(1, 2), Q(1, 2)), (1, 1)), pl((0, 0), (1, 0))

    _assert_pl_kernels_match(pair(), 2)
    # built under the mutant, the ramp keeps its collinear point at 1/2,
    # which the reference strips by its own code
    with tampered("pl-strip-spares-a-collinear-point"):
        with pytest.raises(AssertionError):
            _assert_pl_kernels_match(pair(), 2)


# --- the integer Horner of kernel polynomials against the Fraction one ------

COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def _polys_and_points(draw):
    """A piecewise polynomial with 0-3 breaks and pieces of degree 0-4,
    and a point: an int, a Fraction or one of the breaks."""
    breaks = sorted(draw(st.sets(COEFFS, max_size=3)))
    pieces = [tuple(draw(st.lists(COEFFS, min_size=1, max_size=5)))
              for _ in range(len(breaks) + 1)]
    fn = PiecewisePoly(tuple(breaks), tuple(pieces))
    points = [st.integers(-6, 6),
              st.fractions(min_value=-5, max_value=5, max_denominator=12)]
    if breaks:
        points.append(st.sampled_from(fn.breaks))
    return fn, draw(st.one_of(points))


@SETTINGS
@given(_polys_and_points())
def test_integer_horner_matches_the_fraction_horner(case):
    fn, t = case
    got = fn(t)
    assert got == fn.eval_by_fractions(t)
    assert type(got) is int or (type(got) is Q and got.denominator != 1)


# --- the piecewise-linear component walk against the crossing reference -----

NONZERO = SCALARS.filter(lambda v: v != 0)


@st.composite
def _sharing_pl_pairs(draw):
    """(x, y) where y keeps some components of x and either scales the
    others or adds a part disjoint from what it keeps; or two ramps
    whose components at t=0 and t=1 are single segments, with the same
    middle and end values that may differ."""
    if draw(st.booleans()):
        a, b = sorted(draw(st.lists(ABSCISSAE.filter(lambda t: 0 < t < 1),
                                    min_size=2, max_size=2, unique=True)))
        middle = [(a, 0), ((a + b) / 2, draw(SCALARS)), (b, 0)]
        ends = draw(st.lists(NONZERO, min_size=4, max_size=4))
        return (normalize(PL, [(0, ends[0])] + middle + [(1, ends[1])]),
                normalize(PL, [(0, ends[2])] + middle + [(1, ends[3])]))
    x = draw(pl_elements())
    comps = PL.components(x)
    kept = draw(st.lists(st.sampled_from(comps), unique=True)) if comps else []
    y = PL.restrict(x, kept)
    if draw(st.booleans()):
        dropped = [c for c in comps if c not in kept]
        return x, add(y, scale(draw(NONZERO), PL.restrict(x, dropped)))
    z = draw(pl_elements())
    return x, add(y, PL.restrict(z, [c for c in PL.components(z) if
                                     is_disjoint(PL.restrict(z, [c]), y)]))


@SETTINGS
@given(st.one_of(_sharing_pl_pairs(), _pairs(ELEMENTS["pl"]),
                 _crossing_pairs(ELEMENTS["pl"])))
def test_pl_component_walk_matches_the_crossing_reference(pair):
    for x, y in (pair, pair[::-1]):
        comps = PL.components(x)
        assert comps == pl_components_by_crossing(x)
        assert all(type(t) is Q for c in comps for t in c)
        got = PL.common_fragment(x, y)
        want = pl_common_fragment_by_restriction(x, y)
        assert got.payload == want.payload
        assert all(type(v) is Q for pt in got.payload for v in pt)


# --- piecewise-linear fragments sliced from one component walk -------------

MAGNITUDES = st.fractions(min_value=Q(1, 6), max_value=3, max_denominator=6)


def _alternating_pl():
    """Piecewise-linear elements whose values alternate in sign from one
    breakpoint to the next, some of them zero: components that meet at
    crossings inside segments and at zero breakpoints, and that touch
    t=0 and t=1."""
    def build(ts):
        n = len(ts) + 2
        return st.tuples(st.lists(MAGNITUDES, min_size=n, max_size=n),
                         st.lists(st.booleans(), min_size=n, max_size=n)).map(
            lambda c: normalize(PL, zip(
                [Q(0)] + sorted(ts) + [Q(1)],
                [0 if zero else (-1) ** k * v
                 for k, (v, zero) in enumerate(zip(*c))])))
    return st.sets(st.sampled_from([Q(k, 8) for k in range(1, 8)]),
                   min_size=1, max_size=5).flatmap(build)


PL_FRAGMENT_POINTS = st.one_of(pl_elements(), _alternating_pl())


@SETTINGS
@given(PL_FRAGMENT_POINTS)
def test_pl_piece_builder_matches_the_restriction_default(x):
    parts, build = PL.piece_builder(x)
    ref_parts, ref_build = Space.piece_builder(PL, x)
    assert parts == ref_parts == pl_components_by_crossing(x)
    for mask in range(1 << len(parts)):
        keep = [k for k in range(len(parts)) if mask >> k & 1]
        got = build(keep)
        assert got.payload == ref_build(keep).payload == \
            pl_restrict(x, [parts[k] for k in keep]).payload
        assert is_canonical(got)
    assert build(range(len(parts))) == x


@SETTINGS
@given(PL_FRAGMENT_POINTS, st.data())
def test_pl_common_fragment_of_slices_matches_the_restriction_reference(
        x, data):
    # y keeps some components of x and doubles the others; z is drawn
    # apart from x
    parts, build = PL.piece_builder(x)
    kept = data.draw(st.lists(st.booleans(), min_size=len(parts),
                              max_size=len(parts)))
    y = add(build([k for k, keep in enumerate(kept) if keep]), scale(2, build(
        [k for k, keep in enumerate(kept) if not keep])))
    z = data.draw(PL_FRAGMENT_POINTS)
    for a, b in ((x, y), (y, x), (x, z), (z, x), (x, x)):
        got = PL.common_fragment(a, b)
        assert got.payload == pl_common_fragment_by_restriction(a, b).payload
        assert is_canonical(got)
    assert PL.common_fragment(x, x) is x


# --- negation, subtraction, parts and moduli on each model's payload --------

@pytest.mark.parametrize("model", MODELS)
def test_signed_operations_match_the_space_defaults(model):
    @SETTINGS
    @given(_pairs(ELEMENTS[model]))
    def check(pair):
        x, y = pair
        space = x.space
        results = {
            "neg": (space.neg(x), space.scale(-1, x)),
            "scale -1": (scale(-1, x), space.scale(-1, x)),
            "unary minus": (-x, space.scale(-1, x)),
            "sub": (sub(x, y), add(x, space.scale(-1, y))),
            "sub reversed": (sub(y, x), add(y, space.scale(-1, x))),
            "pos": (pos_part(x), Space.pos_part(space, x)),
            "neg part": (neg_part(x), Space.neg_part(space, x)),
            "abs": (absolute(x), Space.absolute(space, x)),
            "abs of y": (absolute(y), Space.absolute(space, y)),
        }
        for name, (got, want) in results.items():
            assert got.payload == want.payload, name
            assert is_canonical(got), (name, got.payload)

    check()


def _raw_fin(x, y, f):
    """f at every index of x or y, as a raw payload."""
    xs, ys = dict(x.payload), dict(y.payload)
    return [(i, f(xs.get(i, 0), ys.get(i, 0))) for i in xs.keys() | ys.keys()]


def _raw_ec(x, y, f):
    """f at every atom up to the longer prefix and at the tails, as a
    raw payload."""
    n = max(len(x.payload[0]), len(y.payload[0]))
    return ([f(get_atom(x, i), get_atom(y, i)) for i in range(1, n + 1)],
            f(x.payload[1], y.payload[1]))


@pytest.mark.parametrize("model, raw", [("fin", _raw_fin), ("ec", _raw_ec)])
def test_sparse_results_match_normalize_of_the_raw_payload(model, raw):
    @SETTINGS
    @given(_pairs(ELEMENTS[model]), SCALARS)
    def check(pair, c):
        x, y = pair
        space = x.space
        results = {
            "add": (add(x, y), raw(x, y, operator.add)),
            "sub": (sub(x, y), raw(x, y, operator.sub)),
            "sup": (sup(x, y), raw(x, y, max)),
            "inf": (inf(x, y), raw(x, y, min)),
            "scale": (scale(c, x), raw(x, x, lambda a, _: c * a)),
        }
        for name, (got, want) in results.items():
            assert got.payload == normalize(space, want).payload, name
            assert is_canonical(got), (name, got.payload)
            if model == "ec":       # the shortest prefix, independently
                prefix, tail = got.payload
                assert not prefix or prefix[-1] != tail, name

    check()


# --- the range of the series functional against one fixed enclosure --------

def _sign_by_the_enclosure(a, b):
    """The sign of a + b ln 2, read off the fixed enclosure: the value
    lies between a + b lo and a + b hi, strictly when b is not 0."""
    ends = (a + b * LN2_LO, a + b * LN2_HI)
    if not b:
        return (a > 0) - (a < 0)
    assert (min(ends) >= 0) != (max(ends) <= 0), "the enclosure is too wide"
    return 1 if min(ends) >= 0 else -1


def _value_sign(x):
    return _sign_by_the_enclosure(*x.payload)


def test_the_convergents_alternate_about_ln2():
    assert len(CONVERGENTS) > 80 and CONVERGENTS[:6] == [
        0, 1, Q(2, 3), Q(7, 10), Q(9, 13), Q(61, 88)]
    assert [_sign_by_the_enclosure(-c, 1) for c in CONVERGENTS] == [
        1 if k % 2 == 0 else -1 for k in range(len(CONVERGENTS))]


@SETTINGS
@given(LN2_PAIRS)
def test_the_ln2_sign_matches_a_fixed_enclosure(pair):
    a, b = q(pair[0]), q(pair[1])
    got = _ln2_sign(a, b)
    assert type(got) is int and got == _sign_by_the_enclosure(a, b)
    assert _ln2_sign(-a, -b) == -got


def test_the_first_enclosure_mutant_misreads_a_convergent():
    # 445/642 is within 10^-6 below ln 2, and the midpoint of the first
    # enclosure is about 4 * 10^-6 below it
    c = Q(445, 642)
    v = normalize(LN2, (-c, 1))
    assert _sign_by_the_enclosure(-c, 1) == 1 and leq(LN2.zero(), v)
    with tampered("ln2-sign-first-enclosure"):
        assert not leq(LN2.zero(), v)


@SETTINGS
@given(LN2_ELEMENTS, LN2_ELEMENTS)
def test_log_two_lattice_and_order_match_a_fixed_enclosure(x, y):
    above = _value_sign(sub(x, y))
    assert sup(x, y) == (x if above >= 0 else y)
    assert inf(x, y) == (y if above >= 0 else x)
    assert leq(x, y) == (above <= 0) and leq(y, x) == (above >= 0)
    assert absolute(x) == (x if _value_sign(x) >= 0 else scale(-1, x))
    for v in (sup(x, y), inf(x, y), absolute(x), sub(x, y)):
        assert is_canonical(v), v.payload


@pytest.mark.parametrize("model", MODELS + ["ln2"])
def test_every_model_answers_order_and_disjointness_with_a_bool(model):
    elements = LN2_ELEMENTS if model == "ln2" else ELEMENTS[model]

    @SETTINGS
    @given(_pairs(elements))
    def check(pair):
        for x, y in (pair, pair[::-1]):
            assert type(leq(x, y)) is bool
            assert type(is_disjoint(x, y)) is bool

    check()
