"""Element models: canonical forms, vector and lattice calculus."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from rieszlab.errors import MalformedElement, SpaceMismatch, Unsupported
from rieszlab.spaces import (
    Coordinate, Element, EventuallyConstant, FinSupport, LogTwo,
    PiecewiseLinear, SimpleFunction, absolute, add, atom_count,
    coord, div, ec, eval_at, fin, format_element, from_atoms, get_atom, inf,
    is_disjoint, leq, neg_part, normalize, one, pl, pl_components,
    pl_restrict, pos_part, q, scale, simple, space_name, sub, sup,
    support_atoms, support_size, zero,
)

from conftest import make_rng, pl_elements


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_fin_normalize_drops_zero_and_sorts():
    assert fin((3, 0), (1, 2)) == fin((1, 2))
    assert fin((1, 2)).payload == ((1, Q(2)),)


def test_ec_normalize_minimal_prefix():
    assert ec([1, 5, 5], 5) == ec([1], 5)
    assert ec([1], 5).payload == ((Q(1),), Q(5))
    assert ec([7, 7], 7).payload == ((), Q(7))


def test_pl_normalize_removes_collinear_interior():
    assert pl((0, 0), (Q(1, 2), Q(1, 2)), (1, 1)) == pl((0, 0), (1, 1))
    bent = pl((0, 0), (Q(1, 2), 1), (1, 0))
    assert len(bent.payload) == 3


def test_normalize_idempotent():
    rng = make_rng("normalize")
    from rieszlab import generators as gen
    for space in gen.space_menu():
        for _ in range(50):
            x = gen.random_element(rng, space)
            assert normalize(space, x.payload) == x


def test_pl_normalize_preserves_evaluation():
    raw = [(0, 0), (Q(1, 4), Q(1, 4)), (Q(1, 2), Q(1, 2)), (1, 1)]
    x = normalize(PiecewiseLinear(), raw)
    assert x.payload == ((Q(0), Q(0)), (Q(1), Q(1)))
    for t in (0, Q(1, 4), Q(1, 3), Q(7, 8), 1):
        assert eval_at(x, t) == Q(t)


def test_malformed_payloads():
    with pytest.raises(MalformedElement):
        normalize(Coordinate(2), [1, 2, 3])
    with pytest.raises(MalformedElement):
        normalize(PiecewiseLinear(), [(Q(1, 2), 1), (1, 0)])  # missing t=0
    with pytest.raises(MalformedElement):
        normalize(FinSupport(), [(0, 1)])  # indices start at 1
    with pytest.raises(MalformedElement):
        normalize(FinSupport(), [(2, 1), (2, 3)])
    with pytest.raises(MalformedElement):
        SimpleFunction((Q(0), Q(1, 2), Q(1, 3), Q(1)))
    with pytest.raises(MalformedElement):
        normalize(Coordinate(1), [0.25])  # floats are rejected


def test_scalars_are_canonical():
    assert type(q(Q(4, 2))) is int and q(Q(4, 2)) == 2
    assert q(Q(1, 2)) == Q(1, 2) and type(q(Q(1, 2))) is Q
    assert type(q(True)) is int and type(q("6/3")) is int
    with pytest.raises(MalformedElement):
        q(0.5)
    # sums and products of Fractions that come out integral
    assert add(coord(Q(1, 2)), coord(Q(1, 2))).payload == (1,)
    assert type(scale(Q(1, 2), coord(2)).payload[0]) is int
    assert type(fin((1, Q(3, 3))).payload[0][1]) is int
    assert ec([Q(2, 2)], Q(1, 2)).payload == ((1,), Q(1, 2))


def test_pl_payloads_stay_fractions():
    # a bare / on PL abscissae and values stays exact
    for x in (pl((0, 0), (1, 2)), zero(PiecewiseLinear()),
              one(PiecewiseLinear()), scale(2, pl((0, 1), (1, 3))),
              pl_restrict(pl((0, 1), (Q(1, 2), 2), (1, 1)), [(0, Q(1, 2))])):
        assert all(type(v) is Q for pt in x.payload for v in pt), x.payload


def test_div_is_exact():
    assert div(1, 3) == Q(1, 3) and type(div(1, 3)) is Q
    assert type(div(4, 2)) is int and div(Q(1, 2), Q(1, 4)) == 2
    with pytest.raises(ZeroDivisionError):
        div(1, 0)
    with pytest.raises(MalformedElement):
        div(1.0, 2)


def test_series_prefix_sum_divides_exactly():
    # the prefix holds ints, and int / int would be a float
    from rieszlab.operators import AlternatingSeries, apply
    v = apply(AlternatingSeries(), ec([2, 4, 6, 8], 2))
    # -2 + 4/2 - 6/3 + 8/4, then 2 (-ln 2 - s_4) with s_4 = -7/12
    assert v == normalize(LogTwo(), (Q(7, 6), -2))
    assert all(q(c) == c and type(q(c)) is type(c) for c in v.payload)
    assert apply(AlternatingSeries(), ec([2, 4], 0)).payload == (0, 0)


# ---------------------------------------------------------------------------
# vector and lattice operations
# ---------------------------------------------------------------------------

def test_add_scale_examples():
    assert add(coord(1, -2), coord(0, 3)) == coord(1, 1)
    assert scale(2, ec([1], 3)) == ec([2], 6)
    line_up = pl((0, 0), (1, 1))
    line_down = pl((0, 1), (1, 0))
    assert add(line_up, line_down) == pl((0, 1), (1, 1))


def test_space_mismatch():
    with pytest.raises(SpaceMismatch):
        add(coord(1), coord(1, 2))
    with pytest.raises(SpaceMismatch):
        sup(simple((0, 1), [1]), simple((0, Q(1, 2), 1), [1, 1]))


def test_lattice_examples():
    assert sup(coord(1, -2, 0), coord(0, 3, 0)) == coord(1, 3, 0)
    # crossing lines pick up the intersection breakpoint
    got = sup(pl((0, 0), (1, 1)), pl((0, 1), (1, 0)))
    assert got == pl((0, 1), (Q(1, 2), Q(1, 2)), (1, 1))
    assert inf(ec([2], 0), ec([], 1)) == ec([1], 0)


def test_pl_tangential_touch_adds_no_breakpoint():
    flat = pl((0, 0), (1, 0))
    tent = pl((0, 0), (Q(1, 2), 1), (1, 0))
    assert sup(flat, tent) == tent
    assert inf(flat, tent) == flat


def test_unary_examples():
    assert pos_part(coord(-1, 2)) == coord(0, 2)
    assert absolute(pl((0, -1), (1, 1))) == pl((0, 1), (Q(1, 2), 0), (1, 1))
    assert neg_part(ec([-3], 1)) == ec([3], 0)


def test_leq_examples():
    assert leq(coord(0, 0), coord(1, 2))
    assert not leq(coord(1, 0), coord(0, 1))
    assert leq(ec([], 1), ec([], 2))
    assert leq(pl((0, 0), (1, 0)), pl((0, 0), (Q(1, 2), 2), (1, 0)))


def test_disjoint_examples():
    assert is_disjoint(coord(1, 0), coord(0, -5))
    assert not is_disjoint(coord(1, 1), coord(0, 1))
    left = pl((0, 1), (Q(1, 2), 0), (1, 0))
    right = pl((0, 0), (Q(1, 2), 0), (1, 1))
    assert is_disjoint(left, right)


def test_constants():
    assert zero(Coordinate(3)) == coord(0, 0, 0)
    assert one(EventuallyConstant()) == ec([], 1)
    assert one(SimpleFunction((Q(0), Q(1, 2), Q(1)))).payload == (Q(1), Q(1))
    with pytest.raises(Unsupported):
        one(FinSupport())


def test_eval_at_simple_function_cells():
    x = simple((0, Q(1, 2), 1), [2, 5])
    assert eval_at(x, 0) == 2
    assert eval_at(x, Q(1, 4)) == 2
    assert eval_at(x, Q(1, 2)) == 5
    assert eval_at(x, 1) == 5


# ---------------------------------------------------------------------------
# per-model behaviour, pinned: results, or exact exception types and messages
# ---------------------------------------------------------------------------

THIRDS = (0, Q(1, 3), Q(2, 3), 1)

# (space, raw payload of a sample element x, expected outcome per probe)
PINNED = [
    (Coordinate(3), (1, 0, Q(-1, 2)), {
        "space_name": "coord(3)",
        "normalize": "coord[1,0,-1/2]",
        "zero": "coord[0,0,0]",
        "one": "coord[1,1,1]",
        "atom_count": 3,
        "get_atom 1": Q(1),
        "get_atom 9": (MalformedElement, "atom 9 outside 1..3"),
        "from_atoms": "coord[2,0,1/2]",
        "support_atoms": [1, 3],
        "support_size": 2,
        "eval_at": (Unsupported,
                    "cannot evaluate an element of coord(3) at a point"),
        "pl_components": (Unsupported,
                          "components are defined for piecewise-linear "
                          "elements"),
        "random_element": "coord[-1,0,-3]",
        "random_disjoint_pair": ("coord[0,0,-1]", "coord[-1,0,0]"),
    }),
    (SimpleFunction(THIRDS), (2, 0, -1), {
        "space_name": "simple{0,1/3,2/3,1}",
        "normalize": "simple{0,1/3,2/3,1}[2,0,-1]",
        "zero": "simple{0,1/3,2/3,1}[0,0,0]",
        "one": "simple{0,1/3,2/3,1}[1,1,1]",
        "atom_count": 3,
        "get_atom 1": Q(2),
        "get_atom 9": (MalformedElement, "atom 9 outside 1..3"),
        "from_atoms": "simple{0,1/3,2/3,1}[2,0,1/2]",
        "support_atoms": [1, 3],
        "support_size": 2,
        "eval_at": Q(0),
        "pl_components": (Unsupported,
                          "components are defined for piecewise-linear "
                          "elements"),
        "random_element": "simple{0,1/3,2/3,1}[-1,0,-3]",
        "random_disjoint_pair": ("simple{0,1/3,2/3,1}[0,0,-1]",
                                 "simple{0,1/3,2/3,1}[-1,0,0]"),
    }),
    (FinSupport(), ((4, 3), (2, Q(-1, 2)), (7, 0)), {
        "space_name": "fin",
        "normalize": "fin{(2,-1/2),(4,3)}",
        "zero": "fin{}",
        "one": (Unsupported,
                "finitely supported sequences have no order unit"),
        "atom_count": None,
        "get_atom 1": Q(0),
        "get_atom 9": Q(0),
        "from_atoms": "fin{(1,2),(3,1/2)}",
        "support_atoms": [2, 4],
        "support_size": 2,
        "eval_at": (Unsupported,
                    "cannot evaluate an element of fin at a point"),
        "pl_components": (Unsupported,
                          "components are defined for piecewise-linear "
                          "elements"),
        "random_element": "fin{(3,2),(7,-1)}",
        "random_disjoint_pair": ("fin{(3,2),(7,1)}", "fin{}"),
    }),
    (EventuallyConstant(), ((1, 0, 5, 5), 5), {
        "space_name": "ec",
        "normalize": "ec[1,0|5]",
        "zero": "ec[|0]",
        "one": "ec[|1]",
        "atom_count": None,
        "get_atom 1": Q(1),
        "get_atom 9": Q(5),
        "from_atoms": "ec[2,0,1/2|0]",
        "support_atoms": [1],
        "support_size": 2,
        "eval_at": (Unsupported,
                    "cannot evaluate an element of ec at a point"),
        "pl_components": (Unsupported,
                          "components are defined for piecewise-linear "
                          "elements"),
        "random_element": "ec[-1,2|-1]",
        "random_disjoint_pair": ("ec[0,-1,-1/3,1,-3/2|0]",
                                 "ec[0,0,0,0,0,-3|-1]"),
    }),
    (PiecewiseLinear(),
     ((0, 1), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), -1), (1, 0)), {
        "space_name": "pl",
        "normalize": "pl{(0,1),(1/4,0),(1/2,0),(3/4,-1),(1,0)}",
        "zero": "pl{(0,0),(1,0)}",
        "one": "pl{(0,1),(1,1)}",
        "atom_count": (Unsupported, "pl is not atomic"),
        "get_atom 1": (Unsupported, "pl is not atomic"),
        "get_atom 9": (Unsupported, "pl is not atomic"),
        "from_atoms": (Unsupported, "pl is not atomic"),
        "support_atoms": (Unsupported, "pl is not atomic"),
        "support_size": 2,
        "eval_at": Q(0),
        "pl_components": [(Q(0), Q(1, 4)), (Q(1, 2), Q(1))],
        "random_element": "pl{(0,2),(1/4,-1),(1/2,-3),(1,1)}",
        "random_disjoint_pair": ("pl{(0,0),(1,0)}",
                                 "pl{(0,0),(3/8,0),(11/16,-3),(1,0)}"),
    }),
    (LogTwo(), (Q(1, 2), -3), {
        "space_name": "ln2",
        "normalize": "1/2 - 3*ln2",
        "zero": "0",
        "one": "1",
        "atom_count": (Unsupported, "ln2 is not atomic"),
        "get_atom 1": (Unsupported, "ln2 is not atomic"),
        "get_atom 9": (Unsupported, "ln2 is not atomic"),
        "from_atoms": (Unsupported, "ln2 is not atomic"),
        "support_atoms": (Unsupported, "ln2 is not atomic"),
        "support_size": (Unsupported, "ln2 is not atomic"),
        "eval_at": (Unsupported,
                    "cannot evaluate an element of ln2 at a point"),
        "pl_components": (Unsupported,
                          "components are defined for piecewise-linear "
                          "elements"),
        "random_element": (Unsupported, "cannot sample from LogTwo()"),
        "random_disjoint_pair": (Unsupported, "cannot sample from LogTwo()"),
    }),
]


def _outcome(thunk):
    """The result of thunk(), elements formatted, or (type, message)."""
    try:
        result = thunk()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, Element):
        return format_element(result)
    if isinstance(result, tuple) and all(isinstance(r, Element) for r in result):
        return tuple(format_element(r) for r in result)
    return result


@pytest.mark.parametrize("space, raw, expected", PINNED,
                         ids=[type(row[0]).__name__ for row in PINNED])
def test_per_model_behaviour_is_pinned(space, raw, expected):
    from rieszlab import generators as gen
    x = normalize(space, raw)
    probes = {
        "space_name": lambda: space_name(space),
        "normalize": lambda: normalize(space, raw or ()),
        "zero": lambda: zero(space),
        "one": lambda: one(space),
        "atom_count": lambda: atom_count(space),
        "get_atom 1": lambda: get_atom(x, 1),
        "get_atom 9": lambda: get_atom(x, 9),
        "from_atoms": lambda: from_atoms(space, {1: 2, 3: Q(1, 2)}),
        "support_atoms": lambda: support_atoms(x),
        "support_size": lambda: support_size(x),
        "eval_at": lambda: eval_at(x, Q(1, 2)),
        "pl_components": lambda: pl_components(x),
        "random_element": lambda: gen.random_element(random.Random(7), space),
        "random_disjoint_pair":
            lambda: gen.random_disjoint_pair(random.Random(7), space),
    }
    assert {name: _outcome(probe) for name, probe in probes.items()} == expected


# ---------------------------------------------------------------------------
# law suites
# ---------------------------------------------------------------------------

def _check_riesz_laws(x, y, z, c):
    assert sub(pos_part(x), neg_part(x)) == x
    assert add(pos_part(x), neg_part(x)) == absolute(x)
    assert inf(pos_part(x), neg_part(x)) == zero(x.space)
    assert sup(x, y) == sup(y, x)
    assert inf(x, y) == inf(y, x)
    assert sup(x, inf(x, y)) == x
    assert inf(x, sup(x, y)) == x
    assert add(sup(x, y), inf(x, y)) == add(x, y)
    assert absolute(scale(c, x)) == scale(abs(c), absolute(x))
    assert sup(add(x, z), add(y, z)) == add(sup(x, y), z)
    assert sup(sup(x, y), z) == sup(x, sup(y, z))


def test_riesz_laws_randomized_all_spaces():
    from rieszlab import generators as gen
    rng = make_rng("laws")
    for space in gen.space_menu():
        for _ in range(60):
            x = gen.random_element(rng, space)
            y = gen.random_element(rng, space)
            z = gen.random_element(rng, space)
            _check_riesz_laws(x, y, z, gen.random_scalar(rng))


def test_disjointness_equivalences():
    from rieszlab import generators as gen
    rng = make_rng("disjoint-equiv")
    for space in gen.space_menu():
        for _ in range(40):
            x, y = gen.random_disjoint_pair(rng, space)
            assert is_disjoint(x, y)
            assert absolute(add(x, y)) == absolute(sub(x, y))
            a = gen.random_element(rng, space)
            b = gen.random_element(rng, space)
            lhs = is_disjoint(a, b)
            assert lhs == (inf(absolute(a), absolute(b)) == zero(space))
            assert lhs == (absolute(add(a, b)) == absolute(sub(a, b)))


def test_pl_lattice_matches_pointwise_extrema():
    """PL add/scale/sup/inf against eval_at, the independent pointwise
    oracle.  Crossings are rarely dyadic, so besides random dyadic points
    every breakpoint of the operands and results is checked, and the
    midpoint of each segment between them.  The results skip
    ``normalize``, so each must also be a fixed point of it, and have no
    interior breakpoint on the line through its neighbours (decided here
    on Fraction slopes, not on the calculus's integer cross-products)."""
    from rieszlab import generators as gen
    rng = make_rng("pl-pointwise")
    space = PiecewiseLinear()
    for _ in range(40):
        x = gen.random_element(rng, space)
        y = gen.random_element(rng, space)
        s, m, total = sup(x, y), inf(x, y), add(x, y)
        scaled = [(c, scale(c, x)) for c in (Q(-3, 2), Q(0), Q(2))]
        for r in (s, m, total) + tuple(r for _, r in scaled):
            assert r == normalize(space, r.payload)
            pts = r.payload
            assert all((v1 - v0) / (t1 - t0) != (v2 - v1) / (t2 - t1)
                       for (t0, v0), (t1, v1), (t2, v2)
                       in zip(pts, pts[1:], pts[2:]))
        ts = sorted({t for e in (x, y, s, m, total) for t, _ in e.payload})
        ts += [(t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:])]
        ts += [Q(rng.randint(0, 128), 128) for _ in range(25)]
        for t in ts:
            fx, fy = eval_at(x, t), eval_at(y, t)
            assert eval_at(s, t) == max(fx, fy)
            assert eval_at(m, t) == min(fx, fy)
            assert eval_at(total, t) == fx + fy
            for c, r in scaled:
                assert eval_at(r, t) == c * fx


# hypothesis passes over the coordinate, eventually constant and
# piecewise-linear models, for shrinking on failure
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.lists(scalars, min_size=3, max_size=3),
       st.lists(scalars, min_size=3, max_size=3),
       st.lists(scalars, min_size=3, max_size=3),
       scalars)
def test_riesz_laws_hypothesis_coordinate(xs, ys, zs, c):
    space = Coordinate(3)
    _check_riesz_laws(normalize(space, xs), normalize(space, ys),
                      normalize(space, zs), c)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(scalars, min_size=1, max_size=5), scalars,
       st.lists(scalars, min_size=1, max_size=5), scalars)
def test_riesz_laws_hypothesis_ec(px, tx, py, ty):
    space = EventuallyConstant()
    x = normalize(space, (px, tx))
    y = normalize(space, (py, ty))
    _check_riesz_laws(x, y, y, Q(-2))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(pl_elements(), pl_elements(), pl_elements(), scalars)
def test_riesz_laws_hypothesis_pl(x, y, z, c):
    _check_riesz_laws(x, y, z, c)


# --- the range of the series functional ------------------------------------

LN2 = LogTwo()


def log_two(a, b):
    return normalize(LN2, (a, b))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scalars, scalars, scalars, scalars, scalars, scalars, scalars)
def test_riesz_laws_hypothesis_log_two(a, b, c, d, e, f, k):
    _check_riesz_laws(log_two(a, b), log_two(c, d), log_two(e, f), k)


def test_log_two_values_are_exact():
    minus_ln2 = log_two(0, -1)
    assert [format_element(v) for v in (
        minus_ln2, log_two(Q(11, 12), 0), log_two(Q(1, 2), -3),
        log_two(-1, Q(2, 3)), log_two(0, 3), zero(LN2), one(LN2))] == [
        "-ln2", "11/12", "1/2 - 3*ln2", "-1 + 2/3*ln2", "3*ln2", "0", "1"]
    # ln 2 lies between 0.69314 and 0.69315; the order is total
    assert leq(log_two(Q(69314, 100000), 0), log_two(0, 1))
    assert not leq(log_two(Q(69315, 100000), 0), log_two(0, 1))
    assert sup(minus_ln2, log_two(Q(-7, 10), 0)) == minus_ln2
    assert inf(minus_ln2, log_two(Q(-7, 10), 0)) == log_two(Q(-7, 10), 0)
    below, above = log_two(Q(69, 100), -1), log_two(Q(7, 10), -1)
    assert absolute(below) == log_two(Q(-69, 100), 1)
    assert (pos_part(below), neg_part(below)) == (zero(LN2), absolute(below))
    assert absolute(above) == pos_part(above) == above
    # a totally ordered space has no two disjoint nonzero values
    assert is_disjoint(minus_ln2, zero(LN2))
    assert not is_disjoint(minus_ln2, log_two(1, 0))
    assert log_two(Q(2, 4), Q(6, 2)).payload == (Q(1, 2), 3)
    assert type(log_two(Q(6, 2), 0).payload[0]) is int
    with pytest.raises(SpaceMismatch):
        add(minus_ln2, coord(1))


def test_pl_normalize_rejects_two_values_at_one_abscissa():
    with pytest.raises(MalformedElement, match=r"^two values at t=1/2$"):
        pl((0, 0), (Q(1, 2), 1), (Q(1, 2), 2), (1, 0))
    with pytest.raises(MalformedElement, match=r"^two values at t=0$"):
        pl((0, 1), (0, 2), (1, 0))
    # a point given twice is one point
    x = pl((0, 0), (Q(1, 2), 1), (Q(1, 2), 1), (1, 0))
    assert format_element(x) == "pl{(0,0),(1/2,1),(1,0)}"
    assert x == pl((0, 0), (Q(1, 2), 1), (1, 0))
