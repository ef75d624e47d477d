"""Pointwise lattice of operators: joins, meets, parts, modulus, wedges."""

import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import generators as gen
from rieszlab import oplattice, spaces
from rieszlab.checks import _window_tables
from rieszlab.errors import (
    EnumerationCapExceeded, MalformedElement, PreconditionError,
)
from rieszlab.lateral import (
    Decomposition, Restrictions, enumerate_decompositions, enumerate_fragments,
)
from rieszlab.operators import (
    AlternatingSeries, Kernel, LateralMeet, LinearEC, MatchTable, Operator,
    OpScaled, OpSum, PiecewisePoly, ZeroOp, apply,
    diagonal_kernel, example_operator, lateral_bound_scan, match_table,
    negate, poly, verify_disjointness_preserving,
)
from rieszlab.oplattice import (
    OpLattice, dp_fast, extrema_by_enumeration, join_at, levels_by_full_walk,
    meet_at, meyer_pair, modulus_at, neg_part_at, pos_part_at,
)
from rieszlab.oracles import images_by_apply, levels_by_enumeration
from rieszlab.spaces import (
    Coordinate, EventuallyConstant, FinSupport, ImageTable, LogTwo,
    PiecewiseLinear, SimpleFunction, add, coord, ec, from_atoms, inf,
    is_zero, leq, neg_part, normalize, one, pieces, pl, pos_part, scale, sub,
    sup, unit_atom, zero,
)

from conftest import SCALARS, make_rng, pl_elements, report_line

EC = EventuallyConstant()


def _scalar_pair():
    S = Kernel(Coordinate(2), Coordinate(1),
               ((1, 1, poly(0, 1)), (2, 1, poly(0, 2))))
    T = Kernel(Coordinate(2), Coordinate(1),
               ((1, 1, poly(0, -1)), (2, 1, poly(0, 3))))
    return S, T


def test_join_example():
    S, T = _scalar_pair()
    p = join_at(S, T, coord(1, 1))
    assert p.value == coord(4)
    assert [(d.left, d.right) for d in p.attained] == [(coord(1, 0),
                                                        coord(0, 1))]


def test_join_idempotent_and_meet_example():
    S, T = _scalar_pair()
    x = coord(1, 1)
    assert join_at(T, T, x).value == apply(T, x)
    m = meet_at(S, T, x)
    assert m.value == coord(1)
    assert m.attained[0].left == coord(0, 1)


def test_meet_duality_identity():
    rng = make_rng("duality")
    for _ in range(40):
        space = Coordinate(rng.randint(1, 4))
        S = gen.random_kernel(rng, space)
        T = gen.random_kernel(rng, space)
        x = gen.random_element(rng, space)
        assert meet_at(S, T, x).value == \
            scale(-1, join_at(negate(S), negate(T), x).value)


def test_modulus_example():
    T = Kernel(Coordinate(2), Coordinate(1),
               ((1, 1, poly(0, 1)), (2, 1, poly(0, 0, -1))))
    # values over splittings of (1,2): {-3, 3, 5, -5}
    p = modulus_at(T, coord(1, 2))
    assert p.value == coord(5)
    assert p.attained[0].left == coord(1, 0)
    assert modulus_at(T, zero(Coordinate(2))).value == zero(Coordinate(1))


def test_parts_on_the_line():
    T = diagonal_kernel(Coordinate(1), [poly(0, 1)])
    assert pos_part_at(T, coord(-3)).value == coord(0)
    assert neg_part_at(T, coord(-3)).value == coord(3)
    Tpos = diagonal_kernel(Coordinate(1), [poly(0, 0, 1)])
    x = coord(-2)
    assert pos_part_at(Tpos, x).value == apply(Tpos, x)


def test_part_closed_forms_random():
    rng = make_rng("parts")
    for _ in range(60):
        n = rng.randint(1, 5)
        space = Coordinate(n)
        fns = [gen._random_fn(rng) for _ in range(n)]
        T = diagonal_kernel(space, fns)
        x = gen.random_element(rng, space)
        vals = list(zip(fns, x.payload))
        assert pos_part_at(T, x).value.payload == \
            tuple(max(f(v), Q(0)) for f, v in vals)
        assert neg_part_at(T, x).value.payload == \
            tuple(max(-f(v), Q(0)) for f, v in vals)
        assert modulus_at(T, x).value.payload == \
            tuple(abs(f(v)) for f, v in vals)
        assert sub(pos_part_at(T, x).value, neg_part_at(T, x).value) == \
            apply(T, x)


def test_join_upper_bound_property():
    rng = make_rng("ub")
    for _ in range(30):
        space = Coordinate(rng.randint(1, 4))
        S = gen.random_kernel(rng, space)
        T = gen.random_kernel(rng, space)
        x = gen.random_element(rng, space)
        top = join_at(S, T, x).value
        for d in enumerate_decompositions(x):
            assert leq(add(apply(S, d.left), apply(T, d.right)), top)


def test_fold_order_independence():
    S, T = _scalar_pair()
    x = coord(1, 1)
    values = [add(apply(S, d.left), apply(T, d.right))
              for d in enumerate_decompositions(x)]
    forward = values[0]
    for v in values[1:]:
        forward = sup(forward, v)
    backward = values[-1]
    for v in reversed(values[:-1]):
        backward = sup(backward, v)
    assert forward == backward == join_at(S, T, x).value


def _all_kinds(S, T, x):
    """(name, public evaluation, enumeration reference, fold of
    applications) for the five pointwise operations at x.  The closed
    fold and the fragment tables both read ``piece_images``, so the fold
    of applications checks them apart from it."""
    Z = ZeroOp(T.domain, T.codomain)
    cases = (("join", join_at(S, T, x), S, T, "sup"),
             ("meet", meet_at(S, T, x), S, T, "inf"),
             ("pos", pos_part_at(T, x), T, Z, "sup"),
             ("neg", neg_part_at(T, x), T, Z, "inf"),
             ("mod", modulus_at(T, x), T, negate(T), "sup"))
    for name, got, left, right, kind in cases:
        ref = extrema_by_enumeration(left, right, x, kind)
        value, attained = _enumeration_by_apply(left, right, x, kind)
        if name == "neg":
            ref.value, value = scale(-1, ref.value), scale(-1, value)
        yield name, got, ref, (value, attained)


def _assert_matches_enumeration(S, T, x):
    for name, got, ref, (value, attained) in _all_kinds(S, T, x):
        assert got.value == ref.value == value, (name, S, T, x)
        assert got.attained == ref.attained == attained, (name, S, T, x)
        assert (got.mode, got.notes) == (ref.mode, ref.notes), (name, S, T, x)


def test_closed_form_matches_enumeration_on_every_finite_model():
    rng = make_rng("closed-vs-enum")
    for k in range(150):
        space = gen.space_menu()[k % 6]
        S = gen.random_oao(rng, space)
        T = gen.random_oao(rng, space, allow_tables=k % 2 == 0)
        x = gen.random_element(rng, space)
        if isinstance(space, EventuallyConstant):
            x = ec(x.payload[0], 0)
        _assert_matches_enumeration(S, T, x)


def test_closed_form_tie_goes_right():
    S = diagonal_kernel(Coordinate(2), [poly(0, 1), poly(0, 2)])
    T = diagonal_kernel(Coordinate(2), [poly(0, 1), poly(0, -1)])
    x = coord(1, 1)
    p = join_at(S, T, x)
    assert p.value == coord(1, 2)
    assert p.attained == (Decomposition(x, coord(0, 1), coord(1, 0)),)
    _assert_matches_enumeration(S, T, x)


def test_closed_form_incomparable_images_attain_nothing():
    # per atom, S and T land on different coordinates of the codomain
    S = Kernel(Coordinate(2), Coordinate(2),
               ((1, 1, poly(0, 1)), (2, 2, poly(0, 1))))
    T = Kernel(Coordinate(2), Coordinate(2),
               ((1, 2, poly(0, 1)), (2, 1, poly(0, 1))))
    x = coord(1, 0)
    p = join_at(S, T, x)
    assert p.value == coord(1, 1) and p.attained == ()
    assert meet_at(S, T, x).attained == ()
    _assert_matches_enumeration(S, T, x)
    _assert_matches_enumeration(S, T, coord(1, 2))


def test_closed_form_at_zero():
    S, T = _scalar_pair()
    x = zero(Coordinate(2))
    p = join_at(S, T, x)
    assert p.value == zero(Coordinate(1))
    assert p.attained == (Decomposition(x, x, x),)
    _assert_matches_enumeration(S, T, x)
    for space in gen.space_menu():
        U = gen.random_dp_operator(make_rng("zero"), space)
        _assert_matches_enumeration(U, U, zero(space))


def test_the_series_takes_the_closed_fold(monkeypatch):
    A = AlternatingSeries()
    B = OpScaled(Q(-1, 2), A)
    points = (ec([1, -2, 3], 0), ec([], 0), ec([0, Q(1, 2)], 0))
    for x in points:
        _assert_matches_enumeration(A, B, x)
    want = [join_at(A, B, x).value for x in points]

    def no_enumeration(*args):
        raise AssertionError("an additive pair folds atom by atom")

    monkeypatch.setattr(oplattice, "extrema_by_enumeration", no_enumeration)
    assert [join_at(A, B, x).value for x in points] == want
    # per atom: max(-1, 1/2) + max(1, -1/2) + max(-1, 1/2)
    assert want[0] == normalize(LogTwo(), (2, 0))
    # |-1| + |2/2| + |-3/3|
    assert modulus_at(A, ec([1, -2, 3], 0)).value == normalize(
        LogTwo(), (3, 0))


def test_truncated_levels_monotone_and_match_enumeration():
    rng = make_rng("trunc")
    x = ec([1, -2], Q(1, 2))
    pairs = [
        (gen.random_kernel(rng, EC, Coordinate(2)),
         gen.random_kernel(rng, EC, Coordinate(2))),
        (gen.random_lateral_meet(rng, EC),
         gen.random_lateral_meet(rng, EC)),
    ]
    L = gen.random_linear_ec(rng, EC)
    pairs.append((L, gen.random_lateral_meet(rng, EC)))
    for S, T in pairs:
        p = join_at(S, T, x, level=7)
        assert p.mode == "truncated"
        for (l1, v1), (l2, v2) in zip(p.levels, p.levels[1:]):
            assert l2 == l1 + 1 and leq(v1, v2)
        # brute-force cross-check through the truncated fragment sets
        for l, v in p.levels:
            best = None
            for d in enumerate_decompositions(x, level=l):
                val = add(apply(S, d.left), apply(T, d.right))
                best = val if best is None else sup(best, val)
            assert best == v


def test_truncated_requires_level():
    S = diagonal_kernel_on_ec()
    with pytest.raises(PreconditionError):
        join_at(S, S, one(EC))


def diagonal_kernel_on_ec():
    return Kernel(EC, Coordinate(1), ((1, 1, poly(0, 1)),))


def test_series_positive_part_levels_are_exact():
    # at level l the largest image of a fragment of the constant one
    # takes the even atoms up to l, and the tail past l where its value
    # -ln 2 - s_l is positive: for odd l
    A = AlternatingSeries()
    p = pos_part_at(A, one(EC), level=6)
    half_sum, s_l, want = Q(0), Q(0), []
    for l in range(7):
        if l:
            s_l += Q((-1) ** l, l)
            half_sum += Q(1, l) if l % 2 == 0 else 0
        want.append((l, normalize(A.codomain, (half_sum - s_l, -1) if l % 2
                                  else (half_sum, 0))))
    assert list(p.levels) == want
    for (l1, v1), (l2, v2) in zip(p.levels, p.levels[1:]):
        assert leq(v1, v2)


def test_dp_fast_matches_brute_force():
    rng = make_rng("dpfast")
    for k in range(40):
        space = gen.space_menu()[k % 6]
        T = gen.random_dp_operator(rng, space)
        assert T.dp_reason() is not None
        x = gen.random_element(rng, space)
        if isinstance(space, EventuallyConstant):
            x = ec(x.payload[0], 0)
        assert dp_fast("modulus", T, x) == modulus_at(T, x).value
        assert dp_fast("pos", T, x) == pos_part_at(T, x).value
        assert dp_fast("neg", T, x) == neg_part_at(T, x).value


def test_dp_fast_requires_a_body_reason():
    T = diagonal_kernel(Coordinate(1), [poly(0, 1)])
    assert dp_fast("modulus", T, coord(-1)) == coord(1)
    with pytest.raises(PreconditionError):
        dp_fast("sign", T, coord(1))
    collapse = Kernel(Coordinate(2), Coordinate(1),
                      ((1, 1, poly(0, 1)), (2, 1, poly(0, 1))))
    assert collapse.dp_reason() is None
    with pytest.raises(PreconditionError):
        dp_fast("modulus", collapse, coord(1, 1))


def test_zero_rows_leave_a_dp_reason():
    # a row whose function vanishes feeds its target nothing, so the
    # other row alone targets atom 1
    T = Kernel(Coordinate(2), Coordinate(1),
               ((1, 1, poly(0, 1)), (2, 1, poly(0))))
    assert T.dp_reason() is not None
    for x in (coord(-3, 5), coord(2, -1), coord(Q(1, 2), 0)):
        assert dp_fast("modulus", T, x) == modulus_at(T, x).value
        assert dp_fast("pos", T, x) == pos_part_at(T, x).value
        assert dp_fast("neg", T, x) == neg_part_at(T, x).value
    # and in a sum of kernels; a live row on atom 2 takes the reason away
    zero_row = Kernel(Coordinate(2), Coordinate(1), ((2, 1, poly(0)),))
    assert OpSum((T, zero_row)).dp_reason() is not None
    live = Kernel(Coordinate(2), Coordinate(1), ((2, 1, poly(0, 0, 1)),))
    assert OpSum((T, live)).dp_reason() is None
    assert Kernel(Coordinate(2), Coordinate(1), ((1, 1, poly(0, 1)),
                                                (2, 1, poly(0, 0, 1)))
                  ).dp_reason() is None


def test_meyer_pair_vanishes_under_hypotheses():
    T = diagonal_kernel(Coordinate(3), [poly(0, 1), poly(0, 1), poly(0, 1)])
    e = coord(1, -2, 0)
    v = meyer_pair(T, coord(1, 0, 0), coord(0, -2, 0), e)
    assert v == zero(Coordinate(3))


def test_meyer_pair_guards():
    T = example_operator("unit_match")
    u = one(PiecewiseLinear())
    with pytest.raises(PreconditionError):
        meyer_pair(T, u, scale(2, u), u)
    with pytest.raises(PreconditionError):
        meyer_pair(T, u, u, None)
    collapse = Kernel(Coordinate(2), Coordinate(1),
                      ((1, 1, poly(0, 1)), (2, 1, poly(0, -1))))
    with pytest.raises(PreconditionError):
        meyer_pair(collapse, coord(1, 0), coord(0, 1), coord(1, 1))
    # ``unsafe`` is keyword-only, so a report passed after e, as the
    # guards once took one, cannot switch the hypothesis checks off
    with pytest.raises(TypeError):
        meyer_pair(T, u, u, u, verify_disjointness_preserving(T))


def test_a_clean_sample_licenses_no_fast_path():
    # f = max(t - 3, 0) is zero at every scalar the sampler draws, so no
    # sampled pair sees the rows 1 -> 1: f and 2 -> 1: -f share atom 1;
    # yet (5,0) and (0,5) are disjoint and both map onto it
    ramp = PiecewisePoly((3,), ((0,), (-3, 1)))
    T = Kernel(Coordinate(2), Coordinate(1),
               ((1, 1, ramp), (2, 1, PiecewisePoly((3,), ((0,), (3, -1))))))
    rep = verify_disjointness_preserving(T)
    assert (report_line(rep), rep.notes) == (
        "verdict=inconclusive samples=201 seed=0:dp", "sampled, no failure")
    x, y, e = coord(5, 0), coord(0, 5), coord(5, 5)
    with pytest.raises(PreconditionError):
        dp_fast("modulus", T, e)
    with pytest.raises(PreconditionError):
        meyer_pair(T, x, y, e)
    assert modulus_at(T, e).value == coord(4)
    # the wedge the statement would claim to vanish does not
    assert meyer_pair(T, x, y, unsafe=True) == coord(2)


def test_meyer_counterexamples_unsafe():
    T = example_operator("unit_match")
    u = one(PiecewiseLinear())
    assert meyer_pair(T, u, scale(2, u), unsafe=True) == u
    S = example_operator("unit_lateral_meet")
    w = one(S.space)
    assert meyer_pair(S, w, scale(2, w), unsafe=True) == w


# --- level tables cut at the operators' window ------------------------------

def test_body_windows():
    K = Kernel(EC, Coordinate(2), ((5, 1, poly(0, 1)), (2, 2, poly(0, 0, 1))))
    L = LinearEC(Coordinate(2), ((3, 1), (7, -2)), coord(1, 0), coord(0, 1))
    Z = ZeroOp(EC, Coordinate(2))
    assert (K.window(), L.window(), Z.window()) == (5, 7, 0)
    assert Kernel(EC, Coordinate(2), ()).window() == 0
    assert LinearEC(Coordinate(2), (), coord(1, 0), coord(0, 1)).window() == 0
    assert OpSum((K, L, Z)).window() == 7
    assert OpScaled(Q(-1, 2), K).window() == 5
    assert example_operator("ramped_basis", horizon=4).window() == 4
    # bodies without a window, and sums holding one
    meet = LateralMeet(EC, one(EC), zero(EC))
    for T in (AlternatingSeries(), meet,
              MatchTable(EC, EC, ((one(EC), one(EC)),))):
        assert T.window() is None
    assert OpSum((meet, meet)).window() is None
    assert OpScaled(2, meet).window() is None


def test_level_walk_builds_canonical_payloads():
    for x in (ec([1, 0, Q(-2, 3)], Q(5, 2)), ec([], -1), ec([0, 0, 4], 7)):
        prefix, tail = x.payload
        rows = list(EC.level_walk(x, len(prefix) + 4))
        assert [l for l, _, _ in rows] == list(range(len(prefix),
                                                     len(prefix) + 5))
        assert rows[0][1] == pieces(x)
        for l, atoms, w in rows:
            want = normalize(EC, ([0] * l, tail))
            assert w == want and repr(w.payload) == repr(want.payload)
            if l > len(prefix):
                want = unit_atom(EC, l, tail)
                assert atoms == [want]
                assert repr(atoms[0].payload) == repr(want.payload)
    # the window cuts the walk, never below the prefix
    x = ec([1, 2, 3], 1)
    assert [l for l, _, _ in EC.level_walk(x, 9, window=5)] == [3, 4, 5]
    assert [l for l, _, _ in EC.level_walk(x, 9, window=0)] == [3]
    assert [l for l, _, _ in EC.level_walk(x, 4, window=8)] == [3, 4]


def test_window_cut_counts_fewer_applications(monkeypatch):
    S = Kernel(EC, Coordinate(1), ((2, 1, poly(0, 1)),))
    T = Kernel(EC, Coordinate(1), ((3, 1, poly(0, -1, 1)),))
    calls = []
    real = oplattice.apply

    def counting(op, x):
        calls.append(x)
        return real(op, x)

    monkeypatch.setattr(oplattice, "apply", counting)
    table = join_at(S, T, one(EC), level=40).levels
    assert len(calls) == 2 * (3 + 4)      # each of S, T: 3 atoms, 4 tails
    assert [l for l, _ in table] == list(range(41))
    assert list(table) == levels_by_full_walk(S, T, one(EC), "sup", 40)
    assert all(v == table[3][1] for _, v in table[3:])


COORD2 = Coordinate(2)
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _coord2():
    return st.tuples(COEFFS, COEFFS).map(lambda v: coord(*v))


def _kernels():
    rows = st.dictionaries(st.integers(1, 8), st.tuples(
        st.integers(1, 2), COEFFS, COEFFS), max_size=4)
    return rows.map(lambda r: Kernel(EC, COORD2, tuple(
        (i, j, poly(0, a1, a2)) for i, (j, a1, a2) in r.items())))


def _linear_maps():
    return st.builds(
        lambda coeffs, unit, target: LinearEC(COORD2, tuple(coeffs.items()),
                                              unit, target),
        st.dictionaries(st.integers(1, 8), COEFFS, max_size=3),
        _coord2(), _coord2())


def _window_bodies():
    """Bodies that have a window, and sums and scalings of them."""
    base = st.one_of(
        _kernels(), _linear_maps(), st.just(ZeroOp(EC, COORD2)),
        st.builds(lambda t, h: example_operator("ramped_basis", target=t,
                                                horizon=h),
                  _coord2(), st.integers(1, 6)))
    return st.one_of(
        base,
        st.lists(base, min_size=2, max_size=3).map(OpSum),
        st.builds(OpScaled, COEFFS.filter(bool), base))


def _tail_points():
    return st.builds(lambda prefix, tail: ec(prefix, tail),
                     st.lists(SCALARS, max_size=4),
                     COEFFS.filter(bool))


WINDOW_SETTINGS = settings(max_examples=80, derandomize=True, deadline=None,
                           database=None)


@WINDOW_SETTINGS
@given(_window_bodies(), _window_bodies(), _tail_points(),
       st.integers(0, 12))
def test_window_cut_matches_the_full_walk(S, T, x, extra):
    # join, meet, parts, modulus and the lateral bound scan, each cut
    # at the window against the full walk, as op-level-window pairs them
    level = len(x.payload[0]) + extra
    for name, got, want in _window_tables(S, T, x, level):
        assert list(got) == list(want), name
        assert repr(got) == repr(tuple(want)), name


def _counting(monkeypatch, cls, name):
    """Count the calls of ``cls.name`` in a list of their arguments."""
    calls, real = [], getattr(cls, name)

    def run(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, run)
    return calls


def _tail_point_tables():
    """Match tables keyed on fragments of ec[1,-2|1/2] that first appear
    at levels 2 to 4, and a kernel into the same codomain."""
    table = MatchTable(EC, Coordinate(2), (
        (ec([1], 0), coord(3, -1)),
        (ec([0, -2], Q(1, 2)), coord(-1, 2)),
        (ec([1, 0, 0, Q(1, 2)], 0), coord(Q(1, 2), 4)),
        (ec([0, 0, 0, 0], Q(1, 2)), coord(-3, Q(1, 3)))))
    kernel = Kernel(EC, Coordinate(2), ((1, 1, poly(0, 1)),
                                        (3, 2, poly(0, 0, -2)),
                                        (4, 1, poly(0, -1))))
    return table, kernel


def test_truncated_enumeration_matches_each_level_enumerated(monkeypatch):
    # a pair with a match table enumerates the top level once, each
    # splitting folded into the first level that holds it
    table, kernel = _tail_point_tables()
    x = ec([1, -2], Q(1, 2))
    for S, T in ((table, kernel), (kernel, table)):
        for kind, at in (("sup", join_at), ("inf", meet_at)):
            for level in (2, 3, 6):
                want = levels_by_enumeration(S, T, x, kind, level)
                assert list(at(S, T, x, level).levels) == want
    calls = _counting(monkeypatch, oplattice, "apply")
    join_at(table, kernel, x, level=6)
    # atoms 1..6 and the tail beyond: 2^7 splittings, two applications
    # each; a level at a time applied 2 * (2^3 + ... + 2^7) times
    assert len(calls) == 2 * 2 ** 7


@WINDOW_SETTINGS
@given(st.one_of(_kernels(), _linear_maps()),
       st.one_of(_kernels(), _linear_maps()),
       _tail_points(), st.sampled_from(("sup", "inf")), st.integers(0, 3))
def test_truncated_enumeration_matches_on_additive_pairs(S, T, x, kind, extra):
    # the closed fold serves these pairs; their enumerated tables still
    # agree with each level enumerated on its own
    level = len(x.payload[0]) + extra
    assert oplattice._levels_enumerated(S, T, x, kind, level) == \
        levels_by_enumeration(S, T, x, kind, level)


def test_below_prefix_level_is_refused_on_every_path():
    x = ec([1, 2, 3, 4, 5], 7)
    rng = make_rng("below-prefix")
    closed = (gen.random_kernel(rng, EC, Coordinate(2)),
              gen.random_linear_ec(rng, Coordinate(2)))
    enumerated = (gen.random_lateral_meet(rng, EC),
                  gen.random_lateral_meet(rng, EC))
    message = "level 3 is below the prefix length 5"
    for S, T in (closed, enumerated):
        for f in (lambda: join_at(S, T, x, level=3),
                  lambda: meet_at(S, T, x, level=3),
                  lambda: pos_part_at(T, x, level=3),
                  lambda: neg_part_at(T, x, level=3),
                  lambda: modulus_at(T, x, level=3),
                  lambda: lateral_bound_scan(T, x, level=3)):
            with pytest.raises(PreconditionError, match=message):
                f()
    # the prefix length itself is the first level of a table
    assert [l for l, _ in join_at(*closed, x, level=5).levels] == [5]


# --- derived operators as bodies --------------------------------------------

def test_derived_operator_bodies():
    S, T = _scalar_pair()
    x = coord(1, 1)
    J = OpLattice("join", (S, T))
    assert (J.domain, J.codomain) == (S.domain, S.codomain)
    assert J.at(x) == join_at(S, T, x)
    assert apply(J, x) == join_at(S, T, x).value
    # a plain body's value at a point is its image
    assert S.at(x) == apply(S, x)
    assert J.atom_additive and OpLattice("mod", (J,)).atom_additive
    table = MatchTable(S.domain, S.codomain, ((x, coord(1)),))
    assert not OpLattice("meet", (S, table)).atom_additive
    # a level reaches the pointwise function; applied, the body has none
    y = ec([1], 2)
    L = example_operator("ramped_basis", horizon=3)
    P = OpLattice("pos", (L,))
    assert P.at(y, 4) == pos_part_at(L, y, level=4)
    with pytest.raises(PreconditionError, match="supply a truncation level"):
        apply(P, y)
    for kind, parts in (("join", (S,)), ("pos", (S, T)), ("sup", (S, T))):
        with pytest.raises(MalformedElement):
            OpLattice(kind, parts)


def _coord_kernels(n):
    """Kernels from Coordinate(n) into two atoms, quadratic per row."""
    rows = st.dictionaries(st.integers(1, n), st.tuples(
        st.integers(1, 2), COEFFS, COEFFS), max_size=n)
    return rows.map(lambda r: Kernel(Coordinate(n), COORD2, tuple(
        (i, j, poly(0, a1, a2)) for i, (j, a1, a2) in r.items())))


def _kernel_triples():
    """(S, T, U, x): three kernels on Coordinate(n) and a point."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        _coord_kernels(n), _coord_kernels(n), _coord_kernels(n),
        st.lists(SCALARS, min_size=n, max_size=n).map(lambda v: coord(*v))))


def _fold_splittings(kind, left, right, x):
    """sup or inf of left(u) + right(v) over every splitting x = u + v."""
    return functools.reduce({"sup": sup, "inf": inf}[kind], (
        add(left(d.left), right(d.right)) for d in enumerate_decompositions(x)))


LATTICE_SETTINGS = settings(max_examples=120, derandomize=True, deadline=None,
                            database=None)


@LATTICE_SETTINGS
@given(_kernel_triples())
def test_nested_lattice_expressions_match_nested_enumeration(case):
    # the inner operation enumerates the splittings of each left part
    S, T, U, x = case
    Z = ZeroOp(T.domain, T.codomain)

    def join(u):
        return extrema_by_enumeration(S, T, u, "sup").value

    def pos(u):
        return extrema_by_enumeration(T, Z, u, "sup").value

    def nothing(v):
        return zero(COORD2)

    J = OpLattice("join", (S, T))
    assert OpLattice("pos", (J,)).at(x).value == \
        _fold_splittings("sup", join, nothing, x)
    assert OpLattice("mod", (J,)).at(x).value == \
        _fold_splittings("sup", join, lambda v: scale(-1, join(v)), x)
    assert OpLattice("meet", (J, U)).at(x).value == \
        _fold_splittings("inf", join, lambda v: apply(U, v), x)
    assert OpLattice("neg", (OpLattice("pos", (T,)),)).at(x).value == \
        scale(-1, _fold_splittings("inf", pos, nothing, x))


@LATTICE_SETTINGS
@given(_kernel_triples())
def test_lattice_laws_hold_pointwise(case):
    S, T, _, x = case
    pos, neg, mod = (OpLattice(kind, (T,)) for kind in ("pos", "neg", "mod"))
    assert apply(OpSum((pos, negate(neg))), x) == apply(T, x)
    assert apply(mod, x) == apply(OpSum((pos, neg)), x)
    assert apply(OpSum((OpLattice("join", (S, T)),
                        OpLattice("meet", (S, T)))), x) == \
        apply(OpSum((S, T)), x)


# --- fragment tables of the splitting enumeration ---------------------------

THIRDS = SimpleFunction((Q(0), Q(1, 3), Q(2, 3), Q(1)))
HALVES = SimpleFunction((Q(0), Q(1, 2), Q(1)))


def _cell_points(space):
    # the zero point has no support pieces: a one-entry table
    return st.one_of(st.just(zero(space)), st.lists(
        SCALARS, min_size=3, max_size=3).map(lambda v: normalize(space, v)))


# (domain, the atoms kernel rows read, its points with finitely many
# fragments); rows past a point's support read zeros
TABLE_DOMAINS = (
    (Coordinate(3), 3, _cell_points(Coordinate(3))),
    (THIRDS, 3, _cell_points(THIRDS)),
    (FinSupport(), 6, st.dictionaries(st.integers(1, 6), SCALARS,
                                      max_size=4).map(
        lambda d: normalize(FinSupport(), d.items()))),
    (EC, 6, st.lists(SCALARS, max_size=5).map(lambda p: ec(p, 0))),
    (PiecewiseLinear(), None, pl_elements()),
)
# non-integral factors scale the numerators of a column table and its
# denominators apart
FACTORS = st.one_of(COEFFS, st.fractions(min_value=-2, max_value=2,
                                         max_denominator=9))


def _combinations(leaves):
    """Sums, multiples and negations of the leaves, nested."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(OpSum),
        st.builds(OpScaled, FACTORS, inner),
        inner.map(negate)), max_leaves=5)


def _codomain_values(codomain, targets):
    if codomain.atomic:
        return st.lists(SCALARS, min_size=targets, max_size=targets).map(
            lambda v: from_atoms(codomain, dict(enumerate(v, 1))))
    return pl_elements()


def _table_bodies(domain, atoms, codomain, targets, x):
    """Bodies from domain to codomain for the point x, and their
    combinations: the zero operator; match tables keyed on sums of x's
    pieces, which are fragments of x, and lateral meets with such sums
    and their doubles, so that both meet x's fragments; on atomic
    domains kernels, each row sending one of the first ``atoms`` atoms
    to one of the first ``targets``, so rows share targets; on
    eventually constant sequences linear maps; and the lattice
    operations of all these.  Half the draws with a lateral meet among
    the leaves are a bare meet whose b is a nonzero sum of x's pieces,
    so that a piece below b must lose its image."""
    values = _codomain_values(codomain, targets)
    parts = pieces(x)
    sums = (st.sets(st.sampled_from(parts)).map(
        lambda ps: sum(ps, zero(domain))) if parts else st.just(zero(domain)))
    nonzero = sums.filter(lambda k: not is_zero(k))
    leaves = [st.just(ZeroOp(domain, codomain)), st.lists(
        st.tuples(nonzero, values), min_size=1, max_size=3,
        unique_by=lambda e: e[0]).map(
        lambda e: MatchTable(domain, codomain, tuple(e)))]
    if codomain == domain:
        params = st.one_of(sums, sums.map(lambda k: scale(2, k)))
        leaves.append(st.builds(LateralMeet, st.just(domain), params, params))
    if domain.atomic:
        rows = st.dictionaries(st.integers(1, atoms), st.tuples(
            st.integers(1, targets), COEFFS, COEFFS), max_size=atoms)
        leaves.append(rows.map(lambda r: Kernel(domain, codomain, tuple(
            (i, j, poly(0, a1, a2)) for i, (j, a1, a2) in r.items()))))
    if domain == EC:
        coeffs = st.dictionaries(st.integers(1, atoms), COEFFS).map(
            lambda d: tuple(d.items()))
        leaves.append(st.builds(LinearEC, st.just(codomain), coeffs,
                                values, values))
    leaf = st.one_of(leaves)
    lattice = st.one_of(
        st.tuples(st.sampled_from(("join", "meet")), leaf, leaf),
        st.tuples(st.sampled_from(("pos", "neg", "mod")), leaf)).map(
        lambda c: OpLattice(c[0], c[1:]))
    bodies = _combinations(st.one_of(leaf, lattice))
    if codomain != domain or not parts:
        return bodies
    return st.one_of(st.builds(LateralMeet, st.just(domain), params, nonzero),
                     bodies)


def _operands_and_point(count):
    """``count`` bodies sharing a domain and codomain, and a point; the
    codomain is a cell space (integer column tables) or the domain."""
    def on(case):
        domain, atoms, points = case
        codomain = st.sampled_from(((COORD2, 2), (HALVES, 2),
                                    (domain, atoms)))
        return st.tuples(codomain, points).flatmap(lambda c: st.tuples(
            *[_table_bodies(domain, atoms, *c[0], c[1])] * count,
            st.just(c[1])))
    return st.sampled_from(TABLE_DOMAINS).flatmap(on)


TABLE_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                          database=None)


@TABLE_SETTINGS
@given(_operands_and_point(1))
def test_fragment_tables_match_one_application_per_fragment(case):
    T, x = case
    frags = Restrictions(x)
    table = oplattice.fragment_images(T, frags)
    reference = images_by_apply(T, frags)
    assert len(table) == len(reference) == len(frags)
    rows = [table[m] for m in range(len(table))]
    assert rows == list(table) == reference
    assert repr(rows) == repr(reference)


def test_fragment_tables_count_their_applications(monkeypatch):
    # a lateral meet is additive and reads its piece images off its two
    # meets with the point, so it is never applied; the match table
    # applies to all eight fragments, each sliced once from x's payload
    x = pl((0, 1), (Q(1, 4), -1), (Q(1, 2), 0), (Q(3, 4), 2), (1, 0))
    assert len(PiecewiseLinear().support(x)) == 3
    S = LateralMeet(x.space, x, zero(x.space))
    T = match_table([(pl((0, 0), (Q(1, 2), 0), (Q(3, 4), 2), (1, 0)),
                      one(x.space))])
    calls = {"apply": 0, "slice": 0}

    def counted(name, method):
        def run(*args):
            calls[name] += 1
            return method(*args)
        return run

    monkeypatch.setattr(LateralMeet, "_apply",
                        counted("apply", LateralMeet._apply))
    monkeypatch.setattr(spaces, "_pl_slice",
                        counted("slice", spaces._pl_slice))
    # x itself is the full entry, so seven fragments are sliced
    assert len(set(Restrictions(x))) == 8
    assert calls == {"apply": 0, "slice": 7}
    # the table slices them once more, and the common fragment of x
    # and 0 slices one
    point = extrema_by_enumeration(S, T, x, "sup")
    assert calls == {"apply": 0, "slice": 15}
    assert point.value == _enumeration_by_apply(S, T, x, "sup")[0]


def test_combinator_tables_count_their_applications(monkeypatch):
    # a multiple of an additive body scales its three piece images, not
    # the eight entries of its table, and the lateral meet inside it is
    # never applied
    x = pl((0, 1), (Q(1, 4), -1), (Q(1, 2), 0), (Q(3, 4), 2), (1, 0))
    T = OpScaled(Q(-3, 2), LateralMeet(x.space, x, zero(x.space)))
    frags = Restrictions(x)
    reference = images_by_apply(T, frags)
    calls = {"apply": 0, "scale": 0}

    def counted(name, method):
        def run(*args):
            calls[name] += 1
            return method(*args)
        return run

    monkeypatch.setattr(LateralMeet, "_apply",
                        counted("apply", LateralMeet._apply))
    monkeypatch.setattr(PiecewiseLinear, "scale",
                        counted("scale", PiecewiseLinear.scale))
    table = oplattice.fragment_images(T, frags)
    assert calls == {"apply": 0, "scale": 3}
    assert list(table) == reference


@TABLE_SETTINGS
@given(_operands_and_point(1))
def test_piece_images_match_the_default(case):
    # lateral meets, the zero operator and lattice bodies read their
    # piece images off their parameters and parts; the default applies
    # the body to each piece and is the reference
    T, x = case
    frags = Restrictions(x)
    want = Operator.piece_images(T, frags)
    assert repr(T.piece_images(frags)) == repr(want)
    assert len(want) == len(frags.parts)


def test_lateral_meet_piece_images_on_every_model():
    # a and b are sums of some of x's pieces, so a piece may lie below
    # a, below b, below both or below neither; 2b meets no piece of x
    rng = make_rng("lateral-meet-pieces")
    for k in range(72):
        space = gen.space_menu()[k % 6]
        x = gen.random_element(rng, space)
        if isinstance(space, EventuallyConstant):
            x = ec(x.payload[0], 0)
        parts = pieces(x)
        a = sum((p for p in parts if rng.random() < 0.6), zero(space))
        b = sum((p for p in parts if rng.random() < 0.6), zero(space))
        T = LateralMeet(space, a, scale(2, b) if k % 4 == 3 else b)
        frags = Restrictions(x)
        assert repr(T.piece_images(frags)) == \
            repr(Operator.piece_images(T, frags)), (x, a, b)


def test_parts_apply_no_zero_operator(monkeypatch):
    # the zero operator's piece images are zeros, built with no
    # application and no restriction
    x = pl((0, 1), (Q(1, 4), -1), (Q(1, 2), 0), (Q(3, 4), 2), (1, 0))
    T = LateralMeet(x.space, x, scale(2, x))
    U = diagonal_kernel(Coordinate(3), [poly(0, 1), poly(0, -1), poly(0, 0, 1)])
    y = coord(1, -2, Q(1, 3))
    zero_calls = _counting(monkeypatch, ZeroOp, "_apply")
    got = [(f(T, x).value, f(U, y).value) for f in (pos_part_at, neg_part_at)]
    assert zero_calls == []
    # T is the identity on the fragments of x, and U squares or negates
    assert got == [(pos_part(x), coord(1, 2, Q(1, 9))),
                   (neg_part(x), zero(Coordinate(3)))]


def test_a_join_of_lattice_bodies_reads_no_pointwise_value(monkeypatch):
    # nested bodies pick their parts' piece images, so neither the closed
    # fold nor the fragment table evaluates a lattice body at a point
    x = pl((0, 1), (Q(1, 4), -1), (Q(1, 2), 0), (Q(3, 4), 2), (1, 0))
    a, b = pieces(x)[:2]
    S = OpLattice("join", (LateralMeet(x.space, x, a),
                           LateralMeet(x.space, b, x)))
    T = OpLattice("mod", (OpLattice("neg", (LateralMeet(x.space, a, b),)),))
    want = _enumeration_by_apply(S, T, x, "sup")
    at_calls = _counting(monkeypatch, OpLattice, "at")
    closed = join_at(S, T, x)
    enumerated = extrema_by_enumeration(S, T, x, "sup")
    assert at_calls == []
    assert closed.value == enumerated.value == want[0]
    assert closed.attained == enumerated.attained == want[1]


def test_closed_fold_reads_pieces_past_the_enumeration_cap():
    # 2^24 splittings: the closed fold reads 24 pieces, and every
    # enumeration of the splittings is refused as before
    space = Coordinate(24)
    S = diagonal_kernel(space, [poly(0, 1)] * 24)
    T = diagonal_kernel(space, [poly(0, 0, -1)] * 24)
    values = [Q(k - 12, 3) or 1 for k in range(24)]
    x = normalize(space, values)
    assert join_at(S, T, x).value == normalize(
        space, [max(v, -v * v) for v in values])
    assert modulus_at(T, x).value == normalize(space, [v * v for v in values])
    message = ("fragment algebra has 16777216 members, beyond the "
               "enumeration cap 262144")
    with pytest.raises(EnumerationCapExceeded) as err:
        extrema_by_enumeration(S, T, x, "sup")
    assert str(err.value) == message
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_fragments(x)
    assert str(err.value) == message


def _series_pairs():
    """Two bodies into the series' range on eventually constant
    sequences, and a point with finitely many fragments."""
    leaves = st.sampled_from((AlternatingSeries(), ZeroOp(EC, LogTwo())))
    return st.tuples(_combinations(leaves), _combinations(leaves),
                     st.lists(SCALARS, max_size=5).map(lambda p: ec(p, 0)))


def _enumeration_by_apply(S, T, x, kind):
    """``extrema_by_enumeration`` as a fold of both operators applied to
    both sides of every splitting: value and attained."""
    pairs = [(d, add(apply(S, d.left), apply(T, d.right)))
             for d in enumerate_decompositions(x)]
    fold = functools.reduce({"sup": sup, "inf": inf}[kind],
                            (v for _, v in pairs))
    hits = [d for d, v in pairs if v == fold]
    return fold, oplattice._minimal_left(hits)


@TABLE_SETTINGS
@given(st.one_of(_operands_and_point(2), _series_pairs()),
       st.sampled_from(("sup", "inf")))
def test_enumeration_matches_the_fold_of_applications(case, kind):
    S, T, x = case
    got = extrema_by_enumeration(S, T, x, kind)
    value, attained = _enumeration_by_apply(S, T, x, kind)
    assert got.value == value
    assert repr((got.value, got.attained)) == repr((value, attained))
    assert (got.mode, got.notes) == ("exact", "")


# --- the column fold against the fold of elements ---------------------------

def _cell_tables():
    """Two lists of 2**n elements of one cell space, their entries drawn
    from few values so that ties are common, with mixed denominators."""
    values = st.sampled_from((0, 1, -1, 2, Q(1, 2), Q(-1, 3), Q(2, 3),
                              Q(5, 6)))

    def rows(space, n):
        return st.lists(st.lists(values, min_size=space.atom_count(),
                                 max_size=space.atom_count()).map(
            lambda v: normalize(space, v)), min_size=2 ** n, max_size=2 ** n)

    return st.tuples(st.sampled_from((Coordinate(1), COORD2, Coordinate(3),
                                      THIRDS)),
                     st.integers(0, 4)).flatmap(
        lambda c: st.tuples(rows(*c), rows(*c)))


@TABLE_SETTINGS
@given(_cell_tables(), st.sampled_from((max, min)))
def test_column_fold_matches_the_fold_of_elements(case, pick):
    left, right = case
    space = left[0].space
    columns = space.image_table(left) + space.image_table(right).complement()
    elements = ImageTable(left) + ImageTable(right).complement()
    assert list(columns) == list(elements)
    value, masks = columns.extremum(pick)
    want, want_masks = elements.extremum(pick)
    assert repr(value) == repr(want)
    assert masks == want_masks
    fold = functools.reduce(sup if pick is max else inf, list(elements))
    assert value == fold
    assert masks == [m for m, v in enumerate(elements) if v == fold]
