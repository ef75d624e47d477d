"""Fragments, lateral order, enumerations and the refinement grid."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import generators as gen
from rieszlab.errors import EnumerationCapExceeded, PreconditionError
from rieszlab.lateral import (
    enumerate_decompositions, enumerate_fragments, fragment_iter, is_fragment,
    lateral_inf, lateral_sup, meet_formula, min_level, pliev_grid,
)
from rieszlab.spaces import (
    Coordinate, EventuallyConstant, PiecewiseLinear, SimpleFunction,
    absolute, add, canonical_key, coord, ec, fin, get_atom, one, pl, scale,
    sub, zero, leq, neg_part, normalize, pos_part,
)

from conftest import SCALARS, make_rng


def test_is_fragment_examples():
    assert is_fragment(coord(1, 0), coord(1, 2))
    assert not is_fragment(coord(1, 1), coord(1, 2))
    ramp = pl((0, 0), (1, 1))
    assert not is_fragment(ramp, one(PiecewiseLinear()))
    assert is_fragment(zero(PiecewiseLinear()), ramp)


def test_lateral_sup_examples():
    x, y = coord(1, 0, -2), coord(1, 3, 0)
    e = coord(1, 3, -2)
    assert lateral_sup(x, y, base=e) == e
    assert lateral_sup(x, x) == x
    assert lateral_sup(zero(x.space), y) == y


def test_lateral_sup_base_check():
    with pytest.raises(PreconditionError):
        lateral_sup(coord(1, 1), coord(1, 0), base=coord(1, 2))


def test_lateral_inf_examples():
    assert lateral_inf(coord(1, 0, -2), coord(1, 3, 0)) == coord(1, 0, 0)
    space = SimpleFunction((Q(0), Q(1, 2), Q(1)))
    u = one(space)
    assert lateral_inf(u, scale(2, u)) == zero(space)
    assert lateral_inf(one(PiecewiseLinear()),
                       scale(2, one(PiecewiseLinear()))) == zero(PiecewiseLinear())


def test_lateral_inf_matches_meet_formula_on_common_fragments():
    rng = make_rng("meet-formula")
    for n in range(1, 6):
        vals = [gen.random_nonzero_scalar(rng) for _ in range(n)]
        e = normalize(Coordinate(n), vals)
        frags = list(enumerate_fragments(e))
        for x, y in itertools.product(frags, repeat=2):
            assert lateral_inf(x, y) == meet_formula(x, y)


def test_lateral_inf_is_greatest_common_fragment():
    rng = make_rng("gcf")
    for space in gen.space_menu():
        for _ in range(30):
            x = gen.random_element(rng, space)
            y = gen.random_element(rng, space)
            z = lateral_inf(x, y)
            assert is_fragment(z, x) and is_fragment(z, y)
    # maximality, checked exhaustively against the fragment algebra of x
    spaces_to_probe = (Coordinate(4), SimpleFunction((Q(0), Q(1, 2), Q(1))),
                       PiecewiseLinear())
    for space in spaces_to_probe:
        for _ in range(40):
            x = gen.random_element(rng, space)
            y = gen.random_element(rng, space)
            z = lateral_inf(x, y)
            for w in enumerate_fragments(x):
                if is_fragment(w, y):
                    assert is_fragment(w, z)
    # eventually constant bases with infinite algebras, level-truncated
    for _ in range(25):
        x = gen.random_element(rng, EventuallyConstant())
        y = gen.random_element(rng, EventuallyConstant())
        z = lateral_inf(x, y)
        assert is_fragment(z, x) and is_fragment(z, y)
        span = max(len(x.payload[0]), len(y.payload[0]), len(z.payload[0])) + 1
        for w in fragment_iter(x, span) if x.payload[1] != 0 \
                else enumerate_fragments(x):
            if is_fragment(w, y):
                assert is_fragment(w, z)


def test_pl_fragments_with_zero_segments_and_boundary_support():
    # support touches 0, a whole zero segment in the middle, second hump
    e = pl((0, 2), (Q(1, 4), 0), (Q(1, 2), 0), (Q(3, 4), 3), (1, 0))
    frags = enumerate_fragments(e)
    assert frags.count == 4
    left = pl((0, 2), (Q(1, 4), 0), (1, 0))
    right = pl((0, 0), (Q(1, 2), 0), (Q(3, 4), 3), (1, 0))
    assert set(frags) == {zero(e.space), left, right, e}
    assert lateral_inf(e, left) == left
    assert lateral_inf(left, right) == zero(e.space)
    # same interval but different values is not a common component
    other = pl((0, 1), (Q(1, 4), 0), (1, 0))
    assert lateral_inf(left, other) == zero(e.space)


def test_lateral_inf_pl_component_matching():
    # x and y agree on the left hump only
    x = pl((0, 0), (Q(1, 4), 1), (Q(1, 2), 0), (Q(3, 4), 2), (1, 0))
    y = pl((0, 0), (Q(1, 4), 1), (Q(1, 2), 0), (Q(3, 4), -2), (1, 0))
    assert lateral_inf(x, y) == pl((0, 0), (Q(1, 4), 1), (Q(1, 2), 0), (1, 0))


def test_enumerate_fragments_counts():
    frags = enumerate_fragments(coord(1, -2))
    assert frags.count == 4
    assert set(frags) == {coord(0, 0), coord(1, 0), coord(0, -2), coord(1, -2)}
    assert enumerate_fragments(one(PiecewiseLinear())).count == 2
    assert enumerate_fragments(zero(Coordinate(2))).count == 1
    assert enumerate_fragments(fin((2, 1), (5, -1), (9, 3))).count == 8
    assert enumerate_fragments(ec([1, 0, 2], 0)).count == 4


def test_enumerate_fragments_rejects_infinite_algebra():
    with pytest.raises(PreconditionError):
        enumerate_fragments(one(EventuallyConstant()))


def test_fragment_iter_levels():
    e = one(EventuallyConstant())
    lvl2 = fragment_iter(e, 2)
    assert lvl2.count == 8
    lvl3 = fragment_iter(e, 3)
    assert set(lvl2).issubset(set(lvl3))
    assert ec([0, 1, 0], 1) in set(lvl3)
    for z in lvl3:
        assert is_fragment(z, e)


def test_fragment_iter_tail_zero_matches_exact():
    e = ec([1, 0, 2], 0)
    exact = set(enumerate_fragments(e))
    assert set(fragment_iter(e, 3)) == exact
    assert set(fragment_iter(e, 5)) == exact


def test_fragment_iter_level_below_prefix():
    with pytest.raises(PreconditionError):
        fragment_iter(ec([1, 2, 3], 1), 2)


def test_fragment_iter_refuses_a_model_without_levels():
    with pytest.raises(PreconditionError, match="truncation levels are for "
                                                "eventually constant"):
        fragment_iter(coord(1, 2), 1)


def _truncated_by_subsets(e, level):
    """The truncated fragments from their definition: every subset of
    positions 1..level with a tail choice in {0, tail of e}, each
    normalized, without repeats and sorted."""
    _, tail = e.payload
    found = set()
    for t in {0, tail}:
        for keep in itertools.product((False, True), repeat=level):
            vals = [get_atom(e, i + 1) if k else 0 for i, k in enumerate(keep)]
            found.add(normalize(e.space, (vals, t)))
    return sorted(found, key=canonical_key)


_EC_WITH_AND_WITHOUT_TAIL = st.tuples(
    st.lists(SCALARS, max_size=5),
    st.one_of(st.just(0), SCALARS.filter(lambda v: v != 0)),
).map(lambda raw: normalize(EventuallyConstant(), raw))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_EC_WITH_AND_WITHOUT_TAIL, st.integers(0, 4))
def test_fragment_iter_matches_the_subsets_of_positions(e, extra):
    # the subset sums of the pieces at a level are the fragments the
    # definition lists, each once and each a fragment of e
    level = min_level(e) + extra
    got = list(fragment_iter(e, level))
    assert got == _truncated_by_subsets(e, level)
    assert all(is_fragment(z, e) for z in got)


def test_fragment_iter_refuses_a_level_beyond_the_cap():
    with pytest.raises(EnumerationCapExceeded) as err:
        fragment_iter(one(EventuallyConstant()), 18)
    assert str(err.value) == ("truncated fragment set has 524288 members, "
                              "beyond the enumeration cap 262144")


def test_decompositions():
    decs = enumerate_decompositions(coord(1, -2))
    assert len(decs) == 4
    for d in decs:
        assert add(d.left, d.right) == coord(1, -2)
    z = zero(Coordinate(2))
    only = enumerate_decompositions(z)
    assert len(only) == 1 and only[0].left == z and only[0].right == z
    # the constant one on [0,1] splits only trivially
    u = one(PiecewiseLinear())
    pairs = {(d.left, d.right) for d in enumerate_decompositions(u)}
    assert pairs == {(zero(u.space), u), (u, zero(u.space))}


def test_pliev_grid_example():
    us = [coord(1, 0, 3), coord(0, 2, 0)]
    vs = [coord(1, 2, 0), coord(0, 0, 3)]
    grid = pliev_grid(us, vs)
    assert grid.grid == ((coord(1, 0, 0), coord(0, 0, 3)),
                         (coord(0, 2, 0), coord(0, 0, 0)))
    assert pliev_grid([coord(1, 2)], [coord(1, 2)]).grid == ((coord(1, 2),),)


def test_pliev_grid_reconstruction_random():
    rng = make_rng("pliev")
    for k in range(60):
        space = gen.space_menu()[k % 6]
        e = gen.random_nonzero_element(rng, space)
        us = space.random_split(rng, e, rng.randint(1, 3))
        vs = space.random_split(rng, e, rng.randint(1, 3))
        grid = pliev_grid(us, vs)
        for i, u in enumerate(us):
            assert grid.row_sum(i) == u
        for j, v in enumerate(vs):
            assert grid.col_sum(j) == v


def test_pliev_grid_errors_name_the_culprit():
    with pytest.raises(PreconditionError, match=r"us\[0\] and us\[1\]"):
        pliev_grid([coord(1, 0), coord(1, 0)], [coord(2, 0)])
    with pytest.raises(PreconditionError, match="different elements"):
        pliev_grid([coord(1, 0)], [coord(1, 1)])


def test_boolean_algebra_laws_small():
    e = coord(2, -1, 3)
    frags = list(enumerate_fragments(e))
    for x in frags:
        c = sub(e, x)
        assert lateral_sup(x, c) == e
        assert lateral_inf(x, c) == zero(e.space)
        assert lateral_sup(x, zero(e.space)) == x
        assert lateral_inf(x, e) == x
    for x, y, z in itertools.product(frags, repeat=3):
        assert lateral_sup(x, y) == lateral_sup(y, x)
        assert lateral_sup(lateral_sup(x, y), z) == lateral_sup(x, lateral_sup(y, z))
        assert lateral_inf(x, lateral_sup(y, z)) == \
            lateral_sup(lateral_inf(x, y), lateral_inf(x, z))


def test_lateral_monotone_parts():
    rng = make_rng("lem45")
    for space in gen.space_menu():
        for _ in range(60):
            y = gen.random_nonzero_element(rng, space)
            x = space.random_fragment(rng, y)
            assert is_fragment(pos_part(x), pos_part(y))
            assert is_fragment(neg_part(x), neg_part(y))
            assert is_fragment(absolute(x), absolute(y))
            assert leq(absolute(x), absolute(y))


def test_partial_order_on_fragments():
    rng = make_rng("order")
    e = gen.random_nonzero_element(rng, Coordinate(5))
    frags = list(enumerate_fragments(e))
    for x in frags:
        assert is_fragment(x, x)
    for x, y in itertools.product(frags, repeat=2):
        if is_fragment(x, y) and is_fragment(y, x):
            assert x == y
    rel = {(i, j) for i, x in enumerate(frags) for j, y in enumerate(frags)
           if is_fragment(x, y)}
    for i, j in rel:
        for k in range(len(frags)):
            if (j, k) in rel:
                assert (i, k) in rel
