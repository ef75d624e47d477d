"""Operator bodies, application, verifiers and boundedness scans."""

import functools
from fractions import Fraction as Q

import pytest

from rieszlab import generators as gen
from rieszlab.errors import (
    MalformedElement, PreconditionError, SpaceMismatch, Unsupported,
)
from rieszlab.lateral import enumerate_fragments
from rieszlab.operators import (
    ABS_FN, AlternatingSeries, Kernel, LateralMeet, LinearEC,
    OpScaled, OpSum, PiecewisePoly, ZeroOp, apply,
    diagonal_kernel, example_operator, lateral_bound_scan,
    match_table, poly,
    verify_disjointness_preserving, verify_oao, verify_positive,
)
from rieszlab.oplattice import neg_part_at, pos_part_at
from rieszlab.oracles import scan_levels_by_enumeration
from rieszlab.reports import Budget, DEFAULT_GRID, FAILS, HOLDS, INCONCLUSIVE
from rieszlab.spaces import (
    Coordinate, EventuallyConstant, FinSupport, LogTwo, PiecewiseLinear,
    SimpleFunction, coord, ec, format_element, inf, leq, ln2_enclosure,
    normalize, one, pl, scale, simple, sup, zero,
)

from conftest import make_rng, report_line

EC = EventuallyConstant()
LN2 = LogTwo()


def log_two(a, b):
    return normalize(LN2, (a, b))


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

def test_piecewise_poly_eval():
    f = poly(0, 0, 1)  # t^2
    assert f(Q(3, 2)) == Q(9, 4)
    assert ABS_FN(-3) == 3 and ABS_FN(2) == 2 and ABS_FN(0) == 0
    g = PiecewisePoly((0, 1), ((0, -1), (0, 2), (0, 0, 1)))
    assert g(-2) == 2 and g(Q(1, 2)) == 1 and g(3) == 9


def test_piecewise_poly_validation():
    with pytest.raises(MalformedElement):
        PiecewisePoly((1, 1), ((0,), (0,), (0,)))
    with pytest.raises(MalformedElement):
        PiecewisePoly((0,), ((0,),))  # piece count mismatch


def test_kernel_validation():
    space = Coordinate(2)
    with pytest.raises(MalformedElement):
        Kernel(space, space, ((1, 1, poly(1, 1)),))  # f(0) != 0
    with pytest.raises(MalformedElement):
        Kernel(space, space, ((1, 1, poly(0, 1)), (1, 2, poly(0, 1))))
    with pytest.raises(MalformedElement):
        Kernel(space, space, ((3, 1, poly(0, 1)),))
    with pytest.raises(Unsupported):
        Kernel(PiecewiseLinear(), space, ())


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def test_kernel_apply():
    T = diagonal_kernel(Coordinate(2), [poly(0, 0, 1), poly(0, -1)])
    assert apply(T, coord(2, 3)) == coord(4, -3)
    collapse = Kernel(Coordinate(2), Coordinate(1),
                      ((1, 1, poly(0, 1)), (2, 1, poly(0, 1))))
    assert apply(collapse, coord(1, 1)) == coord(2)
    with pytest.raises(SpaceMismatch):
        apply(T, coord(1, 2, 3))


def test_linear_ec_apply():
    target = one(Coordinate(1))
    T = LinearEC(Coordinate(1), ((1, Q(1)), (2, Q(2)), (3, Q(3))),
                 zero(Coordinate(1)), target)
    e3 = ec([0, 0, 1], 0)
    assert apply(T, e3) == coord(3)
    # on the constant one everything cancels into the unit image
    assert apply(T, one(EC)) == coord(0)


def test_ramped_basis_matches_contract():
    T = example_operator("ramped_basis")
    assert apply(T, one(EC)) == zero(Coordinate(1))
    assert apply(T, ec([0, 1], 0)) == coord(2)


def test_match_table_apply_and_example():
    T = example_operator("unit_match")
    u = one(PiecewiseLinear())
    assert apply(T, u) == u
    assert apply(T, scale(2, u)) == scale(-1, u)
    assert apply(T, pl((0, 0), (1, 1))) == zero(u.space)


def test_match_table_rejects_inconsistent_keys():
    # (1,1) splits as (1,0) + (0,1); neither part is mapped
    with pytest.raises(PreconditionError):
        match_table([(coord(1, 1), coord(5, 5))])
    # consistent once the parts are keys summing correctly
    T = match_table([(coord(1, 1), coord(5, 5)),
                     (coord(1, 0), coord(5, 0)),
                     (coord(0, 1), coord(0, 5))])
    assert apply(T, coord(1, 0)) == coord(5, 0)


def test_match_table_key_rules():
    with pytest.raises(MalformedElement):
        match_table([(zero(Coordinate(1)), coord(1))])
    with pytest.raises(MalformedElement):
        match_table([(coord(1), coord(1)), (coord(1), coord(2))])


def test_lateral_meet_apply():
    S = example_operator("unit_lateral_meet")
    u = one(S.space)
    assert apply(S, u) == u
    assert apply(S, scale(2, u)) == scale(-2, u)
    assert apply(S, scale(3, u)) == zero(S.space)


def test_series_apply_exact_when_tail_zero():
    T = AlternatingSeries()
    x = ec([0, 1, 0, 1, 0, 1], 0)  # indicator of {2, 4, 6}
    v = apply(T, x)
    assert v == log_two(Q(11, 12), 0)


def test_series_apply_encloses_minus_ln2():
    T = AlternatingSeries()
    v = apply(T, one(EC))
    assert v == log_two(0, -1) and format_element(v) == "-ln2"
    # the order decides that the exact value lies in each enclosure:
    # one of ln 2, and consecutive partial sums of the series
    lo, hi = ln2_enclosure(Q(1, 10 ** 13))
    assert hi - lo <= Q(1, 10 ** 13)
    assert leq(log_two(-hi, 0), v) and leq(v, log_two(-lo, 0))
    assert not leq(log_two(-lo, 0), v) and not leq(v, log_two(-hi, 0))
    terms = [Q((-1) ** n, n) for n in range(1, 41)]
    s40 = sum(terms)
    s39 = s40 - terms[-1]
    assert leq(log_two(s39, 0), v) and leq(v, log_two(s40, 0))
    # the tail c past the prefix adds c (-ln 2 - s_k)
    assert apply(T, ec([1], Q(1, 3))) == log_two(-1 + Q(1, 3), Q(-1, 3))


def test_sum_scaled_zero_apply():
    space = Coordinate(2)
    K = diagonal_kernel(space, [poly(0, 1), poly(0, 1)])
    two_k = OpSum((K, K))
    assert apply(two_k, coord(1, 2)) == coord(2, 4)
    assert apply(OpScaled(Q(-1, 2), K), coord(2, 4)) == coord(-1, -2)
    assert apply(ZeroOp(space, space), coord(5, 5)) == zero(space)
    with pytest.raises(SpaceMismatch):
        OpSum((K, diagonal_kernel(Coordinate(3), [poly(0, 1)] * 3)))


def test_a_sum_splices_in_the_parts_of_a_sum():
    space = Coordinate(2)
    K = diagonal_kernel(space, [poly(0, 1), poly(0, 1)])
    L = diagonal_kernel(space, [poly(0, 2), poly(0, 3)])
    minus_k = OpScaled(-1, K)
    nested = OpSum((OpSum((K, L)), OpSum((minus_k, OpSum((L, K))))))
    assert nested.parts == (K, L, minus_k, L, K)
    assert nested == OpSum((K, L, minus_k, L, K))
    assert (nested.domain, nested.codomain) == (space, space)
    assert apply(nested, coord(1, 2)) == coord(5, 14)
    # a scaled sum is one part, not spliced
    assert OpSum((OpScaled(2, OpSum((K, L))), K)).parts[0] == (
        OpScaled(2, OpSum((K, L))))
    with pytest.raises(SpaceMismatch):
        OpSum((OpSum((K, L)), ZeroOp(space, Coordinate(1))))


def test_operator_vanishes_at_zero():
    rng = make_rng("t0")
    for space in gen.space_menu():
        for _ in range(10):
            T = gen.random_oao(rng, space)
            assert apply(T, zero(space)) == zero(T.codomain)
    assert apply(AlternatingSeries(), zero(EC)) == zero(LogTwo())


def test_random_operators_map_their_space_to_itself():
    """Two draws on one space can always be paired in the operator
    lattice: every kind lands in the space it was drawn on."""
    rng = make_rng("endomorphisms")
    for space in gen.space_menu():
        for k in range(60):
            for T in (gen.random_oao(rng, space, allow_tables=k % 2 == 0),
                      gen.random_dp_operator(rng, space)):
                assert T.domain == space and T.codomain == space, (space, T)


# ---------------------------------------------------------------------------
# per-body behaviour
# ---------------------------------------------------------------------------

_C2, _C3 = Coordinate(2), Coordinate(3)
_TABLE = match_table([(coord(1, 0), coord(2, -1))])
_ISOLATED = match_table([(coord(2), coord(-3))])
_STEPS = SimpleFunction((Q(0), Q(1, 2), Q(1)))
_POSITIVE_FAILS = "nonzero linear operator; one of x, -x maps below 0"
_KERNEL_SUM_REASON = ("sum of kernels feeding each target atom from one "
                      "atom: disjoint supports stay disjoint")

# (id, operator, points to apply it to, expected behaviour)
PINNED_BODIES = [
    ("Kernel",
     Kernel(_C3, _C2, ((1, 1, poly(0, 2)), (2, 1, poly(0, 0, 1)),
                       (3, 2, ABS_FN))),
     (coord(1, -2, 3), coord(0, Q(1, 2), -1)), {
        "apply": ["coord[6,3]", "coord[1/4,1]"],
        "atom additive": True,
        "linear": False,
        "linear probes": ["coord[1,0,0]", "coord[0,1,0]", "coord[0,0,1]"],
        "dp reason": None,
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=2 seed=0:positive "
                            "witness=x=coord[-1/3,2/3,-2]", ""),
        "verify_dp": ("verdict=fails samples=1 seed=0:dp "
                      "witness=u=coord[1,0,0] v=coord[0,1,0]", ""),
    }),
    ("Kernel-linear",
     diagonal_kernel(_C2, [poly(0, 3), poly(0, Q(-1, 2))]),
     (coord(2, 4),), {
        "apply": ["coord[6,-2]"],
        "atom additive": True,
        "linear": True,
        "linear probes": ["coord[1,0]", "coord[0,1]"],
        "dp reason": "injective atom map: disjoint supports stay disjoint",
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=2 seed=0:positive "
                            "witness=x=coord[-1,0] (pair x, -x)",
                            _POSITIVE_FAILS),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      "injective atom map: disjoint supports stay disjoint"),
    }),
    ("LinearEC",
     LinearEC(_C2, ((1, 2), (3, -1)), coord(1, 0), coord(0, 1)),
     (ec([1, 2, 3], Q(1, 2)), one(EC)), {
        "apply": ["coord[1/2,-3/2]", "coord[1,0]"],
        "atom additive": True,
        "linear": True,
        "linear probes": ["ec[1|0]", "ec[0,0,1|0]", "ec[|1]"],
        "dp reason": None,
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=3 seed=0:positive "
                            "witness=x=ec[-1|0] (pair x, -x)",
                            _POSITIVE_FAILS),
        "verify_dp": ("verdict=fails samples=2 seed=0:dp "
                      "witness=u=ec[1|0] v=ec[0,0,1|0]", ""),
    }),
    ("MatchTable", _TABLE, (coord(1, 0), coord(1, 1)), {
        "apply": ["coord[2,-1]", "coord[0,0]"],
        "atom additive": False,
        "linear": False,
        "linear probes": [],
        "dp reason": None,
        "oao probes": [("coord[1,0]", "coord[0,1]")],
        "verify_oao": ("verdict=fails samples=1 seed=0:oao "
                       "witness=u=coord[1,0] v=coord[0,1]", ""),
        "verify_positive": ("verdict=inconclusive samples=4 seed=0:positive",
                            "sampled, no failure"),
        "verify_dp": ("verdict=inconclusive samples=5 seed=0:dp",
                      "sampled, no failure"),
    }),
    ("MatchTable-isolated", _ISOLATED, (coord(2), coord(1)), {
        "apply": ["coord[-3]", "coord[0]"],
        "atom additive": False,
        "linear": False,
        "linear probes": [],
        "dp reason": "keys have no nonzero disjoint partner",
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "keys indecomposable with no nonzero disjoint partner"),
        "verify_positive": ("verdict=fails samples=2 seed=0:positive "
                            "witness=x=coord[2]", ""),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      "keys have no nonzero disjoint partner"),
    }),
    ("LateralMeet", example_operator("unit_lateral_meet"),
     (one(_STEPS), simple(_STEPS.partition, (2, 1))), {
        "apply": ["simple{0,1/2,1}[1,1]", "simple{0,1/2,1}[-2,1]"],
        "atom additive": True,
        "linear": False,
        "linear probes": [],
        "dp reason": "|T x| <= |x| pointwise, so disjoint supports stay "
                     "disjoint",
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=1 seed=0:positive "
                            "witness=x=simple{0,1/2,1}[2/3,2]", ""),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      "|T x| <= |x| pointwise, so disjoint supports stay "
                      "disjoint"),
    }),
    ("AlternatingSeries", AlternatingSeries(),
     (ec([1, -2, 3], 0), one(EC), ec([0, 1], -3)), {
        "apply": ["-1", "-ln2", "2 - 3*ln2"],
        "atom additive": True,
        "linear": False,
        "linear probes": [],
        "dp reason": None,
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=1 seed=0:positive "
                            "witness=x=ec[2,-2,-1/3,2/3|-2]", ""),
        "verify_dp": ("verdict=fails samples=1 seed=0:dp "
                      "witness=u=ec[1|0] v=ec[0,1|0]", ""),
    }),
    ("OpSum",
     OpSum((diagonal_kernel(_C2, [poly(0, 1), poly(0, 2)]),
            diagonal_kernel(_C2, [poly(0, -1), poly(0, 5)]))),
     (coord(3, -4),), {
        "apply": ["coord[0,-28]"],
        "atom additive": True,
        "linear": True,
        "linear probes": ["coord[1,0]", "coord[0,1]",
                          "coord[1,0]", "coord[0,1]"],
        "dp reason": _KERNEL_SUM_REASON,
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=4 seed=0:positive "
                            "witness=x=coord[0,-1] (pair x, -x)",
                            _POSITIVE_FAILS),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      _KERNEL_SUM_REASON),
    }),
    ("OpSum-table",
     OpSum((_TABLE, diagonal_kernel(_C2, [poly(0, 1)] * 2))),
     (coord(1, 0), coord(1, 1)), {
        "apply": ["coord[3,-1]", "coord[1,1]"],
        "atom additive": False,
        "linear": False,
        "linear probes": ["coord[1,0]", "coord[0,1]"],
        "dp reason": None,
        "oao probes": [],
        "verify_oao": ("verdict=inconclusive samples=4 seed=0:oao",
                       "sampled, no failure"),
        "verify_positive": ("verdict=fails samples=2 seed=0:positive "
                            "witness=x=coord[-2,-1/3]", ""),
        "verify_dp": ("verdict=fails samples=1 seed=0:dp "
                      "witness=u=coord[1,0] v=coord[0,1]", ""),
    }),
    ("OpScaled",
     OpScaled(Q(-2), diagonal_kernel(_C2, [poly(0, 1), poly(0, 0, 1)])),
     (coord(1, 3),), {
        "apply": ["coord[-2,-18]"],
        "atom additive": True,
        "linear": False,
        "linear probes": ["coord[1,0]", "coord[0,1]"],
        "dp reason": "scaling preserves disjointness; injective atom map: "
                     "disjoint supports stay disjoint",
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=fails samples=1 seed=0:positive "
                            "witness=x=coord[2/3,2]", ""),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      "scaling preserves disjointness; injective atom map: "
                      "disjoint supports stay disjoint"),
    }),
    ("OpScaled-table", OpScaled(3, _TABLE), (coord(1, 0),), {
        "apply": ["coord[6,-3]"],
        "atom additive": False,
        "linear": False,
        "linear probes": [],
        "dp reason": None,
        "oao probes": [("coord[1,0]", "coord[0,1]")],
        "verify_oao": ("verdict=fails samples=1 seed=0:oao "
                       "witness=u=coord[1,0] v=coord[0,1]", ""),
        "verify_positive": ("verdict=inconclusive samples=4 seed=0:positive",
                            "sampled, no failure"),
        "verify_dp": ("verdict=inconclusive samples=5 seed=0:dp",
                      "sampled, no failure"),
    }),
    # the match-table probes and reasons look through every scaling
    ("OpScaled-OpScaled-table", OpScaled(2, OpScaled(3, _TABLE)),
     (coord(1, 0),), {
        "apply": ["coord[12,-6]"],
        "atom additive": False,
        "linear": False,
        "linear probes": [],
        "dp reason": None,
        "oao probes": [("coord[1,0]", "coord[0,1]")],
        "verify_oao": ("verdict=fails samples=1 seed=0:oao "
                       "witness=u=coord[1,0] v=coord[0,1]", ""),
        "verify_positive": ("verdict=inconclusive samples=4 seed=0:positive",
                            "sampled, no failure"),
        "verify_dp": ("verdict=inconclusive samples=5 seed=0:dp",
                      "sampled, no failure"),
    }),
    ("OpScaled-OpScaled-isolated", OpScaled(2, OpScaled(Q(1, 2), _ISOLATED)),
     (coord(2),), {
        "apply": ["coord[-3]"],
        "atom additive": False,
        "linear": False,
        "linear probes": [],
        "dp reason": "scaling preserves disjointness; scaling preserves "
                     "disjointness; keys have no nonzero disjoint partner",
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "keys indecomposable with no nonzero disjoint partner"),
        "verify_positive": ("verdict=fails samples=2 seed=0:positive "
                            "witness=x=coord[2]", ""),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      "scaling preserves disjointness; scaling preserves "
                      "disjointness; keys have no nonzero disjoint partner"),
    }),
    ("ZeroOp", ZeroOp(_C2, LogTwo()), (coord(1, 1),), {
        "apply": ["0"],
        "atom additive": True,
        "linear": True,
        "linear probes": [],
        "dp reason": "zero operator",
        "oao probes": [],
        "verify_oao": ("verdict=holds samples=0 seed=0:oao",
                       "additive by construction"),
        "verify_positive": ("verdict=holds samples=0 seed=0:positive",
                            "zero operator"),
        "verify_dp": ("verdict=holds samples=0 seed=0:dp",
                      "zero operator"),
    }),
]


@pytest.mark.parametrize("T, points, expected",
                         [row[1:] for row in PINNED_BODIES],
                         ids=[row[0] for row in PINNED_BODIES])
def test_per_body_behaviour_is_pinned(T, points, expected):
    oao = verify_oao(T, Budget(samples=4))
    positive = verify_positive(T, Budget(samples=4))
    dp = verify_disjointness_preserving(T, Budget(samples=4))
    assert {
        "apply": [format_element(apply(T, x)) for x in points],
        "atom additive": T.atom_additive,
        "linear": T.linear,
        "linear probes": [format_element(x) for x in T.linear_probes()],
        "dp reason": T.dp_reason(),
        "oao probes": [(format_element(u), format_element(v))
                       for u, v in T.oao_probes()],
        "verify_oao": (report_line(oao), oao.notes),
        "verify_positive": (report_line(positive), positive.notes),
        "verify_dp": (report_line(dp), dp.notes),
    } == expected


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_oao_symbolic_and_exhaustive():
    K = diagonal_kernel(Coordinate(2), [poly(0, 0, 1), poly(0, -1)])
    assert verify_oao(K).verdict == HOLDS
    T = example_operator("unit_match")
    assert verify_oao(T).verdict == HOLDS
    S = example_operator("unit_lateral_meet")
    assert verify_oao(S).verdict == HOLDS


def test_generated_operator_pool_is_orthogonally_additive():
    """Every constructor-produced operator survives verification:
    exhaustively over a grid on small coordinate spaces, 500 sampled
    disjoint pairs elsewhere."""
    rng = make_rng("pool-oao")
    small = Coordinate(3)
    for _ in range(15):
        T = gen.random_oao(rng, small)
        rep = verify_oao(T, Budget(grid=DEFAULT_GRID))
        assert rep.verdict == HOLDS, report_line(rep)
    # the structural fast path answers for most bodies; re-check the
    # additivity identity itself on 500 sampled pairs per space
    from rieszlab.operators import _additivity_gap
    for space in gen.space_menu():
        T = gen.random_oao(rng, space)
        rep = verify_oao(T, Budget(samples=50))
        assert rep.verdict != FAILS, report_line(rep)
        for _ in range(500):
            u, v = gen.random_disjoint_pair(rng, space)
            assert not _additivity_gap(T, u, v)


def test_verify_oao_finds_match_table_counterexample():
    T = match_table([(coord(1, 0), coord(1, 0))])
    rep = verify_oao(T, Budget(samples=300, seed=1))
    assert rep.verdict == FAILS
    # the deterministic probe finds the canonical witness
    assert rep.witness_data == (coord(1, 0), coord(0, 1))
    u, v = rep.witness_data
    assert apply(T, u + v) != apply(T, u) + apply(T, v)


def test_verify_oao_sampled_inconclusive():
    # a sound table on a space the sampler cannot exhaust
    T = match_table([(pl((0, 1), (1, 2)), one(PiecewiseLinear()))])
    rep = verify_oao(OpSum((T, T)), Budget(samples=40))
    assert rep.verdict == INCONCLUSIVE
    assert "sampled" in rep.notes


def test_verify_positive():
    sq = diagonal_kernel(Coordinate(1), [poly(0, 0, 1)])
    assert verify_positive(sq, Budget(grid=DEFAULT_GRID)).verdict == HOLDS
    ident = diagonal_kernel(Coordinate(1), [poly(0, 1)])
    rep = verify_positive(ident)
    assert rep.verdict == FAILS
    assert rep.witness_data[0] == coord(-1)


def test_verify_positive_linear_always_refuted():
    rng = make_rng("linear-pos")
    for _ in range(30):
        T = gen.random_linear_operator(rng)
        rep = verify_positive(T)
        assert rep.verdict == FAILS
        x = rep.witness_data[0]
        y = apply(T, x)
        assert not (zero(y.space) <= y)


def test_verify_dp():
    diag = diagonal_kernel(Coordinate(3), [poly(0, 1)] * 3)
    assert verify_disjointness_preserving(diag).verdict == HOLDS
    S = example_operator("unit_lateral_meet")
    assert verify_disjointness_preserving(S).verdict == HOLDS
    collapse = Kernel(Coordinate(2), Coordinate(1),
                      ((1, 1, poly(0, 1)), (2, 1, poly(0, 1))))
    rep = verify_disjointness_preserving(collapse)
    assert rep.verdict == FAILS
    assert rep.witness_data == (coord(1, 0), coord(0, 1))
    # a sum of kernels that feeds each target from one atom has a dp
    # reason; one that feeds a target from two atoms has none
    rep = verify_disjointness_preserving(OpSum((diag, diag)))
    assert (rep.verdict, rep.samples_used, rep.notes) == (
        HOLDS, 0, _KERNEL_SUM_REASON)
    shift = Kernel(Coordinate(3), Coordinate(3), ((2, 1, poly(0, 1)),))
    assert OpSum((diag, shift)).dp_reason() is None
    assert verify_disjointness_preserving(
        OpSum((diag, shift))).verdict == FAILS
    # a sum of sums, as K + K + K builds it, splices in their parts: it
    # keeps the reason, and a target fed from two atoms by parts of
    # different sums still has none
    assert OpSum((OpSum((diag, diag)), diag)).dp_reason() == _KERNEL_SUM_REASON
    assert OpSum((diag, OpSum((diag, OpSum((diag, diag)))))).dp_reason() \
        == _KERNEL_SUM_REASON
    assert OpSum((OpSum((diag, diag)), shift)).dp_reason() is None
    assert OpSum((OpSum((diag, OpScaled(2, diag))), diag)).dp_reason() is None
    # a sum with a part that is not a kernel has no dp reason: a clean
    # sample stays inconclusive, and only a clean grid holds (for the
    # grid)
    two = OpSum((diag, OpScaled(2, diag)))
    assert two.dp_reason() is None
    assert verify_disjointness_preserving(two).verdict == INCONCLUSIVE
    rep = verify_disjointness_preserving(two, Budget(grid=DEFAULT_GRID))
    assert (rep.verdict, rep.samples_used, rep.notes) == (
        HOLDS, 3 + 9 ** 3, "exhaustive over grid")


def test_series_not_disjointness_preserving():
    rep = verify_disjointness_preserving(AlternatingSeries())
    assert rep.verdict == FAILS


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_lateral_bound_scan_exact():
    T = diagonal_kernel(Coordinate(3), [poly(0, 1), poly(0, -1), poly(0, 2)])
    e = coord(1, 2, -1)
    scan = lateral_bound_scan(T, e)
    assert scan.mode == "exact"
    assert scan.lo == coord(0, -2, -2)
    assert scan.hi == coord(1, 0, 0)
    assert scan.report.verdict == HOLDS
    assert scan.report.samples_used == 8
    assert scan.report.notes == "exact bounds over 8 fragments"
    assert scan.table == () and scan.growth is None


def test_lateral_bound_scan_exact_applies_the_bound():
    # the fragment images of coord[1,1] reach coord[5,5], above the bound
    T = diagonal_kernel(Coordinate(2), [poly(0, 5)] * 2)
    scan = lateral_bound_scan(T, coord(1, 1), bound=coord(0, 0))
    assert scan.mode == "exact" and scan.hi == coord(5, 5)
    assert scan.growth is True and scan.report.verdict == FAILS
    assert scan.report.notes == "exact bounds over 4 fragments"
    scan = lateral_bound_scan(T, coord(1, 1), bound=coord(5, 5))
    assert scan.growth is False and scan.report.verdict == HOLDS


def test_lateral_bound_scan_needs_level_on_infinite_algebra():
    with pytest.raises(PreconditionError):
        lateral_bound_scan(AlternatingSeries(), one(EC))


def test_scan_closed_form_matches_enumeration():
    rng = make_rng("scan-closed")
    e = ec([2, -1], Q(1, 2))
    candidates = [
        AlternatingSeries(),
        example_operator("ramped_basis", horizon=10),
        gen.random_kernel(rng, EC, Coordinate(2)),
        LateralMeet(EC, gen.random_element(rng, EC), gen.random_element(rng, EC)),
        OpScaled(Q(-2), gen.random_kernel(rng, EC, Coordinate(2))),
        # not additive on disjoint sums: the enumerated level path
        match_table([(ec([2], 0), coord(5)), (ec([0, -1], 0), coord(-3))]),
    ]
    for T in candidates:
        scan = lateral_bound_scan(T, e, level=7)
        assert scan.mode == "truncated"
        reference = scan_levels_by_enumeration(T, e, 7)
        assert [l for l, _, _ in reference] == list(range(2, 8))
        assert list(scan.table) == reference
        # the columns are the positive part and the negated negative part
        assert [(l, lo, hi) for l, lo, hi in scan.table] == [
            (l, scale(-1, neg), pos) for (l, neg), (_, pos) in zip(
                neg_part_at(T, e, level=7).levels,
                pos_part_at(T, e, level=7).levels)]


def test_exact_scan_matches_enumeration_on_the_series_range():
    # a finite fragment algebra whose images lie in LogTwo
    T, e = AlternatingSeries(), ec([1, -2], 0)
    images = [apply(T, z) for z in enumerate_fragments(e)]
    scan = lateral_bound_scan(T, e)
    assert scan.mode == "exact"
    assert scan.lo == functools.reduce(inf, images) == log_two(-1, 0)
    assert scan.hi == functools.reduce(sup, images) == log_two(1, 0)
    assert scan.report.verdict == HOLDS
    assert scan.report.samples_used == 4
    assert scan.report.notes == "exact bounds over 4 fragments"


def test_scan_growth_flag():
    T = example_operator("ramped_basis")
    scan = lateral_bound_scan(T, one(EC), level=10, bound=coord(30))
    assert scan.growth and scan.report.verdict == FAILS
    scan2 = lateral_bound_scan(T, one(EC), level=3, bound=coord(30))
    assert not scan2.growth and scan2.report.verdict == INCONCLUSIVE


def test_scan_bound_in_the_series_range():
    # the series' level-8 maximum is H_4 / 2 = 25/24; 3/2 ln 2 lies
    # about 0.0019 below it, and 3/2 ln 2 + 1/500 about 0.00005 above
    T = AlternatingSeries()
    for bound, grew in [((1, 0), True), ((0, Q(3, 2)), True),
                        ((Q(1, 500), Q(3, 2)), False),
                        ((Q(25, 24), 0), False), ((2, 0), False)]:
        scan = lateral_bound_scan(T, one(EC), level=8,
                                  bound=log_two(*bound))
        assert scan.growth is grew
        assert scan.report.verdict == (FAILS if grew else INCONCLUSIVE)
    assert scan.table[-1][2] == log_two(Q(25, 24), 0)


def test_verify_oao_looks_through_every_scaling():
    table = match_table([(coord(1, 0), coord(2, -1))])
    report = verify_oao(OpScaled(2, OpScaled(3, table)), Budget(samples=4))
    assert report.verdict == FAILS and report.samples_used == 1
    isolated = match_table([(coord(2), coord(-3))])
    assert isolated.oao_reason() is not None
    scaled = OpScaled(2, OpScaled(Q(1, 2), isolated))
    assert scaled.oao_reason() == isolated.oao_reason()
    report = verify_oao(scaled, Budget(samples=4))
    assert report.verdict == HOLDS and report.notes == isolated.oao_reason()


def test_positive_operator_is_laterally_bounded():
    rng = make_rng("positive-bounded")
    for space in (Coordinate(4), SimpleFunction((Q(0), Q(1, 2), Q(1))),
                  FinSupport()):
        for _ in range(10):
            T = gen.random_positive_operator(rng, space)
            assert verify_positive(T, Budget(grid=DEFAULT_GRID)).verdict \
                in (HOLDS, INCONCLUSIVE)
            e = gen.random_element(rng, space)
            scan = lateral_bound_scan(T, e)
            assert scan.report.verdict == HOLDS


def test_example_operator_unknown():
    with pytest.raises(Unsupported):
        example_operator("nope")
