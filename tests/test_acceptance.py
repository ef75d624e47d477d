"""Acceptance gate: every criterion at its stated size and tolerance.

All comparisons are exact (rational equality); the only tolerances are
the stated interval widths for the series functional.  Each criterion
prints one pass line (collected into the terminal summary).
"""

import itertools
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as Q

import numpy as np

from rieszlab import generators as gen
from rieszlab.checks import run_check
from rieszlab.lateral import (
    enumerate_decompositions, enumerate_fragments, lateral_inf, lateral_sup,
)
from rieszlab.mutations import tampered
from rieszlab.operators import (
    AlternatingSeries, apply, example_operator,
    lateral_bound_scan, verify_disjointness_preserving, verify_oao,
)
from rieszlab.oplattice import meyer_pair
from rieszlab.reports import FAILS, HOLDS
from rieszlab.spaces import (
    Coordinate, EventuallyConstant, FinSupport, PiecewiseLinear,
    SimpleFunction, absolute, add, from_atoms, inf, leq, neg_part,
    normalize, one, pos_part, scale, sub, sup, zero,
)

from conftest import make_rng, record_acceptance

REPO = pathlib.Path(__file__).resolve().parent.parent


def _pass(num, text):
    record_acceptance(f"criterion {num:>2}: PASS  {text}")


def _holds(check):
    assert check.result.verdict == HOLDS, check.summary_line()
    return check


# ---------------------------------------------------------------------------
# 1. Riesz law suite
# ---------------------------------------------------------------------------

def _law_bundle(x, y, z, c):
    space = x.space
    assert sub(pos_part(x), neg_part(x)) == x
    assert add(pos_part(x), neg_part(x)) == absolute(x)
    assert inf(pos_part(x), neg_part(x)) == zero(space)
    assert sup(x, y) == sup(y, x) and inf(x, y) == inf(y, x)
    assert sup(sup(x, y), z) == sup(x, sup(y, z))
    assert inf(inf(x, y), z) == inf(x, inf(y, z))
    assert sup(x, inf(x, y)) == x and inf(x, sup(x, y)) == x
    assert add(sup(x, y), inf(x, y)) == add(x, y)
    assert absolute(scale(c, x)) == scale(abs(c), absolute(x))
    assert sup(add(x, z), add(y, z)) == add(sup(x, y), z)


def test_ac01_riesz_laws():
    """Exhaustive on Coordinate(3) over {-2..2}^3: unary and binary laws
    over all pairs, associativity over all triples via the computed op
    tables, translation invariance exhaustive on the {-1,0,1}^3 subgrid
    plus sampled full-grid triples; 1000 random instances per other
    space.  Zero violations, exact equality, under 10 s."""
    t0 = time.time()
    space = Coordinate(3)
    values = [Q(-2), Q(-1), Q(0), Q(1), Q(2)]
    grid = [normalize(space, v) for v in itertools.product(values, repeat=3)]
    n = len(grid)
    index = {g.payload: k for k, g in enumerate(grid)}
    for x in grid:
        assert sub(pos_part(x), neg_part(x)) == x
        assert add(pos_part(x), neg_part(x)) == absolute(x)
        assert inf(pos_part(x), neg_part(x)) == zero(space)
        for c in (Q(-2), Q(-1, 2), Q(3)):
            assert absolute(scale(c, x)) == scale(abs(c), absolute(x))
    sup_t = np.zeros((n, n), dtype=np.int32)
    inf_t = np.zeros((n, n), dtype=np.int32)
    for i, x in enumerate(grid):
        for j, y in enumerate(grid):
            s, m = sup(x, y), inf(x, y)
            # independent pointwise oracle
            assert s.payload == tuple(map(max, x.payload, y.payload))
            assert m.payload == tuple(map(min, x.payload, y.payload))
            assert add(s, m) == add(x, y)
            sup_t[i, j] = index[s.payload]
            inf_t[i, j] = index[m.payload]
    # commutativity, absorption and (exhaustively, via the op tables
    # computed above) associativity over all n^3 triples
    rows = np.arange(n)[:, None]
    assert np.array_equal(sup_t, sup_t.T) and np.array_equal(inf_t, inf_t.T)
    assert np.array_equal(sup_t[rows, inf_t], np.broadcast_to(rows, (n, n)))
    assert np.array_equal(inf_t[rows, sup_t], np.broadcast_to(rows, (n, n)))
    for table in (sup_t, inf_t):
        left = table[table[:, :, None], np.arange(n)[None, None, :]]
        right = table[np.arange(n)[:, None, None], table[None, :, :]]
        assert np.array_equal(left, right)
    small = [g for g in grid if all(abs(v) <= 1 for v in g.payload)]
    for x in small:
        for y in small:
            sxy = sup(x, y)
            for z in small:
                assert sup(add(x, z), add(y, z)) == add(sxy, z)
    rng = make_rng("ac1")
    for _ in range(2000):
        x, y, z = (rng.choice(grid) for _ in range(3))
        assert sup(add(x, z), add(y, z)) == add(sup(x, y), z)
    others = (SimpleFunction((Q(0), Q(1, 3), Q(2, 3), Q(1))), FinSupport(),
              EventuallyConstant(), PiecewiseLinear())
    for other in others:
        for _ in range(1000):
            _law_bundle(gen.random_element(rng, other),
                        gen.random_element(rng, other),
                        gen.random_element(rng, other),
                        gen.random_scalar(rng))
    elapsed = time.time() - t0
    assert elapsed < 10, f"law suite took {elapsed:.1f}s"
    _pass(1, f"riesz law suite, exhaustive + 1000/space, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. fragment Boolean algebra
# ---------------------------------------------------------------------------

def _full_support_element(rng, n):
    vals = [gen.random_nonzero_scalar(rng) for _ in range(n)]
    vals[rng.randrange(n)] *= -1
    return normalize(Coordinate(n), vals)


def test_ac02_fragment_boolean_algebra():
    """|fragments| = 2^n for full-support bases up to n = 12; lateral
    sup/inf match support union/intersection; all Boolean laws
    exhaustive for n <= 6.  Exact, under 30 s."""
    t0 = time.time()
    rng = make_rng("ac2")
    for n in (8, 10, 12):
        e = _full_support_element(rng, n)
        frags = enumerate_fragments(e)
        assert frags.count == 2 ** n

        def of_mask(mask):
            return from_atoms(e.space, {a + 1: e.payload[a]
                                        for a in range(n) if mask >> a & 1})

        for _ in range(500):
            a, b = rng.randrange(2 ** n), rng.randrange(2 ** n)
            x, y = of_mask(a), of_mask(b)
            assert lateral_sup(x, y) == of_mask(a | b)
            assert lateral_inf(x, y) == of_mask(a & b)
    n = 6
    e = _full_support_element(rng, n)
    frags = sorted(enumerate_fragments(e),
                   key=lambda f: sum(1 << a for a in range(n)
                                     if f.payload[a] != 0))
    size = len(frags)
    assert size == 64
    sup_t = [[0] * size for _ in range(size)]
    inf_t = [[0] * size for _ in range(size)]
    for i, x in enumerate(frags):
        for j, y in enumerate(frags):
            s, m = lateral_sup(x, y), lateral_inf(x, y)
            smask = sum(1 << a for a in range(n) if s.payload[a] != 0)
            mmask = sum(1 << a for a in range(n) if m.payload[a] != 0)
            assert s == frags[smask] and m == frags[mmask]
            sup_t[i][j] = smask
            inf_t[i][j] = mmask
    full = size - 1
    for i, x in enumerate(frags):
        comp = sub(e, x)
        assert lateral_sup(x, comp) == e
        assert lateral_inf(x, comp) == frags[0]
        assert sup_t[i][0] == i and inf_t[i][full] == i
    for i in range(size):
        si, mi = sup_t[i], inf_t[i]
        for j in range(size):
            assert sup_t[i][j] == sup_t[j][i] and inf_t[i][j] == inf_t[j][i]
            sij, mij = sup_t[i][j], inf_t[i][j]
            s_left, m_left = sup_t[sij], inf_t[mij]
            sj, mj = sup_t[j], inf_t[j]
            for k in range(size):
                assert s_left[k] == si[sj[k]]          # associativity
                assert m_left[k] == mi[mj[k]]
                assert inf_t[i][sj[k]] == sup_t[mi[j]][inf_t[i][k]]  # distrib
    elapsed = time.time() - t0
    assert elapsed < 30, f"boolean algebra suite took {elapsed:.1f}s"
    _pass(2, f"fragment algebra = support subsets, laws exhaustive, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3-7: grid, join oracle, additivity, modulus inequality, fast paths
# ---------------------------------------------------------------------------

def test_ac03_refinement_grid_500():
    _holds(run_check("lem-3.1", {"instances": 500}))
    _pass(3, "500 refinement grids reconstruct exactly")


def test_ac04_join_oracle_equivalence():
    _holds(run_check("thm-3.2-join", profile="full"))
    _pass(4, "join equals the kernel closed form (exhaustive n<=4, "
             "1000 random n<=10)")


def test_ac05_join_is_orthogonally_additive():
    _holds(run_check("thm-3.2-oao", {"samples": 500}))
    _pass(5, "join additive on 500 random disjoint pairs")


def test_ac06_modulus_dominates():
    _holds(run_check("thm-1.1-e", {"samples": 1000}))
    _pass(6, "|T(x)| <= modulus value on 1000 random (T, x)")


def test_ac07_dp_fast_paths_and_wedge():
    _holds(run_check("thm-4.2-2", {"ops": 500}))
    _holds(run_check("thm-4.2-3", {"ops": 500}))
    _holds(run_check("thm-4.2-4", {"ops": 500}))
    _pass(7, "fast modulus/parts match brute force and the wedge "
             "vanishes, 500 operators each")


# ---------------------------------------------------------------------------
# 8. the series functional
# ---------------------------------------------------------------------------

def _ln2_oracle() -> tuple:
    """Independent enclosure (lo, hi) of ln 2 = 2 atanh(1/3): geometric
    series with ratio 1/9, remainder below the next term divided by
    (1-1/9)."""
    total = Q(0)
    for j in range(0, 22):
        total += 2 * Q(1, (2 * j + 1) * 3 ** (2 * j + 1))
    next_term = 2 * Q(1, 45 * 3 ** 45)
    return total, total + next_term * Q(9, 8)


def test_ac08_series_reproduction():
    T = AlternatingSeries()
    R = T.codomain
    e = one(EventuallyConstant())
    v = apply(T, e)
    # T(1) is -ln 2 exactly, and the order of its range places it in an
    # enclosure of ln 2 that shares no code with it
    assert v == normalize(R, (0, -1))
    lo, hi = _ln2_oracle()
    assert hi - lo < Q(1, 10 ** 12)
    assert leq(normalize(R, (-hi, 0)), v) and leq(v, normalize(R, (-lo, 0)))
    scan = lateral_bound_scan(T, e, level=62, bound=normalize(R, (2, 0)))
    harmonic = Q(0)
    prev = None
    for level, _, top in scan.table:
        if level % 2 == 0 and level > 0:
            harmonic += Q(1, level)
            assert top == normalize(R, (harmonic, 0))
        if prev is not None:
            assert leq(prev, top)
        prev = top
    h31_half = sum(Q(1, k) for k in range(1, 32)) / 2
    assert scan.table[-1][2] == normalize(R, (h31_half, 0))
    assert h31_half > 2
    assert scan.growth
    _pass(8, f"series gives -ln2 exactly; level-62 maximum "
             f"H_31/2 = {h31_half} > 2, monotone")


# ---------------------------------------------------------------------------
# 9. growth construction and its converse
# ---------------------------------------------------------------------------

def test_ac09_ramped_growth_and_converse():
    target = one(Coordinate(1))
    T = example_operator("ramped_basis", target=target)
    e = one(EventuallyConstant())
    scan = lateral_bound_scan(T, e, level=12)
    for level, _, hi in scan.table:
        assert hi == scale(Q(level * (level + 1), 2), target)
    _holds(run_check("thm-2.3-forward", profile="full"))
    _holds(run_check("thm-2.3-converse", {"ops": 150}))
    _holds(run_check("rem-c00", {"ops": 150}))
    _pass(9, "level-N maximum is n(n+1)/2 exactly (N<=12); finite "
             "fragment algebras always give exact finite bounds")


# ---------------------------------------------------------------------------
# 10. the two counterexamples
# ---------------------------------------------------------------------------

def test_ac10_counterexamples():
    u_pl = one(PiecewiseLinear())
    T = example_operator("unit_match")
    assert verify_oao(T).verdict == HOLDS
    assert verify_disjointness_preserving(T).verdict == HOLDS
    assert meyer_pair(T, u_pl, scale(2, u_pl), unsafe=True) == u_pl
    decs = enumerate_decompositions(u_pl)
    assert {(d.left, d.right) for d in decs} == {
        (zero(u_pl.space), u_pl), (u_pl, zero(u_pl.space))}
    S = example_operator("unit_lateral_meet")
    u = one(S.space)
    assert verify_oao(S).verdict == HOLDS
    assert verify_disjointness_preserving(S).verdict == HOLDS
    assert meyer_pair(S, u, scale(2, u), unsafe=True) == u
    _holds(run_check("ex-4.3-pl"))
    _holds(run_check("ex-4.3-latmeet", profile="full"))
    _pass(10, "both counterexample operators verified; unsafe wedge is "
              "exactly the unit; unit splits only trivially")


# ---------------------------------------------------------------------------
# 11. linear positivity
# ---------------------------------------------------------------------------

def test_ac11_linear_never_positive():
    _holds(run_check("rem-linear-positive", {"ops": 100}))
    _pass(11, "100 nonzero linear operators all refuted with an x,-x "
              "witness")


# ---------------------------------------------------------------------------
# 12. mutation sensitivity
# ---------------------------------------------------------------------------

def test_ac12_mutations_are_caught():
    with tampered("latinf-collinear-meet-formula"):
        assert run_check("ex-4.3-latmeet").result.verdict == FAILS
    with tampered("latsup-sign-flip"):
        assert run_check("frag-boolean").result.verdict == FAILS
    assert run_check("ex-4.3-latmeet").result.verdict == HOLDS
    assert run_check("frag-boolean").result.verdict == HOLDS
    _pass(12, "both documented mutations break named checks")


# ---------------------------------------------------------------------------
# 13. command-line: suite timing, fuzz, goldens
# ---------------------------------------------------------------------------

def test_ac13_cli_quick_suite_under_60s():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "rieszlab", "suite", "--profile", "quick",
         "--seed", "0"],
        capture_output=True, text=True, cwd=REPO)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed <= 60, f"quick suite took {elapsed:.1f}s"
    last = proc.stdout.strip().splitlines()[-1]
    assert "fails=0" in last
    _pass(13, f"quick suite exits 0 in {elapsed:.1f}s")


def test_ac13_parser_fuzz_100k():
    from rieszlab.dsl import parse
    rng = make_rng("ac13-fuzz")
    tokens = ("let", "eval", "check", "suite", "search", "coord", "simple",
              "ec", "fin", "pl", "kernel", "table", "latmeet", "series",
              "one", "zero", "fragments", "decomps", "meyer", "[", "]", "{",
              "}", "(", ")", ";", ",", "|", "->", "\\/", "/\\", "^+", "^-",
              "<=", "<<=", "==", "_|_", "*", "+", "-", "/", "1", "2", "17",
              "t", "x", "@", "level", "=", ":", "⊑", "⊥")
    count = 0
    for _ in range(50_000):
        text = " ".join(rng.choice(tokens)
                        for _ in range(rng.randint(0, 10)))
        parse(text)
        count += 1
    for _ in range(50_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 24)))
        parse(raw.decode("utf-8", errors="replace"))
        count += 1
    assert count == 100_000
    _pass(13, "parser fuzz: 100000 inputs, no crash")


def test_ac13_golden_scripts_byte_for_byte():
    import io
    from contextlib import redirect_stdout
    from rieszlab import cli
    scripts = sorted((REPO / "demos").glob("*.rl"))
    assert len(scripts) >= 15
    for script in scripts:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["run", str(script), "--seed", "0"])
        assert code == 0, script
        golden = script.with_suffix(".out").read_text(encoding="utf-8")
        assert buf.getvalue() == golden, f"golden mismatch for {script.name}"
    _pass(13, f"{len(scripts)} example scripts match their goldens "
              "byte-for-byte")
