"""Named, reproducible checks for every statement the workbench encodes.

Each check id wires one claim (a lattice identity, a boundedness
dichotomy, a counterexample) to a deterministic runner: exhaustive
where the quantification domain is finite at the configured size,
seeded sampling otherwise, with the mode recorded in the report notes.
Re-running with identical id and config reproduces identical records.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction

from . import generators as gen
from . import lateral, reports
from .errors import (
    EnumerationCapExceeded, MalformedElement, PreconditionError, UnknownCheck,
)
from .lateral import (
    enumerate_decompositions, enumerate_fragments, is_fragment, pliev_grid,
)
from .operators import (
    AlternatingSeries, OpScaled, OpSum, PiecewisePoly, apply,
    diagonal_kernel, example_operator, joint_window, negate,
    poly, verify_disjointness_preserving, verify_oao, verify_positive,
    lateral_bound_scan, ZeroOp,
)
from .oplattice import (
    OpLattice, dp_fast, extrema_by_enumeration, join_at, levels_by_full_walk,
    meet_at, meyer_pair, modulus_at, neg_part_at, pos_part_at,
)
from .oracles import common_fragment_by_agreement, scan_levels_by_enumeration
from .reports import CheckReport, FAILS, HOLDS, INCONCLUSIVE
from .spaces import (
    Coordinate, EventuallyConstant, FinSupport, PiecewiseLinear,
    SimpleFunction, ZERO, absolute, add, format_element,
    from_atoms, get_atom, has_infinite_fragments, inf, is_disjoint, is_zero,
    leq, ln2_enclosure, neg_part, normalize, one, pieces, pos_part, q, scale,
    sub, sup, support_atoms, zero,
)

Q = Fraction


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class TheoremCheck:
    id: str
    config: dict
    result: CheckReport
    artifacts: tuple = ()

    def summary_line(self) -> str:
        line = f"{self.id} {self.result.verdict} {self.result.samples_used}"
        if self.result.witness is not None:
            line += f" witness={self.result.witness}"
        return line

    def record(self) -> list:
        r = self.result
        return [f"id={self.id}", f"title={REGISTRY[self.id].title}",
                *(f"config.{k}={self.config[k]}" for k in sorted(self.config)),
                f"verdict={r.verdict}", f"samples={r.samples_used}",
                f"seed={r.seed}",
                *([f"witness={r.witness}"] if r.witness is not None else ()),
                *([f"notes={r.notes}"] if r.notes else ()),
                *(f"artifact.{i}={a}" for i, a in enumerate(self.artifacts))]


def _ok(samples, notes="") -> CheckReport:
    return reports.holds(samples, notes=notes)


def _bad(witness, samples, data=None, notes="") -> CheckReport:
    return reports.fails(witness, samples, witness_data=data, notes=notes)


# ---------------------------------------------------------------------------
# shared small helpers
# ---------------------------------------------------------------------------

def _finite_spaces():
    return (Coordinate(3), Coordinate(5),
            SimpleFunction((Q(0), Q(1, 3), Q(2, 3), Q(1))),
            FinSupport(), PiecewiseLinear())


def _finite_frag_element(rng, space):
    """Random element whose fragment algebra is finite."""
    x = gen.random_element(rng, space)
    if has_infinite_fragments(x):
        return sum(pieces(x), zero(space))
    return x


@dataclass(frozen=True)
class _Sampled:
    """A runner made of a draw and a claim: ``instances(rng, cfg)``
    yields each sample's inputs, drawing them as it goes, and
    ``claim(*inputs)`` returns None when it holds, else its witness or
    (witness, notes).  Each input tuple is one sample; the first failure
    ends the run and keeps its inputs as the witness data."""
    instances: object
    claim: object
    notes: str

    def __call__(self, rng, cfg):
        samples = 0
        for inputs in self.instances(rng, cfg):
            samples += 1
            failure = self.claim(*inputs)
            if failure is not None:
                witness, notes = ((failure, "") if isinstance(failure, str)
                                  else failure)
                return _bad(witness, samples, inputs, notes), ()
        return _ok(samples, notes=self.notes), ()


def _sampled(instances, notes):
    """Make a claim into the runner that checks it on ``instances``."""
    return lambda claim: _Sampled(instances, claim, notes)


def _drawn(count_key, menu, draw):
    """cfg[count_key] instances: instance k is ``draw(rng, space, k)`` on
    entry k % len of ``menu()``, built when the check runs, never at
    import ((None,) for a draw that picks its own space)."""
    def instances(rng, cfg):
        spaces = menu()
        for k in range(cfg[count_key]):
            yield draw(rng, spaces[k % len(spaces)], k)
    return instances


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _run_frag_boolean(rng, cfg):
    # a base of full support with mixed signs
    n = cfg["n"]
    vals = [gen.random_nonzero_scalar(rng) for _ in range(n)]
    vals[0] = abs(vals[0])
    if n > 1:
        vals[1] = -abs(vals[1])
    e = normalize(Coordinate(n), vals)
    frags = list(enumerate_fragments(e))
    atoms = support_atoms(e)
    masks = {f: sum(1 << k for k, a in enumerate(atoms) if get_atom(f, a) != 0)
             for f in frags}
    by_mask = {m: f for f, m in masks.items()}
    samples = 0
    for x in frags:
        # complement, zero and unit laws
        c = sub(e, x)
        if lateral.lateral_sup(x, c) != e or not is_zero(lateral.lateral_inf(x, c)):
            return _bad(f"complement law at {format_element(x)}", samples,
                        data=(x,)), ()
        for y in frags:
            samples += 1
            s = lateral.lateral_sup(x, y)
            m = lateral.lateral_inf(x, y)
            if s != by_mask[masks[x] | masks[y]] or m != by_mask[masks[x] & masks[y]]:
                return _bad(
                    f"x={format_element(x)} y={format_element(y)}", samples,
                    data=(x, y),
                    notes="lateral ops disagree with support union/intersection"), ()
    # associativity and distributivity re-checked on the raw elements
    small = frags if n <= 3 else frags[:8]
    for x, y, z in itertools.product(small, repeat=3):
        samples += 1
        if lateral.lateral_sup(lateral.lateral_sup(x, y), z) != \
           lateral.lateral_sup(x, lateral.lateral_sup(y, z)):
            return _bad("associativity of lateral sup", samples, data=(x, y, z)), ()
        if lateral.lateral_inf(x, lateral.lateral_sup(y, z)) != \
           lateral.lateral_sup(lateral.lateral_inf(x, y), lateral.lateral_inf(x, z)):
            return _bad("distributivity", samples, data=(x, y, z)), ()
    arts = (f"algebra size {len(frags)} on base {format_element(e)}",)
    return _ok(samples, notes="exhaustive over the fragment algebra"), arts


def _run_lat_partial_order(rng, cfg):
    samples = 0
    for space in _finite_spaces():
        e = _finite_frag_element(rng, space)
        frags = list(enumerate_fragments(e))[:32]
        for x in frags:
            if not is_fragment(x, x):
                return _bad(f"reflexivity at {format_element(x)}", samples), ()
        for x, y in itertools.product(frags, repeat=2):
            samples += 1
            if is_fragment(x, y) and is_fragment(y, x) and x != y:
                return _bad("antisymmetry", samples, data=(x, y)), ()
        rel = {(i, j) for i, x in enumerate(frags) for j, y in enumerate(frags)
               if is_fragment(x, y)}
        # below y in the lateral order, x joins y to y itself
        for i, j in sorted(rel):
            if lateral.lateral_sup(frags[i], frags[j]) != frags[j]:
                return _bad("lateral supremum of a lower fragment",
                            samples, data=(frags[i], frags[j])), ()
        for (i, j), k in itertools.product(rel, range(len(frags))):
            if (j, k) in rel and (i, k) not in rel:
                return _bad("transitivity", samples,
                            data=(frags[i], frags[j], frags[k])), ()
    return _ok(samples, notes="exhaustive on enumerated fragment sets"), ()


def _sharing_pair(rng, space, k):
    """x, and a y that keeps some support pieces of x and replaces the
    others by a multiple of themselves, or by a part disjoint from what
    it keeps; on eventually constant x, y may keep the tail too.  Every
    other visit to the piecewise-linear model draws end ramps instead."""
    if space == PiecewiseLinear() and k // len(gen.space_menu()) % 2:
        return _end_ramps(rng)
    x = gen.random_nonzero_element(rng, space)
    parts = space.support(x)
    kept = [p for p in parts if rng.random() < 0.5]
    y = space.restrict(x, kept)
    if has_infinite_fragments(x) and rng.random() < 0.5:
        y = add(y, sub(x, sum(pieces(x), zero(space))))
    if rng.random() < 0.5:
        dropped = [p for p in parts if p not in kept]
        c = rng.choice((-1, 2, Q(1, 2)))
        return x, add(y, scale(c, space.restrict(x, dropped)))
    z = gen.random_element(rng, space)
    return x, add(y, sum((p for p in pieces(z) if is_disjoint(p, y)),
                         zero(space)))


def _end_ramps(rng):
    """Two piecewise-linear functions whose components at t=0 and t=1
    are single segments, with the same middle component; each end
    value differs between them at random.  A shared end component has
    no breakpoint inside, so only its end value tells the two apart."""
    space = PiecewiseLinear()
    a, b = sorted(rng.sample(space.sample_points, 2))
    middle = [(a, ZERO), ((a + b) * Q(1, 2), gen.random_nonzero_scalar(rng)),
              (b, ZERO)]
    ends = [(gen.random_nonzero_scalar(rng), gen.random_nonzero_scalar(rng))
            for _ in range(2)]
    left, right = ends[0], ends[rng.randint(0, 1)]
    x = normalize(space, [(Q(0), left[0])] + middle + [(Q(1), left[1])])
    y = normalize(space, [(Q(0), right[0] if rng.random() < 0.5 else left[0])]
                  + middle + [(Q(1), right[1] if rng.random() < 0.5
                               else left[1])])
    return x, y


@_sampled(_drawn("samples", gen.space_menu, _sharing_pair),
          "greatest common fragment matched the references")
def _run_lat_common_fragment(x, y):
    for a, b in ((x, y), (y, x)):
        got = lateral.lateral_inf(a, b)
        want = common_fragment_by_agreement(a, b)
        if got != want:
            return (f"lateral infimum of {format_element(a)} and "
                    f"{format_element(b)} is {format_element(got)}, "
                    f"reference {format_element(want)}")


def _splitting_pair(rng, space, k):
    e = gen.random_nonzero_element(rng, space)
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    return e, space.random_split(rng, e, m), space.random_split(rng, e, n)


@_sampled(_drawn("instances", gen.space_menu, _splitting_pair),
          "randomized grids, exact reconstruction")
def _run_lem_3_1(e, us, vs):
    grid = pliev_grid(us, vs)
    for a, b in itertools.combinations(
            [w for row in grid.grid for w in row], 2):
        if not is_disjoint(a, b):
            return f"grid entries not disjoint (base {format_element(e)})"
    for i, u in enumerate(us):
        if grid.row_sum(i) != u:
            return f"row {i} does not reconstruct (base {format_element(e)})"
    for j, v in enumerate(vs):
        if grid.col_sum(j) != v:
            return (f"column {j} does not reconstruct (base "
                    f"{format_element(e)})")


def _dp_point(rng, space, k):
    """An operator that preserves disjointness by construction, and a
    point with a finite fragment algebra."""
    return gen.random_dp_operator(rng, space), _finite_frag_element(rng, space)


_dp_points = _drawn("ops", gen.space_menu, _dp_point)


def _dp_fragments(rng, cfg):
    """(T, z, e, T(e)) at every fragment z of e, for each (T, e) of
    ``_dp_points``."""
    for T, e in _dp_points(rng, cfg):
        Te = apply(T, e)
        for z in enumerate_fragments(e):
            yield T, z, e, Te


@_sampled(_dp_fragments, "exhaustive on finite fragment sets")
def _run_lem_4_4(T, z, e, Te):
    # a fragment is, payload and all, the canonical sum of its pieces
    if z != sum(pieces(z), zero(z.space)):
        return f"fragment {format_element(z)} is not the sum of its pieces"
    if not is_fragment(apply(T, z), Te):
        return (f"T(x) not a fragment of T(e); x={format_element(z)} "
                f"e={format_element(e)}")


def _fragment_and_signs(rng, space, k):
    """y, a fragment x of y, a fragment u of |y| and u with its pieces'
    signs scattered."""
    y = gen.random_nonzero_element(rng, space)
    x = space.random_fragment(rng, y)
    u = space.random_fragment(rng, absolute(y))
    return y, x, u, _random_signs(rng, u)


@_sampled(_drawn("samples", gen.space_menu, _fragment_and_signs),
          "randomized, exact")
def _run_lem_4_5(y, x, u, x2):
    px, nx, ax = pos_part(x), neg_part(x), absolute(x)
    for tag, fx, fy in (("pos", px, pos_part(y)),
                        ("neg", nx, neg_part(y)),
                        ("abs", ax, absolute(y))):
        if not is_fragment(fx, fy):
            return f"{tag} part not laterally monotone"
    # the parts are the lattice formulas on x, which the models compute
    # apart from ``sup``
    o, minus_x = zero(x.space), scale(-1, x)
    for tag, fx, formula in (("pos", px, sup(x, o)),
                             ("neg", nx, sup(minus_x, o)),
                             ("abs", ax, sup(x, minus_x))):
        if fx != formula:
            return f"{tag} part differs from its lattice formula"
    if absolute(x2) != u:
        return "sign scatter broke |x| = u"
    if not leq(absolute(x2), absolute(y)):
        return "|x| fragment of |y| but not |x| <= |y|"


def _random_signs(rng, u):
    """Element with |result| = u: flip signs atom- or component-wise."""
    flipped = sum((p for p in pieces(u) if rng.random() < 0.5), zero(u.space))
    return sub(u, scale(2, flipped))


def _diagonal_pair(rng, _, k):
    """Two linear diagonal kernels on Coordinate(n), their per-atom
    maximum as a dominator, and a point."""
    n = rng.randint(1, 4)
    space = Coordinate(n)
    a = [gen.random_scalar(rng) for _ in range(n)]
    b = [gen.random_scalar(rng) for _ in range(n)]
    S = diagonal_kernel(space, [poly(0, c) for c in a])
    T = diagonal_kernel(space, [poly(0, c) for c in b])
    # closed-form dominator: per atom max(a t, b t)
    dom = diagonal_kernel(space, [
        PiecewisePoly((0,), ((0, min(ai, bi)), (0, max(ai, bi))))
        for ai, bi in zip(a, b)])
    return S, T, dom, gen.random_element(rng, space)


@_sampled(_drawn("samples", lambda: (None,), _diagonal_pair),
          "upper-bound and minimality against dominators")
def _run_thm_1_1_a(S, T, dom, x):
    point = join_at(S, T, x)
    for d in enumerate_decompositions(x):
        if not leq(add(apply(S, d.left), apply(T, d.right)), point.value):
            return "join not an upper bound of a splitting value"
    if not (leq(apply(S, x), apply(dom, x)) and leq(apply(T, x), apply(dom, x))):
        return "dominator construction broken"
    if not leq(point.value, apply(dom, x)):
        return "join exceeds a pointwise dominator"


def _op_pool(rng, space):
    return gen.random_oao(rng, space, allow_tables=False)


def _op_point(rng, space, k):
    return _op_pool(rng, space), _finite_frag_element(rng, space)


_op_points = _drawn("samples", _finite_spaces, _op_point)


@_sampled(_drawn("samples", _finite_spaces, lambda rng, space, k: (
    _op_pool(rng, space), *_op_point(rng, space, k))),
    "duality identity, exact")
def _run_thm_1_1_b(S, T, x):
    m = meet_at(S, T, x).value
    j = join_at(negate(S), negate(T), x).value
    if m != scale(-1, j):
        return "meet is not the negated join of negations"


@_sampled(_op_points, "part identities, exact")
def _run_thm_1_1_c(T, x):
    p, m, tx = pos_part_at(T, x).value, neg_part_at(T, x).value, apply(T, x)
    if sub(p, m) != tx:
        return "pos - neg != T(x)"
    if not leq(zero(p.space), p) or not leq(tx, p):
        return "positive part not dominating"


@_sampled(_op_points, "dual part identity, exact")
def _run_thm_1_1_d(T, x):
    if neg_part_at(T, x).value != pos_part_at(negate(T), x).value:
        return "negative part is not the positive part of -T"


@_sampled(_op_points, "modulus inequality, exact")
def _run_thm_1_1_e(T, x):
    if not leq(absolute(apply(T, x)), modulus_at(T, x).value):
        return "|T(x)| exceeds the modulus value"


def _run_thm_2_3_forward(rng, cfg):
    levels = cfg["levels"]
    target = one(Coordinate(1))
    T = example_operator("ramped_basis", target=target, horizon=max(levels, 16))
    e = one(EventuallyConstant())
    bound = from_atoms(Coordinate(1), {1: cfg["bound"]})
    scan = lateral_bound_scan(T, e, level=levels, bound=bound)
    arts = []
    samples = 0
    for l, lo, hi in scan.table:
        samples += 1
        expect = scale(Q(l * (l + 1), 2), target)
        if hi != expect:
            return _bad(f"level {l} maximum is {format_element(hi)}, "
                        f"expected {format_element(expect)}",
                        samples), tuple(arts)
        arts.append(f"level {l}: max={format_element(hi)}")
    # cross-check the closed form against plain enumeration at small levels
    small = scan_levels_by_enumeration(T, e, min(levels, 8))
    for (l, lo, hi), (l2, lo2, hi2) in zip(scan.table, small):
        if (l, lo, hi) != (l2, lo2, hi2):
            return _bad(f"closed form disagrees with enumeration at level {l}",
                        samples), tuple(arts)
    if not scan.growth:
        return _bad("expected growth past the bound was not flagged",
                    samples), tuple(arts)
    arts.append(f"growth past {cfg['bound']} certified")
    return _ok(samples, notes="exact level maxima n(n+1)/2"), tuple(arts)


def _converse(menu):
    """Theorem 2.3's converse on random operators over ``menu``."""
    @_sampled(_drawn("ops", menu, lambda rng, space, k: (
        gen.random_oao(rng, space), _finite_frag_element(rng, space))),
        "exact finite bounds on every instance")
    def run(T, e):
        scan = lateral_bound_scan(T, e)
        for z in enumerate_fragments(e):
            v = apply(T, z)
            if not (leq(scan.lo, v) and leq(v, scan.hi)):
                return "scan bounds do not envelope an image"
    return run


@_sampled(_drawn("ops", lambda: (None,),
                 lambda rng, _, k: (gen.random_linear_operator(rng),)),
          "every nonzero linear operator refuted with x,-x")
def _run_rem_linear_positive(T):
    rep = verify_positive(T)
    if rep.verdict != FAILS or rep.witness_data is None:
        return ("a nonzero linear operator was not refuted",
                f"got verdict {rep.verdict}")
    y = apply(T, rep.witness_data[0])
    if leq(zero(y.space), y):
        return "reported witness does not violate positivity"


@_sampled(_drawn("samples", _finite_spaces, lambda rng, space, k: (
    _op_pool(rng, space), _op_pool(rng, space),
    *gen.random_disjoint_pair(rng, space))),
    "additivity via grid refinement, exact")
def _run_thm_3_2_oao(S, T, x, y):
    whole = join_at(S, T, add(x, y)).value
    partwise = add(join_at(S, T, x).value, join_at(S, T, y).value)
    if whole != partwise:
        return (f"join not additive at x={format_element(x)} "
                f"y={format_element(y)}")
    # refine a few splittings of x + y through the common grid
    for d in enumerate_decompositions(add(x, y))[:4]:
        if is_zero(d.left) and is_zero(d.right):
            continue
        w = pliev_grid([d.left, d.right], [x, y]).grid
        checks = (
            add(w[0][0], w[0][1]) == d.left,
            add(w[1][0], w[1][1]) == d.right,
            add(w[0][0], w[1][0]) == x,
            add(w[0][1], w[1][1]) == y,
            apply(S, d.left) == add(apply(S, w[0][0]), apply(S, w[0][1])),
        )
        if not all(checks):
            return "grid refinement identity failed"


def _scan_matches_hull(kind, operands, witness, notes):
    """The lateral bound scan of ``kind`` of random operators, folded atom
    by atom, against the inf and sup of its enumerated fragment images."""
    @_sampled(_drawn("samples", _finite_spaces, lambda rng, space, k: (
        OpLattice(kind, [_op_pool(rng, space) for _ in range(operands)]),
        _finite_frag_element(rng, space))), notes)
    def run(body, e):
        vals = [apply(body, z) for z in enumerate_fragments(e)]
        scan = lateral_bound_scan(body, e)
        if (scan.lo, scan.hi) != (functools.reduce(inf, vals),
                                  functools.reduce(sup, vals)):
            return witness
    return run


def _join_attains(S, T, x, got, ref):
    if not ref.attained:
        return "no attaining splitting recorded"
    if got.attained != ref.attained:
        return (f"attaining splittings at {format_element(x)} differ from "
                "enumeration")


def _meet_is_dual(S, T, x, got, ref):
    if got.value != scale(-1, join_at(negate(S), negate(T), x).value):
        return "meet duality identity failed"


def _modulus_dominates(T, x, got, ref):
    if not leq(absolute(apply(T, x)), got.value):
        return "modulus below |T(x)|"


def _negated(point):
    point.value = scale(-1, point.value)
    return point


# per kind: the per-atom closed form on the operands' values, the fold
# under test and its enumeration reference over every splitting
_ClosedForm = collections.namedtuple("_ClosedForm", (
    "operands largest per_atom fold reference extra mismatch notes"))
_CLOSED_FORMS = {
    "join": _ClosedForm(
        2, 10, max, join_at,
        lambda S, T, x: extrema_by_enumeration(S, T, x, "sup"),
        _join_attains, "join oracle mismatch at {x}",
        "coordinatewise closed form matched exactly"),
    "meet": _ClosedForm(
        2, 6, min, meet_at,
        lambda S, T, x: extrema_by_enumeration(S, T, x, "inf"),
        _meet_is_dual, "meet oracle mismatch",
        "coordinatewise minimum matched exactly"),
    "pos": _ClosedForm(
        1, 6, lambda v: max(v, ZERO), pos_part_at,
        lambda T, x: extrema_by_enumeration(
            T, ZeroOp(T.domain, T.codomain), x, "sup"),
        lambda *_: None, "pos oracle mismatch at {x}", "closed form matched"),
    "neg": _ClosedForm(
        1, 6, lambda v: max(-v, ZERO), neg_part_at,
        lambda T, x: _negated(extrema_by_enumeration(
            T, ZeroOp(T.domain, T.codomain), x, "inf")),
        lambda *_: None, "neg oracle mismatch at {x}", "closed form matched"),
    "modulus": _ClosedForm(
        1, 6, abs, modulus_at,
        lambda T, x: extrema_by_enumeration(T, negate(T), x, "sup"),
        _modulus_dominates, "modulus oracle mismatch at {x}",
        "closed form matched"),
}


def _closed_form(kind):
    """``kind`` of random diagonal kernels against its per-atom closed
    form, evaluated by Fraction Horner apart from ``apply``, and against
    enumeration: at each x of the grid {-2, ..., 2}^n for n up to
    cfg["exhaustive_n"], with one draw of kernels per n, then at
    cfg["samples"] random x."""
    (operands, largest, per_atom, fold, reference, extra, mismatch,
     notes) = _CLOSED_FORMS[kind]

    def cases(rng, cfg):
        def kernels(n):
            return [diagonal_kernel(Coordinate(n), [gen._random_fn(rng)
                                                    for _ in range(n)])
                    for _ in range(operands)]

        for n in range(1, cfg.get("exhaustive_n", 0) + 1):
            ops = kernels(n)
            for values in itertools.product((-2, -1, 0, 1, 2), repeat=n):
                yield ops, normalize(Coordinate(n), values), True
        for _ in range(cfg["samples"]):
            ops = kernels(rng.randint(1, largest))
            yield ops, gen.random_element(rng, ops[0].domain), False

    @_sampled(cases, notes)
    def claim(ops, x, exhaustive):
        # the kernels' rows (i, i, f), one per atom i, in atom order
        want = normalize(x.space, [
            per_atom(*(f.eval_by_fractions(get_atom(x, i))
                       for i, _, f in rows))
            for rows in zip(*(K.table for K in ops))])
        got, ref = fold(*ops, x), reference(*ops, x)
        if got.value == want and ref.value == want:
            return extra(*ops, x, got, ref)
        if not exhaustive:
            return mismatch.format(x=format_element(x))
        return (f"{kind} at {format_element(x)} is "
                f"{format_element(got.value)}, enumeration "
                f"{format_element(ref.value)}, oracle {format_element(want)}")
    return claim


def _window_operator(rng, codomain):
    """A random operator on eventually constant sequences whose body
    has a window: a kernel, a basis-split map, their sum, a scaled
    kernel or the zero operator."""
    ec = EventuallyConstant()
    kind = rng.randrange(5)
    if kind == 0:
        return gen.random_kernel(rng, ec, codomain)
    if kind == 1:
        return gen.random_linear_ec(rng, codomain)
    if kind == 2:
        return OpSum((gen.random_kernel(rng, ec, codomain),
                      gen.random_linear_ec(rng, codomain)))
    if kind == 3:
        return OpScaled(gen.random_nonzero_scalar(rng),
                        gen.random_kernel(rng, ec, codomain))
    return ZeroOp(ec, codomain)


def _window_tables(S, T, x, level):
    """(name, table cut at the window, table of the full walk) for the
    join, meet, parts and modulus, and the lateral bound scan of T."""
    zero_op = ZeroOp(T.domain, T.codomain)
    lows = levels_by_full_walk(T, zero_op, x, "inf", level)
    highs = levels_by_full_walk(T, zero_op, x, "sup", level)
    return (
        ("join", join_at(S, T, x, level).levels,
         levels_by_full_walk(S, T, x, "sup", level)),
        ("meet", meet_at(S, T, x, level).levels,
         levels_by_full_walk(S, T, x, "inf", level)),
        ("pos", pos_part_at(T, x, level).levels, highs),
        ("neg", neg_part_at(T, x, level).levels,
         [(l, scale(-1, v)) for l, v in lows]),
        ("mod", modulus_at(T, x, level).levels,
         levels_by_full_walk(T, negate(T), x, "sup", level)),
        ("scan", lateral_bound_scan(T, x, level).table,
         [(l, lo, hi) for (l, lo), (_, hi) in zip(lows, highs)]),
    )


def _window_pair(rng, ec, k):
    """Two operators with a window, the first a ramped basis operator
    every fourth draw, and a point with an infinite fragment algebra."""
    if k % 4 == 0:
        cod = Coordinate(1)
        S = example_operator("ramped_basis", target=one(cod),
                             horizon=rng.randint(1, 4))
        T = _window_operator(rng, cod)
    else:
        cod = Coordinate(2)
        S, T = _window_operator(rng, cod), _window_operator(rng, cod)
    x = gen.random_nonzero_element(rng, ec)
    while not has_infinite_fragments(x):
        x = gen.random_nonzero_element(rng, ec)
    return S, T, x


@_sampled(_drawn("samples", lambda: (EventuallyConstant(),), _window_pair),
          "tables cut at the window matched the full walk")
def _run_op_level_window(S, T, x):
    cut = max(joint_window((S, T)), lateral.min_level(x))
    # each table holds every level through 2 * cut + 1
    for name, got, want in _window_tables(S, T, x, 2 * cut + 1):
        if tuple(got) != tuple(want):
            return (f"{name} level table at {format_element(x)} differs "
                    f"from the full walk past level {cut}")


@_sampled(_dp_fragments, "lateral images bounded by |T(e)|, exact")
def _run_thm_4_2_1(T, z, e, Te):
    if not leq(absolute(apply(T, z)), absolute(Te)):
        return "lateral image escapes |T(e)|"


def _dp_fast_vs_brute(kinds):
    """The fast path of each of ``kinds`` against enumeration, on random
    operators that preserve disjointness by construction."""
    @_sampled(_dp_points, "single-application fast path exact")
    def run(T, x):
        for kind in kinds:
            if dp_fast(kind, T, x) != \
                    _CLOSED_FORMS[kind].reference(T, x).value:
                return f"{kind} fast path disagrees at {format_element(x)}"
    return run


def _dp_fragment_pair(rng, space, k):
    T, e = _dp_point(rng, space, k)
    return T, space.random_fragment(rng, e), space.random_fragment(rng, e), e


@_sampled(_drawn("ops", gen.space_menu, _dp_fragment_pair),
          "wedge vanishes under the hypotheses, exact")
def _run_thm_4_2_4(T, x, y, e):
    v = meyer_pair(T, x, y, e)
    if not is_zero(v):
        return (f"nonzero wedge {format_element(v)} at x={format_element(x)} "
                f"y={format_element(y)} e={format_element(e)}")


def _continued_fraction(x):
    """The terms of the continued fraction of the rational x."""
    n, d = x.numerator, x.denominator
    while d:
        a = n // d
        yield a
        n, d = d, n - a * d


def _ln2_convergents():
    """The menu of convergents p_k/q_k of ln 2 with k >= 8 and q_k below
    2^32, each with the sign of ln 2 - p_k/q_k.  The continued fraction
    is read off the ends of an enclosure of width 2^-160, as the terms
    they share but the last.  The convergents alternate about ln 2, the
    even ones below it, and from k = 8 on they are within 10^-6 of it."""
    lo, hi = ln2_enclosure(Q(1, 2 ** 160))
    terms = []
    for a, b in zip(_continued_fraction(lo), _continued_fraction(hi)):
        if a != b:
            break
        terms.append(a)
    menu = []
    p, p0, r, r0 = 1, 0, 0, 1
    for k, a in enumerate(terms[:-1]):
        p, p0, r, r0 = a * p + p0, p, a * r + r0, r
        if k >= 8 and r < 2 ** 32:
            menu.append((Q(p, r), 1 if k % 2 == 0 else -1))
    return tuple(menu)


# draws of two consecutive convergents, one on each side of ln 2
_NEAR_CONVERGENT_DRAWS = 3


def _run_ex_2_2(rng, cfg):
    T = AlternatingSeries()
    R = T.codomain
    e = one(EventuallyConstant())
    v = apply(T, e)
    arts = [f"value at the constant one: {format_element(v)}"]
    if v != normalize(R, (0, -1)):
        return _bad("value at the constant one is not -ln 2", 1), tuple(arts)
    level = cfg["level"]
    scan = lateral_bound_scan(T, e, level=level,
                              bound=normalize(R, (cfg["bound"], 0)))
    samples, prev, harmonic = 1, None, ZERO
    for l, lo, hi in scan.table:
        samples += 1
        if l % 2 == 0 and l > 0:
            harmonic += Q(1, l)
            if hi != normalize(R, (harmonic, 0)):
                return _bad(f"level {l} maximum differs from the even-index "
                            f"harmonic half-sum", samples), tuple(arts)
            arts.append(f"level {l}: max={format_element(hi)}")
        if prev is not None and not leq(prev, hi):
            return _bad(f"level table not monotone at {l}", samples), tuple(arts)
        prev = hi
    if not scan.growth:
        return _bad(f"maximum never exceeded {cfg['bound']}", samples), tuple(arts)
    arts.append(f"exceeds {cfg['bound']} by level {level}")
    # r (ln 2 - p/q) for convergents p/q: values next to 0, whose signs
    # take narrow enclosures of ln 2 to decide
    menu = _ln2_convergents()
    for _ in range(_NEAR_CONVERGENT_DRAWS):
        k, r = rng.randrange(len(menu) - 1), gen.random_nonzero_scalar(rng)
        for c, side in menu[k:k + 2]:
            samples += 1
            v = normalize(R, (-r * c, r))
            sign = side if r > 0 else -side
            if (leq(zero(R), v), leq(v, zero(R))) != (sign > 0, sign < 0) \
                    or absolute(v) != scale(sign, v):
                return _bad(f"sign of {format_element(v)} is not {sign}",
                            samples), tuple(arts)
            arts.append(f"sign of {format_element(v)}: {sign}")
    return _ok(samples, notes="series value, growth table and signs exact"), \
        tuple(arts)


def _run_ex_4_3_pl(rng, cfg):
    T = example_operator("unit_match")
    u = one(PiecewiseLinear())
    arts = []
    if FAILS in (verify_oao(T).verdict,
                 verify_disjointness_preserving(T).verdict):
        return _bad("example operator failed verification", 2), ()
    decs = enumerate_decompositions(u)
    if sorted(format_element(d.left) for d in decs) != \
            sorted((format_element(u), format_element(zero(u.space)))):
        return _bad("the constant one admits a nontrivial splitting", 3), ()
    arts.append("splittings of the constant one: trivial only")
    v = meyer_pair(T, u, scale(2, u), unsafe=True)
    if v != u:
        return _bad(f"unsafe wedge is {format_element(v)}, expected the "
                    "constant one", 4), tuple(arts)
    arts.append(f"unsafe wedge value: {format_element(v)}")
    try:
        meyer_pair(T, u, scale(2, u), e=u)
    except PreconditionError:
        arts.append("guarded form refuses the collinear pair")
    else:
        return _bad("guarded form accepted a non-laterally-bounded pair",
                    5), tuple(arts)
    return _ok(5, notes="counterexample reproduced; guards intact"), tuple(arts)


def _run_ex_4_3_latmeet(rng, cfg):
    S = example_operator("unit_lateral_meet")
    space = S.space
    u = one(space)
    arts = []
    if apply(S, u) != u:
        return _bad("S at the constant one gives "
                    f"{format_element(apply(S, u))}", 1), ()
    if apply(S, scale(2, u)) != scale(-2, u):
        return _bad("S at twice the constant one is wrong", 2), ()
    arts.append("S(1) = 1 and S(2*1) = -2*1")
    samples = 2
    for _ in range(cfg["samples"]):
        x = gen.random_element(rng, space)
        samples += 1
        if not leq(absolute(apply(S, x)), absolute(x)):
            return _bad(f"|S x| exceeds |x| at {format_element(x)}", samples,
                        data=(x,)), tuple(arts)
    if FAILS in (verify_oao(S).verdict,
                 verify_disjointness_preserving(S).verdict):
        return _bad("lateral-meet operator failed verification", samples), ()
    v = meyer_pair(S, u, scale(2, u), unsafe=True)
    if v != u:
        return _bad(f"unsafe wedge is {format_element(v)}",
                    samples), tuple(arts)
    arts.append(f"unsafe wedge value: {format_element(v)}")
    return _ok(samples, notes="collinear counterexample reproduced"), tuple(arts)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    id: str
    title: str
    runner: object
    quick: dict
    full: dict


_DEFS = (
    CheckDef("frag-boolean",
             "fragment algebra is Boolean, isomorphic to support subsets",
             _run_frag_boolean, {"n": 4}, {"n": 6}),
    CheckDef("lat-partial-order",
             "the lateral relation is a partial order on fragment sets",
             _run_lat_partial_order, {}, {}),
    CheckDef("lat-common-fragment",
             "the lateral infimum keeps exactly the pieces both operands "
             "share",
             _run_lat_common_fragment, {"samples": 40}, {"samples": 400}),
    CheckDef("lem-3.1",
             "disjoint splittings refine through a common grid",
             _run_lem_3_1, {"instances": 120}, {"instances": 500}),
    CheckDef("lem-4.4",
             "disjointness-preserving operators are laterally monotone",
             _run_lem_4_4, {"ops": 40}, {"ops": 150}),
    CheckDef("lem-4.5",
             "parts and modulus are laterally monotone; |x| below |y| "
             "laterally implies |x| <= |y|",
             _run_lem_4_5, {"samples": 300}, {"samples": 6000}),
    CheckDef("thm-1.1-a",
             "pointwise join is the least upper bound over splittings",
             _run_thm_1_1_a, {"samples": 60}, {"samples": 200}),
    CheckDef("thm-1.1-b",
             "pointwise meet equals the negated join of negations",
             _run_thm_1_1_b, {"samples": 80}, {"samples": 300}),
    CheckDef("thm-1.1-c",
             "positive part dominates and splits the operator",
             _run_thm_1_1_c, {"samples": 80}, {"samples": 300}),
    CheckDef("thm-1.1-d",
             "negative part is the positive part of the negation",
             _run_thm_1_1_d, {"samples": 80}, {"samples": 300}),
    CheckDef("thm-1.1-e",
             "|T(x)| is below the modulus value",
             _run_thm_1_1_e, {"samples": 150}, {"samples": 1000}),
    CheckDef("thm-2.3-forward",
             "a ramped basis operator has laterally unbounded image",
             _run_thm_2_3_forward, {"levels": 12, "bound": 50},
             {"levels": 12, "bound": 50}),
    CheckDef("thm-2.3-converse",
             "on finite fragment algebras every sampled operator is "
             "laterally-to-order bounded",
             _converse(_finite_spaces), {"ops": 40}, {"ops": 150}),
    CheckDef("rem-c00",
             "finitely supported sequences: lateral boundedness is automatic",
             _converse(lambda: (FinSupport(),)), {"ops": 40}, {"ops": 150}),
    CheckDef("rem-linear-positive",
             "no nonzero linear operator is positive",
             _run_rem_linear_positive, {"ops": 50}, {"ops": 100}),
    CheckDef("thm-3.2-join",
             "brute-force join equals the kernel closed form",
             _closed_form("join"),
             {"exhaustive_n": 3, "samples": 150},
             {"exhaustive_n": 4, "samples": 1000}),
    CheckDef("thm-3.2-oao",
             "the pointwise join is orthogonally additive",
             _run_thm_3_2_oao, {"samples": 120}, {"samples": 500}),
    CheckDef("thm-3.2-pres-p",
             "join of laterally bounded operators stays laterally bounded",
             _scan_matches_hull("join", 2, "join image over fragments not "
                                "order bounded", "join image bounded over "
                                "finite fragment sets"),
             {"samples": 40}, {"samples": 150}),
    CheckDef("cor-3.3-meet",
             "brute-force meet equals the kernel closed form and the dual join",
             _closed_form("meet"),
             {"samples": 150}, {"samples": 500}),
    CheckDef("cor-3.4-pos",
             "positive part equals the kernel closed form",
             _closed_form("pos"),
             {"samples": 150}, {"samples": 500}),
    CheckDef("cor-3.5-neg",
             "negative part equals the kernel closed form",
             _closed_form("neg"),
             {"samples": 150}, {"samples": 500}),
    CheckDef("cor-3.6-mod",
             "modulus equals the kernel closed form and dominates |T(x)|",
             _closed_form("modulus"),
             {"samples": 150}, {"samples": 500}),
    CheckDef("cor-3.6-pres-P",
             "modulus of a laterally bounded operator stays laterally bounded",
             _scan_matches_hull("mod", 1, "modulus image not order bounded "
                                "over fragments", "modulus image bounded "
                                "over finite fragment sets"),
             {"samples": 40}, {"samples": 150}),
    CheckDef("op-level-window",
             "level tables cut at the operators' window equal the full walk",
             _run_op_level_window, {"samples": 8}, {"samples": 80}),
    CheckDef("thm-4.2-1",
             "disjointness-preserving operators are laterally-to-order bounded",
             _run_thm_4_2_1, {"ops": 40}, {"ops": 150}),
    CheckDef("thm-4.2-2",
             "modulus of a disjointness-preserving operator is |T(x)| pointwise",
             _dp_fast_vs_brute(("modulus",)), {"ops": 120}, {"ops": 500}),
    CheckDef("thm-4.2-3",
             "parts of a disjointness-preserving operator are the parts of T(x)",
             _dp_fast_vs_brute(("pos", "neg")), {"ops": 120}, {"ops": 500}),
    CheckDef("thm-4.2-4",
             "the positive/negative wedge vanishes on laterally bounded pairs",
             _run_thm_4_2_4, {"ops": 120}, {"ops": 500}),
    CheckDef("ex-2.2",
             "alternating series functional: exact value and fragment growth",
             _run_ex_2_2, {"level": 62, "bound": 2}, {"level": 62, "bound": 2}),
    CheckDef("ex-4.3-pl",
             "match-table counterexample on continuous functions",
             _run_ex_4_3_pl, {}, {}),
    CheckDef("ex-4.3-latmeet",
             "lateral-meet counterexample on step functions",
             _run_ex_4_3_latmeet, {"samples": 60}, {"samples": 200}),
)

REGISTRY = {d.id: d for d in _DEFS}

# one entry per encoded claim; the registry-completeness test walks this
CLAIM_INDEX = {
    "theorem 1.1": ("thm-1.1-a", "thm-1.1-b", "thm-1.1-c", "thm-1.1-d",
                    "thm-1.1-e"),
    "theorem 2.3": ("thm-2.3-forward", "thm-2.3-converse"),
    "theorem 3.2": ("thm-3.2-join", "thm-3.2-oao", "thm-3.2-pres-p"),
    "theorem 4.2": ("thm-4.2-1", "thm-4.2-2", "thm-4.2-3", "thm-4.2-4"),
    "corollary 3.3": ("cor-3.3-meet",),
    "corollary 3.4": ("cor-3.4-pos",),
    "corollary 3.5": ("cor-3.5-neg",),
    "corollary 3.6": ("cor-3.6-mod", "cor-3.6-pres-P"),
    "lemma 3.1": ("lem-3.1",),
    "lemma 4.4": ("lem-4.4",),
    "lemma 4.5": ("lem-4.5",),
    "example 2.2": ("ex-2.2",),
    "example 4.3 (continuous)": ("ex-4.3-pl",),
    "example 4.3 (lateral meet)": ("ex-4.3-latmeet",),
    "remark c00": ("rem-c00",),
    "remark positive-linear-is-zero": ("rem-linear-positive",),
}


def check_ids():
    return tuple(REGISTRY)


_COUNT_KEYS = frozenset(("n", "instances", "ops", "samples", "levels",
                         "level", "exhaustive_n", "max_level"))
_MAX_COUNT = 10 ** 6
_RATIONAL_KEYS = frozenset(("bound",))


def parse_config(pairs) -> dict:
    """A config from (key, text) pairs: each value is an int where its
    text parses as one, else the text itself."""
    cfg = {}
    for key, raw in pairs:
        try:
            cfg[key] = int(raw)
        except ValueError:
            cfg[key] = raw
    return cfg


def _rational(value) -> bool:
    """Whether ``value`` reads as an exact rational; a bool does not."""
    if type(value) is bool:
        return False
    try:
        q(value)
    except (MalformedElement, ValueError, ZeroDivisionError):
        return False
    return True


def _validate_config(name, cfg, known, integers=("seed",)):
    """Reject a key that is neither in ``known`` nor seed, a count that
    is no integer in 1.._MAX_COUNT, a key of ``integers`` whose value is
    no integer, and a bound that is no rational number; a bool is an int
    to isinstance, but no integer."""
    unknown = sorted(cfg.keys() - known - {"seed"})
    if unknown:
        raise PreconditionError(
            f"{name}: unknown config key(s) {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(known) + ['seed'])}")
    for key, value in cfg.items():
        integer = type(value) is not bool and isinstance(value, int)
        if key in _COUNT_KEYS and not (integer and 1 <= value <= _MAX_COUNT):
            raise PreconditionError(
                f"{name}: config {key}={value!r} out of the supported "
                f"range (integer in 1..{_MAX_COUNT})")
        if key in integers and not integer:
            raise PreconditionError(
                f"{name}: config {key}={value!r} is not an integer")
        if key in _RATIONAL_KEYS and not _rational(value):
            raise PreconditionError(
                f"{name}: config {key}={value!r} is not a rational number")


def run_check(check_id: str, config: dict | None = None,
              profile: str = "quick", seed=0) -> TheoremCheck:
    """Run one named check; identical (id, config) reproduce identical
    results."""
    if check_id not in REGISTRY:
        raise UnknownCheck(f"unknown check id {check_id!r}; known ids: "
                           + ", ".join(check_ids()))
    d = REGISTRY[check_id]
    defaults = d.quick if profile == "quick" else d.full
    cfg = {**defaults, **(config or {})}
    _validate_config(check_id, cfg, d.quick.keys() | d.full.keys())
    run_seed = cfg.pop("seed", seed)
    rng = random.Random(f"{run_seed}:{check_id}")
    try:
        result, artifacts = d.runner(rng, cfg)
    except EnumerationCapExceeded:
        raise  # the configuration asks for more than the runner supports
    except Exception as exc:
        # a crash is a failure of the check, and so is any other broken
        # precondition: the runner builds its own arguments to meet them.
        # The innermost frame is named by qualified name and line offset,
        # so an edit elsewhere in its file leaves the record as it is
        frame, line = list(traceback.walk_tb(exc.__traceback__))[-1]
        code = frame.f_code
        result = reports.fails(
            f"exception: {exc!r}", 0,
            notes=(f"runner raised instead of reporting, at "
                   f"{os.path.basename(code.co_filename)}:{code.co_qualname}"
                   f"+{line - code.co_firstlineno}"))
        artifacts = ()
    result.seed = f"{run_seed}:{check_id}"
    cfg["seed"] = run_seed
    return TheoremCheck(check_id, cfg, result, tuple(artifacts))


def run_all(profile: str = "quick", ids=None, seed=0):
    """Run the whole registry (or a nonempty id subset)."""
    if ids is not None and len(ids) == 0:
        raise PreconditionError("empty id filter")
    chosen = tuple(ids) if ids is not None else check_ids()
    results = [run_check(i, profile=profile, seed=seed) for i in chosen]
    return results, {"total": len(results), **{
        v: sum(r.result.verdict == v for r in results)
        for v in (HOLDS, FAILS, INCONCLUSIVE)}}


def summary_text(summary: dict) -> str:
    return (f"total={summary['total']} holds={summary[HOLDS]} "
            f"fails={summary[FAILS]} inconclusive={summary[INCONCLUSIVE]}")


# ---------------------------------------------------------------------------
# exploratory truncated-join search (open-problem harness)
# ---------------------------------------------------------------------------

DISCLAIMER = ("exploratory evidence only: stabilization of a truncated level "
              "sequence proves nothing about the existence of a supremum, and "
              "no claim is made about the underlying open question")


@dataclass
class SearchCase:
    description: str
    classification: str
    detail: str


@dataclass
class SearchReport:
    config: dict
    cases: tuple
    note: str = DISCLAIMER

    def lines(self) -> list:
        out = [f"search instances={len(self.cases)} "
               f"max_level={self.config['max_level']} bound={self.config['bound']}"]
        for c in self.cases:
            out.append(f"  {c.classification:<20} {c.description} [{c.detail}]")
        out.append(f"note: {self.note}")
        return out


def _search_pairs(rng, k):
    ec = EventuallyConstant()
    cod = Coordinate(2)
    kind = k % 4
    if kind == 0:
        return (gen.random_kernel(rng, ec, cod),
                gen.random_kernel(rng, ec, cod), "kernel vs kernel")
    if kind == 1:
        S = example_operator("ramped_basis", target=one(Coordinate(1)),
                             horizon=80)
        return S, ZeroOp(ec, Coordinate(1)), "ramped basis vs zero"
    if kind == 2:
        T = gen.random_kernel(rng, ec, cod)
        return T, T, "operator vs itself"
    return (gen.random_linear_ec(rng, cod), gen.random_kernel(rng, ec, cod),
            "basis-split linear vs kernel")


def _classify(levels, bound):
    """A truncated join's level table as (classification, detail)."""
    top, last = levels[-1]
    if not leq(last, scale(bound, one(last.space))):
        return "monotone-unbounded", f"exceeds {bound} by level {top}"
    stable_at = top
    for l, v in reversed(levels):
        if v != last:
            break
        stable_at = l
    if stable_at < top:
        return "stabilized", f"constant from level {stable_at}"
    # strict growth through the whole second half of the table is
    # reported as unbounded-type even below the numeric bound
    half = levels[len(levels) // 2:]
    if all(leq(a, b) and a != b
           for (_, a), (_, b) in zip(half, half[1:])) and len(half) > 2:
        return "monotone-unbounded", f"strictly increasing through level {top}"
    return "undetermined", f"still moving at level {top}"


def search_truncated_joins(config: dict | None = None) -> SearchReport:
    """Scan random operator pairs at points with infinite fragment
    algebras and classify the truncated join level sequences."""
    cfg = {"instances": 8, "max_level": 64, "bound": 10 ** 6, "seed": 0,
           **(config or {})}
    _validate_config("search", cfg, {"instances", "max_level", "bound"},
                     ("seed", "bound"))
    rng = random.Random(f"{cfg['seed']}:search")
    cases = []
    for k in range(cfg["instances"]):
        S, T, describe = _search_pairs(rng, k)
        x = gen.random_nonzero_element(rng, EventuallyConstant())
        while not has_infinite_fragments(x):
            x = gen.random_nonzero_element(rng, EventuallyConstant())
        levels = join_at(S, T, x, level=cfg["max_level"]).levels
        cases.append(SearchCase(describe, *_classify(levels, cfg["bound"])))
    return SearchReport(cfg, tuple(cases))
