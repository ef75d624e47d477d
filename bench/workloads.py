"""The four benchmark workloads and the checks on their outputs.

A workload builds its seeded inputs when constructed (that is part of
set-up) and hands out rounds of operations.  An operation's ``run`` is
the timed call into rieszlab; raising means the operation failed.  Its
``check`` runs untimed afterwards and returns the problems it found in
the output, computed apart from the code under test or from a property
the method must have.

Library functions are always reached through their module
(``spaces.sup``), never bound by name here, so that the traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import operator
import random
from fractions import Fraction as Q

from rieszlab import (
    checks, cli, dsl, evaluator, generators, lateral, operators, oplattice,
    spaces,
)


class OpFailed(Exception):
    """The operation completed but reported a fault of the program."""


class Op:
    __slots__ = ("name", "run", "check", "tag")

    def __init__(self, name, run, check, tag=""):
        self.name = name
        self.run = run
        self.check = check
        self.tag = tag


def _model(space):
    return {"Coordinate": "coord", "SimpleFunction": "simple",
            "FinSupport": "fin", "EventuallyConstant": "ec",
            "PiecewiseLinear": "pl"}[type(space).__name__]


THIRDS = (Q(0), Q(1, 3), Q(2, 3), Q(1))


def _model_spaces():
    return (("coord", spaces.Coordinate(3)),
            ("simple", spaces.SimpleFunction(THIRDS)),
            ("fin", spaces.FinSupport()),
            ("ec", spaces.EventuallyConstant()),
            ("pl", spaces.PiecewiseLinear()))


# ---------------------------------------------------------------------------
# independent pointwise evaluation of element payloads
# ---------------------------------------------------------------------------

def atom_values(x):
    """(index -> value, tail) read off an atomic payload; tail None for
    finite-dimensional spaces."""
    model = _model(x.space)
    if model in ("coord", "simple"):
        return dict(enumerate(x.payload, 1)), None
    if model == "fin":
        return dict(x.payload), Q(0)
    prefix, tail = x.payload
    return dict(enumerate(prefix, 1)), tail


def atom_at(values, i):
    table, tail = values
    return table.get(i, Q(0) if tail is None else tail)


def pl_values(x, ts, memo=None):
    """Values of a piecewise-linear payload at the sorted abscissae ts,
    by linear interpolation in one sweep.  ``memo`` maps id(x) to the
    values already found, so that an element checked in several calls
    is interpolated once per abscissa."""
    known = {} if memo is None else memo.setdefault(id(x), {})
    pts = x.payload
    k = 0
    for t in ts:
        if t in known:
            continue
        while pts[k + 1][0] < t:
            k += 1
        (a, ya), (b, yb) = pts[k], pts[k + 1]
        known[t] = (ya if t == a else yb if t == b
                    else ya + (yb - ya) * (t - a) / (b - a))
    return [known[t] for t in ts]


def pl_probe_points(*elements):
    """Every breakpoint of the elements and the midpoint between each
    consecutive pair, sorted.  Between consecutive breakpoints the inputs
    and the result are linear, and max (min) of two linear pieces is
    convex (concave), so agreement at both ends and the midpoint forces
    agreement on the whole piece."""
    ts = sorted({t for x in elements for t, _ in x.payload})
    mids = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    return sorted(ts + mids)


POINTWISE = {"sup": max, "inf": min, "add": operator.add}


def check_pointwise(kind, a, b, result, memo=None):
    """Problem text if ``result`` is not the pointwise ``kind`` of a, b.
    ``memo`` is handed to pl_values; the elements it has seen must stay
    alive while it is in use."""
    f = POINTWISE[kind]
    if _model(a.space) == "pl":
        ts = pl_probe_points(a, b, result)
        for t, va, vb, vr in zip(ts, pl_values(a, ts, memo),
                                 pl_values(b, ts, memo),
                                 pl_values(result, ts, memo)):
            if vr != f(va, vb):
                return f"{kind} is {vr} at t={t}, want {f(va, vb)}"
        return None
    va, vb, vr = atom_values(a), atom_values(b), atom_values(result)
    for i in set(va[0]) | set(vb[0]) | set(vr[0]):
        want = f(atom_at(va, i), atom_at(vb, i))
        if atom_at(vr, i) != want:
            return f"{kind} is {atom_at(vr, i)} at atom {i}, want {want}"
    if va[1] is not None and vr[1] != f(va[1], vb[1]):
        return f"{kind} tail is {vr[1]}, want {f(va[1], vb[1])}"
    return None


def atomwise_leq(a, b):
    """a <= b atom by atom, tails included; own reading of the payloads."""
    va, vb = atom_values(a), atom_values(b)
    if any(atom_at(va, i) > atom_at(vb, i) for i in set(va[0]) | set(vb[0])):
        return False
    return va[1] is None or va[1] <= vb[1]


# ---------------------------------------------------------------------------
# suite-quick
# ---------------------------------------------------------------------------

# (argv after "rieszlab", accepted exit codes): each fails today
PROBES = (
    # beyond ENUM_CAP: must be a precondition outcome (exit 4), not `fails`
    (("check", "frag-boolean", "--seed", "0", "--config", "n=19"), (4,)),
    # misspelt config key: must be rejected, not silently ignored
    (("check", "lem-3.1", "--seed", "0", "--config", "instancez=3"), (3, 4)),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class SuiteQuick:
    """Every registered check on the quick profile, one check per
    operation, plus the verdict probes.

    The rounds run the suite at check seeds 0..ROUNDS-1, 0 being the
    default that `rieszlab suite` and test_ac13 run.  The workload seed
    orders the rounds and the checks within each round.  The work per
    check varies several-fold between check seeds, so drawing the check
    seeds from the workload seed would make runs measure different work.
    """

    name = "suite-quick"
    ROUNDS = 2
    min_rounds = ROUNDS

    def __init__(self, seed):
        rng = random.Random(f"suite-quick:{seed}")
        self.plan = []
        for s in rng.sample(range(self.ROUNDS), self.ROUNDS):
            ids = list(checks.check_ids())
            rng.shuffle(ids)
            self.plan.append((s, ids))

    def round(self, r):
        s, ids = self.plan[r % self.ROUNDS]
        ops = [Op(f"{cid}@{s}", self._runner(cid, s), self._checker(cid, s))
               for cid in ids]
        for argv, accepted in PROBES:
            ops.append(Op("probe " + " ".join(argv[1:]),
                          self._prober(argv, accepted), lambda code: [],
                          tag="probe"))
        return ops

    @staticmethod
    def _runner(cid, s):
        def run():
            result = checks.run_check(cid, profile="quick", seed=s)
            if result.result.verdict != "holds":
                raise OpFailed(result.summary_line())
            return result
        return run

    @staticmethod
    def _checker(cid, s):
        def check(result):
            problems = []
            if result.id != cid or result.config.get("seed") != s:
                problems.append(f"record is for {result.id} seed "
                                f"{result.config.get('seed')}")
            if result.result.seed != f"{s}:{cid}":
                problems.append(f"report seed {result.result.seed!r}")
            return problems
        return check

    @staticmethod
    def _prober(argv, accepted):
        def run():
            code, out, err = run_cli(argv)
            if code not in accepted:
                raise OpFailed(f"exit {code}, want {accepted}: "
                               f"{(out + err).strip()[:200]}")
            return code
        return run


# ---------------------------------------------------------------------------
# riesz-laws
# ---------------------------------------------------------------------------

def law_bundle(x, y, z, c):
    """The ac01 law identities on one instance.

    Returns (identities, log): identities as (name, left, right) and the
    log of every direct sup / inf / add call as (kind, a, b, result).
    """
    log = []

    def sup(a, b):
        r = spaces.sup(a, b)
        log.append(("sup", a, b, r))
        return r

    def inf(a, b):
        r = spaces.inf(a, b)
        log.append(("inf", a, b, r))
        return r

    def add(a, b):
        r = spaces.add(a, b)
        log.append(("add", a, b, r))
        return r

    pos, neg = spaces.pos_part(x), spaces.neg_part(x)
    identities = (
        ("x+ - x- = x", spaces.sub(pos, neg), x),
        ("x+ + x- = |x|", add(pos, neg), spaces.absolute(x)),
        ("x+ /\\ x- = 0", inf(pos, neg), spaces.zero(x.space)),
        ("sup commutes", sup(x, y), sup(y, x)),
        ("inf commutes", inf(x, y), inf(y, x)),
        ("sup associates", sup(sup(x, y), z), sup(x, sup(y, z))),
        ("inf associates", inf(inf(x, y), z), inf(x, inf(y, z))),
        ("sup absorbs", sup(x, inf(x, y)), x),
        ("inf absorbs", inf(x, sup(x, y)), x),
        ("sup + inf = x + y", add(sup(x, y), inf(x, y)), add(x, y)),
        ("|cx| = |c||x|", spaces.absolute(spaces.scale(c, x)),
         spaces.scale(abs(c), spaces.absolute(x))),
        ("translation", sup(add(x, z), add(y, z)), add(sup(x, y), z)),
    )
    return identities, log


def check_bundle(result):
    identities, log = result
    problems = [f"identity {name} fails" for name, left, right in identities
                if left != right]
    memo = {}
    for kind, a, b, r in log:
        problem = check_pointwise(kind, a, b, r, memo)
        if problem is not None:
            problems.append(problem)
    return problems


class RieszLaws:
    """Seeded ac01 law bundles, BUNDLES per element model; one bundle is
    one operation."""

    name = "riesz-laws"
    min_rounds = 1
    BUNDLES = 400

    def __init__(self, seed):
        rng = random.Random(f"riesz-laws:{seed}")
        self.instances = []
        for model, space in _model_spaces():
            for k in range(self.BUNDLES):
                xyz = [generators.random_element(rng, space) for _ in range(3)]
                c = generators.random_scalar(rng)
                self.instances.append((f"{model}#{k}", (*xyz, c)))

    def round(self, r):
        return [Op(name, (lambda args=args: law_bundle(*args)), check_bundle)
                for name, args in self.instances]


# ---------------------------------------------------------------------------
# operator-lattice
# ---------------------------------------------------------------------------

MAX_KERNEL_ATOMS = 12
ALL_PARTS_ATOMS = 8      # kernels up to this size get every evaluation
PAIRS_PER_KINDS = 2      # random operator pairs per ordered pair of kinds
TRUNCATED_POINTS = 24
LEVEL_STEP = 8           # truncation levels 8, 16, ..., 64


def _finite_algebra_spaces():
    return (spaces.Coordinate(3), spaces.Coordinate(5),
            spaces.SimpleFunction(THIRDS), spaces.FinSupport(),
            spaces.EventuallyConstant(), spaces.PiecewiseLinear())


def _oao_kinds(space):
    """The operator kinds that generators.random_oao draws from on
    ``space``, in its order, leaving out the eventually constant
    model's basis-split kind, whose codomain differs."""
    if isinstance(space, spaces.PiecewiseLinear):
        return ["meet", "scaled", "table"]
    return ["meet", "scaled", "kernel", "sum"]


def _random_oao_of_kind(rng, space, kind):
    """A random operator of the given kind, built as
    generators.random_oao builds it once it has drawn that kind."""
    if kind == "kernel":
        return generators.random_kernel(rng, space)
    if kind == "meet":
        return generators.random_lateral_meet(rng, space)
    if kind == "linec":
        return generators.random_linear_ec(rng)
    if kind == "table":
        return generators.random_match_table_pl(rng)
    if kind == "sum":
        return operators.OpSum((generators.random_kernel(rng, space),
                                generators.random_kernel(rng, space)))
    inner = (generators.random_lateral_meet(rng, space)
             if isinstance(space, spaces.PiecewiseLinear)
             else generators.random_kernel(rng, space))
    return operators.OpScaled(generators.random_nonzero_scalar(rng), inner)


def _oao_pairs(rng, space):
    """Random operator pairs on ``space``: PAIRS_PER_KINDS for every
    ordered pair of kinds (twice as many on PL, which has three kinds),
    plus as many pairs of basis-split operators on the eventually
    constant space.  Every seed gets the same kinds, so the cost of its
    evaluations varies only with the operators' random parameters."""
    kinds = _oao_kinds(space)
    combos = [(a, b) for a in kinds for b in kinds] * PAIRS_PER_KINDS
    if isinstance(space, spaces.PiecewiseLinear):
        combos *= 2
    if isinstance(space, spaces.EventuallyConstant):
        combos += [("linec", "linec")] * PAIRS_PER_KINDS
    return [(_random_oao_of_kind(rng, space, a),
             _random_oao_of_kind(rng, space, b)) for a, b in combos]


def _fixed_size_point(rng, space):
    """A point with random nonzero values whose fragment algebra has a
    fixed size for its model: full support on the atomic models, three
    atoms for fin and ec, three single-signed components for PL.  The
    operator pairs supply the variety; a random support size would make
    the cost of a seed's points vary several-fold."""
    def nz():
        return generators.random_nonzero_scalar(rng)

    model = _model(space)
    if model == "coord":
        return spaces.normalize(space, [nz() for _ in range(space.n)])
    if model == "simple":
        return spaces.normalize(space, [nz() for _ in range(space.cells)])
    if model == "fin":
        return spaces.normalize(space, [(i, nz()) for i in
                                        sorted(rng.sample(range(1, 13), 3))])
    if model == "ec":
        return spaces.normalize(space, ([nz() for _ in range(3)], 0))
    signs = [rng.choice((-1, 1)) for _ in range(3)]

    def v(component):
        return abs(nz()) * signs[component]

    return spaces.normalize(space, [
        (Q(0), v(0)), (Q(1, 6), v(0)), (Q(1, 3), Q(0)), (Q(1, 2), v(1)),
        (Q(2, 3), Q(0)), (Q(5, 6), v(2)), (Q(1), v(2))])


def _kernel_rows(rng, n):
    """Own coefficient lists: atom i -> (target, a1, a2) for
    f_i(t) = a1 t + a2 t^2."""
    rows = []
    for _ in range(n):
        rows.append((rng.randint(1, n),
                     generators.random_nonzero_scalar(rng),
                     generators.random_scalar(rng, 2)))
    return rows


def _kernel(space, rows):
    return operators.Kernel(space, space, tuple(
        (i, j, operators.poly(0, a1, a2))
        for i, (j, a1, a2) in enumerate(rows, 1)))


def kernel_closed_form(kind, s_rows, t_rows, x):
    """Coordinate j of the join is the sum over atoms i of the larger of
    what i contributes to j under S and under T; the other kinds fold
    the same per-atom contributions (the parts and the modulus are
    those of T)."""
    n = len(x.payload)
    out = [Q(0)] * n
    for i, v in enumerate(x.payload):
        js, a1, a2 = s_rows[i]
        cs = a1 * v + a2 * v * v
        jt, b1, b2 = t_rows[i]
        ct = b1 * v + b2 * v * v
        for j in range(1, n + 1):
            s = cs if js == j else Q(0)
            t = ct if jt == j else Q(0)
            out[j - 1] += {"join": max(s, t), "meet": min(s, t),
                           "negjoin": max(-s, -t), "pos": max(t, Q(0)),
                           "neg": max(-t, Q(0)), "mod": abs(t)}[kind]
    return tuple(out)


def _split_value(kind, S, T, d):
    """Value that the splitting d gives in the fold of ``kind``."""
    apply, vadd, vneg = operators.apply, operators.vadd, operators.vneg
    if kind in ("join", "meet"):
        return vadd(apply(S, d.left), apply(T, d.right))
    if kind == "negjoin":
        return vadd(apply(operators.negate(S), d.left),
                    apply(operators.negate(T), d.right))
    if kind == "pos":
        return apply(T, d.left)
    if kind == "neg":
        return vneg(apply(T, d.left))
    return vadd(apply(T, d.left), vneg(apply(T, d.right)))


EVALUATE = {
    "join": lambda S, T, x, level: oplattice.join_at(S, T, x, level),
    "meet": lambda S, T, x, level: oplattice.meet_at(S, T, x, level),
    "negjoin": lambda S, T, x, level: oplattice.join_at(
        operators.negate(S), operators.negate(T), x, level),
    "pos": lambda S, T, x, level: oplattice.pos_part_at(T, x, level),
    "neg": lambda S, T, x, level: oplattice.neg_part_at(T, x, level),
    "mod": lambda S, T, x, level: oplattice.modulus_at(T, x, level),
}
KINDS = tuple(EVALUATE)


class _Point:
    """One evaluation point: an operator pair, an argument, and the
    results of the round so far (the cross-checks need all six, and run
    once a round, when all six are in)."""

    def __init__(self, label, S, T, x, kinds, level=None, rows=None):
        self.label, self.S, self.T, self.x = label, S, T, x
        self.kinds, self.level, self.rows = kinds, level, rows
        self.results = {}
        self.cross_checked = False


class OperatorLattice:
    """Pointwise join / meet / parts / modulus evaluations; one
    evaluation is one operation."""

    name = "operator-lattice"
    min_rounds = 1

    def __init__(self, seed):
        rng = random.Random(f"operator-lattice:{seed}")
        self.points = []
        for n in range(1, MAX_KERNEL_ATOMS + 1):
            space = spaces.Coordinate(n)
            s_rows, t_rows = _kernel_rows(rng, n), _kernel_rows(rng, n)
            x = spaces.normalize(space, [generators.random_nonzero_scalar(rng)
                                         for _ in range(n)])
            kinds = KINDS if n <= ALL_PARTS_ATOMS else ("join",)
            self.points.append(_Point(f"kernel n={n}", _kernel(space, s_rows),
                                      _kernel(space, t_rows), x, kinds,
                                      rows=(s_rows, t_rows)))
        for space in _finite_algebra_spaces():
            for k, (S, T) in enumerate(_oao_pairs(rng, space)):
                x = _fixed_size_point(rng, space)
                self.points.append(_Point(
                    f"oao {spaces.space_name(space)}#{k}", S, T, x, KINDS))
        ec, cod = spaces.EventuallyConstant(), spaces.Coordinate(2)
        for k in range(TRUNCATED_POINTS):
            T = generators.random_kernel(rng, ec, cod)
            S = (generators.random_linear_ec(rng, cod) if k % 2
                 else generators.random_kernel(rng, ec, cod))
            x = generators.random_nonzero_element(rng, ec)
            while x.payload[1] == 0:
                x = generators.random_nonzero_element(rng, ec)
            level = max(len(x.payload[0]), LEVEL_STEP * (1 + k % 8))
            self.points.append(_Point(f"truncated#{k} level={level}", S, T, x,
                                      ("join", "meet"), level=level))

    def round(self, r):
        ops = []
        for p in self.points:
            p.results = {}
            p.cross_checked = False
            for kind in p.kinds:
                ops.append(Op(f"{p.label} {kind}", self._runner(p, kind),
                              self._checker(p, kind)))
        return ops

    @staticmethod
    def _runner(p, kind):
        def run():
            result = EVALUATE[kind](p.S, p.T, p.x, p.level)
            p.results[kind] = result
            return result
        return run

    def _checker(self, p, kind):
        def check(point):
            if p.level is not None:
                return self._check_levels(p, kind, point)
            problems = []
            for d in point.attained:
                if spaces.add(d.left, d.right) != p.x:
                    problems.append("attained splitting does not sum to x")
                elif _split_value(kind, p.S, p.T, d) != point.value:
                    problems.append(f"attained splitting gives another "
                                    f"value than {kind}")
            if p.rows is not None and \
                    point.value.payload != kernel_closed_form(kind, *p.rows, p.x):
                problems.append(f"{kind} differs from the kernel closed form")
            if (p.kinds == KINDS and len(p.results) == len(KINDS)
                    and not p.cross_checked):
                p.cross_checked = True
                problems.extend(self._cross_check(p))
            return [f"{p.label}: {m}" for m in problems]
        return check

    @staticmethod
    def _cross_check(p):
        """meet = -join(-S,-T), pos - neg = T(x), |T(x)| <= mod."""
        res = {k: v.value for k, v in p.results.items()}
        problems = []
        if res["meet"] != operators.vneg(res["negjoin"]):
            problems.append("meet differs from -join(-S,-T)")
        tx = operators.apply(p.T, p.x)
        if operators.vadd(res["pos"], operators.vneg(res["neg"])) != tx:
            problems.append("pos - neg differs from T(x)")
        if not spaces.leq(operators.vabs(tx), res["mod"]):
            problems.append("|T(x)| is not below the modulus")
        return problems

    @staticmethod
    def _check_levels(p, kind, point):
        levels = point.levels
        want = list(range(len(p.x.payload[0]), p.level + 1))
        if [l for l, _ in levels] != want:
            return [f"{p.label}: {kind} levels {[l for l, _ in levels]}"]
        for (l0, a), (l1, b) in zip(levels, levels[1:]):
            lo, hi = (a, b) if kind == "join" else (b, a)
            if not atomwise_leq(lo, hi):
                return [f"{p.label}: {kind} level table not monotone at {l1}"]
        return []


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

GENERATED_SCRIPTS = 64
LETS_PER_MODEL = 24
COORD_DIM = 6
KERNEL_DIM = 3
SIZE = 4                 # atoms of fin, prefix of ec, inner breakpoints of pl
BINARY_EVALS = 3         # binary evals per model and script


def _poly_text(coeffs):
    """'t -> ...' body for ascending coefficients with c0 = 0."""
    terms = [(c, p) for p, c in enumerate(coeffs) if c != 0]
    out = []
    for k, (c, p) in enumerate(terms):
        mono = "t" if p == 1 else f"t^{p}"
        if k == 0:
            out.append(f"{c}*{mono}")
        else:
            out.append(f" {'-' if c < 0 else '+'} {abs(c)}*{mono}")
    return "".join(out)


class _ScriptBuilder:
    """A generated script: source text plus, for every eval, the same
    computation made through the library API."""

    def __init__(self, rng):
        self.rng = rng
        self.lines = ["# generated benchmark script"]
        self.values = {}
        self.expect = []

    def let(self, name, text, value):
        self.lines.append(f"let {name} = {text};")
        self.values[name] = value

    def eval(self, text, compute, level=None):
        suffix = f" @level {level}" if level is not None else ""
        self.lines.append(f"eval {text}{suffix};")
        self.expect.append(compute)

    def scalar(self, magnitude=3):
        return generators.random_scalar(self.rng, magnitude)

    # -- element literals, one per model ---------------------------------

    def coord(self, n):
        vals = [self.scalar() for _ in range(n)]
        return (f"coord[{','.join(map(str, vals))}]",
                spaces.normalize(spaces.Coordinate(n), vals))

    def simple(self):
        vals = [self.scalar() for _ in range(len(THIRDS) - 1)]
        return (f"simple{{{','.join(map(str, THIRDS))}}}"
                f"[{','.join(map(str, vals))}]",
                spaces.normalize(spaces.SimpleFunction(THIRDS), vals))

    def fin(self):
        idx = sorted(self.rng.sample(range(1, 13), SIZE))
        pairs = [(i, self.scalar()) for i in idx]
        return ("fin{%s}" % ",".join(f"({i},{v})" for i, v in pairs),
                spaces.normalize(spaces.FinSupport(), pairs))

    def ec(self, nonzero_tail=False):
        prefix = [self.scalar() for _ in range(SIZE)]
        tail = self.scalar()
        while nonzero_tail and tail == 0:
            tail = self.scalar()
        return (f"ec[{','.join(map(str, prefix))}|{tail}]",
                spaces.normalize(spaces.EventuallyConstant(), (prefix, tail)))

    def pl(self):
        pool = [Q(k, 12) for k in range(1, 12)]
        ts = [Q(0)] + sorted(self.rng.sample(pool, SIZE)) + [Q(1)]
        pts = [(t, self.scalar()) for t in ts]
        return ("pl{%s}" % ",".join(f"({t},{v})" for t, v in pts),
                spaces.normalize(spaces.PiecewiseLinear(), pts))

    def kernel(self):
        rows, text = [], []
        for i in range(1, KERNEL_DIM + 1):
            j = KERNEL_DIM if i == KERNEL_DIM else self.rng.randint(1, KERNEL_DIM)
            coeffs = (Q(0), generators.random_nonzero_scalar(self.rng),
                      self.scalar(2))
            route = f"{i}" if i == j else f"{i} -> {j}"
            text.append(f"{route}: t -> {_poly_text(coeffs)}")
            degree = max(p for p, c in enumerate(coeffs) if c != 0)
            rows.append((i, j, operators.PiecewisePoly(
                (), (coeffs[:degree + 1],))))
        space = spaces.Coordinate(KERNEL_DIM)
        return ("kernel{%s}" % ", ".join(text),
                operators.Kernel(space, space, tuple(rows)))

    def linec(self):
        idx = sorted(self.rng.sample(range(1, 7), 2))
        coeffs = [(i, generators.random_nonzero_scalar(self.rng)) for i in idx]
        unit_text, unit = self.coord(2)
        target_text, target = self.coord(2)
        text = "linec{%s; unit -> %s; target %s}" % (
            ", ".join(f"{i}:{a}" for i, a in coeffs), unit_text,
            target_text)
        return text, operators.LinearEC(target.space, tuple(coeffs), unit,
                                        target)


# binary element forms: DSL operator -> library function, by module
_BINARY = (("\\/", spaces, "sup"), ("/\\", spaces, "inf"),
           ("+", spaces, "add"), ("lsup", lateral, "lateral_sup"),
           ("linf", lateral, "lateral_inf"), ("<=", spaces, "leq"),
           ("_|_", spaces, "is_disjoint"))


def generate_script(rng, k):
    """The k-th generated script: long, over all five models, with small
    evals.  Element sizes are fixed and the binary forms rotate with k,
    so every seed's corpus holds the same forms and sizes and its cost
    varies only with the random values."""
    b = _ScriptBuilder(rng)
    names = {}
    makers = (("c", lambda: b.coord(COORD_DIM)), ("s", b.simple),
              ("f", b.fin), ("e", lambda: b.ec(nonzero_tail=True)),
              ("p", b.pl))
    for prefix, make in makers:
        names[prefix] = [f"{prefix}{k}" for k in range(LETS_PER_MODEL)]
        for name in names[prefix]:
            b.let(name, *make())
    for k in range(4):
        b.let(f"k{k}", *b.kernel())
    b.let("x0", *b.coord(KERNEL_DIM))
    for k in range(2):
        b.let(f"l{k}", *b.linec())
    b.let("m0", "latmeet(p0, p1)", operators.LateralMeet(
        spaces.PiecewiseLinear(), b.values["p0"], b.values["p1"]))
    v = b.values
    for m, prefix in enumerate(names):
        a, c = rng.sample(names[prefix], 2)
        first = (BINARY_EVALS * (k + m)) % len(_BINARY)
        for symbol, module, fn in (_BINARY * 2)[first:first + BINARY_EVALS]:
            b.eval(f"{a} {symbol} {c}",
                   lambda m=module, f=fn, a=a, c=c: getattr(m, f)(v[a], v[c]))
        b.eval(f"|{a}|", lambda a=a: spaces.absolute(v[a]))
        b.eval(f"{c}^+", lambda c=c: spaces.pos_part(v[c]))
    b.eval("fragments(x0)", lambda: lateral.enumerate_fragments(v["x0"]))
    b.eval("(k0 \\/ k1)(x0)",
           lambda: oplattice.join_at(v["k0"], v["k1"], v["x0"]))
    b.eval("(k2 /\\ k3)(x0)",
           lambda: oplattice.meet_at(v["k2"], v["k3"], v["x0"]))
    b.eval("mod(k1)(x0)", lambda: oplattice.modulus_at(v["k1"], v["x0"]))
    b.eval("m0(p2)", lambda: operators.apply(v["m0"], v["p2"]))
    e = rng.choice(names["e"])
    level = len(v[e].payload[0]) + 2
    b.eval(f"(l0 \\/ l1)({e})",
           lambda: oplattice.join_at(v["l0"], v["l1"], v[e], level), level)
    b.eval(f"pos(l1)({e})",
           lambda: oplattice.pos_part_at(v["l1"], v[e], level), level)
    return "\n".join(b.lines) + "\n", b.expect


def run_script(text):
    parsed = dsl.parse(text)
    if not parsed.ok:
        raise OpFailed("; ".join(map(str, parsed.diagnostics)))
    lines, _ = evaluator.evaluate(parsed.script, seed=0)
    return lines


def check_script(text, expect):
    def check(lines):
        problems = []
        printed = dsl.print_script(dsl.parse(text).script)
        reparsed = dsl.parse(printed)
        if not reparsed.ok or dsl.print_script(reparsed.script) != printed:
            problems.append("print / re-parse does not reproduce the text")
        want = [line for compute in expect
                for line in evaluator.render(compute()).split("\n")]
        if lines != want:
            bad = next((k for k, (a, b) in enumerate(zip(lines, want))
                        if a != b), min(len(lines), len(want)))
            problems.append(f"eval line {bad} differs from the library API")
        return problems
    return check


class Scripts:
    """The demo scripts against their goldens plus a seeded corpus of
    generated scripts; one script is one operation."""

    name = "scripts"
    min_rounds = 1

    def __init__(self, seed, root):
        self.demos = [(p, p.with_suffix(".out").read_text(encoding="utf-8"))
                      for p in sorted((root / "demos").glob("*.rl"))]
        if not self.demos:
            raise FileNotFoundError(f"no demo scripts under {root / 'demos'}")
        rng = random.Random(f"scripts:{seed}")
        self.generated = [generate_script(rng, k)
                          for k in range(GENERATED_SCRIPTS)]

    def round(self, r):
        ops = [Op(f"demo {path.name}", self._demo(path),
                  self._golden(path.name, golden))
               for path, golden in self.demos]
        ops += [Op(f"generated#{k}", (lambda text=text: run_script(text)),
                   check_script(text, expect))
                for k, (text, expect) in enumerate(self.generated)]
        return ops

    @staticmethod
    def _demo(path):
        def run():
            code, out, err = run_cli(("run", str(path), "--seed", "0"))
            if code != 0:
                raise OpFailed(f"exit {code}: {err.strip()[:200]}")
            return out
        return run

    @staticmethod
    def _golden(name, golden):
        def check(out):
            return [] if out == golden else [f"{name} differs from its golden"]
        return check


WORKLOADS = {
    "suite-quick": lambda seed, root: SuiteQuick(seed),
    "riesz-laws": lambda seed, root: RieszLaws(seed),
    "operator-lattice": lambda seed, root: OperatorLattice(seed),
    "scripts": Scripts,
}
