"""Seeded random instances: elements, disjoint pairs and operators.

Every generated operator is orthogonally additive by construction (the
match tables used here have indecomposable full-support keys), so the
check suite can quantify over them freely.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import Unsupported
from .operators import (
    Kernel, LateralMeet, LinearEC, MatchTable, OpScaled, OpSum,
    PiecewisePoly, match_table, poly,
)
from .spaces import (
    Coordinate, Element, EventuallyConstant, FinSupport, PiecewiseLinear,
    SimpleFunction, atom_count, normalize, zero, ZERO,
)

Q = Fraction


def space_menu():
    return (
        Coordinate(3),
        Coordinate(5),
        SimpleFunction((Q(0), Q(1, 3), Q(2, 3), Q(1))),
        FinSupport(),
        EventuallyConstant(),
        PiecewiseLinear(),
    )


def random_scalar(rng: random.Random, magnitude: int = 3,
                  denominators=(1, 1, 1, 2, 3, 4)):
    """A canonical scalar k/d: an int when integral, so that ``q`` need
    not unwrap it, and a ``Fraction`` otherwise."""
    k, d = rng.randint(-magnitude, magnitude), rng.choice(denominators)
    return k // d if k % d == 0 else Q(k, d)


def random_nonzero_scalar(rng):
    while True:
        v = random_scalar(rng)
        if v != 0:
            return v


def random_element(rng: random.Random, space) -> Element:
    return space.random(rng, lambda: random_scalar(rng))


def random_nonzero_element(rng, space) -> Element:
    while True:
        x = random_element(rng, space)
        if x != zero(space):
            return x


def random_disjoint_pair(rng: random.Random, space):
    """A pair (u, v) with u _|_ v, exercising varied support splits."""
    return space.random_disjoint_pair(
        rng, lambda: random_scalar(rng), lambda: random_nonzero_scalar(rng))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _random_fn(rng, linear=False, positive=False) -> PiecewisePoly:
    if linear:
        return poly(0, random_scalar(rng))
    if positive:
        a = abs(random_scalar(rng))
        if rng.random() < 0.5:
            return poly(0, 0, a)
        return PiecewisePoly((0,), ((0, -a), (0, a)))
    kind = rng.randrange(4)
    if kind == 0:
        return poly(0, random_scalar(rng))
    if kind == 1:
        return poly(0, 0, random_scalar(rng))
    if kind == 2:
        a = random_scalar(rng)
        return PiecewisePoly((0,), ((0, -a), (0, a)))
    return poly(0, random_scalar(rng), random_scalar(rng, 2))


def _atom_pool(space, rng):
    n = atom_count(space) if space.atomic else None
    if n is not None:
        return list(range(1, n + 1))
    return rng.sample(range(1, 9), rng.randint(1, 5))


def random_kernel(rng: random.Random, domain, codomain=None,
                  linear=False, positive=False) -> Kernel:
    codomain = codomain or domain
    atoms = _atom_pool(domain, rng)
    targets = _atom_pool(codomain, rng) if codomain != domain else list(atoms)
    rows = []
    used = set()
    for i in atoms:
        if codomain == domain:
            j = i
        else:
            free = [t for t in targets if t not in used]
            if not free:
                break
            j = rng.choice(free)
            used.add(j)
        rows.append((i, j, _random_fn(rng, linear=linear, positive=positive)))
    return Kernel(domain, codomain, tuple(rows))


def random_linear_ec(rng: random.Random, codomain=None,
                     nonzero: bool = False) -> LinearEC:
    codomain = codomain or Coordinate(2)
    coeffs = [(n, random_scalar(rng)) for n in rng.sample(range(1, 7),
                                                          rng.randint(1, 3))]
    unit_image = random_element(rng, codomain)
    target = random_element(rng, codomain)
    T = LinearEC(codomain, tuple(coeffs), unit_image, target)
    if nonzero and unit_image == zero(codomain) and (
            target == zero(codomain) or all(a == 0 for _, a in T.coeffs)):
        return random_linear_ec(rng, codomain, nonzero=True)
    return T


def random_lateral_meet(rng: random.Random, space) -> LateralMeet:
    return LateralMeet(space, random_element(rng, space),
                       random_element(rng, space))


def random_match_table_pl(rng: random.Random) -> MatchTable:
    """Keys are strictly positive piecewise-linear functions: one
    support component, no disjoint partner, so the table really is
    orthogonally additive."""
    space = PiecewiseLinear()
    keys = []
    for v in rng.sample(range(1, 6), rng.randint(1, 2)):
        ts = sorted(rng.sample(space.sample_points, rng.randint(0, 2)))
        pts = ([(ZERO, Q(v))] + [(t, Q(rng.randint(1, 4))) for t in ts]
               + [(Q(1), Q(rng.randint(1, 4)))])
        key = normalize(space, pts)
        if key not in keys:
            keys.append(key)
    return match_table([(k, random_element(rng, space)) for k in keys])


def random_dp_operator(rng: random.Random, space):
    """Disjointness-preserving by construction."""
    kind = rng.randrange(3)
    if kind == 0 and space.atomic:
        return random_kernel(rng, space)
    if kind == 1:
        return random_lateral_meet(rng, space)
    inner = _random_dp_inner(rng, space)   # drawn before the factor
    return OpScaled(random_nonzero_scalar(rng), inner)


def _random_dp_inner(rng, space):
    """A kernel on atomic spaces, a lateral meet elsewhere."""
    if space.atomic:
        return random_kernel(rng, space)
    return random_lateral_meet(rng, space)


def random_oao(rng: random.Random, space, allow_tables: bool = True):
    """A random orthogonally additive operator on the given space."""
    choices = ["meet", "scaled"]
    if space.atomic:
        choices += ["kernel", "sum"]
    if space == EventuallyConstant():   # the only domain of LinearEC
        choices.append("linec")
    if allow_tables and space == PiecewiseLinear():   # tables with PL keys
        choices.append("table")
    kind = rng.choice(choices)
    if kind == "kernel":
        return random_kernel(rng, space)
    if kind == "meet":
        return random_lateral_meet(rng, space)
    if kind == "linec":
        return random_linear_ec(rng, space)
    if kind == "table":
        return random_match_table_pl(rng)
    if kind == "sum":
        return OpSum((random_kernel(rng, space), random_kernel(rng, space)))
    inner = _random_dp_inner(rng, space)   # drawn before the factor
    return OpScaled(random_nonzero_scalar(rng), inner)


def random_positive_operator(rng: random.Random, space):
    if not space.atomic:
        raise Unsupported("positive samples use atomic spaces")
    return random_kernel(rng, space, positive=True)


def random_linear_operator(rng: random.Random):
    """A nonzero linear operator (kernel or basis-split form)."""
    if rng.random() < 0.5:
        return random_linear_ec(rng, nonzero=True)
    domain = rng.choice((Coordinate(3), Coordinate(4),
                         SimpleFunction((Q(0), Q(1, 2), Q(1))), FinSupport()))
    while True:
        T = random_kernel(rng, domain, linear=True)
        if any(fn.coeffs[0][1] != 0 for _, _, fn in T.table
               if len(fn.coeffs[0]) > 1):
            return T
