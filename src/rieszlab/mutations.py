"""Documented core mutations for negative testing.

Each named mutation swaps one module-level implementation for a
plausible-but-wrong variant; the check suite must catch every one of
them by a named failure.  Shipped mutants:

* ``latinf-collinear-meet-formula`` -- computes the lateral infimum by
  the (x+ ^ y+) - (x- ^ y-) formula for arbitrary pairs.  Correct on
  fragments of a common base, wrong on collinear pairs such as the
  constant one against twice the constant one (it returns the smaller
  instead of zero).
* ``latsup-sign-flip`` -- adds instead of subtracting the negative-part
  supremum in the lateral supremum formula.
* ``latinf-zero`` -- lateral infimum that always returns zero; breaks
  grid reconstruction outright.
* ``join-ties-left`` -- the per-atom closed form of the operator
  lattice sends an atom whose two images tie to the left side.  The
  value is unchanged, but the recorded attaining splitting no longer
  has minimal left support; ``thm-3.2-join`` compares it against
  enumeration.
"""

from contextlib import contextmanager

from . import lateral, oplattice
from .spaces import zero


def _inf_meet_formula(x, y):
    return lateral.meet_formula(x, y)


def _sup_sign_flip(x, y):
    from .spaces import add, sup, pos_part, neg_part
    return add(sup(pos_part(x), pos_part(y)), sup(neg_part(x), neg_part(y)))


def _inf_zero(x, y):
    return zero(x.space)


def _side_ties_left(s, t, best):
    if s == best:
        return "left"
    if t == best:
        return "right"
    return None


# name -> (module, attribute, mutant implementation)
MUTATIONS = {
    "latinf-collinear-meet-formula": (lateral, "_INF_IMPL", _inf_meet_formula),
    "latsup-sign-flip": (lateral, "_SUP_IMPL", _sup_sign_flip),
    "latinf-zero": (lateral, "_INF_IMPL", _inf_zero),
    "join-ties-left": (oplattice, "_side", _side_ties_left),
}


@contextmanager
def tampered(name: str):
    """Temporarily install the named mutant implementation.

    This swaps a module global, so it is meant for tests that run one
    thread at a time.
    """
    module, attr, impl = MUTATIONS[name]
    original = getattr(module, attr)
    setattr(module, attr, impl)
    try:
        yield
    finally:
        setattr(module, attr, original)
