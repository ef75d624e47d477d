import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rieszlab.spaces import PiecewiseLinear, normalize

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random("rieszlab-tests")


def make_rng(tag: str) -> random.Random:
    return random.Random(f"rieszlab-tests:{tag}")


def report_line(rep) -> str:
    """A verifier's ``CheckReport`` on one line: verdict, samples, seed
    and the witness if there is one."""
    parts = [f"verdict={rep.verdict}", f"samples={rep.samples_used}",
             f"seed={rep.seed}"]
    if rep.witness is not None:
        parts.append(f"witness={rep.witness}")
    return " ".join(parts)


def _leaves(payload):
    for v in payload:
        if isinstance(v, tuple):
            yield from _leaves(v)
        else:
            yield v


def is_canonical(x) -> bool:
    """Whether every scalar of x's payload is in canonical form: a
    Fraction on piecewise-linear functions; elsewhere an int when
    integral (indices included) and a Fraction otherwise.  A float
    never is."""
    if x.space == PiecewiseLinear():
        return all(type(v) is Fraction for v in _leaves(x.payload))
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in _leaves(x.payload))


# --- Hypothesis strategies shared by the element tests ----------------------

# zero often, so that supports overlap, touch and miss
SCALARS = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6))

ABSCISSAE = st.fractions(min_value=0, max_value=1, max_denominator=8)


def pl_elements():
    """Piecewise-linear elements with up to five interior breakpoints,
    built from rationals through ``normalize``."""
    inner = st.lists(ABSCISSAE.filter(lambda t: 0 < t < 1), unique=True,
                     max_size=5)
    return inner.flatmap(lambda ts: st.lists(
        SCALARS, min_size=len(ts) + 2, max_size=len(ts) + 2).map(
            lambda vs: normalize(PiecewiseLinear(), zip(
                [Fraction(0)] + sorted(ts) + [Fraction(1)], vs))))
