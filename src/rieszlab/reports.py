"""Verdict records and sampling budgets shared by all verifiers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Budget:
    """A deterministic sampling plan.

    ``grid`` switches small atomic domains to exhaustive enumeration
    over the given scalar values, which upgrades a clean run from
    inconclusive to a proof for the tested grid.
    """

    samples: int = 200
    seed: object = 0
    grid: tuple | None = None

    def rng(self, tag: str = "") -> random.Random:
        return random.Random(f"{self.seed}:{tag}")

    def seed_tag(self, tag: str = "") -> str:
        return f"{self.seed}:{tag}" if tag else str(self.seed)


DEFAULT_GRID = tuple(range(-2, 3))


@dataclass
class CheckReport:
    """Outcome of one verifier run.

    A ``fails`` verdict always carries a witness; the structured
    payload (``witness_data``) is kept alongside the printable text so
    tests can re-check the counterexample.
    """

    verdict: str
    samples_used: int = 0
    seed: str = ""
    witness: str | None = None
    witness_data: tuple | None = field(default=None, compare=False, repr=False)
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict != FAILS


def holds(samples=0, seed="", notes="") -> CheckReport:
    return CheckReport(HOLDS, samples, seed, notes=notes)


def inconclusive(samples=0, seed="", notes="") -> CheckReport:
    return CheckReport(INCONCLUSIVE, samples, seed, notes=notes)


def fails(witness: str, samples=0, seed="", witness_data=None, notes="") -> CheckReport:
    return CheckReport(FAILS, samples, seed, witness, witness_data, notes)
