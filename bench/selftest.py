"""Self-tests of the benchmark: its checks catch planted faults, and its
traced counters repeat exactly.

Run from the root of a checkout, either directly or under pytest:

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection;
the mutant runs take about a minute.
"""

from __future__ import annotations

import pathlib
import sys
from fractions import Fraction as Q

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import rieszlab                                      # noqa: E402
from rieszlab import spaces                          # noqa: E402
from rieszlab.mutations import MUTATIONS, tampered   # noqa: E402

import run                                           # noqa: E402
import workloads                                     # noqa: E402
from spans import Tracer                             # noqa: E402


def _round(workload, r=0, tracer=None):
    stats = run.Stats()
    stats.run_round(workload.round(r), tracer)
    return stats


def test_suite_quick_clean_round_fails_only_the_probes():
    stats = _round(workloads.SuiteQuick(0))
    assert stats.failed == len(workloads.PROBES), stats.failures
    assert not stats.problems, stats.problems


def test_each_mutant_makes_suite_quick_fail_more_operations():
    for name in MUTATIONS:
        with tampered(name):
            stats = _round(workloads.SuiteQuick(0))
        assert stats.failed > len(workloads.PROBES), name


def _sup_without_crossings(x, y):
    """A wrong PL sup: pointwise max at the merged breakpoints only, so
    every crossing point strictly inside a segment is left out."""
    ts = sorted({t for t, _ in x.payload} | {t for t, _ in y.payload})
    return spaces.normalize(x.space, [
        (t, max(spaces.eval_at(x, t), spaces.eval_at(y, t))) for t in ts])


def test_pointwise_check_catches_a_sup_missing_its_crossing():
    x = spaces.pl((0, 0), (1, 1))
    y = spaces.pl((0, 1), (1, 0))
    assert workloads.check_pointwise("sup", x, y, spaces.sup(x, y)) is None
    wrong = _sup_without_crossings(x, y)
    assert wrong != spaces.sup(x, y)
    assert workloads.check_pointwise("sup", x, y, wrong) is not None


def test_riesz_laws_flags_a_planted_wrong_pl_sup():
    workload = workloads.RieszLaws(0)
    original = spaces.sup

    def planted(x, y):
        if isinstance(x.space, spaces.PiecewiseLinear):
            return _sup_without_crossings(x, y)
        return original(x, y)

    spaces.sup = planted
    try:
        stats = _round(workload)
    finally:
        spaces.sup = original
    assert any(" sup is " in p for p in stats.problems), stats.problems[:5]
    assert all(p.startswith("pl#") for p in stats.problems)
    assert not _round(workload).problems


def _run_then_check(ops, patch):
    """Run the ops with ``patch`` installed, then check their outputs with
    it removed, as a faulty program would be checked."""
    restore = patch()
    try:
        results = [(op, op.run()) for op in ops]
    finally:
        restore()
    return [p for op, result in results for p in op.check(result)]


def _patching(module, name, replacement):
    def patch():
        original = getattr(module, name)
        setattr(module, name, replacement(original))
        return lambda: setattr(module, name, original)
    return patch


def test_operator_lattice_checks_catch_a_wrong_join():
    def one_too_high(original):
        def join_at(S, T, x, level=None):
            point = original(S, T, x, level)
            if type(getattr(point.value, "space", None)) is spaces.Coordinate:
                point.value = spaces.add(point.value,
                                         spaces.one(point.value.space))
            return point
        return join_at

    ops = workloads.OperatorLattice(0).round(0)
    problems = _run_then_check(
        ops, _patching(rieszlab.oplattice, "join_at", one_too_high))
    assert any("closed form" in p for p in problems)
    assert any("-join(-S,-T)" in p for p in problems)
    assert any("attained" in p for p in problems)


def test_scripts_checks_catch_a_wrong_value_and_a_wrong_rendering():
    ops = workloads.Scripts(0, ROOT).round(0)
    generated = [op for op in ops if op.name.startswith("generated")][:4]
    problems = _run_then_check(
        generated, _patching(rieszlab.spaces, "sup", lambda f: spaces.inf))
    assert any("differs from the library API" in p for p in problems)

    def spaced(original):
        return lambda value: original(value) + " "

    demo = [op for op in ops if "02_order" in op.name]
    problems = _run_then_check(
        demo, _patching(rieszlab.evaluator, "render", spaced))
    assert any("golden" in p for p in problems)


def _traced_counts(workload):
    tracer = Tracer()
    tracer.install(rieszlab)
    try:
        _round(workload, tracer=tracer)
    finally:
        tracer.uninstall()
    return {k: v for k, (v, unit) in tracer.metrics(
        rieszlab.checks.check_ids()).items() if unit in ("count", "bits")}


def test_work_counters_repeat_exactly_for_one_seed():
    first = _traced_counts(workloads.Scripts(5, ROOT))
    second = _traced_counts(workloads.Scripts(5, ROOT))
    assert first == second
    assert first["spaces.calls"] > 0 and first["evaluator.statements"] > 0


def test_tracer_wraps_bindings_imported_by_name_and_restores_them():
    from rieszlab import lateral
    original = lateral.add
    tracer = Tracer()
    tracer.install(rieszlab)
    try:
        assert lateral.add is not original
        assert lateral.add is spaces.add
        lateral.enumerate_fragments(spaces.coord(1, -2))
    finally:
        tracer.uninstall()
    assert lateral.add is original and spaces.add is original
    assert tracer.counts["lateral.fragments_enumerated"] == 4
    assert tracer.calls["spaces"] > 0


def test_span_self_time_excludes_children():
    # coord -> normalize -> q, one clock tick per span boundary: the
    # spans last 5, 3 and 1 ticks, so their self times are 2, 2 and 1
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install(rieszlab)
    try:
        spaces.coord(Q(1))
    finally:
        tracer.uninstall()
    assert tracer.self_s["spaces"] == 5
    assert tracer.calls["spaces"] == 3
    assert sum(tracer.self_s.values()) == 5


def test_reference_ratio_leaves_out_inner_samples_and_reads_nearby_ones():
    ref = run.Reference()
    # samples of 1 ms at t = 0, 10 and 20; of 3 ms at t = 100
    for t, d in ((0.0, 0.001), (10.0, 0.001), (20.0, 0.001), (100.0, 0.003)):
        ref.at.append(t)
        ref.cumulative.append(ref.cumulative[-1] + d)
    # an op from 5 to 25 holds two 1 ms samples: its net time is 19.998 s
    assert abs(ref.record(5.0, 25.0) - 19.998) < 1e-9
    # an op near t = 100 reads only the 3 ms sample
    assert abs(ref.record(99.95, 99.96) - 0.01) < 1e-9
    slow, fast = ref.ratios()
    assert abs(slow - 19.998 / 0.001) < 1e-6
    assert abs(fast - 0.01 / 0.003) < 1e-6


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failed else 0)
