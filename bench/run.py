"""rieszlab benchmark: one workload per run, outputs checked, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload riesz-laws --seed 3 --seconds 10 --trace 0

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one round twice
untraced and once traced, and reports the per-layer metrics.  See
bench/README.md for the workloads and what each metric should move.

End-to-end times are given in units of a fixed reference task that runs
during the operations (see ``Reference``): the host's speed drifts by up
to 1.7x within a minute, and the ratio cancels that drift.  The raw
seconds go to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import pathlib
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7          # this process plus six fresh interpreters
REFERENCE_INTERVAL_S = 0.004  # one reference task per this much wall time
REFERENCE_WINDOW_S = 0.1      # reach of an operation's reference samples
CHILD_TIMEOUT_S = 120
WORKLOAD_NAMES = ("suite-quick", "riesz-laws", "operator-lattice", "scripts")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once, print it, and exit")
    return p.parse_args(argv)


def import_library():
    """Import rieszlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rieszlab
    where = pathlib.Path(rieszlab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"rieszlab was imported from {where}, not {src}")
    import workloads
    return rieszlab, workloads


def fingerprint(value):
    """Hashable digest of an operation's result, for comparing a repeat
    of a verified operation with its first run."""
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value) and value.__hash__ is None:
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, f.name))
            for f in dataclasses.fields(value))
    return value


REFERENCE_VALUES = tuple(Fraction(k, 7 + 2 * k) for k in range(1, 7))


def reference_task():
    """Fixed work on the standard library alone, of the kind rieszlab
    does: exact Fraction arithmetic and comparisons, tuples and a sort.
    It takes about 0.4 ms and does the same work on every call."""
    pairs = []
    for a in REFERENCE_VALUES:
        acc = Fraction(0)
        for b in REFERENCE_VALUES:
            acc = max(acc + a * b, b - a) / 2
        pairs.append((acc, a))
    return tuple(sorted(pairs, reverse=True))


class Reference:
    """Machine-speed yardstick.  While it is on, a wall-clock timer runs
    the reference task every REFERENCE_INTERVAL_S, from a signal handler
    in this thread, so it samples the host during the operations
    themselves.  An operation's time excludes the reference tasks that
    ran inside it, and is divided by the mean time of the samples taken
    during it or within REFERENCE_WINDOW_S before or after it.  That
    ratio does not move when the whole host speeds up or slows down, as
    it does here from second to second and by up to 1.7x within a
    minute."""

    def __init__(self):
        self.at = []              # start of each reference sample
        self.cumulative = [0.0]   # running sum of reference sample times
        self.ops = []             # (start, end, time net of samples)
        self.busy = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S,
                         REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        reference_task()
        self.at.append(t0)
        self.cumulative.append(self.cumulative[-1] + time.perf_counter() - t0)
        self.busy = False

    def _span(self, start, end):
        return (bisect.bisect_left(self.at, start),
                bisect.bisect_left(self.at, end))

    def record(self, start, end):
        """Time of an operation that ran from start to end, net of the
        reference samples inside it."""
        lo, hi = self._span(start, end)
        net = end - start - (self.cumulative[hi] - self.cumulative[lo])
        self.ops.append((start, end, net))
        return net

    def mean_s(self):
        if not self.at:
            self._tick(signal.SIGALRM, None)
        return self.cumulative[-1] / len(self.at)

    def ratios(self):
        """Each operation's time in units of its nearby reference mean."""
        whole = self.mean_s()
        out = []
        for start, end, net in self.ops:
            lo, hi = self._span(start - REFERENCE_WINDOW_S,
                                end + REFERENCE_WINDOW_S)
            mean = ((self.cumulative[hi] - self.cumulative[lo]) / (hi - lo)
                    if hi > lo else whole)
            out.append(net / mean)
        return out


class Stats:
    """Durations, failures and output problems of one run."""

    def __init__(self, reference=None):
        self.reference = reference
        self.durations = []
        self.round_s = []
        self.failed = 0
        self.failures = []
        self.problems = []
        self.verified = {}     # op name -> digest of its checked result

    def run_round(self, ops, tracer=None):
        """Time each operation; check outputs after the round when
        tracing (so checks stay out of the trace), else after each op."""
        total = 0.0
        pending = []
        for op in ops:
            if tracer is not None:
                tracer.tag = op.tag
            failure = None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted
                failure = exc
            t1 = time.perf_counter()
            duration = (t1 - t0 if self.reference is None
                        else self.reference.record(t0, t1))
            total += self._record(op.name, duration, failure)
            if failure is not None:
                continue
            if tracer is None:
                self._check(op, result)
            else:
                pending.append((op, result))
        if tracer is not None:
            tracer.uninstall()
        for op, result in pending:
            self._check(op, result)
        self.round_s.append(total)
        return total

    def _record(self, name, duration, failure=None):
        self.durations.append(duration)
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 5:
                where = traceback.extract_tb(failure.__traceback__)[-1]
                self.failures.append(f"{name}: {failure!r} at "
                                     f"{where.filename}:{where.lineno}")
        return duration

    def _check(self, op, result):
        try:
            digest = hash(fingerprint(result))
            if op.name in self.verified:
                problems = ([] if self.verified[op.name] == digest
                            else ["result differs from its verified first run"])
            else:
                problems = op.check(result)
                self.verified[op.name] = digest
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        self.problems.extend(f"{op.name}: {p}" for p in problems)


def shuffled_round(workload, seed, r):
    """Round r's operations in a seeded order.  Kinds of operation would
    otherwise run in blocks, and a spell of slow machine during one
    block would move a whole percentile."""
    ops = workload.round(r)
    random.Random(f"{workload.name}:{seed}:{r}").shuffle(ops)
    return ops


def child_setup_times(args, count):
    """Set-up time measured in ``count`` fresh interpreters, one after
    another."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--setup-only", "--workload", args.workload, "--seed",
           str(args.seed)]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, setup_s, workload):
    stats = Stats(Reference())
    start = time.perf_counter()
    r = 0
    with stats.reference:
        while True:
            stats.run_round(shuffled_round(workload, args.seed, r))
            r += 1
            if (r >= workload.min_rounds
                    and time.perf_counter() - start >= args.seconds):
                break
    setups = [setup_s] + child_setup_times(args, SETUP_SAMPLES - 1)
    d = stats.durations
    rounds = len(stats.round_s)
    ref_s = stats.reference.mean_s()
    print(f"raw: wall_s={sum(d) / rounds:.4f} "
          f"op_p50_ms={statistics.median(d) * 1e3:.4f} "
          f"op_p90_ms={statistics.quantiles(d, n=10)[8] * 1e3:.4f} "
          f"reference_ms={ref_s * 1e3:.4f} "
          f"reference_tasks={len(stats.reference.at)} rounds={rounds}",
          file=sys.stderr)
    r = stats.reference.ratios()
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_ref": metric(sum(r) / rounds, "ref"),
        "op_p50_ref": metric(statistics.median(r), "ref"),
        "op_p90_ref": metric(statistics.quantiles(r, n=10)[8], "ref"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return stats, metrics


def traced(rieszlab, build, seed):
    from spans import Tracer

    tracer = Tracer()
    tracer.install(rieszlab)
    try:
        workload = build()
    finally:
        tracer.uninstall()
    stats = Stats()
    # the first run warms up and checks the outputs
    stats.run_round(shuffled_round(workload, seed, 0))
    plain_s = stats.run_round(shuffled_round(workload, seed, 0))
    layer_before = sum(tracer.self_s.values())
    tracer.install(rieszlab)
    try:
        traced_s = stats.run_round(shuffled_round(workload, seed, 0), tracer)
    finally:
        tracer.uninstall()
    attributed = sum(tracer.self_s.values()) - layer_before
    metrics = {name: metric(value, unit) for name, (value, unit)
               in tracer.metrics(rieszlab.checks.check_ids()).items()}
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    metrics["trace.attributed_pct"] = metric(100 * attributed / traced_s, "%")
    return stats, metrics


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        rieszlab, workloads = import_library()
    except ImportError as exc:
        print(f"error: cannot import rieszlab from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    def build():
        return workloads.WORKLOADS[args.workload](args.seed, ROOT)

    if args.setup_only:
        build()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.trace:
        stats, metrics = traced(rieszlab, build, args.seed)
    else:
        workload = build()
        stats, metrics = end_to_end(args, time.perf_counter() - t0, workload)
    for line in stats.failures + stats.problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not stats.problems,
                      "attempted": len(stats.durations),
                      "failed": stats.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
