"""Span tracing and work counters for the traced benchmark run.

The tracer wraps every public function of the rieszlab layer modules
from outside.  Each wrapped call opens a span (name, start, end,
parent); on close the span's duration is charged to its layer, minus
the time its child spans cover, so the layer totals are self times.
Work is counted by inspecting call arguments and return values, so the
library itself carries no instrumentation.

Wrapping replaces every module attribute bound to the original
function, across all loaded ``rieszlab`` modules: ``from .spaces
import add`` inside ``lateral`` creates a second binding that patching
``spaces.add`` alone would miss.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("spaces", "lateral", "operators", "oplattice", "generators",
          "checks", "dsl", "evaluator")

MODELS = {"Coordinate": "coord", "SimpleFunction": "simple",
          "FinSupport": "fin", "EventuallyConstant": "ec",
          "PiecewiseLinear": "pl"}
SPACE_OPS = ("add", "scale", "lattice", "leq", "normalize", "disjoint")
# spaces function -> (op name, index of the argument that carries the space)
_SPACE_OP_OF = {"add": ("add", 0), "scale": ("scale", 1),
                "sup": ("lattice", 0), "inf": ("lattice", 0),
                "leq": ("leq", 0), "normalize": ("normalize", 0),
                "is_disjoint": ("disjoint", 0)}
BODIES = {"Kernel": "kernel", "LinearEC": "linear_ec",
          "MatchTable": "match_table", "LateralMeet": "lateral_meet",
          "AlternatingSeries": "series", "OpSum": "sum",
          "OpScaled": "scaled", "ZeroOp": "zero"}
EVALS = ("join_at", "meet_at", "pos_part_at", "neg_part_at", "modulus_at")
VERIFIERS = ("verify_oao", "verify_positive", "verify_disjointness_preserving")
SCANS = ("lateral_bound_scan", "order_bound_scan")
MAX_JOIN_ATOMS = 12


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0


class Sampler:
    """Evenly spaced sample of a stream of durations, of bounded size.

    Keeps every call until full, then halves the sample and doubles the
    stride, so a long run keeps a uniform spread of calls without
    storing each one.
    """

    __slots__ = ("values", "stride", "seen", "cap")

    def __init__(self, cap=4096):
        self.values = []
        self.stride = 1
        self.seen = 0
        self.cap = cap

    def add(self, value):
        if self.seen % self.stride == 0:
            self.values.append(value)
            if len(self.values) >= self.cap:
                del self.values[1::2]
                self.stride *= 2
        self.seen += 1

    def median(self):
        return statistics.median(self.values) if self.values else 0.0


def _space_model(space):
    return MODELS.get(type(space).__name__)


def _scalars(x):
    """Every rational in an element payload, by model."""
    model = _space_model(x.space)
    p = x.payload
    if model in ("coord", "simple"):
        return p
    if model == "ec":
        return p[0] + (p[1],)
    if model == "fin":
        return [v for _, v in p]
    if model == "pl":
        return [v for pair in p for v in pair]
    return ()


def _denominator_bits(v):
    den = getattr(v, "denominator", 1)
    return den.bit_length() if isinstance(den, int) else 0


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {}
        self.maxima = {}
        self.samplers = {}
        self.inclusive_s = {}
        self.active = {}
        self.tag = ""
        self._patched = []
        self._element_type = None

    # -- bookkeeping -------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def sample(self, key, value):
        s = self.samplers.get(key)
        if s is None:
            s = self.samplers[key] = Sampler()
        s.add(value)

    def median(self, key):
        s = self.samplers.get(key)
        return s.median() if s is not None else 0.0

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the public functions of each layer module of ``package``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._element_type = package.spaces.Element
        originals = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        observe = self._observer(layer, name)
        category = self._category(layer, name)
        clock = self.clock
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        active = self.active
        inclusive = self.inclusive_s
        span_name = f"{layer}.{name}"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if category is not None:
                depth = active.get(category, 0)
                active[category] = depth + 1
            span = Span(span_name, clock(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = end = clock()
                stack.pop()
                duration = end - span.start
                self_s[layer] += duration - span.child_s
                calls[layer] += 1
                if parent is not None:
                    parent.child_s += duration
                if category is not None:
                    active[category] = depth
                    if depth == 0:
                        inclusive[category] = (inclusive.get(category, 0.0)
                                               + duration)
            if observe is not None:
                observe(args, result, duration)
            return result

        return functools.update_wrapper(traced, fn)

    @staticmethod
    def _category(layer, name):
        """Outermost-span timers: nested calls of one category count once."""
        if layer == "operators" and name in VERIFIERS:
            return "operators.verify"
        if layer == "operators" and name in SCANS:
            return "operators.scan"
        if layer == "oplattice" and name in EVALS:
            return "oplattice.eval"
        if layer == "dsl" and name in ("tokenize", "parse"):
            return f"dsl.{name}"
        return None

    # -- observers: counters read from arguments and results ---------------

    def _observer(self, layer, name):
        if layer == "spaces":
            return self._spaces_observer(name)
        if layer == "lateral":
            if name in ("enumerate_fragments", "fragment_iter"):
                return self._enumeration("lateral.fragments_enumerated")
            if name == "enumerate_decompositions":
                return self._enumeration("lateral.splittings_enumerated")
            if name in ("lateral_inf", "lateral_sup"):
                key = "lateral." + name.split("_")[1]
                return lambda args, result, d: self.sample(key, d)
        if layer == "operators" and name == "apply":
            return self._observe_apply
        if layer == "oplattice" and name in EVALS:
            return self._eval_observer(name)
        if layer == "checks" and name == "run_check":
            return self._observe_run_check
        if layer == "dsl" and name == "parse":
            return self._observe_parse
        if layer == "evaluator" and name == "evaluate":
            return self._observe_evaluate
        return None

    def _spaces_observer(self, name):
        op = _SPACE_OP_OF.get(name)
        element = self._element_type

        def observe(args, result, duration):
            if op is not None:
                carrier = args[op[1]]
                space = carrier if op[0] == "normalize" else carrier.space
                model = _space_model(space)
                if model is not None:
                    self.sample(("spaces", model, op[0]), duration)
            if type(result) is element:
                if _space_model(result.space) == "pl":
                    self.maximum("spaces.max_pl_breakpoints",
                                 len(result.payload))
                bits = max(map(_denominator_bits, _scalars(result)), default=0)
                self.maximum("spaces.max_denominator_bits", bits)

        return observe

    def _enumeration(self, key):
        def observe(args, result, duration):
            n = len(result)
            self.count(key, n)
            self.maximum("lateral.max_enumeration", n)
        return observe

    def _observe_apply(self, args, result, duration):
        self.count("operators.apply.calls")
        body = BODIES.get(type(args[0]).__name__, "other")
        self.count(f"operators.apply.{body}.calls")
        self.sample("operators.apply", duration)
        if self.active.get("oplattice.eval", 0):
            self.count("oplattice.applies_in_evals")

    def _eval_observer(self, name):
        def observe(args, result, duration):
            self.count("oplattice.evals")
            if name != "join_at":
                return
            x = args[2]
            if _space_model(x.space) == "coord":
                k = sum(1 for v in x.payload if v != 0)
                if 1 <= k <= MAX_JOIN_ATOMS:
                    self.sample(("join", k), duration)
        return observe

    def _observe_run_check(self, args, result, duration):
        if self.tag != "probe":
            key = f"checks.{args[0]}"
            self.inclusive_s[key] = self.inclusive_s.get(key, 0.0) + duration

    def _observe_parse(self, args, result, duration):
        self.count("dsl.parsed_bytes", len(args[0].encode("utf-8")))

    def _observe_evaluate(self, args, result, duration):
        self.count("evaluator.statements", len(args[0].statements))

    # -- report ------------------------------------------------------------

    def metrics(self, check_ids):
        """Per-layer metric values, keyed by the names in BENCHMARK.json."""
        c = self.counts.get
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["spaces.calls"] = (self.calls["spaces"], "count")
        for model in MODELS.values():
            for op in SPACE_OPS:
                out[f"spaces.{model}.{op}_us"] = (
                    self.median(("spaces", model, op)) * 1e6, "us")
        out["spaces.max_pl_breakpoints"] = (
            self.maxima.get("spaces.max_pl_breakpoints", 0), "count")
        out["spaces.max_denominator_bits"] = (
            self.maxima.get("spaces.max_denominator_bits", 0), "bits")
        out["lateral.fragments_enumerated"] = (
            c("lateral.fragments_enumerated", 0), "count")
        out["lateral.splittings_enumerated"] = (
            c("lateral.splittings_enumerated", 0), "count")
        out["lateral.max_enumeration"] = (
            self.maxima.get("lateral.max_enumeration", 0), "count")
        out["lateral.inf_us"] = (self.median("lateral.inf") * 1e6, "us")
        out["lateral.sup_us"] = (self.median("lateral.sup") * 1e6, "us")
        out["operators.apply_us"] = (self.median("operators.apply") * 1e6, "us")
        out["operators.apply.calls"] = (c("operators.apply.calls", 0), "count")
        for body in BODIES.values():
            key = f"operators.apply.{body}.calls"
            out[key] = (c(key, 0), "count")
        out["operators.verify_s"] = (
            self.inclusive_s.get("operators.verify", 0.0), "s")
        out["operators.scan_s"] = (
            self.inclusive_s.get("operators.scan", 0.0), "s")
        evals = c("oplattice.evals", 0)
        out["oplattice.evals"] = (evals, "count")
        out["oplattice.applies_per_eval"] = (
            c("oplattice.applies_in_evals", 0) / evals if evals else 0.0,
            "count")
        for k in range(1, MAX_JOIN_ATOMS + 1):
            out[f"oplattice.join_ms.n{k}"] = (self.median(("join", k)) * 1e3,
                                              "ms")
        for check_id in check_ids:
            out[f"checks.{check_id}_s"] = (
                self.inclusive_s.get(f"checks.{check_id}", 0.0), "s")
        out["dsl.tokenize_s"] = (self.inclusive_s.get("dsl.tokenize", 0.0), "s")
        parsed_kb = c("dsl.parsed_bytes", 0) / 1024
        parse_us = self.inclusive_s.get("dsl.parse", 0.0) * 1e6
        out["dsl.parse_us_per_kb"] = (
            parse_us / parsed_kb if parsed_kb else 0.0, "us/KiB")
        out["evaluator.statements"] = (c("evaluator.statements", 0), "count")
        return out
