"""Spans and counters around cakecut's public entry points, from outside.

``Tracer.install()`` replaces the layer entry points with wrappers (module
attributes wherever the name is bound, methods on their classes, the
``run`` of every registered mechanism, and the arithmetic and comparison
dunders of ``Fraction``); ``uninstall()`` puts the originals back.  The
program's source is not edited.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the wrapped calls directly inside it, so the
self times of all groups, including the ``bench.op`` frame that encloses
each operation, add up to the traced operation time exactly.  Calls outside
an operation (the benchmark's own checks) are not counted.

Kernel calls (``value_between``, ``cut_point``, ``density_at``, piece
algebra) are only aggregated; every other wrapped call is also kept as a
span ``(name, start, end, parent, op id)`` in memory and written out by
``write_spans`` when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

GROUPS = (
    "cake.value_between", "cake.cut_point", "cake.density_at", "cake.piece_ops",
    "cake.validate_allocation", "mechanisms", "properties.report_for",
    "properties.search", "queries.learner", "chains", "io.dumps", "io.parse",
    "cli.main", "bench.op",
)
NESTING = ("mechanisms", "properties.search", "chains")

FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                       "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__")
FRACTION_UNARY = ("__neg__", "__pos__", "__abs__")
FRACTION_COMPARE = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")

IO_DUMPS = ("canonical_dumps", "valuation_to_json", "profile_to_json",
            "piece_to_json", "allocation_to_json", "report_to_json",
            "gain_certificate_to_json", "property_certificate_to_json",
            "witness_to_json")
IO_PARSE = ("load_json", "valuation_from_json", "profile_from_json",
            "report_from_json", "certificate_from_json", "witness_from_json")
CHAINS = ("thm1_chain", "prop1_chain", "thm2_chain", "discussion_example")


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []      # [group, start, child seconds, span index]
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.calls = dict.fromkeys(GROUPS, 0)
        self.depth = dict.fromkeys(NESTING, 0)
        self.counts = dict.fromkeys((
            "fraction_ops", "max_denominator_bits", "node_cuts", "search_top",
            "search_mech_runs", "search_cut_calls", "search_unique_cuts",
            "chain_mech_runs", "oracle_queries", "bytes_out"), 0)
        self.spans: list[tuple] = []
        self.op_id = -1
        self._restore: list[tuple] = []
        self._cuts: set = set()
        self._valuation_keys: dict = {}

    # -- frames ----------------------------------------------------------------

    def _enter(self, group: str, name: str, record: bool) -> list:
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        index = parent
        if record:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        frame = [group, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list, name: str, record: bool) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        group = frame[0]
        self.self_s[group] += duration - frame[2]
        self.calls[group] += 1
        if stack:
            stack[-1][2] += duration
        if record:
            i = frame[3]
            self.spans[i] = (name, frame[1], end, self.spans[i][3], self.op_id)

    def begin_op(self, op_id: int) -> list:
        self.op_id = op_id
        self.active = True
        return self._enter("bench.op", "bench.op", True)

    def end_op(self, frame: list) -> None:
        self._exit(frame, "bench.op", True)
        self.active = False

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, group: str, name: str, record: bool = True,
              before=None, after=None):
        tracer = self
        nested = group in NESTING

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            if nested:
                tracer.depth[group] += 1
            frame = tracer._enter(group, name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, record)
                if nested:
                    tracer.depth[group] -= 1
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_attr(self, owner, attr: str, value, setter=setattr) -> None:
        self._restore.append((setter, owner, attr, owner.__dict__[attr]))
        setter(owner, attr, value)

    def _patch_function(self, fn, group: str, **hooks) -> None:
        """Replace fn wherever a cakecut module binds it."""
        name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
        wrapper = self._wrap(fn, group, name, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module_name == "cakecut" or module_name.startswith("cakecut."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch_attr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, group: str, record: bool = False,
                      **hooks) -> None:
        raw = cls.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapper = self._wrap(fn, group, f"{cls.__name__}.{attr}", record, **hooks)
        self._patch_attr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def install(self) -> None:
        from cakecut import cake, chains, cli, io, mechanisms, properties, queries

        pcv = cake.PiecewiseConstantValuation
        self._patch_method(pcv, "value_between", "cake.value_between")
        self._patch_method(pcv, "cut_point", "cake.cut_point", before=self._on_cut)
        self._patch_method(pcv, "density_at", "cake.density_at")
        for attr in ("of", "union", "intersect", "subtract", "complement"):
            self._patch_method(cake.Piece, attr, "cake.piece_ops")
        self._patch_function(cake.validate_allocation, "cake.validate_allocation")

        for mechanism in mechanisms.MECHANISMS.values():   # frozen dataclasses
            self._patch_attr(mechanism, "run", self._wrap(
                mechanism.run, "mechanisms", f"mechanisms.{mechanism.name}",
                before=self._on_mechanism), setter=object.__setattr__)

        self._patch_function(properties.report_for, "properties.report_for")
        for fn in (properties.best_response_gain, properties.ep_cutpoint_best_response):
            self._patch_function(fn, "properties.search", before=self._on_search_enter,
                                 after=self._on_search_exit)
        self._patch_function(queries.approximate_valuation, "queries.learner",
                             before=self._on_learn_enter, after=self._on_learn_exit)
        for attr in CHAINS:
            self._patch_function(getattr(chains, attr), "chains")
        for attr in IO_DUMPS:
            self._patch_function(getattr(io, attr), "io.dumps",
                                 after=self._on_dumps if attr == "canonical_dumps" else None)
        for attr in IO_PARSE:
            self._patch_function(getattr(io, attr), "io.parse")
        self._patch_function(cli.main, "cli.main")

        self._count_fractions()

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, attr, value = self._restore.pop()
            setter(owner, attr, value)

    # -- Fraction dunders --------------------------------------------------------

    def _count_fractions(self) -> None:
        tracer = self
        counts = self.counts

        def arithmetic(fn):
            def dunder(a, b):
                result = fn(a, b)
                if tracer.active and tracer.stack:
                    counts["fraction_ops"] += 1
                    if result.__class__ is Fraction:
                        bits = result.denominator.bit_length()
                        if bits > counts["max_denominator_bits"]:
                            counts["max_denominator_bits"] = bits
                return result
            return dunder

        def other(fn):
            def dunder(*args):
                if tracer.active and tracer.stack:
                    counts["fraction_ops"] += 1
                return fn(*args)
            return dunder

        for attr in FRACTION_ARITHMETIC:
            self._patch_attr(Fraction, attr, arithmetic(Fraction.__dict__[attr]))
        for attr in FRACTION_UNARY + FRACTION_COMPARE:
            self._patch_attr(Fraction, attr, other(Fraction.__dict__[attr]))

    # -- hooks ---------------------------------------------------------------------

    def _on_mechanism(self, args) -> None:
        if self.depth["properties.search"]:
            self.counts["search_mech_runs"] += 1
        if self.depth["chains"]:
            self.counts["chain_mech_runs"] += 1

    def _on_cut(self, args) -> None:
        if self.depth["mechanisms"]:
            self.counts["node_cuts"] += 1
        if self.depth["properties.search"]:
            self.counts["search_cut_calls"] += 1
            v, x, r = args[0], Fraction(args[1]), Fraction(args[2])
            key = self._valuation_keys.get(id(v))
            if key is None or key[0] is not v:
                key = (v, tuple((f.numerator, f.denominator)
                                for f in v.bounds + v.densities))
                self._valuation_keys[id(v)] = key
            self._cuts.add((key[1], x.numerator, x.denominator, r.numerator, r.denominator))

    def _on_search_enter(self, args) -> None:
        if not self.depth["properties.search"]:
            self.counts["search_top"] += 1

    def _on_search_exit(self, args, result, state) -> None:
        if not self.depth["properties.search"]:
            self.counts["search_unique_cuts"] += len(self._cuts)
            self._cuts.clear()
            self._valuation_keys.clear()

    def _on_learn_enter(self, args):
        return args[0].query_count

    def _on_learn_exit(self, args, result, before) -> None:
        self.counts["oracle_queries"] += args[0].query_count - before

    def _on_dumps(self, args, result, state) -> None:
        self.counts["bytes_out"] += len(result.encode())

    # -- output --------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
