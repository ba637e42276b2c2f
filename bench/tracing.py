"""Per-layer tracing from outside the package.

``install`` wraps the public functions and hot methods of every treecalc
layer that does work (``errors`` does none).  A wrapper records one span
per call: name, start, end and the span that was open when it began.
Spans stay in memory, in flat arrays, and are summarized when the child
ends.  A span's self time is its duration minus the time its child spans
cover.  Functions are wrapped on every ``treecalc.*`` module that binds
them, because the modules import each other's functions by name; hot
methods are wrapped on their classes.  Enumerators are generators, so
their wrapper times and counts each ``next``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

from treecalc import arith, cli, combinat, elements, fqsym, identities, series, wqsym

# lru caches whose hit ratio is reported, read from the original objects.
CACHES = {
    "arith.q_factorial": arith.q_factorial,
    "arith.q_binomial": arith.q_binomial,
    "fqsym.tree_term": fqsym.tree_term,
    "wqsym.packed_convolve": wqsym._packed_convolve_cached,
}


class Tracer:
    """Spans in flat arrays plus plain counters, for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # The part asked of the half or split product being computed, so
        # the wrapped splitter beneath it can count the words kept.
        self.parts: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, total duration and total self time."""
        count = len(self.span_name)
        covered = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(count):
            name = self.span_name[i]
            duration = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - covered[i]
        return {n: (calls[i], total[i], own[i]) for i, n in enumerate(self.names)}


def rebind(original, replacement) -> None:
    """Point every binding of ``original`` in the treecalc modules at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "treecalc" or module_name.startswith("treecalc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _timed(tracer: Tracer, name: str, fn, before=None, after=None, part=None):
    """Wrap fn in a span; ``before(args)`` returns the arguments fn is
    called with, ``after(args, result)`` counts work once the span is
    closed, ``part(args)`` names the part a splitter's caller keeps."""
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args = before(args)
        if part is not None:
            tracer.parts.append(part(args))
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            if part is not None:
                tracer.parts.pop()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _enumerator(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stream = fn(*args, **kwargs)
        while True:
            index = tracer.open(name_id)
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.counts[name + ".items"] += 1
            yield item

    return wrapper


def _wrap_function(tracer: Tracer, module, attr: str, name: str, **hooks) -> None:
    original = getattr(module, attr)
    rebind(original, _timed(tracer, name, original, **hooks))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    setattr(cls, attr, _timed(tracer, name, cls.__dict__[attr]))


def _wrap_classmethod(tracer: Tracer, cls, attr: str, name: str) -> None:
    setattr(cls, attr, classmethod(_timed(tracer, name, cls.__dict__[attr].__func__)))


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the package."""
    counts = tracer.counts

    def kept(prefix: str):
        def after(args, parts):
            counts[prefix + ".returned"] += sum(len(p) for p in parts)
            if tracer.parts:
                counts[prefix + ".kept"] += len(parts[tracer.parts[-1]])

        return after

    def trees(args, expansion):
        counts["series.fixed_point.trees"] += len(expansion.terms)

    def passes(args):
        # A pass is one call of the operator the solver iterates.
        operator = args[0]

        def counted(*xs):
            counts["series.picard.passes"] += 1
            return operator(*xs)

        return (counted, *args[1:])

    poly = arith.Poly
    for attr in ("__mul__", "__rmul__"):
        _wrap_method(tracer, poly, attr, "arith.poly_mul")
    for attr in ("__add__", "__radd__"):
        _wrap_method(tracer, poly, attr, "arith.poly_add")
    _wrap_function(tracer, arith, "exact_poly_div", "arith.exact_poly_div")
    _wrap_function(tracer, arith, "binomial_coefficient", "arith.binomial_coefficient")

    for family in ("binary_trees", "mary_trees", "plane_trees", "permutations", "packed_words"):
        original = getattr(combinat, family)
        rebind(original, _enumerator(tracer, f"combinat.{family}", original))
    for attr in ("hook_data", "decreasing_tree", "plane_tree_of_word"):
        _wrap_function(tracer, combinat, attr, f"combinat.{attr}")
    for cls in (
        combinat.BinaryTree,
        combinat.MAryTree,
        combinat.PlaneTree,
        combinat.Permutation,
        combinat.PackedWord,
    ):
        _wrap_classmethod(tracer, cls, "from_text", "combinat.from_text")
    for attr in ("imaj", "inversions", "maj"):
        _wrap_method(tracer, combinat.Permutation, attr, "combinat.perm_stats")

    _wrap_method(tracer, elements.AlgebraElement, "__add__", "elements.add")

    _wrap_function(tracer, fqsym, "product", "fqsym.product")
    _wrap_function(
        tracer, fqsym, "_half_product", "fqsym.half_product", part=lambda args: args[2]
    )
    _wrap_function(tracer, fqsym, "half_products", "fqsym.half_products", after=kept("fqsym.half_product"))
    _wrap_function(tracer, fqsym, "derive", "fqsym.derive")
    _wrap_function(tracer, fqsym, "b_product", "fqsym.b_product")
    _wrap_function(tracer, fqsym, "tree_term", "fqsym.tree_term")
    _wrap_function(tracer, fqsym, "q_shuffle_product", "fqsym.q_shuffle_product")

    _wrap_function(tracer, wqsym, "product", "wqsym.product")
    _wrap_function(
        tracer, wqsym, "_split_product", "wqsym.split_product", part=lambda args: args[2]
    )
    _wrap_function(
        tracer, wqsym, "tridendriform_split", "wqsym.tridendriform_split",
        after=kept("wqsym.split_product"),
    )
    _wrap_function(tracer, wqsym, "delta", "wqsym.delta")
    _wrap_function(tracer, wqsym, "f_k", "wqsym.f_k")

    _wrap_method(tracer, series.TruncatedSeries, "__mul__", "series.mul")
    _wrap_function(tracer, series, "integrate", "series.integrate")
    for attr in ("fixed_point_binary", "fixed_point_mary", "fixed_point_plane"):
        _wrap_function(tracer, series, attr, "series.fixed_point", after=trees)
    for attr in ("picard_binary", "picard_mary"):
        _wrap_function(tracer, series, attr, "series.picard", before=passes)
    for attr in ("__mul__", "__add__"):
        _wrap_method(tracer, series.BinomialPoly, attr, "series.binomial_poly")

    for attr in ("postnikov_check", "duliu_check", "hook_count"):
        _wrap_function(tracer, identities, attr, f"identities.{attr}")
    for attr in ("qhook_imaj", "qhook_inv"):
        _wrap_function(tracer, identities, attr, "identities.qhook")

    _wrap_function(tracer, cli, "main", "cli.main")


def layer_self_s(tracer: Tracer, scale: float) -> dict[str, float]:
    """Self time summed over each layer's spans, the benchmark's own
    ("bench") included, times ``scale``."""
    out: dict[str, float] = {}
    for name, (_, _, own) in tracer.totals().items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + own * scale
    return out


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tracer: Tracer, ops: int, scale: float) -> dict[str, float]:
    """Every per-layer metric except the overhead ratio, which needs an
    untraced run; times are multiplied by ``scale``."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1] * scale

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2] * scale

    out: dict[str, float] = {}
    for name in (
        "arith.poly_mul", "arith.poly_add", "arith.exact_poly_div",
        "combinat.hook_data", "combinat.decreasing_tree", "combinat.plane_tree_of_word",
        "elements.add", "fqsym.product", "fqsym.b_product", "wqsym.product",
        "series.mul", "cli.main",
    ):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in (
        "arith.binomial_coefficient", "combinat.from_text", "combinat.perm_stats",
        "fqsym.half_product", "fqsym.derive", "fqsym.q_shuffle_product",
        "wqsym.split_product", "wqsym.delta", "wqsym.f_k",
        "series.integrate", "series.binomial_poly",
        "identities.postnikov_check", "identities.duliu_check",
    ):
        out[name + ".self_s"] = self_s(name)
    for name, cache in CACHES.items():
        info = cache.cache_info()
        out[name + ".hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    for family in ("binary_trees", "mary_trees", "plane_trees", "permutations", "packed_words"):
        name = f"combinat.{family}"
        items = counts[name + ".items"]
        out[name + ".items"] = items
        out[name + ".us_per_item"] = _ratio(total_s(name), items, 1e6)
    for prefix in ("fqsym.half_product", "wqsym.split_product"):
        out[prefix + ".useful_ratio"] = _ratio(counts[prefix + ".kept"], counts[prefix + ".returned"])
    out["series.fixed_point.trees"] = counts["series.fixed_point.trees"]
    out["series.fixed_point.ms_per_tree"] = _ratio(
        total_s("series.fixed_point"), counts["series.fixed_point.trees"], 1e3
    )
    out["series.picard.passes"] = counts["series.picard.passes"]
    out["series.picard.ms_per_pass"] = _ratio(
        total_s("series.picard"), counts["series.picard.passes"], 1e3
    )
    out["identities.ops"] = ops
    out["identities.formula_s"] = total_s("bench.formula")
    out["identities.oracle_s"] = total_s("bench.oracle")
    out["identities.hook_count.us_per_tree"] = _ratio(
        total_s("identities.hook_count"), calls("identities.hook_count"), 1e6
    )
    out["identities.qhook.ms_per_tree"] = _ratio(
        total_s("identities.qhook"), calls("identities.qhook"), 1e3
    )
    return out
