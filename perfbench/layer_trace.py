"""Outside-in span tracing of canstrip's layers.

The layers are the modules under ``src/canstrip``.  `Tracer.installed()`
replaces each public function of a layer module by a timing wrapper at every
``canstrip`` module that holds it (``from .hilbert import expand`` binds the
same function in `varieties`, `verify`, `cli` and the package), wraps the hot
`RatPoly` methods on the class, and restores everything on exit.  Nothing in
the program is edited.

A span is ``[name, start, end, parent span id, invocation id]``; spans are
kept in memory in the order they opened, so a parent always precedes its
children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("root_system", "hilbert", "varieties", "verify", "ratpoly", "cli")
# private functions wrapped as well, for the counts read off their results
PRIVATE = {"cli": ("_sweep_cases",)}
# RatPoly methods wrapped on the class; __rmul__ is the same function as __mul__
RATPOLY_METHODS = {"__mul__": "mul", "__rmul__": "mul", "compose_affine": "compose_affine",
                   "__divmod__": "divmod"}


def _mark_key(ms) -> tuple:
    return (ms.rs.simple_type.series, ms.rs.simple_type.rank, ms.node)


def _coeff_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs),
               default=0)


class Tracer:
    """Spans and counts recorded at the layer boundaries of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self.cache_hits: Counter = Counter()
        self.marks: set = set()
        self.gp_marks: set = set()
        self.sweep_cases = 0
        self.sturm = {"degree_max": 0, "coeff_bits_max": 0, "chain_length_sum": 0}
        self._observers = {
            "root_system.marked": self._saw_marked,
            "hilbert.hilbert_gp": self._saw_hilbert_gp,
            "ratpoly.sturm_count": self._saw_sturm_count,
            "cli._sweep_cases": self._saw_sweep_cases,
        }

    # -- observers: counts read at the boundary where the work happens --

    def _saw_marked(self, args, ms) -> None:
        self.marks.add((self.invocation, _mark_key(ms)))

    def _saw_hilbert_gp(self, args, hd) -> None:
        self.gp_marks.add((self.invocation, _mark_key(args[0])))

    def _saw_sturm_count(self, args, cert) -> None:
        p = args[0]
        s = self.sturm
        s["degree_max"] = max(s["degree_max"], p.degree)
        s["coeff_bits_max"] = max(s["coeff_bits_max"], _coeff_bits(p))
        s["chain_length_sum"] += cert.chain_length

    def _saw_sweep_cases(self, args, cases) -> None:
        self.sweep_cases += len(cases)

    # -- wrapping --

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import canstrip.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "canstrip" or n.startswith("canstrip.")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"canstrip.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
                if hasattr(obj, "cache_clear"):
                    self._cached[name] = obj
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        cls = sys.modules["canstrip.ratpoly"].RatPoly
        methods: dict[int, object] = {}
        for attr, short in RATPOLY_METHODS.items():
            fn = cls.__dict__[attr]
            if id(fn) not in methods:
                methods[id(fn)] = self.wrap(f"ratpoly.{short}", fn)
            self._patch(cls, attr, methods[id(fn)])

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def begin_invocation(self) -> None:
        """Start the next invocation from a fresh process's state: the
        lru caches are emptied after their hits are counted."""
        self.harvest_cache_hits()
        self.invocation += 1

    def harvest_cache_hits(self) -> None:
        for name, fn in self._cached.items():
            self.cache_hits[name] += fn.cache_info().hits
            fn.cache_clear()

    def write(self, path, header: str = "") -> None:
        """Write every span as a tab-separated line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("id\tname\tstart\tend\tparent\tinvocation\n")
            for sid, (name, start, end, parent, inv) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{inv}\n")


def span_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, self time, and the durations of the
    outermost spans (those with no ancestor of the same name).

    Self time is a span's duration minus the part of it its child spans
    cover.  Children are visited in opening order, so the covered length is
    their interval union, found with a running maximum of their ends.
    """
    n = len(spans)
    covered = [0.0] * n
    cover_end = [-math.inf] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            lo = max(start, cover_end[parent])
            if end > lo:
                covered[parent] += end - lo
                cover_end[parent] = end
    stats: dict[str, dict] = {}
    for sid, (name, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "outer": []})
        st["calls"] += 1
        st["self_s"] += (end - start) - covered[sid]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["outer"].append(end - start)
    return stats


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    stats = span_stats(tracer.spans)
    empty = {"calls": 0, "self_s": 0.0, "outer": []}

    def st(name):
        return stats.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    for name in ("ratpoly.mul", "ratpoly.compose_affine", "ratpoly.divmod",
                 "ratpoly.sturm_count", "ratpoly.squarefree_parts"):
        out[f"{name}.calls"] = (st(name)["calls"], "count")
        out[f"{name}.self_s"] = (st(name)["self_s"], "s")
    out["ratpoly.poly_gcd.calls"] = (st("ratpoly.poly_gcd")["calls"], "count")
    out["ratpoly.sturm_count.degree_max"] = (tracer.sturm["degree_max"], "degree")
    out["ratpoly.sturm_count.coeff_bits_max"] = (tracer.sturm["coeff_bits_max"], "bits")
    out["ratpoly.sturm_count.chain_length_sum"] = (tracer.sturm["chain_length_sum"], "count")

    gp_calls = st("hilbert.hilbert_gp")["calls"]
    out["hilbert.hilbert_gp.calls"] = (gp_calls, "count")
    out["hilbert.hilbert_gp.total_s"] = (sum(st("hilbert.hilbert_gp")["outer"], 0.0), "s")
    out["hilbert.hilbert_gp.reuse_ratio"] = (
        len(tracer.gp_marks) / gp_calls if gp_calls else 1.0, "ratio")
    for name in ("hilbert.expand", "hilbert.validate"):
        out[f"{name}.calls"] = (st(name)["calls"], "count")
        out[f"{name}.total_s"] = (sum(st(name)["outer"], 0.0), "s")
    out["hilbert.degree_of.total_s"] = (sum(st("hilbert.degree_of")["outer"], 0.0), "s")

    out["varieties.section_step.calls"] = (st("varieties.section_step")["calls"], "count")
    out["varieties.section_step.self_s"] = (st("varieties.section_step")["self_s"], "s")
    ci = st("varieties.complete_intersection")["outer"]
    out["varieties.complete_intersection.p50_s"] = (percentile(ci, 0.50), "s")
    out["varieties.complete_intersection.p99_s"] = (percentile(ci, 0.99), "s")
    out["varieties.double_cover.total_s"] = (sum(st("varieties.double_cover")["outer"], 0.0), "s")

    sr = st("verify.strip_report")
    out["verify.strip_report.calls"] = (sr["calls"], "count")
    out["verify.strip_report.total_s"] = (sum(sr["outer"]), "s")
    out["verify.strip_report.p50_s"] = (percentile(sr["outer"], 0.50), "s")
    out["verify.strip_report.max_s"] = (max(sr["outer"], default=0.0), "s")
    out["verify.check_line.total_s"] = (sum(st("verify.check_line")["outer"], 0.0), "s")

    out["root_system.marked.calls"] = (st("root_system.marked")["calls"], "count")
    out["root_system.marked.distinct"] = (len(tracer.marks), "count")
    out["root_system.mark.cache_hits"] = (tracer.cache_hits["root_system.mark"], "count")
    out["root_system.mark.total_s"] = (sum(st("root_system.mark")["outer"], 0.0), "s")
    out["root_system.build_root_system.total_s"] = (
        sum(st("root_system.build_root_system")["outer"], 0.0), "s")

    out["cli.variety_report.total_s"] = (sum(st("cli.variety_report")["outer"], 0.0), "s")
    out["cli.canonical_json.total_s"] = (sum(st("cli.canonical_json")["outer"], 0.0), "s")
    out["cli.sweep.cases"] = (tracer.sweep_cases, "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
