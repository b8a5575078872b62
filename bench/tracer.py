"""Outside-in tracer for the hmfp package.

The tracer wraps named hmfp functions from outside the package and keeps
one span per call in memory.  hmfp modules import each other's functions
by name (``from .interaction import solve_potential`` in five modules, and
the package ``__init__`` re-exports most of them), so replacing only the
defining module's attribute would miss most call sites.  ``install`` swaps
every binding of each target in every loaded hmfp module; methods are
swapped on their class, which every call site goes through.  ``uninstall``
restores the originals.

Each span holds a name, start, end, parent span and pass id.  A span's
self time is its duration minus the time its direct child spans cover;
the calls run on one thread, so the direct children never overlap.
"""

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


def _file_mb(index):
    def size(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[index]
        return os.path.getsize(path) / 1e6
    return size


PACKAGE = "hmfp"

# extra metric -> (unit, amount of one call from (args, kwargs, result))
EXTRAS = {
    "mb_written": ("MB", _file_mb(2)),
    "mb_read": ("MB", _file_mb(0)),
    "iterations": ("count", lambda args, kwargs, result: result.iterations),
}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.qualname`` plus what else to record.

    extra names an EXTRAS entry summed over the calls, p50 asks for the
    median call duration as ``<name>.p50_ms``, and exit_code marks a
    callable whose nonzero return value counts as an error.
    """

    module: str
    qualname: str
    extra: str | None = None
    p50: bool = False
    exit_code: bool = False

    @property
    def name(self):
        label = self.qualname.removesuffix(".__init__")
        return "%s.%s" % (self.module, label)


# The functions the per-layer metrics cover, grouped by layer (= module).
TARGETS = (
    Target("solver", "evolve"),
    Target("solver", "strang_step", p50=True),
    Target("solver", "advect_theta"),
    Target("solver", "advect_v"),
    Target("grid", "save_snapshot", extra="mb_written"),
    Target("grid", "load_snapshot", extra="mb_read"),
    Target("grid", "DistributionField.__init__"),
    Target("functionals", "orbital_distance", p50=True),
    Target("functionals", "diagnostics"),
    Target("functionals", "write_diagnostics_csv"),
    Target("steady", "self_consistent_solve", extra="iterations"),
    Target("steady", "solve_state_multipliers"),
    Target("steady", "build_F_phi"),
    Target("rearrange", "rearrange_with_energy"),
    Target("rearrange", "compose_profile"),
    Target("rearrange", "level_band_defect"),
    Target("rearrange", "equimeasurability_defect"),
    Target("interaction", "solve_potential"),
    Target("casimir", "CasimirSpec.j"),
    Target("experiment", "run_steady"),
    Target("experiment", "run_evolve"),
    Target("experiment", "run_stability"),
    Target("experiment", "run_rearrange"),
    Target("experiment", "run_diag"),
    Target("experiment", "run_directory"),
    Target("config", "load_config"),
    Target("cli", "main", exit_code=True),
)


def layers():
    """Layer names in target order, each once."""
    return list(dict.fromkeys(t.module for t in TARGETS))


def metric_names():
    """Every per-layer metric the tracer reports, with its unit."""
    names = {}
    for t in TARGETS:
        names[t.name + ".calls"] = "count"
        names[t.name + ".busy_s"] = "s"
        names[t.name + ".self_s"] = "s"
        if t.p50:
            names[t.name + ".p50_ms"] = "ms"
        if t.extra is not None:
            names["%s.%s" % (t.name, t.extra)] = EXTRAS[t.extra][0]
    for layer in layers():
        names[layer + ".errors"] = "count"
    return names


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    pass_id: int
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    extra: dict = field(default_factory=dict)


class Tracer:
    """Spans around every call into the TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._restore = []
        self.bindings = {}

    def install(self):
        """Rebind every call site of every target to a tracing wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in TARGETS:
            owner = sys.modules["%s.%s" % (PACKAGE, target.module)]
            head, _, attr = target.qualname.rpartition(".")
            if head:
                owner = getattr(owner, head)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if head:
                sites = [(owner, attr)]
            else:
                sites = [(m, name) for m in modules
                         for name, value in vars(m).items() if value is original]
            for obj, name in sites:
                self._restore.append((obj, name, original))
                setattr(obj, name, wrapper)
            self.bindings[target.name] = len(sites)

    def uninstall(self):
        for obj, name, original in reversed(self._restore):
            setattr(obj, name, original)
        self._restore = []

    def _wrap(self, target, fn):
        name = target.name
        extra = EXTRAS[target.extra][1] if target.extra else None
        exit_code = target.exit_code
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, clock(),
                        parent.sid if parent else None, self.pass_id)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if extra is not None:
                span.extra = {target.extra: extra(args, kwargs, result)}
            if exit_code and result != 0:
                span.error = "exit %r" % (result,)
            return result

        return traced

    def pass_stats(self, pass_id):
        """Per-target calls, busy, self, errors and extras of one pass."""
        stats = {t.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                          "errors": 0, "durations": [], "extra": {}}
                 for t in TARGETS}
        for span in self.spans:
            if span.pass_id != pass_id:
                continue
            s = stats[span.name]
            dur = span.end - span.start
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur - span.child_s
            s["durations"].append(dur)
            s["errors"] += span.error is not None
            for key, value in span.extra.items():
                s["extra"][key] = s["extra"].get(key, 0) + value
        return stats

    def span_records(self):
        return [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "pass": s.pass_id, "error": s.error}
                for s in self.spans]


def layer_metrics(per_pass):
    """Fold the stats of the traced passes into the per-layer metrics.

    Counts (calls, iterations, bytes, errors) come from the first traced
    pass; the caller checks that they repeat.  Times are medians over the
    passes, p50_ms the median call duration over all of them.
    """
    first = per_pass[0]
    out = {}
    errors = {layer: 0 for layer in layers()}
    for t in TARGETS:
        s = first[t.name]
        out[t.name + ".calls"] = s["calls"]
        out[t.name + ".busy_s"] = statistics.median(p[t.name]["busy_s"] for p in per_pass)
        out[t.name + ".self_s"] = statistics.median(p[t.name]["self_s"] for p in per_pass)
        if t.p50:
            durations = [d for p in per_pass for d in p[t.name]["durations"]]
            out[t.name + ".p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        if t.extra is not None:
            out["%s.%s" % (t.name, t.extra)] = s["extra"].get(t.extra, 0)
        errors[t.module] += s["errors"]
    for layer, count in errors.items():
        out[layer + ".errors"] = count
    return out


def counts_of(stats):
    """The exact-repeat part of one pass's stats, for comparing passes."""
    return {name: (s["calls"], s["errors"], tuple(sorted(s["extra"].items())))
            for name, s in stats.items()}
