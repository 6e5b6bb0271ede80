"""Layer tracing from outside the library.

The tracer wraps public functions of the ``twistfock`` modules for one
traced job and restores them afterwards; the library itself is unchanged.
Three kinds of instrument:

* spans (name, start, end, parent) for the job, the CLI parse and render
  steps, the suite rendering and every ``check_*`` that ``run_suite``
  calls.  Spans stay in memory; self time is a span's duration minus the
  time its child spans cover, so the self times of all spans add up to the
  job's duration exactly.
* timers for layers called thousands of times: a call count and the busy
  time of the outermost call (recursive or nested calls are not counted
  twice), but no span per call.
* counters for the hottest functions (``binomial``, ``State``
  construction): a call count only.

A function bound into other modules with ``from ... import`` is patched in
every module that holds it, so calls through any name are seen.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = ("scalars", "formal", "fermion", "ramond", "deltak", "twist",
           "verify", "cli")

# Every check function run_suite calls, in the verify module's namespace
# (three of them come from deltak).  Metric names drop the check_ prefix.
CHECKS = (
    "check_f_composition",
    "check_conjugation",
    "check_L_minus1_identities",
    "check_translation_derivative",
    "check_odd_obstruction",
    "check_even_supercommutator",
    "check_cross_slot_commutator",
    "check_locality",
    "check_twisted_jacobi",
    "check_limit_axiom",
    "check_grading",
    "check_recovered_commutator",
    "check_weak_associativity",
    "check_u_round_trip",
    "check_t_round_trip",
    "check_character_correspondence",
)

CYC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
           "inverse")

# (module, function, timer name)
TIMERS = (
    ("fermion", "vertex_mode", "fermion.vertex_mode"),
    ("ramond", "sigma_vertex_mode", "ramond.sigma_vertex_mode"),
    ("deltak", "apply_delta", "deltak.apply_delta"),
    ("twist", "u_functor_sigma_mode", "twist.u_functor_sigma_mode"),
    ("formal", "verify_delta_identity", "formal"),
    ("formal", "compare_series", "formal"),
    ("formal", "compare_fields", "formal"),
)

JOB = "job"


def check_metric(check: str) -> str:
    return "verify." + check[len("check_"):]


def layer_metrics() -> list:
    """The per-layer metrics of a traced run, as (name, unit, better)."""
    rows = [
        ("scalars.binomial.calls", "count", "lower"),
        ("scalars.cyc_ops.calls", "count", "lower"),
        ("scalars.cyc_ops.busy_s", "s", "lower"),
        ("fermion.iterate.hits", "count", "higher"),
        ("fermion.iterate.misses", "count", "lower"),
        ("fermion.iterate.hit_ratio", "ratio", "higher"),
        ("fermion.iterate.entries", "count", "lower"),
        ("fermion.state_new.calls", "count", "lower"),
        ("fermion.vertex_mode.calls", "count", "lower"),
        ("fermion.vertex_mode.busy_s", "s", "lower"),
        ("ramond.sigma_vertex_mode.calls", "count", "lower"),
        ("ramond.sigma_vertex_mode.busy_s", "s", "lower"),
        ("deltak.apply_delta.calls", "count", "lower"),
        ("deltak.apply_delta.busy_s", "s", "lower"),
        ("deltak.solve_aj.misses", "count", "lower"),
        ("twist.u_functor_sigma_mode.calls", "count", "lower"),
        ("twist.u_functor_sigma_mode.busy_s", "s", "lower"),
        ("formal.calls", "count", "lower"),
        ("formal.busy_s", "s", "lower"),
    ]
    for check in CHECKS:
        name = check_metric(check)
        rows += [
            (name + ".busy_s", "s", "lower"),
            (name + ".self_s", "s", "lower"),
            (name + ".compared", "count", "higher"),
        ]
    rows += [
        ("verify.mode_family.calls", "count", "lower"),
        ("verify.mode_family.hit_ratio", "ratio", "higher"),
        ("verify.render.busy_s", "s", "lower"),
        ("cli.parse.busy_s", "s", "lower"),
        ("cli.render.busy_s", "s", "lower"),
        ("trace.job_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return rows


# Counts, and ratios of counts, are a pure function of the workload and seed:
# two traced jobs must agree on them exactly.
EXACT = tuple(name for name, unit, _ in layer_metrics()
              if unit in ("count", "ratio"))


def package_modules() -> dict:
    return {name: importlib.import_module("twistfock." + name)
            for name in MODULES}


def lru_caches(modules) -> dict:
    """Every functools.lru_cache wrapper bound in the package, by name."""
    found = {}
    for mod_name, module in modules.items():
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                found.setdefault(id(value), (f"{mod_name}.{attr}", value))
    return dict(found.values())


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.busy = defaultdict(float)
        self.compared = Counter()
        self._active = Counter()
        self._undo = []
        self.missing = []

    # -- instruments ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _timer(self, name, fn):
        counts, busy, active, clock = (self.counts, self.busy, self._active,
                                       time.perf_counter)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if active[name]:
                return fn(*args, **kwargs)
            active[name] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - start
                active[name] = 0

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, make):
        """Replace module.attr, and every other binding of the same object
        in the package, by make(original)."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(original)
        for other in self.modules.values():
            for name, value in list(vars(other).items()):
                if value is original:
                    self._set(other, name, wrapper)

    def patch_method(self, module, cls_name, attr, make):
        """Replace the method cls_name.attr of module by make(original)."""
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in cls.__dict__:
            self.missing.append(f"{module.__name__}.{cls_name}.{attr}")
            return
        self._set(cls, attr, make(cls.__dict__[attr]))

    def install(self):
        m = self.modules
        self.patch_function(m["scalars"], "binomial",
                            lambda f: self._counter("scalars.binomial", f))
        for op in CYC_OPS:
            self.patch_method(m["scalars"], "CycScalar", op,
                              lambda f: self._timer("scalars.cyc_ops", f))
        self.patch_method(m["fermion"], "State", "__init__",
                          lambda f: self._counter("fermion.state_new", f))
        for mod, attr, name in TIMERS:
            self.patch_function(m[mod], attr,
                                lambda f, n=name: self._timer(n, f))
        self.patch_method(m["verify"], "_ModeFamily", "mode", self._family_mode)
        for check in CHECKS:
            name = check_metric(check)
            self.patch_function(
                m["verify"], check,
                lambda f, n=name: self._span(
                    n, f, lambda r, n=n: self._add_compared(n, r)),
            )
        self.patch_function(m["verify"], "suite_json",
                            lambda f: self._span("verify.render", f))
        for attr in ("_render_rows", "_emit"):
            self.patch_function(m["cli"], attr,
                                lambda f: self._span("cli.render", f))
        for attr in ("_config_from_namespace", "parse_state"):
            self.patch_function(m["cli"], attr,
                                lambda f: self._span("cli.parse", f))
        self.patch_function(m["cli"], "build_parser", self._parser_factory)
        self.patch_function(m["cli"], "main", lambda f: self._span(JOB, f))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _family_mode(self, original):
        counts = self.counts

        def mode(family, m, state):
            before = len(family._cache)
            result = original(family, m, state)
            counts["verify.mode_family.calls"] += 1
            if len(family._cache) == before:
                counts["verify.mode_family.hits"] += 1
            return result

        return mode

    def _parser_factory(self, original):
        span = self._span

        def build_parser(*args, **kwargs):
            parser = span("cli.parse", original)(*args, **kwargs)
            parser.parse_args = span("cli.parse", parser.parse_args)
            return parser

        return build_parser

    def _add_compared(self, name, result):
        items = result if isinstance(result, (tuple, list)) else (result,)
        for item in items:
            self.compared[name] += int(getattr(item, "compared", 0))

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def busy_times(self) -> dict:
        """Total span duration per name, counting nested same-name spans once."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            if not self._has_ancestor(parent, name):
                out[name] += end - start
        return out

    def _has_ancestor(self, index, name) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def job_time(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0)

    def layers(self, cache_stats: dict) -> dict:
        """Per-layer values of this job (trace.overhead_s is left to the
        runner, which has the untraced times)."""
        busy, own = self.busy_times(), self.self_times()
        c = self.counts
        hits, misses = cache_stats["iterate_hits"], cache_stats["iterate_misses"]
        calls = c["verify.mode_family.calls"]
        values = {
            "scalars.binomial.calls": c["scalars.binomial"],
            "scalars.cyc_ops.calls": c["scalars.cyc_ops"],
            "scalars.cyc_ops.busy_s": self.busy["scalars.cyc_ops"],
            "fermion.iterate.hits": hits,
            "fermion.iterate.misses": misses,
            "fermion.iterate.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "fermion.iterate.entries": cache_stats["iterate_entries"],
            "fermion.state_new.calls": c["fermion.state_new"],
            "deltak.solve_aj.misses": cache_stats["solve_aj_misses"],
            "verify.mode_family.calls": calls,
            "verify.mode_family.hit_ratio": (
                c["verify.mode_family.hits"] / calls if calls else 0.0),
            "verify.render.busy_s": busy["verify.render"],
            "cli.parse.busy_s": busy["cli.parse"],
            "cli.render.busy_s": busy["cli.render"],
            "trace.job_s": self.job_time(),
            "trace.unattributed_s": own[JOB],
        }
        for _, _, name in TIMERS:
            values[name + ".calls"] = c[name]
            values[name + ".busy_s"] = self.busy[name]
        for check in CHECKS:
            name = check_metric(check)
            values[name + ".busy_s"] = busy[name]
            values[name + ".self_s"] = own[name]
            values[name + ".compared"] = self.compared[name]
        return values

    def accounted(self) -> bool:
        """Self times of all spans add up to the job time."""
        total = sum(self.self_times().values())
        return abs(total - self.job_time()) <= 1e-9 * max(1.0, len(self.spans))
