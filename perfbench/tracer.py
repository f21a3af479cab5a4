"""Per-layer tracing of the ``dirac_disquant`` package, from outside it.

The layers are the package modules.  ``Tracer.install`` wraps each function
named in ``TRACED`` everywhere it is looked up: in its own module, in every
package module that bound it by name (``from .minkowski import eps4``), and on
its class for methods.  ``Tracer.remove`` puts the originals back, so untraced
units run the program exactly as shipped.

A span is one call of a traced function.  Its self time is its duration
minus the durations of the traced calls made inside it; time in untraced
helpers stays with the nearest traced caller.  Spans are folded into
per-function totals as they close, so memory stays flat however many calls
a unit makes.
"""

import inspect
import statistics
import sys
import time

PACKAGE = "dirac_disquant"
MODULES = ("cli", "verification", "algebra", "covariant", "minkowski",
           "particle", "rotator", "report")

KERNEL = ("calls", "self_s", "points_per_s")
SUITE = ("total_s", "self_s")
SERIALIZER = ("calls", "self_s", "bytes")

# (module, function or Class.method, reported stats)
TRACED = (
    ("cli", "main", ("calls", "total_s", "self_s")),
    ("verification", "suite_algebra", SUITE),
    ("verification", "suite_appendix_a", SUITE),
    ("verification", "suite_appendix_b", SUITE),
    ("verification", "suite_appendix_c", SUITE),
    ("verification", "suite_particle", SUITE),
    ("verification", "suite_rotator", SUITE),
    ("verification", "suite_consistency", SUITE),
    ("algebra", "build_gamma_basis", KERNEL + ("distinct_z_ratio",)),
    ("algebra", "spinor_from_params", KERNEL),
    ("algebra", "bilinears_matrix", KERNEL),
    ("algebra", "bilinears_closed_form", KERNEL),
    ("algebra", "spin_from_xi", KERNEL),
    ("covariant", "ParamField.jet", KERNEL),
    ("covariant", "lagrangian_pieces", KERNEL + ("distinct_point_ratio",)),
    ("covariant", "f3_without_inner_factor", KERNEL),
    ("covariant", "kinetic_term_matrix", KERNEL),
    ("minkowski", "eps4", KERNEL),
    ("minkowski", "mdot", KERNEL),
    ("particle", "integrate_xi_along_helix", KERNEL + ("steps_per_s",)),
    ("particle", "momentum", KERNEL),
    ("particle", "HelixSolution.state", KERNEL),
    ("particle", "HelixSolution.position_at_time", KERNEL),
    ("rotator", "integrate_rotator", KERNEL + ("steps_per_s",)),
    ("rotator", "zeta_vector", KERNEL),
    ("rotator", "constraint_monitors", KERNEL),
    ("rotator", "rigidity", KERNEL),
    ("rotator", "RotatorClosedForm.state", KERNEL),
    ("rotator", "RotatorClosedForm.worldlines_at_time", KERNEL),
    ("report", "csv_table", SERIALIZER),
    ("report", "json_table", SERIALIZER),
    ("report", "VerificationReport.render", SERIALIZER),
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "points_per_s": "1/s",
         "steps_per_s": "1/s", "bytes": "B", "distinct_z_ratio": "ratio",
         "distinct_point_ratio": "ratio"}

TRACE_METRICS = {"trace.overhead_s": "s", "trace.overhead_frac": "ratio"}


def per_layer_metrics():
    """Name -> unit of every per-layer metric, in report order."""
    out = {}
    for module, qualname, stats in TRACED:
        for stat in stats:
            out[f"{module}.{qualname}.{stat}"] = UNITS[stat]
    for module in MODULES:
        out[f"{module}.self_s"] = "s"
    out.update(TRACE_METRICS)
    return out


class _Stat:
    __slots__ = ("calls", "total", "self", "steps", "bytes", "keys")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.steps = 0
        self.bytes = 0
        self.keys = set()


def _arg_getter(fn, name):
    """A function (args, kwargs) -> value of parameter ``name`` of ``fn``."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


class Tracer:
    """Call counts and span times of the traced functions for one unit."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patches = []
        self._alive = []

    # ------------------------------------------------------- install/remove

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, qualname, stats in TRACED:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            name = f"{module}.{qualname}"
            owner, _, attr = qualname.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, orig, stats))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, stats)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._alive.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ---------------------------------------------------------------- spans

    def _wrap(self, name, fn, stats):
        stat = self.stats[name] = _Stat()
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(fn, stats, stat)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stat.calls += 1
                stat.total += span
                stat.self += span - frame[0]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, fn, stats, stat):
        """Records the argument- or result-derived stats a function reports."""
        if "bytes" in stats:
            def observe(args, kwargs, result):
                stat.bytes += len(result)
            return observe
        if "steps_per_s" in stats:
            steps = _arg_getter(fn, "steps")

            def observe(args, kwargs, result):
                stat.steps += int(steps(args, kwargs))
            return observe
        if "distinct_z_ratio" in stats:
            z = _arg_getter(fn, "z")

            def observe(args, kwargs, result):
                stat.keys.add(tuple(map(float, z(args, kwargs))))
            return observe
        if "distinct_point_ratio" in stats:
            fld = _arg_getter(fn, "fld")
            x = _arg_getter(fn, "x")

            def observe(args, kwargs, result):
                field = fld(args, kwargs)
                # Holding the field keeps its id unique for the whole unit.
                self._alive.append(field)
                stat.keys.add((id(field), tuple(map(float, x(args, kwargs)))))
            return observe
        return None

    # -------------------------------------------------------------- results

    def counts(self):
        return {name: s.calls for name, s in self.stats.items()}

    def metrics(self):
        """Per-layer metrics of this unit, without the trace.* entries."""
        out = {}
        for module, qualname, stats in TRACED:
            s = self.stats[f"{module}.{qualname}"]
            values = {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self,
                "points_per_s": s.calls / s.self if s.self > 0 else 0.0,
                "steps_per_s": s.steps / s.total if s.total > 0 else 0.0,
                "bytes": s.bytes,
                "distinct_z_ratio": len(s.keys) / s.calls if s.calls else 0.0,
                "distinct_point_ratio": len(s.keys) / s.calls if s.calls else 0.0,
            }
            for stat in stats:
                out[f"{module}.{qualname}.{stat}"] = values[stat]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                s.self for name, s in self.stats.items()
                if name.split(".", 1)[0] == module)
        return out


def combine(unit_metrics, traced_walls, untraced_walls):
    """Median of each metric over the traced units, plus the trace overhead.

    Traced and untraced units alternate, so unit k of each list ran back to
    back.  The overhead is the median over those pairs, which cancels most
    of the machine's slow drift in speed.
    """
    out = {}
    for name in unit_metrics[0]:
        values = [m[name] for m in unit_metrics]
        # Counts stay whole numbers; they are equal across units anyway.
        median = statistics.median_low if isinstance(values[0], int) else statistics.median
        out[name] = median(values)
    pairs = list(zip(traced_walls, untraced_walls))
    out["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    out["trace.overhead_frac"] = statistics.median((t - u) / u for t, u in pairs)
    return out
