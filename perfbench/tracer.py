"""Outside-in tracing of ofdmsee's layers.

The tracer wraps public functions of the package at every module binding that
holds them (ofdmsee.se_engine.se and also ofdmsee.pas_engine.se, ofdmsee.cli.se,
...), so calls between modules pass through the wrapper. Each call records a
span (name, operation id, start, end, parent); a layer's self time is its
spans' durations minus the part covered by their direct children. Counting
hooks record the work each layer was handed. The program itself is not
changed: wrappers are installed for the traced run and removed afterwards.
"""

import contextlib
import functools
import importlib
import json
import time

import numpy as np

_MODULES = ("specfun", "se_engine", "ee_engine", "power_models", "pas_engine", "mc_oracle", "cli")

# the in-repo bessel_i0e sums its power series up to this argument and uses
# the asymptotic expansion above it
I0E_SERIES_CUT = 18.0

# (defining module, function) pairs that get a span
TRACED = (
    ("specfun", "bessel_i0e"),
    ("specfun", "gauss_panels"),
    ("se_engine", "se"),
    ("se_engine", "entropy_y"),
    ("se_engine", "pdf_radial"),
    ("se_engine", "pdf_unclipped"),
    ("se_engine", "pdf_clipped"),
    ("se_engine", "pdf_unclipped_closed"),
    ("ee_engine", "ee_breakdown"),
    ("power_models", "pc_nonlinear"),
    ("pas_engine", "pas_frontier"),
    ("mc_oracle", "simulate_frames"),
    ("mc_oracle", "estimate_mi"),
    ("mc_oracle", "empirical_pdf_distance"),
    ("mc_oracle", "analytic_radial_cdf"),
    ("cli", "main"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, op, start, end, parent index or -1]
        self.counts = {}
        self.se_results = {}  # (xi, scenario, tol, method) -> se value
        self.overhead_s = 0.0
        self.op = 0
        self._stack = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- counting hooks: each is called with the wrapped call's arguments
    # before it runs and returns (the arguments to call with, a callable that
    # is handed the call's result or None)

    def _on_bessel_i0e(self, args, kwargs):
        x = np.abs(np.asarray(args[0], dtype=float))
        self.count("specfun.bessel_i0e.elements", x.size)
        self.count("specfun.bessel_i0e.series_elements", int(np.count_nonzero(x <= I0E_SERIES_CUT)))
        return args, None

    def _on_gauss_panels(self, args, kwargs):
        # count the integrand's evaluations and abscissae from outside; with
        # check=True every refinement costs two more evaluations
        f = args[0]
        evals = [0]

        def integrand(x):
            evals[0] += 1
            self.count("specfun.gauss_panels.nodes", np.size(x))
            return f(x)

        def done(_result):
            checked = kwargs.get("check", args[3] if len(args) > 3 else True)
            if checked:
                self.count("specfun.gauss_panels.refinements", max(0, evals[0] - 2) // 2)

        return (integrand,) + tuple(args[1:]), done

    def _on_pdf_unclipped(self, args, kwargs):
        self.count("se_engine.pdf_unclipped.radii", np.size(args[0]))
        return args, None

    def _on_se(self, args, kwargs):
        xi, scenario = args[0], args[1] if len(args) > 1 else kwargs["scenario"]
        key = (
            float(xi),
            scenario,
            kwargs.get("tol", args[2] if len(args) > 2 else 1e-8),
            kwargs.get("method", args[3] if len(args) > 3 else "integral"),
        )

        def done(result):
            self.se_results.setdefault(key, result)

        return args, done

    def _on_simulate_frames(self, args, kwargs):
        return args, lambda samples: self.count("mc_oracle.simulate_frames.samples", np.size(samples))

    def wrap(self, name, fn):
        hook = {
            "specfun.bessel_i0e": self._on_bessel_i0e,
            "specfun.gauss_panels": self._on_gauss_panels,
            "se_engine.pdf_unclipped": self._on_pdf_unclipped,
            "se_engine.se": self._on_se,
            "mc_oracle.simulate_frames": self._on_simulate_frames,
        }.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            self.count(name + ".calls")
            done = None
            if hook is not None:
                args, done = hook(args, kwargs)
            span = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[2], span[3] = t0, t1
            if done is not None:
                done(result)
            self.overhead_s += (t0 - t_enter) + (time.perf_counter() - t1)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at each binding that holds it."""
        import ofdmsee

        modules = [ofdmsee] + [importlib.import_module("ofdmsee." + m) for m in _MODULES]
        patched = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(importlib.import_module("ofdmsee." + mod_name), fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        patched.append((mod, fn_name, original))
            yield self
        finally:
            for mod, fn_name, original in reversed(patched):
                setattr(mod, fn_name, original)

    def self_times(self):
        """Total duration and self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, _op, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s = {}, {}
        for i, (name, _op, start, end, _parent) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        return total, self_s

    def write(self, path):
        """Write the spans as JSON, times relative to the first span."""
        t_base = self.spans[0][2] if self.spans else 0.0
        rows = [[n, op, s - t_base, e - t_base, p] for n, op, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "start_s", "end_s", "parent"], "spans": rows}, fh)


def layer_metrics(tracer, reference_se):
    """Per-layer metrics of one traced run.

    reference_se(gamma, xi) gives the independent SE; it is compared with
    every distinct se() call the run made.
    """
    total, self_s = tracer.self_times()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    elements = counts.get("specfun.bessel_i0e.elements", 0)
    put("specfun.bessel_i0e.calls", counts.get("specfun.bessel_i0e.calls", 0), "count")
    put("specfun.bessel_i0e.elements", elements, "count")
    put(
        "specfun.bessel_i0e.series_share",
        counts.get("specfun.bessel_i0e.series_elements", 0) / elements if elements else 0.0,
        "ratio",
    )
    put("specfun.bessel_i0e.self_s", self_s.get("specfun.bessel_i0e", 0.0), "s")
    for stat in ("calls", "nodes", "refinements"):
        put(f"specfun.gauss_panels.{stat}", counts.get(f"specfun.gauss_panels.{stat}", 0), "count")
    put("specfun.gauss_panels.self_s", self_s.get("specfun.gauss_panels", 0.0), "s")

    se_calls = counts.get("se_engine.se.calls", 0)
    unique = len(tracer.se_results)
    put("se_engine.se.calls", se_calls, "count")
    put("se_engine.se.unique", unique, "count")
    put("se_engine.se.repeat_share", 1.0 - unique / se_calls if se_calls else 0.0, "ratio")
    put("se_engine.se.total_s", total.get("se_engine.se", 0.0), "s")
    for fn in ("entropy_y", "pdf_unclipped", "pdf_clipped", "pdf_unclipped_closed"):
        put(f"se_engine.{fn}.self_s", self_s.get(f"se_engine.{fn}", 0.0), "s")
    put("se_engine.pdf_unclipped.radii", counts.get("se_engine.pdf_unclipped.radii", 0), "count")
    errors = [
        abs(value - reference_se(scenario.gamma, xi))
        for (xi, scenario, _tol, _method), value in tracer.se_results.items()
    ]
    put("se_engine.ref_max_abs_err", max(errors) if errors else 0.0, "b/s/Hz")

    put("ee_engine.ee_breakdown.self_s", self_s.get("ee_engine.ee_breakdown", 0.0), "s")
    put("power_models.pc_nonlinear.calls", counts.get("power_models.pc_nonlinear.calls", 0), "count")
    put("power_models.pc_nonlinear.self_s", self_s.get("power_models.pc_nonlinear", 0.0), "s")
    put("pas_engine.pas_frontier.calls", counts.get("pas_engine.pas_frontier.calls", 0), "count")
    put("pas_engine.pas_frontier.self_s", self_s.get("pas_engine.pas_frontier", 0.0), "s")
    put("pas_engine.pas_frontier.total_s", total.get("pas_engine.pas_frontier", 0.0), "s")
    for fn in ("simulate_frames", "estimate_mi", "empirical_pdf_distance", "analytic_radial_cdf"):
        put(f"mc_oracle.{fn}.self_s", self_s.get(f"mc_oracle.{fn}", 0.0), "s")
    put("mc_oracle.simulate_frames.samples", counts.get("mc_oracle.simulate_frames.samples", 0), "count")
    put("cli.main.self_s", self_s.get("cli.main", 0.0), "s")
    put("trace.overhead_s", tracer.overhead_s, "s")
    return out
