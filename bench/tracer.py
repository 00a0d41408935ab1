"""Span tracer installed around the package from outside.

`Tracer.install()` replaces every public function of the traced modules
(their ``__all__``) with a wrapper that records a span: name, start, end,
parent and self time.  The replacement is made in every package module
that holds the function, so calls made through ``from .x import f``
names are traced too.  Hot calls are counted, not spanned: the
time-dependent generators returned by the interaction-picture factories
(one call per midpoint step) and `hilbert.Operator` constructions.
Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "squid", "hamiltonians", "dynamics", "protocols", "verify",
           "hilbert", "feasibility")

_GENERATOR_FACTORIES = ("hamiltonians.h_int_full_factory",
                        "hamiltonians.h_int_rwa_factory")


class Tracer:

    def __init__(self):
        #: [name, start, end, parent, self_s, job, tag]
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.job = -1  # index of the job the next spans belong to
        self._seen_runs: set = set()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag=None) -> None:
        if not self._stack:
            # a new top-level call: re-runs are counted within one call
            self._seen_runs.clear()
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent, None,
                           self.job, tag])

    def _close(self) -> None:
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        span = self.spans[idx]
        dur = end - span[1]
        span[2], span[4] = end, dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def _spanned(self, fn, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(*label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _counted_generator(self, h):
        @functools.wraps(h)
        def generator(t):
            start = time.perf_counter()
            try:
                out = h(t)
            finally:
                dur = time.perf_counter() - start
                self.counts["hamiltonians.generator_evals"] += 1
                self.busy["hamiltonians.generator"] += dur
                if self._stack:
                    self._stack[-1][1] += dur
            self.counts["hamiltonians.generator_out_bytes.computed"] += \
                out.entries.size * out.entries.itemsize
            return out
        return generator

    # -- span names --------------------------------------------------------

    def _labeller(self, qualname: str, fn):
        """Function (args, kwargs) -> (span name, tag) for one wrapped
        function; the tag (schedule and Fock cutoff of an `execute` call)
        goes into the span file only."""
        if qualname == "cli.main":
            def label(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                cmd = next((a for a in argv or () if not a.startswith("-")),
                           "none")
                return f"cli.main.{cmd}", None
            return label
        if qualname == "squid.solve":
            def label(args, kwargs):
                n_levels = args[2] if len(args) > 2 else kwargs.get("n_levels", 3)
                checked = kwargs.get("check_convergence", True) and n_levels >= 2
                return ("squid.solve." + ("checked" if checked else "unchecked"),
                        None)
            return label
        if qualname == "protocols.execute":
            sig = inspect.signature(fn)

            def label(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                params = a["params"]
                if a["backend"] == "analytic":
                    kind = "analytic"
                elif params is not None and params.explicit_cavity:
                    kind = "cavity"
                else:
                    kind = "vacuum"
                psi = a["psi0"]
                key = (a["schedule"].steps, a["backend"], params, psi.dims,
                       psi.amplitudes.tobytes())
                self.counts["verify.execute_runs"] += 1
                if key in self._seen_runs:
                    self.counts["verify.execute_reruns"] += 1
                self._seen_runs.add(key)
                tag = a["schedule"].name
                if kind == "cavity":
                    tag += f"/fock{params.fock_cutoff}"
                return f"protocols.execute.{kind}", tag
            return label
        return lambda args, kwargs: (qualname, None)

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"squidqed.{m}") for m in MODULES}
        replacements = {}
        for mname, mod in mods.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn):
                    continue
                qualname = f"{mname}.{name}"
                if qualname in _GENERATOR_FACTORIES:
                    fn_wrapped = self._factory(fn, qualname)
                else:
                    fn_wrapped = self._spanned(fn, self._labeller(qualname, fn))
                replacements[id(fn)] = (fn, fn_wrapped)
        for mod in [m for n, m in sys.modules.items()
                    if n == "squidqed" or n.startswith("squidqed.")]:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

        operator = mods["hilbert"].Operator
        post_init = operator.__post_init__
        counts = self.counts

        def counted_post_init(op):
            counts["hilbert.operator_constructions"] += 1
            post_init(op)
        operator.__post_init__ = counted_post_init
        self._undo.append((operator, "__post_init__", post_init))

    def _factory(self, fn, qualname):
        spanned = self._spanned(fn, lambda args, kwargs: (qualname, None))

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self._counted_generator(spanned(*args, **kwargs))
        return factory

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """name -> {calls, busy_s, self_s, durations_s} over all spans."""
        agg = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                   "durations_s": []})
        for name, start, end, _parent, self_s, _job, _tag in self.spans:
            row = agg[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += self_s
            row["durations_s"].append(end - start)
        return agg

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "self_s", "job", "tag"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "busy_s": dict(self.busy)}, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> number) from one traced job list.
    Layers with no calls read 0."""
    agg = tracer.aggregate()
    counts, busy = tracer.counts, tracer.busy

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def busy_s(name):
        return agg[name]["busy_s"] if name in agg else 0.0

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def p50_ms(name):
        d = agg[name]["durations_s"] if name in agg else []
        return 1e3 * statistics.median(d) if d else 0.0

    out = {}
    for cmd in ("spectrum", "gate", "feasibility", "scan"):
        out[f"cli.main.{cmd}.self_s"] = self_s(f"cli.main.{cmd}")
    out["cli.main.calls"] = sum(calls(f"cli.main.{c}") for c in
                                ("spectrum", "gate", "feasibility", "scan"))
    for kind in ("checked", "unchecked"):
        out[f"squid.solve.{kind}.calls"] = calls(f"squid.solve.{kind}")
        out[f"squid.solve.{kind}.busy_s"] = busy_s(f"squid.solve.{kind}")
    out["squid.solve.checked.p50_ms"] = p50_ms("squid.solve.checked")
    out["squid.lambda_check.calls"] = calls("squid.lambda_check")
    out["squid.lambda_check.busy_s"] = busy_s("squid.lambda_check")
    out["hamiltonians.generator_evals"] = counts["hamiltonians.generator_evals"]
    out["hamiltonians.generator_busy_s"] = float(busy["hamiltonians.generator"])
    out["hamiltonians.generator_out_bytes.computed"] = \
        counts["hamiltonians.generator_out_bytes.computed"]
    out["verify.rwa_error_scan.calls"] = calls("verify.rwa_error_scan")
    out["verify.rwa_error_scan.busy_s"] = busy_s("verify.rwa_error_scan")
    out["verify.rwa_error_scan.self_s"] = self_s("verify.rwa_error_scan")
    out["dynamics.evolve_timedep.calls"] = calls("dynamics.evolve_timedep")
    out["dynamics.evolve_const.calls"] = calls("dynamics.evolve_const")
    for kind in ("analytic", "vacuum", "cavity"):
        name = f"protocols.execute.{kind}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy_s(name)
        out[f"{name}.p50_ms"] = p50_ms(name)
    for fn in ("check_truth_table", "computational_propagator",
               "photon_excursion", "dispersive_error_scan"):
        out[f"verify.{fn}.calls"] = calls(f"verify.{fn}")
        out[f"verify.{fn}.busy_s"] = busy_s(f"verify.{fn}")
    runs = counts["verify.execute_runs"]
    out["verify.execute_runs"] = runs
    out["verify.execute_reruns"] = counts["verify.execute_reruns"]
    out["verify.redundant_execute_frac"] = (
        counts["verify.execute_reruns"] / runs if runs else 0.0)
    out["hilbert.operator_constructions"] = \
        counts["hilbert.operator_constructions"]
    out["hilbert.matexp_unitary.calls"] = calls("hilbert.matexp_unitary")
    out["hilbert.matexp_unitary.busy_s"] = busy_s("hilbert.matexp_unitary")
    for fn in ("assess", "gate_time_estimate"):
        out[f"feasibility.{fn}.calls"] = calls(f"feasibility.{fn}")
        out[f"feasibility.{fn}.busy_s"] = busy_s(f"feasibility.{fn}")
    out["trace.spans"] = len(tracer.spans)
    return out
