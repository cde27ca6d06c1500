"""Spans recorded around calls into cumica's public functions.

The benchmark traces the package from outside: each traced function is
replaced by a wrapper in every module namespace where a caller looks it
up (``estimators`` imports names directly, ``simulation`` and ``cli``
keep functions in dispatch dicts), and the originals are put back when
the ``Tracer`` is closed.  Nothing inside ``src/`` is changed.

A span records its name, start, end, parent span and the job (trace id)
it belongs to.  Spans are kept in memory and written out at the end.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the
root's duration.
"""

import importlib
import time
import tracemalloc

# (span name, defining module, function name)
TRACED = [
    ("linalg.sym_eig", "cumica.linalg", "sym_eig"),
    ("linalg.polar_orthogonal", "cumica.linalg", "polar_orthogonal"),
    ("linalg.inv_sqrt_sym", "cumica.linalg", "inv_sqrt_sym"),
    ("linalg.joint_diagonalize", "cumica.linalg", "joint_diagonalize"),
    ("cumulants.standardize", "cumica.cumulants", "standardize"),
    ("cumulants.cum3_stack", "cumica.cumulants", "cum3_stack"),
    ("cumulants.cum4_stack", "cumica.cumulants", "cum4_stack"),
    ("cumulants.compound_matrices", "cumica.cumulants", "compound_matrices"),
    ("cumulants.fobi_matrix", "cumica.cumulants", "fobi_matrix"),
    ("estimators.deflation_pp", "cumica.estimators", "deflation_pp"),
    ("estimators.symmetric_pp", "cumica.estimators", "symmetric_pp"),
    ("estimators.compound_cumulant", "cumica.estimators", "compound_cumulant"),
    ("estimators.all_cumulant", "cumica.estimators", "all_cumulant"),
    ("distributions.sample_source", "cumica.distributions", "sample_source"),
    ("simulation.generate_ic_sample", "cumica.simulation",
     "generate_ic_sample"),
    ("simulation.mdi", "cumica.simulation", "mdi"),
    ("simulation.align_signed_permutation", "cumica.simulation",
     "align_signed_permutation"),
    ("simulation.monte_carlo_experiment", "cumica.simulation",
     "monte_carlo_experiment"),
    ("cli.run", "cumica.cli", "run"),
] + [  # the four variance tables share one span name
    ("asymptotics.asv_table", "cumica.asymptotics", fn)
    for fn in ("asv_deflation", "asv_symmetric", "asv_compound",
               "asv_allcumulant")
]

# Namespaces searched for references to the traced functions.
NAMESPACES = ("cumica", "cumica.linalg", "cumica.cumulants",
              "cumica.distributions", "cumica.asymptotics",
              "cumica.estimators", "cumica.simulation", "cumica.cli")

# sym_eig runs on joint_diagonalize; only the estimators' own calls are
# joint-diagonalization work, so the linalg-internal reference stays
# untraced and its time counts as sym_eig self time.
SKIP = {("cumica.linalg", "joint_diagonalize")}


def _estimate_counts(result):
    return {"iterations": sum(result.iterations),
            "restarts_used": result.restarts_used}


COUNTERS = {
    "linalg.joint_diagonalize": lambda res: {"sweeps": res.sweeps},
    "estimators.deflation_pp": _estimate_counts,
    "estimators.symmetric_pp": _estimate_counts,
    "estimators.compound_cumulant": _estimate_counts,
    "estimators.all_cumulant": _estimate_counts,
}

# Spans whose tracemalloc peak is recorded (tracemalloc runs only
# inside these calls).
PEAK_MEMORY = {"cumulants.cum4_stack"}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []     # [id, parent, trace, name, start, end]
        self.counts = {}    # (span name, counter) -> total
        self.peaks = {}     # span name -> largest peak in bytes
        self._stack = []
        self._trace = None
        self._undo = []

    def __enter__(self):
        # keyed by id: the originals stay alive in their modules
        wrappers = {}
        for name, modname, fn in TRACED:
            original = getattr(importlib.import_module(modname), fn)
            wrappers[id(original)] = self._wrap(name, original)
        for modname in NAMESPACES:
            namespace = vars(importlib.import_module(modname))
            for attr, value in list(namespace.items()):
                if id(value) in wrappers and (modname, attr) not in SKIP:
                    self._undo.append((namespace, attr, value))
                    namespace[attr] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]
        return self

    def __exit__(self, *exc):
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()
        return False

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        peak = name in PEAK_MEMORY

        def traced(*args, **kwargs):
            if peak and not tracemalloc.is_tracing():
                tracemalloc.start()
                try:
                    return self._call(name, fn, counter, args, kwargs)
                finally:
                    bytes_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0),
                                           bytes_peak)
            return self._call(name, fn, counter, args, kwargs)

        return traced

    def _call(self, name, fn, counter, args, kwargs):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                self._trace, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            for key, value in counter(result).items():
                self.counts[name, key] = self.counts.get((name, key), 0) + value
        return result

    def job(self, trace, name, fn):
        """Run one benchmark job as a root span with its own trace id."""
        self._trace = trace
        try:
            return self._call(name, fn, None, (), {})
        finally:
            self._trace = None


def self_times(spans):
    """Per-name totals of calls and self time, and the root durations."""
    child_time = [0.0] * len(spans)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls, self_s = {}, {}
    root_s = 0.0
    for sid, parent, _, name, start, end in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[sid]
        if parent is None:
            root_s += end - start
    return calls, self_s, root_s
