"""In-memory span tracer that wraps ptspectra's layers from outside.

`Tracer.installed()` replaces the module attributes listed in HOOKS with
wrappers that record a span (name, start, end, parent, operation id,
count) and restores the originals on exit. Callers inside the library look
these names up at call time, so the wrappers see every call without any
change to the library. `layer_metrics` turns the spans into the per-layer
figures the benchmark reports.
"""

import contextlib
import functools
import json
import time

import numpy as np

import ptspectra

FIELDS = ("name", "start", "end", "parent", "op", "count")


def _points(index):
    return lambda args, result: int(np.size(args[index]))


def _levels(args, result):
    return len(result)


_FAMILIES = ("eckart", "rpt", "hulthen")
_WAVE_POINTS = {"eckart": 2, "rpt": 2, "hulthen": 3}

# (module, attribute, span name, count taken from (args, result) or None)
HOOKS = (
    [("numeric", "verify_family", "numeric.solve", None),
     ("numeric", "build_hamiltonian", "numeric.build_hamiltonian", None),
     ("numeric", "residual", "numeric.residual", None),
     ("numeric", "pt_defect", "potentials.pt_defect", None),
     ("spectra", "power_along_path", "contour.power_along_path", None),
     ("spectra", "transport_wavefunction", "contour.transport_wavefunction", None),
     ("spectra", "jacobi_p_hyp", "special.jacobi_p_hyp", None),
     ("contour", "continuous_log", "contour.continuous_log", None),
     ("cli", "liouville_potential", "contour.liouville_potential", None),
     ("special", "jacobi_p_hyp", "special.jacobi_p_hyp", None),
     ("special", "jacobi_p_rec", "special.jacobi_p_rec", None),
     ("cli", "main", "cli.main", None)]
    + [(m, f"eval_{f}", "potentials.eval", _points(1))
       for m in ("numeric", "cli") for f in _FAMILIES]
    + [(m, f"{f}_spectrum", "spectra.enumerate", _levels)
       for m in ("spectra", "cli") for f in _FAMILIES]
    + [(m, f"{f}_wavefunction", "spectra.wavefunction", _points(_WAVE_POINTS[f]))
       for m in ("spectra", "cli") for f in _FAMILIES]
)


class Tracer:
    """Spans of the traced operations, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self._op, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, count):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = count
        self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, 0)
                raise
            self._close(idx, count(args, result) if count else 0)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every HOOKS attribute for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, count in HOOKS:
                module = getattr(ptspectra, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span "op" around one benchmark operation."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx, 0)
            self._op = None

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


# span names whose time, calls and counts are reported
TIMED = ("numeric.solve", "numeric.build_hamiltonian", "numeric.residual",
         "spectra.wavefunction", "spectra.enumerate", "contour.power_along_path",
         "contour.continuous_log", "contour.transport_wavefunction",
         "contour.liouville_potential", "special.jacobi_p_hyp", "special.jacobi_p_rec",
         "potentials.eval", "potentials.pt_defect", "cli.main")


def layer_metrics(tracer, n_ops, window, verdict, bytes_out):
    """Per-layer figures from the spans of `n_ops` traced operations.

    `.ms` and `.self_ms` are milliseconds per traced operation over all of
    them. Counts (`.calls`, points, levels, sweeps, bytes) are totals over
    the operations with id below `window`, which are the same for a given
    seed, so they repeat exactly; `verdict` and `bytes_out` summarise the
    outcomes of that window.
    """
    ms = dict.fromkeys(TIMED, 0.0)
    self_ms = dict.fromkeys(TIMED, 0.0)
    calls = dict.fromkeys(TIMED, 0)
    counted = dict.fromkeys(TIMED, 0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, op, count = span
        if name not in ms:
            continue
        ms[name] += (end - start) * 1e3 / n_ops
        self_ms[name] += own * 1e3 / n_ops
        if op < window:
            calls[name] += 1
            counted[name] += count

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("numeric.solve.ms", ms["numeric.solve"], "ms/op")
    put("numeric.solve.self_ms", self_ms["numeric.solve"], "ms/op")
    put("numeric.solve.calls", calls["numeric.solve"], "count")
    put("numeric.solve.sweeps", verdict["sweeps"], "count")
    put("numeric.solve.sweeps_per_level", verdict["sweeps_per_level"], "sweeps/level")
    put("numeric.grid_points", verdict["grid_points"], "points/level")
    put("numeric.level_pass_ratio", verdict["level_pass_frac"], "ratio")
    put("numeric.abs_dE_p50", verdict["abs_dE_p50"], "1")
    put("numeric.abs_dE_max", verdict["abs_dE_max"], "1")
    for name in ("numeric.build_hamiltonian", "numeric.residual", "spectra.wavefunction",
                 "contour.power_along_path", "contour.continuous_log",
                 "contour.transport_wavefunction", "contour.liouville_potential",
                 "special.jacobi_p_hyp", "special.jacobi_p_rec", "cli.main"):
        put(f"{name}.ms", ms[name], "ms/op")
        put(f"{name}.calls", calls[name], "count")
    put("spectra.wavefunction.points", counted["spectra.wavefunction"], "count")
    put("spectra.enumerate.ms", ms["spectra.enumerate"], "ms/op")
    put("spectra.enumerate.levels", counted["spectra.enumerate"], "count")
    put("potentials.eval.ms", ms["potentials.eval"], "ms/op")
    put("potentials.eval.points", counted["potentials.eval"], "count")
    put("potentials.pt_defect.ms", ms["potentials.pt_defect"], "ms/op")
    put("cli.self_ms", self_ms["cli.main"], "ms/op")
    put("cli.bytes_out", bytes_out, "bytes")
    return m
