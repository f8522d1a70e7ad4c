"""Spans around the calls into each layer of ``cavity_rpm``, from outside it.

:class:`Tracer` replaces the public functions named in :data:`LAYERS` by
wrappers wherever a ``cavity_rpm`` module binds them (its own namespace and
every ``from .x import f``), and each named validation check in
``validation.CHECKS``.  A wrapper records a span (name, start, end, parent)
and the work counts of the call.  Self time is a span's duration minus the
durations of its direct children, so each second of a traced pass lands in
exactly one layer; what no library span covers is the CLI's own time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, function); several functions may share a span name
LAYERS = (
    ("effective.build", "cavity_rpm.effective", "build_sector_hamiltonian"),
    ("effective.diagonalize", "cavity_rpm.effective", "diagonalize"),
    ("effective.spectra", "cavity_rpm.effective", "spectra_from_eigen"),
    ("rpm.resolvent", "cavity_rpm.rpm", "rpm_resolvent"),
    ("rpm.spectra", "cavity_rpm.rpm", "rpm_spectra"),
    ("core.synthesis", "cavity_rpm.core", "amplitude_from_lines"),
    ("core.broadening", "cavity_rpm.core", "smoothed_density"),
    ("dynamics.evolve", "cavity_rpm.dynamics", "evolve"),
    ("dynamics.first_transfer", "cavity_rpm.dynamics", "first_transfer_time"),
    ("harmonic.spectra", "cavity_rpm.harmonic", "harmonic_line_spectra"),
    ("entanglement.histogram", "cavity_rpm.entanglement", "sample_joint"),
    # the CLI scores N00N samples inside its private _noon_single today
    ("entanglement.score", "cavity_rpm.cli", "_noon_single"),
    ("entanglement.score", "cavity_rpm.entanglement", "noon_feasibility"),
    ("entanglement.score", "cavity_rpm.entanglement", "noon_score"),
    ("validation.run_checks", "cavity_rpm.validation", "run_checks"),
)


def _count_call(counts, name, args, result):
    """Work counts of one call, taken at the layer boundary."""
    if name == "effective.spectra":
        counts["effective.lines"] += len(result[0])
    elif name == "rpm.resolvent":
        b = result[1]
        counts["rpm.steps"] += np.size(b) * (args[0].n_photons // 2)
        counts["rpm.cross_zero"] += int(np.count_nonzero(np.asarray(b) == 0))
    elif name == "core.synthesis":
        counts["core.line_samples"] += len(args[0]) * len(result)
    elif name == "entanglement.histogram":
        counts["entanglement.samples"] += result.n_samples


class Tracer:
    """Records spans and counts while installed; single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        _count_call(self.counts, name, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        """Bind the wrappers into every loaded ``cavity_rpm`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cavity_rpm" or n.startswith("cavity_rpm.")]
        for name, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, value))
        checks = sys.modules["cavity_rpm.validation"].CHECKS
        for key, check in list(checks.items()):
            checks[key] = self._wrap(f"validation.{key}", check)
            self._undo.append((checks, key, check))

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)
