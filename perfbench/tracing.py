"""Span and count recorder for the traced run.

The program has no tracing of its own, so the traced run wraps the
layer entry points from outside: each wrapper replaces a function in the
module namespace through which the caller looks it up (``run_campaign``
calls ``hotbrownian.pipeline.fit_psd``, ``fit_psd`` calls
``hotbrownian.spectral.least_squares_gn``, and so on).  Spans stay in
memory; the per-layer metrics are sums over them, computed once the
traced round has ended.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from pathlib import Path

import hotbrownian.cli as cli
import hotbrownian.io as hio
import hotbrownian.pipeline as pipeline
import hotbrownian.spectral as spectral
import hotbrownian.thermometry as thermometry

# Functions whose spans make up ``pipeline.estimate_s``.
_ESTIMATE = ("calibrate", "extract_k", "classify_overheating",
             "hydrodynamic_radius", "fit_heating_law")


def _dir_size(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _trace_counts(args, trace) -> dict:
    return {"simulate.trace_calls": 1,
            "simulate.samples": trace.n_samples * len(trace.signals)}


def _welch_counts(args, psd) -> dict:
    return {"spectral.welch_calls": 1, "spectral.welch_segments": psd.segment_count}


def _fit_counts(args, fit) -> dict:
    return {"spectral.fit_calls": 1, "spectral.fit_bins": fit.n_points}


def _gn_counts(args, result) -> dict:
    return {"leastsq.gn_calls": 1, "leastsq.gn_iters": result.n_iter,
            "leastsq.gn_unconverged": int(not result.converged)}


def _esr_fit_counts(args, fit) -> dict:
    return {"thermometry.fit_esr_calls": 1,
            "thermometry.single_dip_fallbacks": int(fit.fallback_single_dip)}


def _entry_points():
    """(module, attribute, span name, counter) for every wrapped call.

    A counter maps ``(args, result)`` to a dict of counts to add.
    """
    points = [
        (pipeline, "run_campaign", "pipeline.run_campaign", None),
        (pipeline, "simulate_trace", "simulate.trace", _trace_counts),
        (pipeline, "simulate_esr", "simulate.esr",
         lambda args, spectrum: {"simulate.esr_calls": 1}),
        (pipeline, "welch_psd", "spectral.welch", _welch_counts),
        (pipeline, "fit_psd", "spectral.fit", _fit_counts),
        (spectral, "least_squares_gn", "leastsq.gn", _gn_counts),
        (thermometry, "least_squares_gn", "leastsq.gn", _gn_counts),
        (pipeline, "fit_esr", "thermometry.fit_esr", _esr_fit_counts),
        (pipeline, "temperature_from_esr", "thermometry.invert", None),
        (hio, "write_report", "io.write_report",
         lambda args, path: {"io.report_bytes": _dir_size(Path(path).parent)}),
        (cli, "main", "cli.main", None),
        (cli, "simulate_trace", "simulate.trace", _trace_counts),
        (cli, "write_trace", "io.write_trace",
         lambda args, sidecar: {"io.trace_bytes": os.path.getsize(args[1])}),
        (cli, "read_trace", "io.read_trace", None),
        (cli, "welch_psd", "spectral.welch", _welch_counts),
        (cli, "write_psd", "io.write_psd", None),
        (cli, "read_psd", "io.read_psd", None),
        (cli, "fit_psd", "spectral.fit", _fit_counts),
    ]
    points += [(pipeline, name, "pipeline.estimate", None) for name in _ESTIMATE]
    return points


class Tracer:
    """Records spans (name, parent, start, end) and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, parent index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, func, name, counter):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, parent, time.perf_counter(), None])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += int(value)
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, name, counter in _entry_points():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def busy(self, name: str) -> float:
        """Total duration [s] of the spans called ``name``."""
        return sum((end - start for n, _, start, end in self.spans if n == name), 0.0)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus that of their direct children."""
        own = {i for i, span in enumerate(self.spans) if span[0] == name}
        children = sum(end - start for _, parent, start, end in self.spans
                       if parent in own)
        return self.busy(name) - children

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        out = {
            "simulate.trace_s": self.busy("simulate.trace"),
            "simulate.esr_s": self.busy("simulate.esr"),
            "spectral.welch_s": self.busy("spectral.welch"),
            "spectral.fit_s": self.busy("spectral.fit"),
            "leastsq.gn_s": self.busy("leastsq.gn"),
            "thermometry.fit_esr_s": self.busy("thermometry.fit_esr"),
            "thermometry.invert_s": self.busy("thermometry.invert"),
            "pipeline.estimate_s": self.busy("pipeline.estimate"),
            "pipeline.self_s": self.self_time("pipeline.run_campaign"),
            "io.write_trace_s": self.busy("io.write_trace"),
            "io.read_trace_s": self.busy("io.read_trace"),
            "io.write_psd_s": self.busy("io.write_psd"),
            "io.read_psd_s": self.busy("io.read_psd"),
            "io.write_report_s": self.busy("io.write_report"),
            "cli.self_s": self.self_time("cli.main"),
        }
        for key in ("simulate.trace_calls", "simulate.samples", "simulate.esr_calls",
                    "spectral.welch_calls", "spectral.welch_segments",
                    "spectral.fit_calls", "spectral.fit_bins",
                    "leastsq.gn_calls", "leastsq.gn_iters", "leastsq.gn_unconverged",
                    "thermometry.fit_esr_calls", "thermometry.single_dip_fallbacks",
                    "io.trace_bytes", "io.report_bytes"):
            out[key] = self.counts[key]
        return out
